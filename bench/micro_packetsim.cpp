// Microbenchmark for the event-free packet-train pass (packetsim/train_pass).
//
// On the paper-shape train (§3.1: K=10 bursts of B=200 packets, through a
// token-bucket hose and 6 FIFO hops) it reports the event path's events per
// train and ns per event, the pass's us per train, and the pass's warm heap
// allocations per train (counted by interposing the global operator new).
// Over a random corpus of shaper/hop chains it reports how often the pass
// falls back to the event path at a tie instant, and checks every decided
// train bit-identical to the event path.
//
// Gates: the pass must be at least 10x faster than the event path in the
// same process, and allocate at most once per warm train (the returned
// record vector).
//
// `--smoke` runs fewer repetitions and a smaller corpus for CI;
// `--json[=PATH]` emits the metrics as a BenchJson document (gated by
// bench/check_bench_json.py in CI).

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include "bench_common.h"
#include "packetsim/event_queue.h"
#include "packetsim/path.h"
#include "packetsim/sink.h"
#include "packetsim/train_pass.h"
#include "packetsim/udp_train.h"
#include "train_corpus.h"
#include "util/rng.h"

// --- Global allocation counter -------------------------------------------
// Single-threaded binary: a plain counter is enough.
namespace {
std::size_t g_alloc_count = 0;
}

void* operator new(std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace choreo;
using namespace choreo::bench;
using Clock = std::chrono::steady_clock;

double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

/// An EC2-like inter-host train: shallow hose bucket below the vNIC rate,
/// then host -> ToR -> aggregation -> core -> aggregation -> ToR -> host.
packetsim::TrainSpec paper_train() {
  packetsim::TrainSpec spec;
  spec.shaper.enabled = true;
  spec.shaper.rate_bps = 950e6;
  spec.shaper.depth_bytes = 8e3;
  spec.shaper.idle_reset_s = 0.5e-3;
  for (const double rate : {10e9, 10e9, 40e9, 40e9, 10e9, 10e9}) {
    spec.hops.push_back(packetsim::HopSpec{rate, 20e-6, 2e6});
  }
  spec.params.line_rate_bps = 4e9;
  spec.timestamp_jitter_s = 10e-6;
  spec.sink_seed = 42;
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  BenchJson json("micro_packetsim");
  json.config("smoke", smoke ? "true" : "false");

  const packetsim::TrainSpec spec = paper_train();
  const std::size_t packets =
      static_cast<std::size_t>(spec.params.bursts) * spec.params.burst_length;
  header(std::string("Paper-shape train: shaper + 6 hops, ") + std::to_string(packets) +
         " packets" + (smoke ? " [smoke]" : ""));

  // Event path, built exactly as run_train_events builds it but stepped by
  // hand to count events.
  const int event_reps = smoke ? 15 : 60;
  std::vector<double> event_us;
  std::size_t events_per_train = 0;
  packetsim::TrainRecords event_records;
  for (int r = 0; r < event_reps; ++r) {
    const auto t0 = Clock::now();
    packetsim::EventQueue events;
    packetsim::RecordingSink sink(spec.timestamp_jitter_s, spec.sink_seed);
    packetsim::Path path(events, spec.shaper, spec.hops, &sink);
    packetsim::send_train(events, path.entry(), spec.params, /*flow_id=*/1,
                          /*start_time=*/0.0);
    std::size_t n = 0;
    while (events.step()) ++n;
    event_us.push_back(us_since(t0));
    events_per_train = n;
    if (r == 0) event_records = sink.records();
  }
  const double event_train_us = median(event_us);
  const double ns_per_event = event_train_us * 1e3 / static_cast<double>(events_per_train);

  // Pass: one warm-up call sizes the per-thread scratch.
  const std::optional<packetsim::TrainRecords> first = packetsim::run_train_pass(spec);
  const bool identical = first && same_records(*first, event_records);
  const int pass_reps = smoke ? 300 : 2000;
  std::vector<double> pass_us;
  pass_us.reserve(static_cast<std::size_t>(pass_reps));
  const std::size_t allocs_before = g_alloc_count;
  std::size_t delivered = 0;
  for (int r = 0; r < pass_reps; ++r) {
    const auto t0 = Clock::now();
    const std::optional<packetsim::TrainRecords> records = packetsim::run_train_pass(spec);
    pass_us.push_back(us_since(t0));
    delivered += records ? records->size() : 0;
  }
  const double allocs_per_train = static_cast<double>(g_alloc_count - allocs_before) / pass_reps;
  const double pass_train_us = median(pass_us);
  const double speedup = event_train_us / pass_train_us;

  Table t({"path", "us/train", "events/train", "ns/event", "warm allocs/train"});
  t.add_row({"event simulator", fmt(event_train_us, 1),
             fmt(static_cast<double>(events_per_train), 0), fmt(ns_per_event, 1), "-"});
  t.add_row({"event-free pass", fmt(pass_train_us, 1), "-", "-", fmt(allocs_per_train, 2)});
  std::cout << t.to_string();
  std::cout << "speed-up " << fmt(speedup, 1) << "x, " << event_records.size()
            << " records per train, " << delivered / static_cast<std::size_t>(pass_reps)
            << " from the pass\n";
  json.row()
      .row("kind", "paper_train")
      .row("packets", static_cast<double>(packets))
      .row("events_per_train", static_cast<double>(events_per_train))
      .row("event_us_per_train", event_train_us)
      .row("event_ns_per_event", ns_per_event)
      .row("pass_us_per_train", pass_train_us)
      .row("pass_warm_allocs_per_train", allocs_per_train)
      .row("speedup", speedup);
  check(identical, "the pass reproduces the event path's records bit for bit");
  check(speedup >= 10.0, "the pass is at least 10x faster than the event path");
  check(allocs_per_train <= 1.0, "a warm pass allocates at most once per train");

  header(std::string("Random corpus: fallback fraction") + (smoke ? " [smoke]" : ""));
  const int cases = smoke ? 500 : 3000;
  Rng rng(20130923);
  int fallbacks = 0, mismatches = 0;
  for (int c = 0; c < cases; ++c) {
    const packetsim::TrainSpec random = random_train_spec(rng);
    const std::optional<packetsim::TrainRecords> pass = packetsim::run_train_pass(random);
    if (!pass) {
      ++fallbacks;
      continue;
    }
    mismatches += !same_records(*pass, packetsim::run_train_events(random));
  }
  const double fallback_frac = static_cast<double>(fallbacks) / cases;
  std::cout << cases << " trains, " << fallbacks << " fell back to the event path ("
            << fmt(100.0 * fallback_frac, 1) << "%), " << mismatches << " mismatches\n";
  json.row()
      .row("kind", "corpus")
      .row("cases", static_cast<double>(cases))
      .row("fallbacks", static_cast<double>(fallbacks))
      .row("fallback_frac", fallback_frac)
      .row("mismatches", static_cast<double>(mismatches));
  check(mismatches == 0, "every decided corpus train is bit-identical to the event path");

  const std::string json_path = json_path_from_args(argc, argv, "micro_packetsim");
  if (!json_path.empty()) json.write(json_path);
  return finish();
}
