#include "packetsim/train_pass.h"

#include <algorithm>

#include "packetsim/event_queue.h"
#include "util/require.h"

namespace choreo::packetsim {
namespace {

constexpr std::uint64_t kTrainFlow = 1;

/// Per-thread buffers reused across trains, so a warm pass allocates only
/// the records it returns.
struct Scratch {
  std::vector<double> times;         ///< per surviving packet: arrival at the current element
  std::vector<std::uint64_t> seqs;   ///< per surviving packet: its train sequence number
  std::vector<double> done;          ///< per admitted packet at the current hop: departure
};

/// Token-bucket shaper (TokenBucket::receive/pump, expression for
/// expression): replaces each arrival time in `times[0, n)` by the packet's
/// release time. The queued packets are always the index range
/// [head, next): FIFO, one packet size. Arrivals and the single outstanding
/// wake-up form two streams merged in time order; arrivals win ties, as
/// send_train schedules them before any wake-up exists and so gives them
/// the lower sequence number.
void shape(const ShaperSpec& shaper, double wire, double* times, std::size_t n,
           TrainPassTally& tally) {
  const double rate_bps = shaper.rate_bps;
  const double depth_bytes = shaper.depth_bytes;
  const double idle_reset_s = shaper.idle_reset_s;

  double tokens = depth_bytes;
  double last_update = 0.0;
  double last_activity = -1.0;
  std::size_t head = 0, next = 0;
  bool draining = false;
  double wake = 0.0;

  const auto refill = [&](double now) {
    if (idle_reset_s >= 0.0 && last_activity >= 0.0 && now - last_activity >= idle_reset_s &&
        head == next) {
      tokens = depth_bytes;
    } else {
      tokens = std::min(depth_bytes, tokens + rate_bps / 8.0 * (now - last_update));
    }
    last_update = now;
  };
  const auto pump = [&](double now) {
    refill(now);
    last_activity = now;
    while (head < next && tokens + TokenBucket::kByteTolerance >= wire) {
      tokens = std::max(0.0, tokens - wire);
      times[head++] = now;  // head < next: arrival `head` was already read
    }
    draining = head < next;
    if (!draining) return;
    const double deficit = wire - tokens;
    const double wait = deficit * 8.0 / rate_bps + TokenBucket::kWakeSlackS;
    wake = now + wait;
  };

  for (;;) {
    if (next < n && (!draining || times[next] <= wake)) {
      const double now = times[next];
      refill(now);  // sees the queue before this packet joins it
      last_activity = now;
      ++next;
      if (!draining) pump(now);
    } else if (draining) {
      ++tally.wakeups;
      pump(wake);
    } else {
      break;
    }
  }
}

/// One FIFO drop-tail hop (Link): turns the arrival times in `times[0, n)`
/// into arrival times at the next element, dropping packets in place.
/// Returns the surviving count, or nullopt at an undecidable tie.
std::optional<std::size_t> hop(const HopSpec& spec, double wire, Scratch& s, std::size_t n,
                               TrainPassTally& tally) {
  const double tx = wire * 8.0 / spec.rate_bps;
  std::vector<double>& done = s.done;
  done.clear();
  std::size_t front = 0;  // done[front, end) are admitted and not yet departed
  double queued = 0.0;    // their bytes, including the one in service
  std::size_t out = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double a = s.times[i];
    while (front < done.size() && done[front] < a) {
      queued -= wire;
      ++front;
    }
    const bool busy = front < done.size();
    const bool drop = busy && queued + wire > spec.queue_bytes;
    // Departures at exactly `a` may run before or after this arrival,
    // depending on global event order; the start time is the same either
    // way, so only a differing drop decision is undecidable.
    std::size_t ties = front;
    double queued_after = queued;
    while (ties < done.size() && done[ties] == a) {
      queued_after -= wire;
      ++ties;
    }
    if (ties > front) {
      const bool drop_after = ties < done.size() && queued_after + wire > spec.queue_bytes;
      if (drop != drop_after) return std::nullopt;
      ++tally.agreed_ties;
    }
    if (drop) {
      ++tally.drops;
      continue;
    }
    const double start = busy ? done.back() : a;
    const double departure = start + tx;
    done.push_back(departure);
    queued += wire;
    s.times[out] = departure + spec.delay_s;
    s.seqs[out] = s.seqs[i];
    ++out;
  }
  return out;
}

}  // namespace

TrainRecords run_train_events(const TrainSpec& spec) {
  EventQueue events;
  RecordingSink sink(spec.timestamp_jitter_s, spec.sink_seed);
  Path path(events, spec.shaper, spec.hops, &sink);
  send_train(events, path.entry(), spec.params, kTrainFlow, /*start_time=*/0.0);
  events.run();
  return sink.records();
}

std::optional<TrainRecords> run_train_pass(const TrainSpec& spec, TrainPassTally* tally) {
  // The preconditions of Path, Link, TokenBucket and send_train.
  const TrainParams& params = spec.params;
  CHOREO_REQUIRE(!spec.hops.empty() || spec.shaper.enabled);
  for (const HopSpec& h : spec.hops) {
    CHOREO_REQUIRE(h.rate_bps > 0.0);
    CHOREO_REQUIRE(h.delay_s >= 0.0);
    CHOREO_REQUIRE(h.queue_bytes >= 0.0);
  }
  if (spec.shaper.enabled) {
    CHOREO_REQUIRE(spec.shaper.rate_bps > 0.0);
    CHOREO_REQUIRE(spec.shaper.depth_bytes > 0.0);
  }
  CHOREO_REQUIRE(params.bursts >= 1 && params.burst_length >= 2);
  CHOREO_REQUIRE(params.packet_bytes >= 1);
  CHOREO_REQUIRE(params.line_rate_bps > 0.0);
  if (!(params.inter_burst_gap_s >= 0.0)) return std::nullopt;

  TrainPassTally local;
  TrainPassTally& t = tally ? *tally : local;
  thread_local Scratch s;

  // Emission times, accumulated exactly as send_train accumulates them.
  const std::uint32_t wire_bytes = params.packet_bytes + params.header_bytes;
  const double wire = wire_bytes;
  const double spacing = wire * 8.0 / params.line_rate_bps;
  std::size_t n = static_cast<std::size_t>(params.bursts) * params.burst_length;
  s.times.resize(n);
  s.seqs.resize(n);
  double time = 0.0;
  std::size_t i = 0;
  for (std::uint32_t k = 0; k < params.bursts; ++k) {
    for (std::uint32_t j = 0; j < params.burst_length; ++j, ++i) {
      s.times[i] = time;
      s.seqs[i] = i;
      time += spacing;
    }
    time += params.inter_burst_gap_s;
  }

  if (spec.shaper.enabled) shape(spec.shaper, wire, s.times.data(), n, t);
  for (const HopSpec& h : spec.hops) {
    const std::optional<std::size_t> survivors = hop(h, wire, s, n, t);
    if (!survivors) return std::nullopt;
    n = *survivors;
  }

  // RecordingSink::receive, packet by packet in delivery order.
  Rng rng(spec.sink_seed);
  TrainRecords records;
  records.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    double at = s.times[k];
    if (spec.timestamp_jitter_s > 0.0) at += rng.normal(0.0, spec.timestamp_jitter_s);
    if (!records.empty()) at = std::max(at, records.back().time);
    const std::uint64_t seq = s.seqs[k];
    records.push_back(RecordingSink::Record{kTrainFlow, seq,
                                            static_cast<std::uint32_t>(seq / params.burst_length),
                                            wire_bytes, at});
  }
  return records;
}

}  // namespace choreo::packetsim
