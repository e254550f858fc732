// Microbenchmark for the incremental max-min kernel (flowsim/max_min_kernel).
//
// Four properties are measured and enforced:
//   1. Reallocate cost: after a single-flow event, the incremental kernel
//      recomputes only the touched connected component, while the reference
//      path (preserved as the differential oracle) rebuilds the full
//      incidence and re-waterfills every active flow. At 1k active flows the
//      speed-up must be at least 5x.
//   2. Zero steady-state allocations: once warm, toggle/recompute cycles
//      perform no heap allocations at all — both at the kernel level and for
//      a full Sim driving ON-OFF churn (counted by interposing the global
//      operator new).
//   3. Event throughput under probe-train-shaped churn: many short flows
//      arriving and finishing (the shape cloud-layer packet trains and §6
//      transfer batches produce) must run no slower — in practice much
//      faster — than KernelMode::Reference, with auto-retire keeping memory
//      proportional to the live flow set.
//   4. Ground-truth views: an 8-VM ec2_2013 view from one batched
//      Cloud::true_path_rates_bps call (one background settle, one recorded
//      waterfill, a replay per pair) against the per-pair fresh simulations
//      it replaced (bench/true_rate_oracle.h). The batch must be at least
//      5x faster, settle and record exactly once per view, recompute the
//      kernel 0 times for its probes and match the per-pair rates bit for
//      bit.
//   5. What-if probes: on the same settled views, the 56 probes replayed
//      against one recorded waterfill (MaxMinKernel::WhatIf) against the
//      component recompute per probe they replaced (oracle_probe_rate). The
//      replay must be at least 3x faster per probe and match bit for bit.
//   6. Background settles: Cloud::traffic_snapshot (the fleet's fabric
//      template copied, flows routed through the cloud's router, ON-OFF
//      engines built only when a flow toggles) against the eager settle it
//      replaced (bench/settle_oracle.h). The snapshot must be at least 2x
//      faster and match the eager one bit for bit.
//
// `--smoke` runs a reduced sweep for CI; `--json[=PATH]` emits the metrics
// as a BenchJson document (gated by bench/check_bench_json.py in CI).

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include "bench_common.h"
#include "cloud/cloud.h"
#include "flowsim/max_min.h"
#include "flowsim/max_min_kernel.h"
#include "flowsim/sim.h"
#include "net/topology.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "settle_oracle.h"
#include "true_rate_oracle.h"
#include "util/rng.h"

// --- Global allocation counter -------------------------------------------
// Single-threaded binary: plain counters are enough. Counting (rather than
// forbidding) keeps the hot path measurable without crashing on the many
// legitimate allocations outside the steady-state window.
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

// A kernel instance shaped like the cloud layer's sharing graph: many small
// connected components (3 resources, `flows_per_comp` flows each — link,
// hose, vswitch is the typical triple).
struct ComponentInstance {
  flowsim::MaxMinKernel kernel{400e9};
  std::vector<double> caps;
  std::vector<std::vector<flowsim::ResourceId>> rows;  // per flow
  std::size_t n_flows = 0;

  ComponentInstance(std::size_t components, std::size_t flows_per_comp, Rng& rng) {
    for (std::size_t c = 0; c < components; ++c) {
      flowsim::ResourceId triple[3];
      for (auto& r : triple) {
        const double cap = rng.uniform(5e8, 2e9);
        r = kernel.add_resource(cap);
        caps.push_back(cap);
      }
      for (std::size_t f = 0; f < flows_per_comp; ++f) {
        rows.push_back({triple[0], triple[1], triple[2]});
        const std::size_t id = kernel.add_flow(rows.back().data(), rows.back().size());
        kernel.activate(id);
        ++n_flows;
      }
    }
    kernel.recompute();  // warm: scratch sized, labels clean
  }

  // The cost the reference path pays for the same event: rebuild the nested
  // incidence for every active flow and re-waterfill from scratch (this is
  // verbatim what Sim::reallocate_reference does).
  double reference_reallocate_us() const {
    const auto t0 = Clock::now();
    std::vector<std::vector<flowsim::ResourceId>> usage;
    usage.reserve(n_flows);
    for (const auto& row : rows) usage.push_back(row);
    const auto rates = flowsim::max_min_rates(caps, usage, 400e9);
    const double us = us_since(t0);
    if (rates.empty()) std::abort();  // keep the optimizer honest
    return us;
  }
};

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  BenchJson json("micro_flowsim");
  json.config("smoke", smoke ? "true" : "false");

  Rng rng(20130923);  // paper submission vintage

  header(std::string("Reallocate cost after a single-flow event") +
         (smoke ? " [smoke]" : ""));

  const std::vector<std::size_t> sweep =
      smoke ? std::vector<std::size_t>{100, 1000} : std::vector<std::size_t>{100, 1000, 10000};
  Table t({"active flows", "incremental (us)", "reference (us)", "speed-up",
           "region flows"});
  double speedup_at_1k = 0.0;
  for (std::size_t n : sweep) {
    const std::size_t flows_per_comp = 10;
    ComponentInstance inst(n / flows_per_comp, flows_per_comp, rng);

    // Median-ish: time a run of toggle->recompute cycles round-robin across
    // flows; each event dirties exactly one component.
    const int reps = smoke ? 50 : 200;
    const auto t0 = Clock::now();
    for (int i = 0; i < reps; ++i) {
      const std::size_t f = (static_cast<std::size_t>(i) * 37) % inst.n_flows;
      inst.kernel.deactivate(f);
      inst.kernel.recompute();
      inst.kernel.activate(f);
      inst.kernel.recompute();
    }
    const double incr_us = us_since(t0) / (2.0 * reps);
    const std::size_t region = inst.kernel.last_region_flows();

    const int ref_reps = n >= 10000 ? 3 : 10;
    double ref_us = 0.0;
    for (int i = 0; i < ref_reps; ++i) ref_us += inst.reference_reallocate_us();
    ref_us /= ref_reps;

    const double speedup = ref_us / incr_us;
    if (n == 1000) speedup_at_1k = speedup;
    t.add_row({fmt(static_cast<double>(n), 0), fmt(incr_us, 2), fmt(ref_us, 2),
               fmt(speedup, 1) + "x", fmt(static_cast<double>(region), 0)});
    json.row()
        .row("kind", "reallocate")
        .row("active_flows", static_cast<double>(n))
        .row("incremental_us", incr_us)
        .row("reference_us", ref_us)
        .row("speedup", speedup)
        .row("region_flows", static_cast<double>(region));
  }
  std::cout << t.to_string();
  check(speedup_at_1k >= 5.0,
        "component-scoped recompute is at least 5x faster than the reference "
        "rebuild at 1k active flows");

  header("Steady-state allocations");
  {
    ComponentInstance inst(smoke ? 10 : 100, 10, rng);
    // Warm one full toggle cycle so every scratch vector has seen its peak.
    inst.kernel.deactivate(0);
    inst.kernel.recompute();
    inst.kernel.activate(0);
    inst.kernel.recompute();

    const std::size_t before = g_alloc_count;
    for (int i = 0; i < 1000; ++i) {
      const std::size_t f = (static_cast<std::size_t>(i) * 37) % inst.n_flows;
      inst.kernel.deactivate(f);
      inst.kernel.recompute();
      inst.kernel.activate(f);
      inst.kernel.recompute();
    }
    const std::size_t kernel_allocs = g_alloc_count - before;
    std::cout << "kernel: " << kernel_allocs << " allocations across 2000 recomputes\n";
    check(kernel_allocs == 0, "warm kernel recomputes allocate nothing");
    json.row().row("kind", "alloc").row("scope", "kernel").row(
        "steady_state_allocs", static_cast<double>(kernel_allocs));
  }
  {
    // Full Sim: persistent ON-OFF flows toggling forever. After a warmup
    // window the event queue, kernel scratch, and flow table are all at
    // their peak sizes — advancing further must not allocate.
    net::TreeParams tp;
    tp.pods = 2;
    tp.racks_per_pod = 2;
    tp.hosts_per_rack = 4;
    const net::Topology topo = net::make_multi_rooted_tree(tp);
    const auto hosts = topo.nodes_of_kind(net::NodeKind::Host);
    const net::Router router(topo);
    flowsim::Sim sim(router);
    Rng trng(7);
    for (int i = 0; i < (smoke ? 32 : 128); ++i) {
      flowsim::FlowSpec spec;
      spec.src = hosts[static_cast<std::size_t>(trng.uniform_int(
          0, static_cast<std::int64_t>(hosts.size()) - 1))];
      spec.dst = hosts[static_cast<std::size_t>(trng.uniform_int(
          0, static_cast<std::int64_t>(hosts.size()) - 1))];
      spec.flow_key = static_cast<std::uint64_t>(i);
      sim.add_on_off_flow(spec, 0.5, 0.5, i % 2 == 0,
                          static_cast<std::uint64_t>(i) + 1);
    }
    sim.run_until(20.0);  // warmup: queue and scratch reach peak capacity
    const std::size_t before = g_alloc_count;
    sim.run_until(smoke ? 60.0 : 120.0);
    const std::size_t sim_allocs = g_alloc_count - before;
    std::cout << "sim: " << sim_allocs << " allocations across "
              << (smoke ? 40.0 : 100.0) << " s of simulated ON-OFF churn\n";
    check(sim_allocs == 0, "warm Sim event loop allocates nothing");
    json.row().row("kind", "alloc").row("scope", "sim").row(
        "steady_state_allocs", static_cast<double>(sim_allocs));
  }

  header(std::string("Probe-train-shaped churn: short flows, high turnover") +
         (smoke ? " [smoke]" : ""));
  {
    // Staggered short transfers (a few ms at link rate) — the pattern packet
    // trains and batched §6 transfers produce. Total flow count is large,
    // concurrent count small: exactly where indexing by *active* flows wins.
    net::TreeParams tp;
    tp.pods = 2;
    tp.racks_per_pod = 2;
    tp.hosts_per_rack = 4;
    const net::Topology topo = net::make_multi_rooted_tree(tp);
    const net::Router router(topo);
    const auto hosts = topo.nodes_of_kind(net::NodeKind::Host);
    const std::size_t n_churn = smoke ? 2000 : 20000;

    Table ct({"mode", "flows", "wall (ms)", "flows/s"});
    double incr_wall_ms = 0.0, ref_wall_ms = 0.0;
    for (const bool incremental : {true, false}) {
      flowsim::Sim sim(router, 400e9,
                       incremental ? flowsim::KernelMode::Incremental
                                   : flowsim::KernelMode::Reference);
      sim.set_auto_retire(incremental);  // reference predates retirement
      Rng crng(99);
      for (std::size_t i = 0; i < n_churn; ++i) {
        flowsim::FlowSpec spec;
        spec.src = hosts[static_cast<std::size_t>(crng.uniform_int(
            0, static_cast<std::int64_t>(hosts.size()) - 1))];
        spec.dst = hosts[static_cast<std::size_t>(crng.uniform_int(
            0, static_cast<std::int64_t>(hosts.size()) - 1))];
        spec.bytes = crng.uniform(1e5, 1e6);
        spec.start_time = crng.uniform(0.0, 60.0);
        spec.flow_key = static_cast<std::uint64_t>(i);
        sim.add_flow(spec);
      }
      const auto t0 = Clock::now();
      sim.run_to_completion(1e4);
      const double wall_ms = us_since(t0) / 1e3;
      (incremental ? incr_wall_ms : ref_wall_ms) = wall_ms;
      const double per_s = static_cast<double>(n_churn) / (wall_ms / 1e3);
      ct.add_row({incremental ? "incremental" : "reference",
                  fmt(static_cast<double>(n_churn), 0), fmt(wall_ms, 1),
                  fmt(per_s, 0)});
      json.row()
          .row("kind", "churn")
          .row("mode", incremental ? "incremental" : "reference")
          .row("flows", static_cast<double>(n_churn))
          .row("wall_ms", wall_ms)
          .row("flows_per_s", per_s);
    }
    std::cout << ct.to_string();
    check(incr_wall_ms <= ref_wall_ms,
          "incremental kernel handles churn no slower than the reference path");
  }

  header(std::string("Ground-truth view: one settle per view vs per-pair sims") +
         (smoke ? " [smoke]" : ""));
  {
    constexpr std::uint64_t kCloudSeed = 20130923;
    cloud::Cloud cloud(cloud::ec2_2013(), kCloudSeed);
    obs::Registry registry;
    obs::Observer observer;
    observer.metrics = &registry;
    cloud.set_observer(observer);
    const auto vms = cloud.allocate_vms(8);
    const auto pairs = all_ordered_pairs(vms);
    const std::uint64_t views = smoke ? 10 : 50;

    double per_pair_us = 0.0, batched_us = 0.0;
    std::size_t mismatches = 0;
    std::vector<double> per_pair(pairs.size());
    // What-if probes on the same settled views: the rows the batch solves,
    // replayed against one recording, and recomputed one probe at a time.
    double replay_us = 0.0, recompute_us = 0.0;
    std::uint64_t replay_recomputes = 0, oracle_recomputes = 0;
    std::size_t probe_mismatches = 0;
    std::vector<std::vector<flowsim::ResourceId>> rows(pairs.size());
    std::vector<double> replayed(pairs.size());
    for (std::uint64_t epoch = 1; epoch <= views; ++epoch) {
      auto t0 = Clock::now();
      for (std::size_t k = 0; k < pairs.size(); ++k) {
        per_pair[k] = oracle_true_rate(cloud, kCloudSeed, pairs[k].first, pairs[k].second,
                                       epoch)
                          .rate_bps;
      }
      per_pair_us += us_since(t0);
      t0 = Clock::now();
      const std::vector<double> batched = cloud.true_path_rates_bps(pairs, epoch);
      batched_us += us_since(t0);
      for (std::size_t k = 0; k < pairs.size(); ++k) {
        if (std::memcmp(&per_pair[k], &batched[k], sizeof(double)) != 0) ++mismatches;
      }

      const auto bundle = cloud.make_sim(epoch);
      bundle->sim.run_until(cloud::Cloud::kBackgroundSettleS);
      const flowsim::Sim& sim = bundle->sim;
      for (std::size_t k = 0; k < pairs.size(); ++k) {
        cloud.tenant_row(*bundle, pairs[k].first, pairs[k].second,
                         cloud_substream(kCloudSeed, epoch, 9), rows[k]);
      }
      const std::uint64_t settled_recomputes = sim.kernel().stats().recomputes;
      t0 = Clock::now();
      {
        const flowsim::MaxMinKernel::WhatIf what_if = sim.what_if();
        for (std::size_t k = 0; k < pairs.size(); ++k) {
          replayed[k] = what_if.rate(rows[k].data(), rows[k].size());
        }
      }
      replay_us += us_since(t0);
      replay_recomputes += sim.kernel().stats().recomputes - settled_recomputes;
      flowsim::MaxMinKernel scratch = sim.kernel();
      t0 = Clock::now();
      for (std::size_t k = 0; k < pairs.size(); ++k) {
        const double rate = oracle_probe_rate(scratch, rows[k].data(), rows[k].size());
        if (std::memcmp(&rate, &replayed[k], sizeof(double)) != 0 ||
            std::memcmp(&rate, &batched[k], sizeof(double)) != 0) {
          ++probe_mismatches;
        }
      }
      recompute_us += us_since(t0);
      oracle_recomputes += scratch.stats().recomputes - settled_recomputes;
    }
    const double n_views = static_cast<double>(views);
    per_pair_us /= n_views;
    batched_us /= n_views;
    const obs::MetricsSnapshot snap = registry.snapshot();
    const auto per_view = [&](const char* counter) {
      const auto* c = snap.find_counter(counter);
      return c ? static_cast<double>(c->value) / n_views : 0.0;
    };
    const double settles_per_view = per_view("flowsim.background_settles");
    const double traces_per_view = per_view("flowsim.what_if_traces");
    const double recomputes_per_view = static_cast<double>(replay_recomputes) / n_views;
    const double oracle_recomputes_per_view = static_cast<double>(oracle_recomputes) / n_views;
    const double speedup = per_pair_us / batched_us;

    Table vt({"pairs", "per-pair (us)", "batched (us)", "speed-up", "settles/view",
              "traces/view", "probe recomputes/view", "mismatches"});
    vt.add_row({fmt(static_cast<double>(pairs.size()), 0), fmt(per_pair_us, 1),
                fmt(batched_us, 1), fmt(speedup, 1) + "x", fmt(settles_per_view, 2),
                fmt(traces_per_view, 2), fmt(recomputes_per_view, 0),
                fmt(static_cast<double>(mismatches), 0)});
    std::cout << vt.to_string();
    json.row()
        .row("kind", "true_view")
        .row("pairs", static_cast<double>(pairs.size()))
        .row("views", n_views)
        .row("per_pair_us", per_pair_us)
        .row("batched_us", batched_us)
        .row("speedup", speedup)
        .row("settles_per_view", settles_per_view)
        .row("traces_per_view", traces_per_view)
        .row("recomputes_per_view", recomputes_per_view)
        .row("mismatches", static_cast<double>(mismatches));
    check(speedup >= 5.0, "a batched true view is at least 5x faster than per-pair sims");
    check(settles_per_view == 1.0, "a batched true view settles the background once");
    check(traces_per_view == 1.0, "a batched true view records one waterfill");
    check(recomputes_per_view == 0.0, "a true view's probes recompute the kernel 0 times");
    check(mismatches == 0, "batched true rates equal the per-pair rates bit for bit");

    header(std::string("What-if probes: one recorded waterfill vs a recompute per probe") +
           (smoke ? " [smoke]" : ""));
    const double probes = n_views * static_cast<double>(pairs.size());
    const double replay_per_probe = replay_us / probes;
    const double recompute_per_probe = recompute_us / probes;
    const double probe_speedup = recompute_us / replay_us;
    Table wt({"probes", "replay (us/probe)", "recompute (us/probe)", "speed-up",
              "recomputes/view", "oracle recomputes/view", "mismatches"});
    wt.add_row({fmt(probes, 0), fmt(replay_per_probe, 3), fmt(recompute_per_probe, 3),
                fmt(probe_speedup, 1) + "x", fmt(recomputes_per_view, 0),
                fmt(oracle_recomputes_per_view, 0),
                fmt(static_cast<double>(probe_mismatches), 0)});
    std::cout << wt.to_string();
    json.row()
        .row("kind", "what_if")
        .row("probes", probes)
        .row("replay_us_per_probe", replay_per_probe)
        .row("recompute_us_per_probe", recompute_per_probe)
        .row("speedup", probe_speedup)
        .row("recomputes_per_view", recomputes_per_view)
        .row("oracle_recomputes_per_view", oracle_recomputes_per_view)
        .row("mismatches", static_cast<double>(probe_mismatches));
    check(probe_speedup >= 3.0,
          "replaying one recorded waterfill is at least 3x faster per probe than a "
          "component recompute");
    check(probe_mismatches == 0, "replayed probes equal the component recompute bit for bit");
  }

  header(std::string("Background settle: traffic snapshot vs eager settle") +
         (smoke ? " [smoke]" : ""));
  {
    constexpr std::uint64_t kCloudSeed = 20130923;
    cloud::Cloud cloud(cloud::ec2_2013(), kCloudSeed);
    cloud.allocate_vms(8);
    const std::uint64_t settles = smoke ? 40 : 400;
    double eager_us = 0.0, snapshot_us = 0.0;
    std::size_t mismatches = 0;
    for (std::uint64_t epoch = 1; epoch <= settles; ++epoch) {
      auto t0 = Clock::now();
      const std::vector<double> eager = oracle_available_bps(cloud, kCloudSeed, epoch);
      eager_us += us_since(t0);
      t0 = Clock::now();
      const cloud::Cloud::TrafficSnapshot snap = cloud.traffic_snapshot(epoch);
      snapshot_us += us_since(t0);
      if (snap.available_bps.size() != eager.size() ||
          std::memcmp(snap.available_bps.data(), eager.data(),
                      eager.size() * sizeof(double)) != 0) {
        ++mismatches;
      }
    }
    eager_us /= static_cast<double>(settles);
    snapshot_us /= static_cast<double>(settles);
    const double speedup = eager_us / snapshot_us;

    Table st({"settles", "eager (us)", "snapshot (us)", "speed-up", "mismatches"});
    st.add_row({fmt(static_cast<double>(settles), 0), fmt(eager_us, 1), fmt(snapshot_us, 1),
                fmt(speedup, 1) + "x", fmt(static_cast<double>(mismatches), 0)});
    std::cout << st.to_string();
    json.row()
        .row("kind", "settle")
        .row("settles", static_cast<double>(settles))
        .row("eager_us", eager_us)
        .row("snapshot_us", snapshot_us)
        .row("speedup", speedup)
        .row("mismatches", static_cast<double>(mismatches));
    check(speedup >= 2.0, "a traffic snapshot is at least 2x faster than the eager settle");
    check(mismatches == 0, "traffic snapshots equal the eager settle bit for bit");
  }

  const std::string json_path = json_path_from_args(argc, argv, "micro_flowsim");
  if (!json_path.empty()) json.write(json_path);
  return finish();
}
