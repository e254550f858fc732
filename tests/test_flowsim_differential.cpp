// Differential battery for the incremental max-min kernel (PR 9).
//
// Layer 1 pins MaxMinKernel bit-identical (exact double equality) to the
// preserved reference waterfill `max_min_rates` over randomized operation
// sequences: activations, deactivations, capacity changes, zero-capacity
// resources, empty and duplicate-entry rows — after *every* recompute, every
// active flow's rate must equal a from-scratch oracle run, which is exactly
// the property component-scoped recomputation must not break.
//
// Layer 2 pins a KernelMode::Incremental Sim bit-identical to a
// KernelMode::Reference twin driven by the same event schedule: rates,
// bytes, completion times, sampler outputs, link loads, makespans.
//
// Layer 3 covers the structural mechanics directly: component splits being
// rediscovered, scoped regions staying small, row retirement/compaction.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "flowsim/max_min.h"
#include "flowsim/max_min_kernel.h"
#include "flowsim/sim.h"
#include "net/topology.h"
#include "util/require.h"
#include "util/rng.h"

namespace choreo::flowsim {
namespace {

using net::NodeId;
using net::NodeKind;
using net::Topology;

// ---------------------------------------------------------------------------
// Layer 1: kernel vs oracle over a randomized op corpus.
// ---------------------------------------------------------------------------

struct KernelCoverage {
  int zero_cap_instances = 0;
  int deactivations = 0;
  int scoped_recomputes = 0;  // region strictly smaller than the active set
  int empty_rows = 0;
  int duplicate_entries = 0;
  int capacity_changes = 0;
};

// Corpus body, shared between the per-seed parameterized tests (granular
// failure localization) and the coverage test (which re-runs the whole seed
// range in one process — tests run in separate processes under ctest, so
// cross-test global accumulation would never observe the corpus).
void run_kernel_corpus(std::uint64_t seed, KernelCoverage& cov) {
  Rng rng(seed * 7919 + 13);
  const double unconstrained = 1e12;
  MaxMinKernel kernel(unconstrained);

  const std::size_t n_res = static_cast<std::size_t>(rng.uniform_int(2, 12));
  std::vector<double> caps;
  bool has_zero = false;
  for (std::size_t r = 0; r < n_res; ++r) {
    const double roll = rng.uniform(0.0, 1.0);
    double c;
    if (roll < 0.15) {
      c = 0.0;  // dead resource: everything crossing it rates at zero
      has_zero = true;
    } else if (roll < 0.55) {
      // Quantized capacities force share ties, exercising the lowest-id
      // bottleneck tie-break.
      c = 1e9 * static_cast<double>(rng.uniform_int(1, 3));
    } else {
      c = rng.uniform(1e8, 1e10);
    }
    caps.push_back(c);
    kernel.add_resource(c);
  }
  if (has_zero) ++cov.zero_cap_instances;

  std::vector<std::vector<ResourceId>> rows;  // test-side mirror, per flow id
  std::vector<char> active;

  const auto compare_to_oracle = [&] {
    const std::vector<std::size_t>& region = kernel.recompute();
    std::vector<std::vector<ResourceId>> usage;
    std::vector<std::size_t> ids;
    for (std::size_t f = 0; f < rows.size(); ++f) {
      if (!active[f]) continue;
      usage.push_back(rows[f]);
      ids.push_back(f);
    }
    if (!region.empty() && region.size() < ids.size()) ++cov.scoped_recomputes;
    const std::vector<double> expect = max_min_rates(caps, usage, unconstrained);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      // Exact equality: the kernel must reproduce the oracle's arithmetic
      // bit for bit, including for flows outside the recomputed region.
      EXPECT_EQ(kernel.rate(ids[i]), expect[i])
          << "flow " << ids[i] << " of " << ids.size() << " active (seed "
          << seed << ")";
    }
    // The active index itself must match the mirror.
    EXPECT_EQ(kernel.active_flows(), ids);
  };

  for (int step = 0; step < 80; ++step) {
    const double op = rng.uniform(0.0, 1.0);
    if (op < 0.45 || rows.empty()) {
      // New flow: up to 4 row entries, occasionally duplicated.
      const std::size_t k = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(std::min<std::size_t>(4, n_res))));
      std::vector<ResourceId> row;
      for (std::size_t j = 0; j < k; ++j) {
        row.push_back(static_cast<ResourceId>(
            rng.uniform_int(0, static_cast<std::int64_t>(n_res) - 1)));
        if (!row.empty() && rng.chance(0.1)) {
          row.push_back(row.front());
          ++cov.duplicate_entries;
        }
      }
      if (row.empty()) ++cov.empty_rows;
      const std::size_t id = kernel.add_flow(row.data(), row.size());
      ASSERT_EQ(id, rows.size());
      rows.push_back(std::move(row));
      active.push_back(0);
      if (rng.chance(0.85)) {
        kernel.activate(id);
        active[id] = 1;
      }
    } else if (op < 0.75) {
      // Toggle a random flow.
      const std::size_t f = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(rows.size()) - 1));
      if (active[f]) {
        kernel.deactivate(f);
        active[f] = 0;
        ++cov.deactivations;
      } else {
        kernel.activate(f);
        active[f] = 1;
      }
    } else {
      // Re-provision a resource (sometimes to zero).
      const auto r = static_cast<ResourceId>(
          rng.uniform_int(0, static_cast<std::int64_t>(n_res) - 1));
      const double c = rng.chance(0.1) ? 0.0 : rng.uniform(1e8, 1e10);
      caps[r] = c;
      kernel.set_capacity(r, c);
      ++cov.capacity_changes;
    }
    compare_to_oracle();
  }
}

constexpr std::uint64_t kKernelSeeds = 40;

class KernelVsOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KernelVsOracle, EveryRecomputeMatchesFromScratchOracle) {
  KernelCoverage cov;
  run_kernel_corpus(GetParam(), cov);
}

INSTANTIATE_TEST_SUITE_P(RandomOpSequences, KernelVsOracle,
                         ::testing::Range<std::uint64_t>(0, kKernelSeeds));

TEST(KernelVsOracleCoverage, CorpusExercisesTheInterestingPaths) {
  KernelCoverage cov;
  for (std::uint64_t seed = 0; seed < kKernelSeeds; ++seed) run_kernel_corpus(seed, cov);
  EXPECT_GT(cov.zero_cap_instances, 0);
  EXPECT_GT(cov.deactivations, 0);
  EXPECT_GT(cov.scoped_recomputes, 0);
  EXPECT_GT(cov.empty_rows, 0);
  EXPECT_GT(cov.duplicate_entries, 0);
  EXPECT_GT(cov.capacity_changes, 0);
}

// ---------------------------------------------------------------------------
// Layer 2: incremental Sim vs reference Sim on one event schedule.
// ---------------------------------------------------------------------------

struct Probe {
  double t = 0.0;
  std::size_t active = 0;
  std::vector<double> rates;
  bool operator==(const Probe& o) const {
    return t == o.t && active == o.active && rates == o.rates;
  }
};

struct SimCoverage {
  int toggles_on = 0;
  int rate_caps = 0;
  int same_host_flows = 0;
  int finishes = 0;
  int hose_flows = 0;
};
void run_sim_corpus(std::uint64_t corpus_seed, SimCoverage& cov) {
  Rng rng(corpus_seed * 104729 + 7);

  net::TreeParams tp;
  tp.pods = static_cast<std::size_t>(rng.uniform_int(1, 2));
  tp.racks_per_pod = static_cast<std::size_t>(rng.uniform_int(1, 3));
  tp.hosts_per_rack = static_cast<std::size_t>(rng.uniform_int(2, 3));
  tp.host_link_bps = 1e9;
  tp.agg_link_bps = rng.chance(0.5) ? 2e9 : 10e9;  // sometimes oversubscribed
  const Topology topo = net::make_multi_rooted_tree(tp);
  const std::vector<NodeId> hosts = topo.nodes_of_kind(NodeKind::Host);

  const net::Router router(topo);
  Sim inc(router, 400e9, KernelMode::Incremental);
  Sim ref(router, 400e9, KernelMode::Reference);

  // A few hose-style extra resources, mirrored into both sims.
  std::vector<ResourceId> hoses;
  const std::size_t n_hoses = static_cast<std::size_t>(rng.uniform_int(1, 4));
  for (std::size_t h = 0; h < n_hoses; ++h) {
    const double cap = rng.uniform(2e8, 2e9);
    hoses.push_back(inc.add_resource(cap));
    ASSERT_EQ(ref.add_resource(cap), hoses.back());
  }

  const auto random_spec = [&](double earliest) {
    FlowSpec spec;
    spec.src = hosts[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(hosts.size()) - 1))];
    spec.dst = hosts[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(hosts.size()) - 1))];
    if (spec.src == spec.dst) ++cov.same_host_flows;
    spec.start_time = earliest + rng.uniform(0.0, 3.0);
    spec.flow_key = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20));
    if (rng.chance(0.5)) {
      spec.extra_resources.push_back(hoses[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(hoses.size()) - 1))]);
      ++cov.hose_flows;
    }
    if (rng.chance(0.3)) {
      spec.rate_cap = rng.uniform(5e7, 5e8);
      ++cov.rate_caps;
    }
    return spec;
  };

  std::vector<FlowId> watched;
  const auto add_finite_pair = [&](double earliest) {
    FlowSpec spec = random_spec(earliest);
    spec.bytes = rng.uniform(1e6, 3e8);
    const FlowId a = inc.add_flow(spec);
    const FlowId b = ref.add_flow(spec);
    ASSERT_EQ(a, b);
    watched.push_back(a);
  };
  const auto add_onoff_pair = [&](double earliest) {
    FlowSpec spec = random_spec(earliest);
    const double mean_on = rng.uniform(0.2, 1.5);
    const double mean_off = rng.uniform(0.2, 1.5);
    const bool start_on = rng.chance(0.5);
    const auto seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 30));
    if (start_on) ++cov.toggles_on;
    const FlowId a = inc.add_on_off_flow(spec, mean_on, mean_off, start_on, seed);
    const FlowId b = ref.add_on_off_flow(spec, mean_on, mean_off, start_on, seed);
    ASSERT_EQ(a, b);
    watched.push_back(a);
  };

  const int n_finite = static_cast<int>(rng.uniform_int(6, 18));
  const int n_onoff = static_cast<int>(rng.uniform_int(2, 6));
  for (int i = 0; i < n_finite; ++i) add_finite_pair(0.0);
  for (int i = 0; i < n_onoff; ++i) add_onoff_pair(0.0);

  std::vector<Probe> inc_probes, ref_probes;
  const auto attach_recorder = [&watched](Sim& sim, std::vector<Probe>& out) {
    sim.add_sampler(0.1, 0.2, [&sim, &out, &watched](double t) {
      Probe p;
      p.t = t;
      p.active = sim.active_flow_count();
      p.rates.reserve(watched.size());
      for (FlowId f : watched) p.rates.push_back(sim.flow(f).rate_bps);
      out.push_back(p);
    });
  };
  attach_recorder(inc, inc_probes);
  attach_recorder(ref, ref_probes);

  const auto compare_states = [&] {
    ASSERT_EQ(inc.flow_count(), ref.flow_count());
    for (FlowId f = 0; f < inc.flow_count(); ++f) {
      const FlowState& a = inc.flow(f);
      const FlowState& b = ref.flow(f);
      EXPECT_EQ(a.started, b.started) << "flow " << f;
      EXPECT_EQ(a.finished, b.finished) << "flow " << f;
      EXPECT_EQ(a.on, b.on) << "flow " << f;
      EXPECT_EQ(a.rate_bps, b.rate_bps) << "flow " << f;
      EXPECT_EQ(a.bytes_received, b.bytes_received) << "flow " << f;
      EXPECT_EQ(a.remaining_bytes, b.remaining_bytes) << "flow " << f;
      EXPECT_EQ(a.completion_time, b.completion_time) << "flow " << f;
      if (a.finished) ++cov.finishes;
    }
    EXPECT_EQ(inc.active_flow_count(), ref.active_flow_count());
    EXPECT_EQ(inc.makespan(), ref.makespan());
    const auto la = inc.link_loads();
    const auto lb = ref.link_loads();
    ASSERT_EQ(la.size(), lb.size());
    for (std::size_t l = 0; l < la.size(); ++l) {
      EXPECT_EQ(la[l].used_bps, lb[l].used_bps) << "link " << l;
      EXPECT_EQ(la[l].flows, lb[l].flows) << "link " << l;
    }
  };

  // Phase 1: run a stretch, compare mid-flight.
  inc.run_until(4.0);
  ref.run_until(4.0);
  compare_states();

  // Phase 2: inject more arrivals mid-run (staggered), mutate a hose.
  for (int i = 0; i < 4; ++i) add_finite_pair(4.0);
  const double new_cap = rng.uniform(2e8, 2e9);
  inc.set_resource_capacity(hoses[0], new_cap);
  ref.set_resource_capacity(hoses[0], new_cap);
  inc.run_until(12.0);
  ref.run_until(12.0);
  compare_states();
  EXPECT_EQ(inc_probes.size(), ref_probes.size());
  EXPECT_EQ(inc_probes, ref_probes);

  // Phase 3: drain the remaining finite flows (ON-OFF events keep firing).
  inc.run_to_completion(1e5);
  ref.run_to_completion(1e5);
  compare_states();
  EXPECT_EQ(inc.now(), ref.now());

  // The incremental side must actually have scoped some work to regions
  // smaller than the full active set — otherwise this suite is only testing
  // the full-recompute path. (Kept as a statistic, asserted in coverage.)
  const MaxMinKernel::Stats& ks = inc.kernel().stats();
  EXPECT_GT(ks.recomputes, 0u);
  EXPECT_EQ(ref.kernel().stats().recomputes, 0u);  // reference never enters the kernel
}

constexpr std::uint64_t kSimSeeds = 25;

class SimDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimDifferential, TwinSimsStayBitIdentical) {
  SimCoverage cov;
  run_sim_corpus(GetParam(), cov);
}

INSTANTIATE_TEST_SUITE_P(RandomSchedules, SimDifferential,
                         ::testing::Range<std::uint64_t>(0, kSimSeeds));

TEST(SimDifferentialCoverage, CorpusExercisesTheInterestingPaths) {
  SimCoverage cov;
  for (std::uint64_t seed = 0; seed < kSimSeeds; ++seed) run_sim_corpus(seed, cov);
  EXPECT_GT(cov.toggles_on, 0);
  EXPECT_GT(cov.rate_caps, 0);
  EXPECT_GT(cov.same_host_flows, 0);
  EXPECT_GT(cov.finishes, 0);
  EXPECT_GT(cov.hose_flows, 0);
}

// ---------------------------------------------------------------------------
// Layer 3: structural mechanics.
// ---------------------------------------------------------------------------

TEST(KernelComponents, EventsInOneComponentLeaveOthersUntouched) {
  MaxMinKernel kernel(1e12);
  std::vector<ResourceId> res;
  std::vector<std::size_t> flows;
  for (std::size_t i = 0; i < 8; ++i) {
    res.push_back(kernel.add_resource(1e9 * static_cast<double>(i + 1)));
    const ResourceId r = res.back();
    flows.push_back(kernel.add_flow(&r, 1));
    kernel.activate(flows.back());
  }
  kernel.recompute();
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(kernel.rate(flows[i]), 1e9 * static_cast<double>(i + 1));
  }
  const std::uint64_t flows_before = kernel.stats().region_flows;

  // Deactivating a singleton dirties only its (now empty) component.
  kernel.deactivate(flows[3]);
  EXPECT_TRUE(kernel.recompute().empty());
  EXPECT_EQ(kernel.stats().region_flows, flows_before);

  // Re-provisioning one resource re-waterfills exactly one flow.
  kernel.set_capacity(res[5], 4e9);
  const auto& region = kernel.recompute();
  ASSERT_EQ(region.size(), 1u);
  EXPECT_EQ(region[0], flows[5]);
  EXPECT_EQ(kernel.last_region_flows(), 1u);
  EXPECT_EQ(kernel.rate(flows[5]), 4e9);
  // All other rates are untouched (flow 3 is inactive; its rate is unused).
  for (std::size_t i : {0u, 1u, 2u, 4u, 6u, 7u}) {
    EXPECT_EQ(kernel.rate(flows[i]), 1e9 * static_cast<double>(i + 1));
  }
}

TEST(KernelComponents, BridgeFlowMergesThenSplitRediscovered) {
  MaxMinKernel kernel(1e12);
  const ResourceId r0 = kernel.add_resource(1e9);
  const ResourceId r1 = kernel.add_resource(3e9);
  const ResourceId row_a[] = {r0};
  const ResourceId row_b[] = {r1};
  const ResourceId row_bridge[] = {r0, r1};
  const std::size_t fa = kernel.add_flow(row_a, 1);
  const std::size_t fb = kernel.add_flow(row_b, 1);
  const std::size_t bridge = kernel.add_flow(row_bridge, 2);
  kernel.activate(fa);
  kernel.activate(fb);
  kernel.recompute();
  EXPECT_EQ(kernel.rate(fa), 1e9);
  EXPECT_EQ(kernel.rate(fb), 3e9);

  // Bridge joins the two components: r0 bottlenecks first (0.5 < 1.5), then
  // fb takes what the bridge left on r1.
  kernel.activate(bridge);
  kernel.recompute();
  EXPECT_EQ(kernel.rate(fa), 0.5e9);
  EXPECT_EQ(kernel.rate(bridge), 0.5e9);
  EXPECT_EQ(kernel.rate(fb), 2.5e9);

  // Removing the bridge recomputes the (stale, still-merged) component...
  kernel.deactivate(bridge);
  EXPECT_EQ(kernel.recompute().size(), 2u);
  EXPECT_EQ(kernel.rate(fa), 1e9);
  EXPECT_EQ(kernel.rate(fb), 3e9);

  // ...and that recompute relabels, so the next event is scoped to the
  // genuinely split component only.
  kernel.set_capacity(r0, 2e9);
  const auto& region = kernel.recompute();
  ASSERT_EQ(region.size(), 1u);
  EXPECT_EQ(region[0], fa);
  EXPECT_EQ(kernel.rate(fa), 2e9);
}

TEST(KernelRetire, CompactionPreservesLiveRowsAndRates) {
  MaxMinKernel kernel(1e12);
  std::vector<ResourceId> res;
  for (std::size_t r = 0; r < 4; ++r) res.push_back(kernel.add_resource(1e9));
  // Churn enough short-lived flows through to force at least one compaction
  // (threshold: >4096 dead slots and more dead than live).
  for (int i = 0; i < 3000; ++i) {
    const ResourceId row[] = {res[static_cast<std::size_t>(i) % 4],
                              res[(static_cast<std::size_t>(i) + 1) % 4]};
    const std::size_t f = kernel.add_flow(row, 2);
    kernel.activate(f);
    kernel.deactivate(f);
    kernel.retire(f);
  }
  EXPECT_GE(kernel.stats().row_compactions, 1u);

  // Survivors still waterfill correctly against the oracle.
  const ResourceId row_a[] = {res[0], res[1]};
  const ResourceId row_b[] = {res[1]};
  const std::size_t fa = kernel.add_flow(row_a, 2);
  const std::size_t fb = kernel.add_flow(row_b, 1);
  kernel.activate(fa);
  kernel.activate(fb);
  kernel.recompute();
  const auto expect = max_min_rates({1e9, 1e9, 1e9, 1e9}, {{res[0], res[1]}, {res[1]}}, 1e12);
  EXPECT_EQ(kernel.rate(fa), expect[0]);
  EXPECT_EQ(kernel.rate(fb), expect[1]);

  // Retired flows must stay retired.
  EXPECT_THROW(kernel.activate(0), PreconditionError);
}

TEST(SimRetire, AutoRetireKeepsOutcomesIdentical) {
  net::TreeParams tp;
  tp.pods = 1;
  tp.racks_per_pod = 2;
  tp.hosts_per_rack = 2;
  const Topology topo = net::make_multi_rooted_tree(tp);
  const std::vector<NodeId> hosts = topo.nodes_of_kind(NodeKind::Host);

  const net::Router router(topo);
  Sim inc(router, 400e9, KernelMode::Incremental);
  Sim ref(router, 400e9, KernelMode::Reference);
  inc.set_auto_retire(true);  // reference keeps everything: outcomes must match

  Rng rng(1234);
  std::vector<FlowId> ids;
  for (int i = 0; i < 24; ++i) {
    FlowSpec spec;
    spec.src = hosts[static_cast<std::size_t>(rng.uniform_int(0, 3))];
    spec.dst = hosts[static_cast<std::size_t>(rng.uniform_int(0, 3))];
    spec.bytes = rng.uniform(1e6, 1e8);
    spec.start_time = rng.uniform(0.0, 2.0);
    const FlowId a = inc.add_flow(spec);
    ASSERT_EQ(ref.add_flow(spec), a);
    ids.push_back(a);
  }
  inc.run_to_completion(1e6);
  ref.run_to_completion(1e6);
  for (FlowId f : ids) {
    EXPECT_TRUE(inc.flow(f).finished);
    EXPECT_EQ(inc.flow(f).completion_time, ref.flow(f).completion_time);
    EXPECT_EQ(inc.flow(f).bytes_received, ref.flow(f).bytes_received);
  }
  EXPECT_EQ(inc.makespan(), ref.makespan());
}

}  // namespace
}  // namespace choreo::flowsim
