#include <gtest/gtest.h>

#include "agent/measure_cycle.h"
#include "cloud/cloud.h"
#include "measure/throughput_matrix.h"
#include "measure/view_cache.h"
#include "util/require.h"
#include "util/units.h"

namespace choreo::measure {
namespace {

using units::mbps;

TEST(ViewCache, FreshCachePlansFullMatrix) {
  ViewCache cache(4);
  const RefreshPlan plan = cache.plan_refresh(1, RefreshPolicy{});
  EXPECT_EQ(plan.pairs.size(), 12u);
  EXPECT_EQ(plan.never_measured, 12u);
  EXPECT_EQ(plan.stale, 0u);
}

TEST(ViewCache, FreshEntriesAreNotReprobed) {
  ViewCache cache(3);
  RefreshPolicy policy;
  policy.max_age_epochs = 5;
  for (const ProbePair& p : all_ordered_pairs(3)) {
    cache.store(p.src, p.dst, mbps(500), /*epoch=*/10);
  }
  EXPECT_TRUE(cache.plan_refresh(12, policy).pairs.empty());
}

TEST(ViewCache, StaleEntriesAreReprobed) {
  ViewCache cache(3);
  RefreshPolicy policy;
  policy.max_age_epochs = 5;
  for (const ProbePair& p : all_ordered_pairs(3)) {
    cache.store(p.src, p.dst, mbps(500), /*epoch=*/10);
  }
  cache.store(0, 1, mbps(500), 2);  // overwrite: now measured long ago
  const RefreshPlan plan = cache.plan_refresh(12, policy);
  ASSERT_EQ(plan.pairs.size(), 1u);
  EXPECT_EQ(plan.stale, 1u);
  EXPECT_TRUE(plan.pairs[0] == (ProbePair{0, 1}));
}

TEST(ViewCache, VolatilePairsAreReprobedEveryCycle) {
  ViewCache cache(3);
  RefreshPolicy policy;
  policy.max_age_epochs = 100;  // nothing goes stale in this test
  policy.volatility_threshold = 0.5;
  for (const ProbePair& p : all_ordered_pairs(3)) {
    cache.store(p.src, p.dst, mbps(500), 1);
    cache.store(p.src, p.dst, mbps(500), 2);  // steady: not volatile
  }
  // Pair (1, 2) swings by 4x between cycles — a low §2.1 predictability
  // score at the pair level.
  cache.store(1, 2, mbps(2000), 3);
  EXPECT_TRUE(cache.is_volatile(1, 2, 0.5));
  EXPECT_FALSE(cache.is_volatile(0, 1, 0.5));
  const RefreshPlan plan = cache.plan_refresh(4, policy);
  ASSERT_EQ(plan.pairs.size(), 1u);
  EXPECT_EQ(plan.volatile_pairs, 1u);
  EXPECT_TRUE(plan.pairs[0] == (ProbePair{1, 2}));

  policy.refresh_volatile = false;
  EXPECT_TRUE(cache.plan_refresh(4, policy).pairs.empty());
}

TEST(ViewCache, SingleMeasurementIsNeverVolatile) {
  ViewCache cache(2);
  cache.store(0, 1, mbps(100), 1);
  EXPECT_FALSE(cache.is_volatile(0, 1, 0.01));
}

TEST(ViewCache, ResizePreservesSurvivorsAndFlagsNewVms) {
  ViewCache cache(3);
  for (const ProbePair& p : all_ordered_pairs(3)) {
    cache.store(p.src, p.dst, mbps(700), 5);
  }
  cache.resize(5);  // two newly allocated VMs
  EXPECT_EQ(cache.at(0, 1).rate_bps, mbps(700));
  EXPECT_EQ(cache.at(2, 1).epoch, 5u);
  EXPECT_FALSE(cache.at(0, 3).valid());
  const RefreshPlan plan = cache.plan_refresh(6, RefreshPolicy{});
  // 5*4 total pairs minus the 6 surviving measured ones.
  EXPECT_EQ(plan.pairs.size(), 14u);
  EXPECT_EQ(plan.never_measured, 14u);
  for (const ProbePair& p : plan.pairs) {
    EXPECT_TRUE(p.src >= 3 || p.dst >= 3) << "old pair re-probed";
  }
}

TEST(ViewCache, ExportsRatesAndEpochs) {
  ViewCache cache(3);
  cache.store(0, 1, mbps(250), 7);
  const DoubleMatrix r = cache.rates();
  EXPECT_EQ(r(0, 1), mbps(250));
  EXPECT_EQ(r(1, 0), 0.0);
  EXPECT_EQ(r(1, 1), 0.0);
  const Matrix<std::uint64_t> e = cache.epochs();
  EXPECT_EQ(e(0, 1), 7u);
  EXPECT_EQ(e(2, 0), 0u);
  EXPECT_EQ(cache.measured_pairs(), 1u);
}

TEST(ViewCache, SingleSamplePairsAreNeverVolatileEvenAtZeroThreshold) {
  // A pair with one measurement has no second sample to disagree with: it
  // must not qualify as volatile no matter how strict the threshold, and a
  // plan must not re-probe it on volatility grounds.
  ViewCache cache(3);
  RefreshPolicy policy;
  policy.max_age_epochs = 100;
  policy.volatility_threshold = 0.0;  // strictest possible
  for (const ProbePair& p : all_ordered_pairs(3)) {
    cache.store(p.src, p.dst, mbps(100 * (p.src + 1)), 5);
    EXPECT_FALSE(cache.is_volatile(p.src, p.dst, 0.0));
  }
  const RefreshPlan plan = cache.plan_refresh(5, policy);
  EXPECT_TRUE(plan.pairs.empty());
  EXPECT_EQ(plan.volatile_pairs, 0u);
}

TEST(ViewCache, AgeExactlyMaxAgeEpochsIsNotStale) {
  // Staleness is strict: a pair measured at epoch e goes stale only once
  // e + max_age_epochs < current, so age == max_age_epochs is still fresh.
  ViewCache cache(2);
  RefreshPolicy policy;
  policy.max_age_epochs = 5;
  cache.store(0, 1, mbps(500), 10);
  cache.store(1, 0, mbps(500), 10);

  EXPECT_TRUE(cache.plan_refresh(15, policy).pairs.empty());  // age == max_age
  const RefreshPlan stale = cache.plan_refresh(16, policy);   // one past it
  ASSERT_EQ(stale.pairs.size(), 2u);
  EXPECT_EQ(stale.stale, 2u);
}

TEST(ViewCache, PlanRefreshOnAllFreshCacheIsEmpty) {
  // Every pair measured twice at steady rates within max_age: the default
  // policy (volatility probing on) must produce a completely empty plan
  // with every classification count zero.
  ViewCache cache(4);
  for (const ProbePair& p : all_ordered_pairs(4)) {
    cache.store(p.src, p.dst, mbps(750), 1);
    cache.store(p.src, p.dst, mbps(750), 2);
  }
  const RefreshPlan plan = cache.plan_refresh(3, RefreshPolicy{});
  EXPECT_TRUE(plan.pairs.empty());
  EXPECT_EQ(plan.never_measured, 0u);
  EXPECT_EQ(plan.stale, 0u);
  EXPECT_EQ(plan.volatile_pairs, 0u);
}

TEST(ViewCache, InvalidateForcesReprobe) {
  ViewCache cache(2);
  cache.store(0, 1, mbps(100), 1);
  cache.store(1, 0, mbps(100), 1);
  cache.invalidate(0, 1);
  const RefreshPlan plan = cache.plan_refresh(1, RefreshPolicy{});
  ASSERT_EQ(plan.pairs.size(), 1u);
  EXPECT_TRUE(plan.pairs[0] == (ProbePair{0, 1}));
}

// The acceptance-criterion behaviour: an incremental refresh probes strictly
// fewer pairs than a full re-measurement and keeps unchanged pairs
// bit-identical in the rebuilt view.
TEST(ViewCacheIntegration, IncrementalRefreshProbesFewerAndKeepsFreshPairs) {
  cloud::Cloud c(cloud::ec2_2013(), 41);
  const auto vms = c.allocate_vms(6);
  MeasurementPlan plan;
  plan.train.bursts = 5;
  plan.train.burst_length = 100;
  RefreshPolicy policy;
  policy.max_age_epochs = 50;  // nothing goes stale between the two cycles
  policy.volatility_threshold = 1e9;  // ignore volatility here

  agent::MeasureCycle cycle(c, vms, plan, policy, {});
  const agent::MeasureCycle::Result full = cycle.run(1);
  EXPECT_EQ(full.report.pairs_probed, 30u);
  EXPECT_EQ(full.report.rounds, 5u);
  EXPECT_GT(full.report.wall_time_s, 0.0);
  full.view.validate();

  // Re-probe a couple of pairs (e.g. flagged by an operator) and refresh.
  cycle.require_probe(0, 1);
  cycle.require_probe(3, 2);
  const agent::MeasureCycle::Result incr = cycle.run(9);
  EXPECT_EQ(incr.report.pairs_probed, 2u);
  EXPECT_LT(incr.report.pairs_probed, full.report.pairs_probed);
  EXPECT_LT(incr.report.wall_time_s, full.report.wall_time_s);

  // Unchanged pairs: bit-identical. Re-probed pairs: stamped with the new
  // epoch and re-measured.
  for (std::size_t i = 0; i < vms.size(); ++i) {
    for (std::size_t j = 0; j < vms.size(); ++j) {
      if (i == j) continue;
      const bool reprobed = (i == 0 && j == 1) || (i == 3 && j == 2);
      if (reprobed) {
        EXPECT_EQ(incr.view.pair_epoch(i, j), 9u);
      } else {
        EXPECT_DOUBLE_EQ(incr.view.rate_bps(i, j), full.view.rate_bps(i, j));
        EXPECT_EQ(incr.view.pair_epoch(i, j), 1u);
      }
    }
  }
  EXPECT_EQ(incr.view.view_epoch, 9u);
  EXPECT_EQ(incr.view.freshness(0, 1), 9u);
  EXPECT_EQ(incr.view.freshness(1, 0), 1u);
}

TEST(ViewCacheIntegration, NothingToProbeCostsNothing) {
  cloud::Cloud c(cloud::ec2_2013(), 43);
  const auto vms = c.allocate_vms(4);
  MeasurementPlan plan;
  plan.train.bursts = 5;
  plan.train.burst_length = 100;
  RefreshPolicy policy;
  policy.max_age_epochs = 50;
  policy.volatility_threshold = 1e9;
  agent::MeasureCycle cycle(c, vms, plan, policy, {});
  cycle.run(1);
  const agent::MeasureCycle::Result again = cycle.run(2);
  EXPECT_EQ(again.report.pairs_probed, 0u);
  EXPECT_EQ(again.report.rounds, 0u);
  EXPECT_DOUBLE_EQ(again.report.wall_time_s, 0.0);
  again.view.validate();
}

}  // namespace
}  // namespace choreo::measure
