// The forecast plane's contract (PR acceptance): routing every measurement
// cycle through forecast::PredictivePolicy must leave the DISABLED pipeline
// bit-identical to the pre-forecast fixed-policy pipeline — same refresh
// plans, same rate matrices, same placements — over a randomized corpus.
// The oracle rebuilds the fixed path from the measurement primitives (a raw
// ViewCache's plan, conflict-free scheduling, probe rounds, the cached view)
// plus a ClusterState/GreedyPlacer loop, replaying what
// core::Choreo::measure_network did before the forecast plane existed,
// driven against an identically seeded twin cloud. It deliberately does not
// use agent::MeasureCycle, the code under test.

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "core/choreo.h"
#include "measure/probe_scheduler.h"
#include "measure/throughput_matrix.h"
#include "measure/view_cache.h"
#include "place/greedy.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace choreo {
namespace {

workload::GeneratorConfig small_apps() {
  workload::GeneratorConfig gen;
  gen.min_tasks = 3;
  gen.max_tasks = 6;
  gen.max_cpu = 2.0;
  return gen;
}

/// The fixed-policy oracle: the exact measurement + placement loop Choreo
/// ran before the forecast plane, expressed with the public primitives.
struct FixedPipelineOracle {
  FixedPipelineOracle(cloud::Cloud& c, std::vector<cloud::VmId> fleet,
                      const core::ChoreoConfig& cfg)
      : cloud(c), vms(std::move(fleet)), config(cfg), cache(vms.size()) {}

  cloud::Cloud& cloud;
  std::vector<cloud::VmId> vms;
  core::ChoreoConfig config;
  measure::ViewCache cache;
  std::unique_ptr<place::ClusterState> state;
  // The last cycle: what it planned and what the rounds cost.
  measure::RefreshPlan plan;
  std::size_t rounds = 0;
  double wall_time_s = 0.0;

  void measure(std::uint64_t epoch) {
    plan = cache.plan_refresh(epoch, config.refresh);
    measure::ProbeSchedule schedule;
    if (!plan.pairs.empty()) schedule = measure::schedule_probes(vms.size(), plan.pairs);
    measure::run_probe_schedule(cloud, vms, schedule, config.plan, epoch,
                                [&](const measure::ProbePair& p, double rate) {
                                  cache.store(p.src, p.dst, rate, epoch);
                                });
    rounds = schedule.rounds.size();
    wall_time_s = measure::measurement_wall_time_s(config.plan, rounds);
    place::ClusterView view = measure::cached_cluster_view(cloud, vms, cache, epoch);
    if (state && state->machine_count() == view.machine_count()) {
      state->update_view(std::move(view));
    } else {
      state = std::make_unique<place::ClusterState>(std::move(view));
    }
  }

  place::Placement place_and_commit(const place::Application& app) {
    place::GreedyPlacer greedy(config.rate_model);
    const place::Placement p = greedy.place(app, *state);
    state->commit(app, p);
    return p;
  }
};

/// One corpus case: Choreo with forecasting disabled against the fixed
/// oracle over ten cycles with interleaved arrivals.
void expect_disabled_matches_oracle(const cloud::ProviderProfile& profile,
                                    unsigned workers, std::uint64_t seed, std::size_t n) {
  // Identically seeded twin clouds: same topology, same VM allocation,
  // same background realizations per epoch.
  cloud::Cloud c_sys(profile, seed);
  cloud::Cloud c_ora(profile, seed);
  const auto vms_sys = c_sys.allocate_vms(n);
  const auto vms_ora = c_ora.allocate_vms(n);

  core::ChoreoConfig config;
  config.plan.train.bursts = 5;
  config.plan.train.burst_length = 100;
  config.plan.workers = workers;
  // Stress the refresh rules: tight staleness, real volatility probing.
  config.refresh.max_age_epochs = 3;
  config.refresh.volatility_threshold = 0.2 + 0.1 * static_cast<double>(seed % 3);
  ASSERT_FALSE(config.forecast.enabled) << "forecast must default off";

  core::Choreo choreo(c_sys, vms_sys, config);
  FixedPipelineOracle oracle(c_ora, vms_ora, config);

  Rng app_rng(seed * 1000 + n);
  const workload::GeneratorConfig gen = small_apps();

  for (std::uint64_t epoch = 1; epoch <= 10; ++epoch) {
    choreo.measure_network(epoch);
    oracle.measure(epoch);

    // Refresh plans: identical pair sets in identical order, identical
    // classification counts, surfaced identically in the report.
    const core::Choreo::MeasureReport& rep = choreo.last_measure();
    ASSERT_EQ(rep.pairs_probed, oracle.plan.pairs.size());
    ASSERT_EQ(rep.rounds, oracle.rounds);
    ASSERT_EQ(rep.wall_time_s, oracle.wall_time_s);
    ASSERT_EQ(rep.never_measured, oracle.plan.never_measured);
    ASSERT_EQ(rep.stale, oracle.plan.stale);
    ASSERT_EQ(rep.volatile_pairs, oracle.plan.volatile_pairs);
    ASSERT_EQ(rep.predictable_pairs, 0u);
    ASSERT_EQ(rep.unpredictable_pairs, 0u);
    ASSERT_EQ(rep.changepoint_pairs, 0u);
    ASSERT_EQ(rep.predicted_pairs, 0u);

    // Matrices: bit-for-bit, including per-pair provenance.
    ASSERT_TRUE(choreo.view().rate_bps == oracle.state->view().rate_bps);
    ASSERT_TRUE(choreo.view().pair_epoch == oracle.state->view().pair_epoch);

    // Interleave arrivals so refresh planning runs against a live,
    // partially occupied cluster like a real session.
    if (epoch % 2 == 1) {
      const place::Application app = workload::generate_app(app_rng, gen);
      place::Application app_copy = app;
      const place::Placement p_sys = [&] {
        try {
          const auto handle = choreo.place_application(app);
          return choreo.placement_of(handle);
        } catch (const place::PlacementError&) {
          return place::Placement{};
        }
      }();
      place::Placement p_ora;
      try {
        p_ora = oracle.place_and_commit(app_copy);
      } catch (const place::PlacementError&) {
        p_ora = place::Placement{};
      }
      ASSERT_EQ(p_sys.machine_of_task, p_ora.machine_of_task);
    }
  }
}

TEST(ForecastDifferential, DisabledPolicyBitIdenticalToFixedPipeline) {
  for (const cloud::ProviderProfile& profile :
       {cloud::ec2_2013(), cloud::ec2_2012(), cloud::rackspace()}) {
    for (const unsigned workers : {1u, 4u}) {
      for (const std::uint64_t seed : {11u, 23u, 37u, 51u}) {
        for (const std::size_t n : {4u, 6u}) {
          SCOPED_TRACE(profile.name + " workers=" + std::to_string(workers) +
                       " seed=" + std::to_string(seed) + " n=" + std::to_string(n));
          expect_disabled_matches_oracle(profile, workers, seed, n);
          if (HasFatalFailure()) return;
        }
      }
    }
  }
}

// The enabled forecast plane must run the full Choreo loop end to end:
// budgeted refresh planning, forecast-filled views, uncertainty discounts,
// and placements on the resulting state.
TEST(ForecastDifferential, EnabledForecastRunsEndToEnd) {
  cloud::Cloud cloud(cloud::ec2_2013(), 7);
  const auto vms = cloud.allocate_vms(6);

  core::ChoreoConfig config;
  config.plan.train.bursts = 5;
  config.plan.train.burst_length = 100;
  config.refresh.max_age_epochs = 50;  // let the forecast drive re-probing
  config.forecast.enabled = true;
  config.forecast.min_observations = 2;
  config.forecast.probe_budget_fraction = 0.25;
  config.forecast.discount_rates = true;

  core::Choreo choreo(cloud, vms, config);
  const std::size_t all_pairs = vms.size() * (vms.size() - 1);

  choreo.measure_network(1);
  EXPECT_EQ(choreo.last_measure().pairs_probed, all_pairs);
  EXPECT_EQ(choreo.last_measure().never_measured, all_pairs);
  choreo.measure_network(2);  // warm-up: still everything
  EXPECT_EQ(choreo.last_measure().pairs_probed, all_pairs);

  // Warmed up: the budget caps probing and forecasts fill the gaps.
  choreo.measure_network(3);
  const core::Choreo::MeasureReport& rep = choreo.last_measure();
  EXPECT_LT(rep.pairs_probed, all_pairs);
  // Every ordered pair lands in exactly one refresh bucket...
  EXPECT_EQ(rep.never_measured + rep.stale + rep.changepoint_pairs +
                rep.unpredictable_pairs + rep.predictable_pairs,
            all_pairs);
  // ...and every coasting pair's view entry came from a forecast.
  EXPECT_EQ(rep.predicted_pairs, rep.predictable_pairs);
  EXPECT_GT(rep.predicted_pairs, 0u);
  EXPECT_TRUE(rep.incremental);
  choreo.view().validate();

  // Placement runs on the forecast-augmented, discounted view.
  Rng rng(99);
  const place::Application app = workload::generate_app(rng, small_apps());
  const auto handle = choreo.place_application(app);
  EXPECT_TRUE(choreo.placement_of(handle).complete());

  // Re-evaluation keeps working on the predictive path.
  const core::Choreo::ReevalReport reeval = choreo.reevaluate(4);
  EXPECT_EQ(reeval.apps_considered, 1u);
}

}  // namespace
}  // namespace choreo
