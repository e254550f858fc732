// Ablation (§7.2 future work): "We also leave a study of how Choreo performs
// with multiple users as future work. In general, we believe that Choreo
// would succeed in this case, because each user would measure the network
// individually (and so would be able to place their application with the
// knowledge of how the network was being affected by the other Choreo
// users)."
//
// Two tenants share one EC2-like cloud. Tenant A places first and runs a
// long-lived workload; tenant B then measures (seeing A's traffic squeeze
// its paths) and places its own application. We compare B's completion when
// B uses Choreo vs a random placement, and — the §7.2 conjecture — whether
// B's *measurement-driven* placement avoids the paths A is loading.

#include "bench_common.h"
#include "agent/measure_cycle.h"
#include "measure/throughput_matrix.h"
#include "place/baselines.h"
#include "place/greedy.h"
#include "util/rng.h"
#include "workload/trace.h"

int main() {
  using namespace choreo;
  using namespace choreo::bench;

  header("Ablation: two Choreo tenants sharing one cloud (Section 7.2)");

  constexpr std::size_t kRuns = 25;
  const workload::HpCloudTrace trace(99, paper_trace_config());
  Rng rng(57);

  std::vector<double> speedups;
  std::size_t done = 0, attempts = 0;
  while (done < kRuns && attempts < kRuns * 10) {
    ++attempts;
    cloud::Cloud c(cloud::ec2_2013(), 8400 + attempts);
    const auto vms_a = c.allocate_vms(8);
    const auto vms_b = c.allocate_vms(8);

    // Tenant A: place with Choreo and start a persistent workload.
    const place::Application app_a = place::combine(trace.sample_batch(rng, 1));
    const place::Application app_b = place::combine(trace.sample_batch(rng, 1));
    double cores_a = 0.0, cores_b = 0.0;
    for (double cd : app_a.cpu_demand) cores_a += cd;
    for (double cd : app_b.cpu_demand) cores_b += cd;
    if (cores_a > 0.85 * 32.0 || cores_b > 0.85 * 32.0) continue;

    measure::MeasurementPlan plan;
    plan.train.bursts = 10;
    plan.train.burst_length = 200;

    place::GreedyPlacer greedy_a(place::RateModel::Hose);
    place::GreedyPlacer greedy_b(place::RateModel::Hose);
    place::RandomPlacer random_b(attempts);

    try {
      const place::ClusterView view_a =
          agent::MeasureCycle(c, vms_a, plan, {}, {}).run(100 + attempts).view;
      place::ClusterState state_a(view_a);
      const place::Placement p_a = greedy_a.place(app_a, state_a);

      // Tenant A's transfers run while B measures and runs: both tenants'
      // flows are executed together; B's per-run time is what we score.
      const auto transfers_a = [&] {
        std::vector<cloud::Cloud::Transfer> out;
        for (std::size_t i = 0; i < app_a.task_count(); ++i) {
          for (std::size_t j = 0; j < app_a.task_count(); ++j) {
            const double b = app_a.traffic_bytes(i, j);
            if (b <= 0.0) continue;
            // A's workload loops: model as a large multiple of the matrix.
            out.push_back({vms_a[p_a.machine_of_task[i]], vms_a[p_a.machine_of_task[j]],
                           b * 4.0, 0.0});
          }
        }
        return out;
      }();

      const place::ClusterView view_b =
          agent::MeasureCycle(c, vms_b, plan, {}, {}).run(200 + attempts).view;
      place::ClusterState state_b(view_b);

      const auto run_b = [&](place::Placer& placer) {
        const place::Placement p_b = placer.place(app_b, state_b);
        std::vector<cloud::Cloud::Transfer> transfers = transfers_a;
        std::vector<std::size_t> b_idx;
        for (std::size_t i = 0; i < app_b.task_count(); ++i) {
          for (std::size_t j = 0; j < app_b.task_count(); ++j) {
            const double b = app_b.traffic_bytes(i, j);
            if (b <= 0.0) continue;
            transfers.push_back({vms_b[p_b.machine_of_task[i]],
                                 vms_b[p_b.machine_of_task[j]], b, 0.0});
            b_idx.push_back(transfers.size() - 1);
          }
        }
        if (b_idx.empty()) return 0.0;
        const auto result = c.execute(transfers, 300 + attempts);
        double t = 0.0;
        for (std::size_t idx : b_idx) t = std::max(t, result.completion_s[idx]);
        return t;
      };

      const double t_choreo = run_b(greedy_b);
      const double t_random = run_b(random_b);
      if (t_choreo <= 0.0 || t_random <= 0.0) continue;
      speedups.push_back(relative_speedup(t_choreo, t_random));
      ++done;
    } catch (const place::PlacementError&) {
      continue;
    }
  }

  const SpeedupStats s = speedup_stats(speedups);
  print_speedup_stats("random (tenant B, under tenant A's load)", s);
  check(s.improved_fraction >= 0.6,
        "a second Choreo tenant still beats random despite the first tenant's load");
  check(s.mean_pct > 3.0, "the multi-user conjecture of Section 7.2 holds on average");
  return finish();
}
