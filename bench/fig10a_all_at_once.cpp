// Fig 10(a): relative speed-up of Choreo over Random, Round-Robin and
// Minimum-Machines when a tenant places all applications at once (§6.2).
// Protocol per run: rent 10 EC2 VMs, combine 1-3 HP-Cloud-style apps into
// one, measure the network with packet trains, place with each algorithm,
// then actually transfer the traffic matrices on the (simulated) cloud and
// time the run. Speed-up vs an alternative = (t_alt - t_choreo)/t_alt.
//
// Paper: improvement in ~70% of runs; mean 8-14%; median 7-15%; max 61%;
// restricted to improving runs, mean 20-27%; median slowdown (other runs)
// only 8-13%.

#include <map>

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

  constexpr std::size_t kRuns = 60;
  constexpr std::size_t kVms = 10;

  header("Fig 10(a): all applications at once (" + std::to_string(kRuns) + " runs)");

  const workload::HpCloudTrace trace(99, paper_trace_config());
  Rng rng(424242);

  std::map<std::string, std::vector<double>> speedups;
  std::size_t run = 0;
  std::size_t attempts = 0;
  while (run < kRuns && attempts < kRuns * 10) {
    ++attempts;
    cloud::Cloud c(cloud::ec2_2013(), 2000 + attempts);
    const auto vms = c.allocate_vms(kVms);

    // 1-3 applications combined (§6.2), resampled if they cannot fit.
    const std::size_t napps = static_cast<std::size_t>(rng.uniform_int(1, 3));
    const auto apps = trace.sample_batch(rng, napps);
    const place::Application combined = place::combine(apps);
    double total_cores = 0.0;
    for (double cd : combined.cpu_demand) total_cores += cd;
    if (total_cores > 0.85 * kVms * c.machine_cores()) continue;

    // Measurement phase (packet trains; §4.1 EC2 configuration).
    measure::MeasurementPlan plan;
    plan.train.bursts = 10;
    plan.train.burst_length = 200;
    const place::ClusterView view =
        agent::MeasureCycle(c, vms, plan, {}, {}).run(7000 + attempts).view;
    place::ClusterState state(view);

    place::GreedyPlacer choreo_placer(place::RateModel::Hose);
    place::RandomPlacer random(1000 + attempts);
    place::RoundRobinPlacer round_robin;
    place::MinMachinesPlacer min_machines;

    const std::uint64_t exec_epoch = 5000 + attempts;
    double t_choreo = 0.0;
    std::map<std::string, double> t_alt;
    try {
      t_choreo =
          execute_placement(c, vms, combined, choreo_placer.place(combined, state),
                            exec_epoch);
      t_alt["random"] =
          execute_placement(c, vms, combined, random.place(combined, state), exec_epoch);
      t_alt["round-robin"] = execute_placement(
          c, vms, combined, round_robin.place(combined, state), exec_epoch);
      t_alt["min-machines"] = execute_placement(
          c, vms, combined, min_machines.place(combined, state), exec_epoch);
    } catch (const place::PlacementError&) {
      continue;  // resample a workload that fits every algorithm
    }
    if (t_choreo <= 0.0) continue;
    for (const auto& [name, t] : t_alt) {
      if (t > 0.0) speedups[name].push_back(relative_speedup(t_choreo, t));
    }
    ++run;
  }

  bool all_good = true;
  for (const auto& [name, values] : speedups) {
    const SpeedupStats s = speedup_stats(values);
    print_speedup_stats(name, s);
    std::cout << "\n";
    all_good = all_good && s.improved_fraction >= 0.5 && s.mean_pct > 3.0;
    check(s.improved_fraction >= 0.5,
          "vs " + name + ": Choreo improves the majority of runs (paper: ~70%)");
    check(s.mean_pct > 3.0 && s.mean_pct < 40.0,
          "vs " + name + ": mean gain in a believable band around the paper's 8-14%");
  }
  // Max improvement anywhere should be substantial (paper: 61%).
  double global_max = 0.0;
  for (const auto& [name, values] : speedups) {
    global_max = std::max(global_max, speedup_stats(values).max_pct);
  }
  std::cout << "max improvement over any alternative: " << fmt(global_max, 1) << "%\n";
  check(global_max > 25.0, "max improvement is large (paper: 61%)");
  return finish();
}
