// MapReduce shuffle placement: the paper's motivating workload class (§1).
// A job with skewed shuffle traffic is placed on an EC2-like cloud by all
// four algorithms; we print the placements side by side, the network time of
// the shuffle under each, and demonstrate the §7.1 caveat that a perfectly
// UNIFORM shuffle leaves Choreo little to exploit.

#include <iostream>

#include "agent/measure_cycle.h"
#include "cloud/cloud.h"
#include "measure/throughput_matrix.h"
#include "place/baselines.h"
#include "place/greedy.h"
#include "place/rate_model.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/units.h"
#include "workload/generator.h"

namespace {

using namespace choreo;

double run_with(cloud::Cloud& cloud, const std::vector<cloud::VmId>& vms,
                const place::Application& app, place::Placer& placer,
                const place::ClusterView& view, std::uint64_t epoch) {
  place::ClusterState state(view);
  const place::Placement p = placer.place(app, state);
  std::vector<cloud::Cloud::Transfer> transfers;
  for (std::size_t i = 0; i < app.task_count(); ++i) {
    for (std::size_t j = 0; j < app.task_count(); ++j) {
      if (app.traffic_bytes(i, j) <= 0.0) continue;
      transfers.push_back({vms[p.machine_of_task[i]], vms[p.machine_of_task[j]],
                           app.traffic_bytes(i, j), 0.0});
    }
  }
  if (transfers.empty()) return 0.0;
  return cloud.execute(transfers, epoch).makespan_s;
}

void compare(cloud::Cloud& cloud, const std::vector<cloud::VmId>& vms,
             const place::Application& app, const place::ClusterView& view,
             const char* title) {
  place::GreedyPlacer choreo_placer(place::RateModel::Hose);
  place::RandomPlacer random(7);
  place::RoundRobinPlacer rr;
  place::MinMachinesPlacer mm;

  Table t({"algorithm", "shuffle time (s)", "vs choreo"});
  const double t0 = run_with(cloud, vms, app, choreo_placer, view, 11);
  t.add_row({"choreo (greedy, hose)", fmt(t0, 2), "-"});
  for (auto* placer : std::initializer_list<place::Placer*>{&random, &rr, &mm}) {
    const double ta = run_with(cloud, vms, app, *placer, view, 11);
    t.add_row({placer->name(), fmt(ta, 2),
               ta > 0 ? fmt((ta - t0) / ta * 100.0, 1) + "% slower-> faster w/ choreo"
                      : "-"});
  }
  std::cout << title << "\n" << t.to_string() << "\n";
}

}  // namespace

int main() {
  using namespace choreo;

  cloud::Cloud cloud(cloud::ec2_2013(), 23);
  const auto vms = cloud.allocate_vms(10);

  measure::MeasurementPlan plan;
  plan.train.bursts = 10;
  plan.train.burst_length = 200;
  const place::ClusterView view =
      agent::MeasureCycle(cloud, vms, plan, {}, {}).run(1).view;

  // A skewed MapReduce job: 6 maps, 3 reducers, reducer 0 is hot.
  Rng rng(5);
  workload::GeneratorConfig gen;
  gen.min_tasks = 9;
  gen.max_tasks = 9;
  gen.max_cpu = 2.0;
  gen.max_shuffle_skew = 1.0;
  const place::Application skewed = workload::generate_app(rng, workload::Pattern::MapReduce, gen);
  compare(cloud, vms, skewed, view, "--- skewed shuffle (Choreo's sweet spot) ---");

  // The same job shape with a perfectly uniform shuffle and CPU-heavy tasks
  // (one per machine, so nobody can co-locate): §7.1's "applications that
  // have relatively uniform bandwidth usage would not see much improvement
  // ... because every pair of VMs uses roughly the same amount of
  // bandwidth, it does not help to put the 'largest' pair on the fastest
  // link".
  gen.max_shuffle_skew = 0.0;
  gen.min_cpu = 3.0;
  gen.max_cpu = 4.0;
  const place::Application uniform =
      workload::generate_app(rng, workload::Pattern::MapReduce, gen);
  compare(cloud, vms, uniform, view, "--- uniform shuffle (little for Choreo to exploit) ---");
  return 0;
}
