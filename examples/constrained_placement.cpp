// Constrained placement: the Conclusion's extensions in action. A replicated
// storage service wants (a) its two replicas on different physical hosts
// (fault tolerance), (b) its cache next to the frontend (latency), and (c)
// the ingest task pinned where the data lives. Choreo honours all three
// while still optimizing the network; we show the cost of each constraint.

#include <iostream>

#include "agent/measure_cycle.h"
#include "cloud/cloud.h"
#include "measure/throughput_matrix.h"
#include "place/greedy.h"
#include "place/rate_model.h"
#include "util/table.h"
#include "util/units.h"

int main() {
  using namespace choreo;
  using units::gigabytes;

  cloud::ProviderProfile profile = cloud::ec2_2013();
  profile.colocate_prob = 0.35;  // a fleet with some same-host VM pairs
  cloud::Cloud cloud(profile, 19);
  const auto vms = cloud.allocate_vms(8);

  measure::MeasurementPlan plan;
  plan.train.bursts = 10;
  plan.train.burst_length = 200;
  const place::ClusterView view =
      agent::MeasureCycle(cloud, vms, plan, {}, {}).run(1).view;

  // The service: frontend(0), cache(1), replica-A(2), replica-B(3),
  // ingest(4). Heavy frontend<->cache chatter, writes fan to both replicas,
  // ingest streams into replica-A.
  place::Application app;
  app.name = "storage-service";
  app.cpu_demand = {2.0, 1.0, 1.5, 1.5, 1.0};
  app.traffic_bytes = DoubleMatrix(5, 5, 0.0);
  app.traffic_bytes(0, 1) = gigabytes(3.0);
  app.traffic_bytes(1, 0) = gigabytes(2.0);
  app.traffic_bytes(0, 2) = gigabytes(1.0);
  app.traffic_bytes(0, 3) = gigabytes(1.0);
  app.traffic_bytes(4, 2) = gigabytes(2.5);

  place::GreedyPlacer greedy(place::RateModel::Hose);
  Table t({"scenario", "placement (machine per task)", "est. completion (s)"});

  const auto report = [&](const std::string& name) {
    place::ClusterState state(view);
    try {
      const place::Placement p = greedy.place(app, state);
      std::string where;
      for (std::size_t i = 0; i < p.machine_of_task.size(); ++i) {
        if (i) where += ',';
        where += std::to_string(p.machine_of_task[i]);
      }
      t.add_row({name, where,
                 fmt(place::estimate_completion_s(app, p, view, place::RateModel::Hose), 1)});
    } catch (const place::PlacementError& e) {
      t.add_row({name, std::string("infeasible: ") + e.what(), "-"});
    }
  };

  report("unconstrained");

  app.constraints.separate.emplace_back(2, 3);  // replicas on distinct hosts
  report("+ separate(replicaA, replicaB)");

  app.constraints.latency.push_back({0, 1, 2});  // cache within the rack
  report("+ latency(frontend, cache) <= 2 hops");

  app.constraints.pinned[4] = 0;  // ingest pinned to the data VM
  report("+ pin(ingest -> vm0)");

  std::cout << t.to_string();
  std::cout << "\nEach requirement shrinks the feasible set, so for an *optimal* placer\n"
               "the completion estimate could only grow down the table. The greedy\n"
               "algorithm is not optimal (Fig 9), so a constraint occasionally steers\n"
               "it into a better region — but hard requirements like pinning usually\n"
               "show their price clearly.\n";
  return 0;
}
