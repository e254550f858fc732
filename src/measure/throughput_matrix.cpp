#include "measure/throughput_matrix.h"

#include <utility>

#include "measure/packet_train.h"
#include "util/require.h"

namespace choreo::measure {
namespace {

/// Fills the traceroute-derived fields of a tenant view: hop counts and
/// co-location groups, plus CPU capacities from the instance type. VMs i < j
/// share a group when `same_host(i, j)`; it may read the filled view.hops.
template <typename SameHost>
void fill_tenant_topology(place::ClusterView& view, const cloud::Cloud& cloud,
                          const std::vector<cloud::VmId>& vms, SameHost same_host) {
  const std::size_t n = vms.size();
  view.cores.assign(n, static_cast<double>(cloud.machine_cores()));
  view.hops = DoubleMatrix(n, n, 0.0);
  view.colocation_group.assign(n, -1);
  int next_group = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (view.colocation_group[i] < 0) view.colocation_group[i] = next_group++;
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      view.hops(i, j) = static_cast<double>(cloud.traceroute_hops(vms[i], vms[j]));
    }
    for (std::size_t j = i + 1; j < n; ++j) {
      if (same_host(i, j)) view.colocation_group[j] = view.colocation_group[i];
    }
  }
}

}  // namespace

double measurement_wall_time_s(const MeasurementPlan& plan, std::size_t rounds) {
  if (rounds == 0) return 0.0;
  return plan.setup_overhead_s +
         static_cast<double>(rounds) *
             (train_duration_s(plan.train) + plan.round_overhead_s);
}

void run_probe_schedule(cloud::Cloud& cloud, const std::vector<cloud::VmId>& vms,
                        const ProbeSchedule& schedule, const MeasurementPlan& plan,
                        std::uint64_t epoch,
                        const std::function<void(const ProbePair&, double)>& on_rate) {
  std::vector<std::pair<cloud::VmId, cloud::VmId>> vm_pairs;
  for (std::size_t r = 0; r < schedule.rounds.size(); ++r) {
    const auto& round = schedule.rounds[r];
    // All trains of the round observe the same background realization; the
    // snapshot is computed once and shared across the round's workers.
    const cloud::Cloud::TrafficSnapshot snapshot = cloud.traffic_snapshot(epoch + r);
    vm_pairs.clear();
    for (const ProbePair& p : round) vm_pairs.emplace_back(vms[p.src], vms[p.dst]);
    const auto records =
        cloud.run_train_round(vm_pairs, plan.train, snapshot, plan.workers);
    for (std::size_t k = 0; k < round.size(); ++k) {
      const ProbePair& p = round[k];
      const double rtt = cloud.ping_rtt_s(vms[p.src], vms[p.dst]);
      on_rate(p, estimate_train_throughput(records[k], plan.train, rtt).throughput_bps);
    }
  }
}

place::ClusterView cached_cluster_view(const cloud::Cloud& cloud,
                                       const std::vector<cloud::VmId>& vms,
                                       const ViewCache& cache, std::uint64_t epoch) {
  const std::size_t n = vms.size();
  CHOREO_REQUIRE(cache.vm_count() == n);
  place::ClusterView view;
  view.rate_bps = cache.rates();
  view.cross_traffic = DoubleMatrix(n, n, 0.0);
  view.pair_epoch = cache.epochs();
  view.view_epoch = epoch;
  // Traceroute's hop count 1 is the tenant's only co-location signal (§3.3.1).
  fill_tenant_topology(view, cloud, vms, [&](std::size_t i, std::size_t j) {
    return view.hops(i, j) == 1.0;
  });
  return view;
}

place::ClusterView true_cluster_view(const cloud::Cloud& cloud,
                                     const std::vector<cloud::VmId>& vms,
                                     std::uint64_t epoch) {
  const std::size_t n = vms.size();
  CHOREO_REQUIRE(n >= 2);
  std::vector<std::pair<cloud::VmId, cloud::VmId>> pairs;
  pairs.reserve(n * (n - 1));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) pairs.emplace_back(vms[i], vms[j]);
    }
  }
  const std::vector<double> rates = cloud.true_path_rates_bps(pairs, epoch);
  place::ClusterView view;
  view.rate_bps = DoubleMatrix(n, n, 0.0);
  std::size_t next = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) view.rate_bps(i, j) = rates[next++];
    }
  }
  view.cross_traffic = DoubleMatrix(n, n, 0.0);
  view.view_epoch = epoch;
  fill_tenant_topology(view, cloud, vms, [&](std::size_t i, std::size_t j) {
    return cloud.vm_host(vms[i]) == cloud.vm_host(vms[j]);
  });
  return view;
}

}  // namespace choreo::measure
