#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "cloud/cloud.h"
#include "measure/probe_scheduler.h"
#include "measure/view_cache.h"
#include "packetsim/udp_train.h"
#include "place/cluster.h"
#include "util/matrix.h"

namespace choreo::measure {

/// How Choreo measures a tenant's N VMs (§2.2, §4.1): one packet train per
/// ordered pair, edge-colored by ProbeScheduler into conflict-free rounds
/// (no VM is source or sink of two simultaneous trains) that execute their
/// trains concurrently.
struct MeasurementPlan {
  packetsim::TrainParams train;  ///< calibrated per provider (§4.1, Fig 6)
  /// Fixed per-round cost in seconds: starting receivers, collecting
  /// timestamp logs, shipping them to the coordinator.
  double round_overhead_s = 8.0;
  /// One-off cost in seconds of setting up / tearing down the measurement
  /// servers.
  double setup_overhead_s = 30.0;
  /// Local worker threads simulating one round's concurrent trains; purely
  /// a simulation-speed knob — results are byte-identical for any value
  /// (pinned by test_determinism) and the modeled wall-clock always assumes
  /// the round's trains overlap on the real cloud.
  unsigned workers = 1;
};

/// Modeled wall-clock of a measurement phase that needed `rounds` rounds.
double measurement_wall_time_s(const MeasurementPlan& plan, std::size_t rounds);

/// Runs every round of `schedule`: round r's trains run concurrently (on
/// plan.workers threads) against the epoch + r cross-traffic snapshot, and
/// each pair's estimated throughput is handed to `on_rate`, round by round.
void run_probe_schedule(cloud::Cloud& cloud, const std::vector<cloud::VmId>& vms,
                        const ProbeSchedule& schedule, const MeasurementPlan& plan,
                        std::uint64_t epoch,
                        const std::function<void(const ProbePair&, double)>& on_rate);

/// The tenant's ClusterView as `cache` knows it at `epoch`: the cached rates
/// with their per-pair provenance, plus traceroute topology (hop counts,
/// co-location groups where hop count 1 => same host) and CPU capacities.
/// Never-measured pairs read 0. This is exactly the information Choreo's
/// placement stage runs on; agent::MeasureCycle rebuilds it every cycle.
place::ClusterView cached_cluster_view(const cloud::Cloud& cloud,
                                       const std::vector<cloud::VmId>& vms,
                                       const ViewCache& cache, std::uint64_t epoch);

/// Harness helper: the tenant's ClusterView built from ground truth
/// (noise-free rates, true co-location) — what an omniscient tenant would
/// know. Used by tests and by benches that isolate placement quality from
/// measurement error.
/// All n(n-1) rates come from one Cloud::true_path_rates_bps batch, so the
/// view costs one background settle, not one per pair.
place::ClusterView true_cluster_view(const cloud::Cloud& cloud,
                                     const std::vector<cloud::VmId>& vms,
                                     std::uint64_t epoch);

}  // namespace choreo::measure
