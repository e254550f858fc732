#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "cloud/cloud.h"
#include "forecast/predictive_policy.h"
#include "measure/probe_scheduler.h"
#include "measure/throughput_matrix.h"
#include "measure/view_cache.h"
#include "place/cluster.h"

namespace choreo::agent {

/// What one measurement cycle cost and found: the §4.1 overhead accounting
/// the benches track, with probe counts so incremental refreshes are visible.
struct MeasureReport {
  /// Modeled wall-clock on the real cloud ("less than three minutes for a
  /// ten-node topology", §4.1); 0 when nothing was probed.
  double wall_time_s = 0.0;
  /// Planned pairs whose sample arrived in-cycle: n(n-1) on a full sweep,
  /// fewer after.
  std::size_t pairs_probed = 0;
  std::size_t rounds = 0;  ///< conflict-free concurrent-train rounds
  /// True when this cycle re-used cached estimates (probed a strict subset).
  bool incremental = false;

  // Why each planned pair qualified (the RefreshPlan counts).
  std::size_t never_measured = 0;  ///< includes pairs of newly allocated VMs
  /// Older than refresh.max_age_epochs, plus crash re-sync rows.
  std::size_t stale = 0;
  std::size_t volatile_pairs = 0;  ///< fixed policy's two-sample volatility rule

  // Forecast-plane accounting (all zero while forecasting is disabled).
  std::size_t predictable_pairs = 0;  ///< skipped: forecasts trusted this cycle
  /// Probed because the forecast cannot be trusted: the budget's
  /// worst-predicted picks plus pairs still warming up their error track.
  std::size_t unpredictable_pairs = 0;
  std::size_t changepoint_pairs = 0;  ///< probed: CUSUM flagged a regime shift
  std::size_t predicted_pairs = 0;    ///< view entries filled from forecasts
  bool forecast_full_sweep = false;   ///< regime alarm forced probing everything

  // Delivery accounting. Probing in-process (or over the lossless
  // zero-delay agent transport) every planned pair reports, so
  // planned == probed and missing == defaulted == 0.
  std::size_t agent_pairs_planned = 0;  ///< pairs the cycle scheduled
  std::size_t agent_pairs_missing = 0;  ///< planned pairs with no in-cycle sample
  std::size_t agent_reports = 0;        ///< fresh StatsReports integrated
  /// Never-measured pairs whose view entry was filled with the fallback rate
  /// (no sample ever arrived, so neither the cache nor the forecast has
  /// anything to offer).
  std::size_t pairs_defaulted = 0;
};

/// Runs one cycle's scheduled probes at `epoch` and hands every sample they
/// produce to MeasureCycle::integrate. Two exist: MeasureCycle's direct one
/// (each round through Cloud::run_train_round) and AgentPlane::run_probes
/// (ProbeRequests out over a SimTransport, StatsReports back).
using ScheduleRunner =
    std::function<void(const measure::ProbeSchedule& schedule, std::uint64_t epoch)>;

/// The measurement controller (§2.2, §4.1): one cycle is plan (through
/// PredictivePolicy, which delegates to the fixed ViewCache rules when
/// forecasting is off) → schedule into conflict-free rounds → probe →
/// integrate each sample (cache store + policy.observe) → rebuild the view
/// from the cache → forecast fill over the pairs that did not report → fill
/// never-measured holes → report. Who runs the probes is the only thing
/// that differs between in-process and agent measurement.
class MeasureCycle {
 public:
  /// The refreshed (possibly stale-or-partial) view and what it cost.
  struct Result {
    place::ClusterView view;
    MeasureReport report;
  };

  /// `vms` is the tenant fleet in view-index order: pair indices in plans,
  /// samples, and the cache are positions in this vector.
  MeasureCycle(cloud::Cloud& cloud, std::vector<cloud::VmId> vms,
               measure::MeasurementPlan plan, measure::RefreshPolicy refresh,
               forecast::ForecastOptions forecast);

  /// Runs one cycle at `epoch`. An empty `run_probes` probes in-process.
  /// The runner is called even when nothing is planned, so an agent plane
  /// still moves its wire (retransmits, Hellos, acks) every cycle.
  Result run(std::uint64_t epoch, const ScheduleRunner& run_probes = {});

  /// Integrates one sample; true when it entered the cache. A sample for a
  /// pair planned this cycle, taken at this cycle's epoch, is integrated
  /// exactly once. Any other sample only advances the pair's estimate: older
  /// epochs, second copies, and reordered replays are superseded.
  bool integrate(std::size_t src, std::size_t dst, double rate_bps,
                 std::uint64_t sample_epoch);

  /// Queues (src, dst) for probing in the next cycle on top of the refresh
  /// plan (counted stale) — the agent plane's crash re-sync.
  void require_probe(std::size_t src, std::size_t dst);

  /// Counts one fresh StatsReport towards the running cycle's report.
  void count_report() { ++reports_; }

  /// Planned pairs of the running cycle with no in-cycle sample yet.
  std::size_t pending() const { return pending_; }

  cloud::Cloud& cloud() const { return cloud_; }
  const std::vector<cloud::VmId>& vms() const { return vms_; }
  const measure::MeasurementPlan& plan() const { return mplan_; }
  const measure::ViewCache& cache() const { return cache_; }

 private:
  std::size_t index(std::size_t src, std::size_t dst) const {
    return src * vms_.size() + dst;
  }

  cloud::Cloud& cloud_;
  std::vector<cloud::VmId> vms_;
  measure::MeasurementPlan mplan_;
  measure::RefreshPolicy refresh_;
  measure::ViewCache cache_;
  forecast::PredictivePolicy policy_;

  std::vector<std::uint8_t> required_;  ///< require_probe()d for the next plan
  // Running-cycle state: per pair kUnplanned / kPending / kReported.
  std::uint64_t epoch_ = 0;
  std::vector<std::uint8_t> status_;
  std::size_t pending_ = 0;
  std::size_t reports_ = 0;
};

}  // namespace choreo::agent
