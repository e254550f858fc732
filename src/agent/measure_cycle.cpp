#include "agent/measure_cycle.h"

#include <algorithm>
#include <utility>

#include "util/require.h"

namespace choreo::agent {

namespace {

// Per-pair state of the running cycle.
constexpr std::uint8_t kUnplanned = 0;
constexpr std::uint8_t kPending = 1;   ///< planned, no in-cycle sample yet
constexpr std::uint8_t kReported = 2;  ///< planned, in-cycle sample integrated

}  // namespace

MeasureCycle::MeasureCycle(cloud::Cloud& cloud, std::vector<cloud::VmId> vms,
                           measure::MeasurementPlan plan, measure::RefreshPolicy refresh,
                           forecast::ForecastOptions forecast)
    : cloud_(cloud),
      vms_(std::move(vms)),
      mplan_(plan),
      refresh_(refresh),
      cache_(vms_.size()),
      policy_(std::move(forecast)),
      required_(vms_.size() * vms_.size(), 0),
      status_(vms_.size() * vms_.size(), kUnplanned) {
  CHOREO_REQUIRE_MSG(vms_.size() >= 2, "measurement needs at least two VMs");
}

MeasureCycle::Result MeasureCycle::run(std::uint64_t epoch,
                                       const ScheduleRunner& run_probes) {
  const std::size_t n = vms_.size();
  epoch_ = epoch;
  const bool incremental = cache_.measured_pairs() > 0;

  // Plan through the forecast plane: disabled, this is exactly the fixed
  // ViewCache policy's plan (same pairs, same order); enabled, the probe
  // budget goes to the pairs the best predictor is worst at. Required pairs
  // ride on top in row-major order.
  measure::RefreshPlan plan = policy_.plan_refresh(cache_, epoch, refresh_);
  std::fill(status_.begin(), status_.end(), kUnplanned);
  for (const measure::ProbePair& p : plan.pairs) status_[index(p.src, p.dst)] = kPending;
  for (std::size_t k = 0; k < n * n; ++k) {
    if (!required_[k] || status_[k] != kUnplanned) continue;
    status_[k] = kPending;
    plan.pairs.push_back(measure::ProbePair{k / n, k % n});
    ++plan.stale;
  }
  std::fill(required_.begin(), required_.end(), 0);
  pending_ = plan.pairs.size();
  reports_ = 0;

  // Central conflict-free round assignment: round r probes against the
  // (epoch + r) cross-traffic snapshot whoever runs it.
  measure::ProbeSchedule schedule;
  if (!plan.pairs.empty()) schedule = measure::schedule_probes(n, plan.pairs);
  if (run_probes) {
    run_probes(schedule, epoch);
  } else {
    measure::run_probe_schedule(cloud_, vms_, schedule, mplan_, epoch,
                                [this, epoch](const measure::ProbePair& p, double rate) {
                                  integrate(p.src, p.dst, rate, epoch);
                                });
  }

  Result out;
  out.view = measure::cached_cluster_view(cloud_, vms_, cache_, epoch);

  // Forecast fill over the gaps: apply_to_view treats every pair not in the
  // plan it is handed as unprobed, so handing it only the planned pairs that
  // reported (in planned order) routes lost or late pairs through the
  // predictor fill and uncertainty discount.
  measure::RefreshPlan reported;
  reported.pairs.reserve(plan.pairs.size() - pending_);
  for (const measure::ProbePair& p : plan.pairs) {
    if (status_[index(p.src, p.dst)] == kReported) reported.pairs.push_back(p);
  }
  policy_.apply_to_view(out.view, cache_, reported, epoch);

  // Never-measured pairs whose first sample never arrived leave zero-rate
  // holes neither the cache nor the forecast can fill, and the placement
  // layer rejects a view with them. Fill them with the most conservative
  // rate measured so far (do not tempt the placer across a link it knows
  // nothing about), or a nominal 1 Gbps when nothing is measured at all.
  MeasureReport& rep = out.report;
  double fallback = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double r = out.view.rate_bps(i, j);
      if (i == j || r <= 0.0) continue;
      if (fallback == 0.0 || r < fallback) fallback = r;
    }
  }
  if (fallback == 0.0) fallback = 1e9;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j || out.view.rate_bps(i, j) > 0.0) continue;
      out.view.rate_bps(i, j) = fallback;
      ++rep.pairs_defaulted;
    }
  }

  rep.rounds = schedule.rounds.size();
  rep.wall_time_s = measure::measurement_wall_time_s(mplan_, rep.rounds);
  rep.pairs_probed = reported.pairs.size();
  rep.incremental = incremental;
  rep.never_measured = plan.never_measured;
  rep.stale = plan.stale;
  rep.volatile_pairs = plan.volatile_pairs;
  const forecast::PredictivePolicy::PlanStats& fs = policy_.last_plan();
  rep.predictable_pairs = fs.predictable;
  rep.unpredictable_pairs = fs.unpredictable + fs.warmup;
  rep.changepoint_pairs = fs.changepoints;
  rep.predicted_pairs = fs.predicted;
  rep.forecast_full_sweep = fs.full_sweep;
  rep.agent_pairs_planned = plan.pairs.size();
  rep.agent_pairs_missing = pending_;
  rep.agent_reports = reports_;
  return out;
}

bool MeasureCycle::integrate(std::size_t src, std::size_t dst, double rate_bps,
                             std::uint64_t sample_epoch) {
  CHOREO_REQUIRE(src < vms_.size() && dst < vms_.size() && src != dst);
  std::uint8_t& status = status_[index(src, dst)];
  if (status == kPending && sample_epoch == epoch_) {
    status = kReported;
    --pending_;
  } else {
    // Monotone epoch guard: outside its one in-cycle slot a sample only
    // advances the pair's estimate, which makes duplicate delivery and
    // reordered late samples no-ops end to end.
    const measure::PairEstimate& have = cache_.at(src, dst);
    if (have.valid() && sample_epoch <= have.epoch) return false;
  }
  cache_.store(src, dst, rate_bps, sample_epoch);
  policy_.observe(src, dst, rate_bps, sample_epoch);
  return true;
}

void MeasureCycle::require_probe(std::size_t src, std::size_t dst) {
  CHOREO_REQUIRE(src < vms_.size() && dst < vms_.size() && src != dst);
  required_[index(src, dst)] = 1;
}

}  // namespace choreo::agent
