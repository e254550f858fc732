// Session workloads: two tenants' core::SessionRuntimes on one shared
// cloud, stepped by this benchmark with MultiTenantSession::run()'s rule
// (earliest next_time() first, ties to the lower tenant index, epochs drawn
// from the cloud's shared counter) so every step() can be timed and
// attributed to its RuntimeEventKind from outside the library.
//
// A run makes two passes over a fixed set of sessions generated from
// (seed, session index). The passes must agree bit-exactly; every step and
// every decision is timed as the lesser of its two executions.

#include <algorithm>
#include <array>
#include <cmath>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "agent/plane.h"
#include "cloud/cloud.h"
#include "cloud/profile.h"
#include "common.h"
#include "core/runtime.h"
#include "measure/throughput_matrix.h"
#include "obs/trace.h"
#include "workload/stream.h"

namespace perfbench {
namespace {

using namespace choreo;
using core::RuntimeEventKind;

constexpr std::size_t kKinds = 5;
constexpr std::size_t kTenants = 2;
/// Distinct sessions per 20 s of --seconds; the shapes below make two passes
/// over them take about that long on a 4-core host.
constexpr std::size_t kSessionsPer20s = 6;
constexpr double kMeanGapS = 60.0;
constexpr std::uint32_t kReplayLane = 100;

std::size_t kind_index(RuntimeEventKind k) { return static_cast<std::size_t>(k); }

const char* step_span_name(RuntimeEventKind k) {
  switch (k) {
    case RuntimeEventKind::Arrival:
      return "step.Arrival";
    case RuntimeEventKind::Departure:
      return "step.Departure";
    case RuntimeEventKind::QueueRetry:
      return "step.QueueRetry";
    case RuntimeEventKind::ReevalTick:
      return "step.ReevalTick";
    case RuntimeEventKind::MeasureRefresh:
      return "step.MeasureRefresh";
  }
  return "step.unknown";
}

enum class Kind { Probe, Truth, Agents };

/// What a session workload runs.
struct Shape {
  Kind kind = Kind::Probe;
  std::size_t vms = 6;  ///< per tenant
  std::size_t apps_per_tenant = 22;
};

Shape shape_of(const std::string& workload) {
  // Measurement-bound: packet-train views on the in-process path, no
  // forecast/agents/batching, one measurement worker.
  if (workload == "session-probe") return {Kind::Probe, 6, 22};
  // Ground-truth views, the batched retry drain, waves of arrivals that
  // overfill the fleet so apps queue, re-evaluation every 10 s.
  if (workload == "session-truth") return {Kind::Truth, 8, 40};
  // Agent plane over a lossy transport, forecast on, MMPP-bursty arrivals.
  if (workload == "session-agents") return {Kind::Agents, 4, 28};
  throw std::invalid_argument("unknown session workload " + workload);
}

/// Re-times an inner stream's apps into simultaneous waves: app i arrives at
/// (i / size) * period. Each wave overfills the fleet, so part of it queues
/// and drains through retries before the next wave.
class WaveArrivalStream final : public workload::ArrivalStream {
 public:
  WaveArrivalStream(workload::ArrivalStream& inner, std::size_t size, double period_s)
      : inner_(&inner), size_(size), period_s_(period_s) {}
  std::optional<place::Application> next() override {
    std::optional<place::Application> app = inner_->next();
    if (app) app->arrival_s = static_cast<double>(emitted_++ / size_) * period_s_;
    return app;
  }

 private:
  workload::ArrivalStream* inner_;
  std::size_t size_;
  double period_s_;
  std::uint64_t emitted_ = 0;
};

/// Everything one session needs; the streams and cloud outlive the runtimes.
struct SessionInputs {
  std::unique_ptr<cloud::Cloud> cloud;
  std::vector<std::unique_ptr<workload::ArrivalStream>> streams;
  std::vector<core::TenantSpec> tenants;
};

/// Session `index` of a run: the provider and fleet are fixed per index
/// (the cloud being measured), while the seed generates the workload run on
/// it: arrival times, applications, MMPP bursts, transport faults, crashes.
SessionInputs make_inputs(const Shape& s, std::uint64_t seed, std::size_t index,
                          std::size_t apps_per_tenant) {
  const std::uint64_t wseed = seed * 7919 + 13 * index + 5;
  SessionInputs in;
  in.cloud = std::make_unique<cloud::Cloud>(cloud::ec2_2013(), 1000 + index);
  for (std::size_t i = 0; i < kTenants; ++i) {
    workload::GeneratorArrivalStream::Config gc;
    gc.gen.min_tasks = 3;
    gc.gen.max_tasks = 6;
    gc.gen.size_sigma = 0.3;
    // Whole-core tasks: with fractional demands, re-evaluating a full tenant
    // fleet can fail to re-pack its running apps (Choreo::reevaluate throws
    // PlacementError), which would end the session.
    gc.gen.min_cpu = 1.0;
    gc.gen.max_cpu = 1.0;
    gc.mean_gap_s = kMeanGapS;
    gc.max_apps = apps_per_tenant;
    in.streams.push_back(
        std::make_unique<workload::GeneratorArrivalStream>(wseed * 1000 + 17 * i + 1, gc));
    if (s.kind == Kind::Truth) {
      in.streams.push_back(
          std::make_unique<WaveArrivalStream>(*in.streams.back(), 10, 8.0));
    }
    if (s.kind == Kind::Agents) {
      workload::MmppArrivalStream::Config mmpp;
      mmpp.rate_per_s = {0.5 / kMeanGapS, 3.0 / kMeanGapS};
      mmpp.mean_sojourn_s = {30.0 * kMeanGapS, 5.0 * kMeanGapS};
      in.streams.push_back(std::make_unique<workload::MmppArrivalStream>(
          *in.streams.back(), wseed * 2000 + i, mmpp));
    }
    core::TenantSpec spec;
    spec.name = "tenant" + std::to_string(i);
    spec.vms = in.cloud->allocate_vms(s.vms);
    core::ControllerConfig& cfg = spec.config;
    cfg.choreo.plan.train.bursts = 10;
    cfg.choreo.plan.train.burst_length = 200;
    cfg.choreo.plan.workers = 1;
    if (s.kind == Kind::Truth) {
      cfg.choreo.use_measured_view = false;
      cfg.choreo.reevaluate_period_s = 10.0;
      cfg.batch.enabled = true;
    }
    if (s.kind == Kind::Agents) {
      cfg.choreo.forecast.enabled = true;
      cfg.agents.enabled = true;
      cfg.agents.transport.seed = wseed * 17 + 3 + i;
      cfg.agents.transport.fault.loss = 0.1;
      cfg.agents.transport.fault.duplicate = 0.05;
      cfg.agents.transport.fault.delay_max_cycles = 1;
      cfg.agents.crash_rate = 0.02;
      cfg.agents.crash_seed = wseed + 11 + i;
    }
    spec.stream = in.streams.back().get();
    in.tenants.push_back(std::move(spec));
  }
  return in;
}

/// Counts that repeat exactly for a session (fingerprinted across visits).
struct Counts {
  std::uint64_t apps = 0;
  std::uint64_t failed = 0;
  double total_runtime_s = 0.0;
  double measurement_wall_s = 0.0;
  std::uint64_t pairs_probed = 0;  ///< whole session, first sweep included
  std::uint64_t events = 0;
  std::uint64_t stale_skipped = 0;
  std::uint64_t refreshes = 0;  ///< MeasureRefresh steps
  std::uint64_t refresh_pairs = 0;
  std::uint64_t refresh_rounds = 0;
  std::uint64_t decisions = 0;
  std::uint64_t decision_allocs = 0;
  std::uint64_t candidates = 0;
  std::uint64_t txn_ops = 0;
  std::uint64_t retries = 0;
  std::uint64_t batch_attempts = 0;
  std::uint64_t reevaluations = 0;
  std::uint64_t migrated = 0;
  std::uint64_t predictable = 0;
  std::uint64_t agent_planned = 0;
  std::uint64_t agent_missing = 0;
  std::uint64_t agent_defaulted = 0;
  std::uint64_t agent_cycles = 0;
  std::uint64_t agent_probes = 0;
  std::uint64_t agent_samples = 0;
  std::uint64_t agent_bytes = 0;
  std::uint64_t agent_retransmits = 0;

  std::vector<double> fingerprint() const {
    return {static_cast<double>(apps), static_cast<double>(failed), total_runtime_s,
            measurement_wall_s, static_cast<double>(pairs_probed),
            static_cast<double>(events), static_cast<double>(stale_skipped),
            static_cast<double>(refreshes), static_cast<double>(refresh_pairs),
            static_cast<double>(refresh_rounds), static_cast<double>(decisions),
            static_cast<double>(decision_allocs), static_cast<double>(candidates),
            static_cast<double>(txn_ops), static_cast<double>(retries),
            static_cast<double>(batch_attempts), static_cast<double>(reevaluations),
            static_cast<double>(migrated), static_cast<double>(predictable),
            static_cast<double>(agent_planned), static_cast<double>(agent_missing),
            static_cast<double>(agent_defaulted), static_cast<double>(agent_cycles),
            static_cast<double>(agent_probes), static_cast<double>(agent_samples),
            static_cast<double>(agent_bytes), static_cast<double>(agent_retransmits)};
  }
  void add(const Counts& o) {
    apps += o.apps;
    failed += o.failed;
    total_runtime_s += o.total_runtime_s;
    measurement_wall_s += o.measurement_wall_s;
    pairs_probed += o.pairs_probed;
    events += o.events;
    stale_skipped += o.stale_skipped;
    refreshes += o.refreshes;
    refresh_pairs += o.refresh_pairs;
    refresh_rounds += o.refresh_rounds;
    decisions += o.decisions;
    decision_allocs += o.decision_allocs;
    candidates += o.candidates;
    txn_ops += o.txn_ops;
    retries += o.retries;
    batch_attempts += o.batch_attempts;
    reevaluations += o.reevaluations;
    migrated += o.migrated;
    predictable += o.predictable;
    agent_planned += o.agent_planned;
    agent_missing += o.agent_missing;
    agent_defaulted += o.agent_defaulted;
    agent_cycles += o.agent_cycles;
    agent_probes += o.agent_probes;
    agent_samples += o.agent_samples;
    agent_bytes += o.agent_bytes;
    agent_retransmits += o.agent_retransmits;
  }
};

/// One visit of a session: its exact counts plus the host time of every
/// step (in order) and of every decision.
struct Visit {
  Counts counts;
  std::vector<RuntimeEventKind> kinds;
  std::vector<double> step_s;
  std::vector<double> decide_s;
  double raw_loop_s = 0.0;  ///< unscaled host time of the steps
  double setup_s = 0.0;
};

/// Tracks that every arrival resolves exactly once (one Arrival event, one
/// Placed-or-Rejected event) and that every app retires.
struct Resolution {
  std::vector<std::uint32_t> arrivals, terminals;
  std::uint64_t retired = 0;
  void on_event(const core::SessionEvent& e) {
    if (e.app == core::SessionEvent::kNoApp) return;
    if (e.app >= arrivals.size()) {
      arrivals.resize(e.app + 1, 0);
      terminals.resize(e.app + 1, 0);
    }
    if (e.kind == core::SessionEventKind::Arrival) ++arrivals[e.app];
    if (e.kind == core::SessionEventKind::Placed ||
        e.kind == core::SessionEventKind::Rejected) {
      ++terminals[e.app];
    }
  }
};

/// Builds one runtime per tenant the way MultiTenantSession::run() does.
std::vector<std::unique_ptr<core::SessionRuntime>> make_runtimes(
    SessionInputs& in, bool record_events, std::vector<Resolution>* resolution) {
  std::vector<std::unique_ptr<core::SessionRuntime>> rts;
  cloud::Cloud* cloud = in.cloud.get();
  for (std::size_t i = 0; i < in.tenants.size(); ++i) {
    core::RuntimeOptions options;
    options.record_events = record_events;
    options.record_outcomes = true;
    options.tenant = static_cast<std::uint32_t>(i);
    options.epoch_source = [cloud] { return cloud->next_epoch(); };
    if (resolution) {
      Resolution* r = &(*resolution)[i];
      options.on_event = [r](const core::SessionEvent& e) { r->on_event(e); };
      options.on_outcome = [r](const core::AppOutcome&) { ++r->retired; };
    }
    rts.push_back(std::make_unique<core::SessionRuntime>(*cloud, in.tenants[i].vms,
                                                         in.tenants[i].config,
                                                         std::move(options)));
  }
  return rts;
}

/// MultiTenantSession::run()'s interleave: earliest next_time(), ties to
/// the lowest tenant index; tenants.size() when every tenant is done.
std::size_t pick_earliest(std::vector<std::unique_ptr<core::SessionRuntime>>& rts) {
  std::size_t best = rts.size();
  double best_time = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < rts.size(); ++i) {
    const double t = rts[i]->next_time();
    if (t < best_time) {
      best_time = t;
      best = i;
    }
  }
  return best;
}

/// One session: build, start (setup), step to completion (timed per step),
/// finish and check.
Visit run_session(const Shape& s, std::uint64_t seed, std::size_t index,
                  obs::Tracer* tracer, CpuPicker& cpu, Report& report) {
  Visit v;
  cpu.maybe_repick();
  const Clock::time_point t_setup = Clock::now();
  SessionInputs in = make_inputs(s, seed, index, s.apps_per_tenant);
  std::vector<Resolution> resolution(kTenants);
  auto rts = make_runtimes(in, false, &resolution);
  for (std::size_t i = 0; i < rts.size(); ++i) {
    obs::SpanGuard span(tracer, static_cast<std::uint32_t>(i), "core.start", "core");
    rts[i]->start(*in.tenants[i].stream);
  }
  v.setup_s = cpu.scaled(seconds_between(t_setup, Clock::now()));

  Counts& c = v.counts;
  std::vector<double> refresh_s(rts.size(), 0.0);
  std::vector<std::uint64_t> refresh_allocs(rts.size(), 0);
  while (true) {
    const std::size_t t = pick_earliest(rts);
    if (t == rts.size()) break;
    core::SessionRuntime& rt = *rts[t];
    const std::optional<core::SessionRuntime::PendingEvent> ev = rt.peek_event();
    const RuntimeEventKind kind = ev->kind;
    const bool places = kind == RuntimeEventKind::Arrival ||
                        kind == RuntimeEventKind::QueueRetry;
    place::PlacementEngine::Counters before;
    if (places) before = rt.choreo().state().engine().counters();
    cpu.maybe_repick();
    const std::uint64_t allocs0 = thread_allocations();
    std::uint64_t allocs1 = 0;
    Clock::time_point t0, t1;
    {
      obs::SpanGuard span(tracer, static_cast<std::uint32_t>(t), step_span_name(kind),
                          "core");
      span.sim(ev->time_s, 0.0);
      t0 = Clock::now();
      rt.step();
      t1 = Clock::now();
      allocs1 = thread_allocations();
      if (kind == RuntimeEventKind::MeasureRefresh) {
        span.arg("pairs", static_cast<double>(rt.choreo().last_measure().pairs_probed));
      }
    }
    v.kinds.push_back(kind);
    const double dt = cpu.scaled(seconds_between(t0, t1));
    v.raw_loop_s += seconds_between(t0, t1);
    v.step_s.push_back(dt);
    if (places) {
      const place::PlacementEngine::Counters& after = rt.choreo().state().engine().counters();
      if (after.candidates_walked >= before.candidates_walked &&
          after.txn_ops >= before.txn_ops) {
        c.candidates += after.candidates_walked - before.candidates_walked;
        c.txn_ops += after.txn_ops - before.txn_ops;
      }
    }
    if (kind == RuntimeEventKind::MeasureRefresh) {
      const core::Choreo::MeasureReport& m = rt.choreo().last_measure();
      refresh_s[t] = dt;
      refresh_allocs[t] = allocs1 - allocs0;
      ++c.refreshes;
      c.refresh_pairs += m.pairs_probed;
      c.refresh_rounds += m.rounds;
      c.agent_planned += m.agent_pairs_planned;
      c.agent_missing += m.agent_pairs_missing;
      if (const agent::AgentPlane* plane = rt.choreo().agent_plane()) {
        const std::size_t n = rt.choreo().vms().size();
        c.agent_defaulted += n * (n - 1) - plane->cluster().cache().measured_pairs();
      }
    } else if (kind == RuntimeEventKind::Arrival) {
      v.decide_s.push_back(refresh_s[t] + dt);
      ++c.decisions;
      c.decision_allocs += refresh_allocs[t] + (allocs1 - allocs0);
    }
  }
  for (std::size_t i = 0; i < rts.size(); ++i) {
    const core::SessionLog log = rts[i]->finish();
    const core::SessionRuntime::Stats& st = rts[i]->stats();
    const Resolution& r = resolution[i];
    std::uint64_t unplaced = 0;
    for (const core::AppOutcome& a : log.apps) {
      if (a.rejected || a.placed_s < 0.0 || a.finished_s < 0.0) ++unplaced;
    }
    bool once = r.arrivals.size() == log.apps.size();
    for (std::size_t a = 0; once && a < r.arrivals.size(); ++a) {
      once = r.arrivals[a] == 1 && r.terminals[a] == 1;
    }
    report.check(once, "tenant " + std::to_string(i) +
                           ": an arrival did not resolve exactly once");
    report.check(r.retired == log.apps.size() && st.arrivals == log.apps.size(),
                 "tenant " + std::to_string(i) + ": apps retired != apps arrived");
    c.apps += log.apps.size();
    c.failed += unplaced;
    c.total_runtime_s += log.total_runtime_s;
    c.measurement_wall_s += log.measurement_wall_s;
    c.pairs_probed += log.pairs_probed;
    c.events += st.events_processed;
    c.stale_skipped += st.stale_skipped;
    c.retries += st.retries;
    c.batch_attempts += st.batch_attempts.size();
    c.reevaluations += log.reevaluations;
    c.migrated += log.tasks_migrated;
    c.predictable += log.pairs_predictable;
    if (const agent::AgentPlane* plane = rts[i]->choreo().agent_plane()) {
      const agent::AgentPlane::Stats as = plane->stats();
      c.agent_cycles += plane->cycle();
      c.agent_probes += as.probes_run;
      c.agent_samples += as.cluster.samples_integrated;
      c.agent_bytes += as.transport.bytes_sent;
      c.agent_retransmits += as.retransmits;
    }
  }
  return v;
}

/// The stepped interleave must reproduce MultiTenantSession::run() on the
/// same spec: compared per tenant, every SessionLog counter and event.
void check_against_multitenant(const Shape& s, std::uint64_t seed, Report& report) {
  constexpr std::size_t kShortApps = 6;
  SessionInputs a = make_inputs(s, seed, 0, kShortApps);
  auto rts = make_runtimes(a, true, nullptr);
  for (std::size_t i = 0; i < rts.size(); ++i) rts[i]->start(*a.tenants[i].stream);
  while (true) {
    const std::size_t t = pick_earliest(rts);
    if (t == rts.size()) break;
    rts[t]->step();
  }
  std::vector<core::SessionLog> stepped;
  for (auto& rt : rts) stepped.push_back(rt->finish());

  SessionInputs b = make_inputs(s, seed, 0, kShortApps);
  core::MultiTenantSession oracle(*b.cloud, b.tenants);
  const core::MultiTenantLog ref = oracle.run();

  bool same = ref.tenants.size() == stepped.size();
  for (std::size_t i = 0; same && i < stepped.size(); ++i) {
    const core::SessionLog& x = stepped[i];
    const core::SessionLog& y = ref.tenants[i];
    same = x.apps.size() == y.apps.size() && x.events.size() == y.events.size() &&
           x.reevaluations == y.reevaluations &&
           x.reevaluations_adopted == y.reevaluations_adopted &&
           x.tasks_migrated == y.tasks_migrated && x.rejected == y.rejected &&
           x.total_runtime_s == y.total_runtime_s &&
           x.measurement_wall_s == y.measurement_wall_s &&
           x.pairs_probed == y.pairs_probed && x.pairs_volatile == y.pairs_volatile &&
           x.pairs_predictable == y.pairs_predictable &&
           x.pairs_unpredictable == y.pairs_unpredictable &&
           x.pairs_changepoint == y.pairs_changepoint &&
           x.pairs_predicted == y.pairs_predicted;
    for (std::size_t e = 0; same && e < x.events.size(); ++e) {
      same = x.events[e].time_s == y.events[e].time_s &&
             x.events[e].kind == y.events[e].kind && x.events[e].app == y.events[e].app &&
             x.events[e].tasks_migrated == y.events[e].tasks_migrated &&
             x.events[e].adopted == y.events[e].adopted;
    }
    for (std::size_t k = 0; same && k < x.apps.size(); ++k) {
      same = x.apps[k].placed_s == y.apps[k].placed_s &&
             x.apps[k].finished_s == y.apps[k].finished_s &&
             x.apps[k].placement.machine_of_task == y.apps[k].placement.machine_of_task;
    }
  }
  report.check(same, "stepped interleave diverged from MultiTenantSession::run()");
}

/// Per-layer replays after the session, on the workload's own fleet (the
/// first session's cloud and tenant 0's VMs), its epochs and TrainParams.
struct ReplayCounts {
  std::uint64_t trains = 0;
  std::uint64_t records = 0;
};

ReplayCounts replay_layers(const Shape& s, std::uint64_t seed, obs::Tracer* tracer,
                           CpuPicker& cpu) {
  SessionInputs in = make_inputs(s, seed, 0, 1);
  cloud::Cloud& cloud = *in.cloud;
  const std::vector<cloud::VmId>& vms = in.tenants[0].vms;
  const packetsim::TrainParams train = in.tenants[0].config.choreo.plan.train;
  ReplayCounts rc;
  {
    obs::SpanGuard outer(tracer, kReplayLane, "replay.packetsim", "replay");
    for (std::uint64_t epoch = 1; epoch <= 3; ++epoch) {
      cloud::Cloud::TrafficSnapshot snap;
      cpu.maybe_repick();
      {
        obs::SpanGuard span(tracer, kReplayLane, "cloud.snapshot", "cloud");
        snap = cloud.traffic_snapshot(epoch);
      }
      for (std::size_t i = 0; i < vms.size(); ++i) {
        for (std::size_t j = 0; j < vms.size(); j += 2) {
          if (i == j) continue;
          cpu.maybe_repick();
          obs::SpanGuard span(tracer, kReplayLane, "packetsim.train", "packetsim");
          rc.records += cloud.run_train_in_snapshot(vms[i], vms[j], train, snap).size();
          ++rc.trains;
        }
      }
    }
  }
  {
    obs::SpanGuard outer(tracer, kReplayLane, "replay.flowsim", "replay");
    for (std::uint64_t epoch = 1; epoch <= 2; ++epoch) {
      for (std::size_t i = 0; i < vms.size(); ++i) {
        const std::size_t j = (i + 1) % vms.size();
        cpu.maybe_repick();
        obs::SpanGuard span(tracer, kReplayLane, "flowsim.path_rate", "flowsim");
        cloud.true_path_rate_bps(vms[i], vms[j], epoch);
      }
      cpu.maybe_repick();
      obs::SpanGuard span(tracer, kReplayLane, "measure.true_view", "measure");
      measure::true_cluster_view(cloud, vms, epoch);
    }
  }
  return rc;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double sum(const std::vector<double>& v) {
  double total = 0.0;
  for (double x : v) total += x;
  return total;
}

}  // namespace

Report run_session_workload(const Options& opts, obs::Tracer* tracer) {
  const Shape s = shape_of(opts.workload);
  Report report;
  check_against_multitenant(s, opts.seed, report);

  // Two passes over the run's sessions. Sessions are deterministic, so the
  // passes execute identical step sequences; untraced runs time every step
  // and every decision as the lesser of its two executions, which keeps a
  // burst of interference on the shared host from landing in the result
  // unless it hit both passes. The second pass of a traced run records
  // spans, and the two passes' loop times give the tracing overhead.
  const std::size_t sessions = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(static_cast<double>(kSessionsPer20s) *
                                              opts.seconds / 20.0)));
  CpuPicker cpu;
  std::vector<Visit> first;
  Counts total;
  std::vector<double> setup_s, step_s, decide_s;
  std::array<std::vector<double>, kKinds> by_kind;
  double pass_s[2] = {0.0, 0.0};
  double raw_pass_s[2] = {0.0, 0.0};
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t k = 0; k < sessions; ++k) {
      Visit v = run_session(s, opts.seed, k, pass == 1 ? tracer : nullptr, cpu, report);
      setup_s.push_back(v.setup_s);
      pass_s[pass] += sum(v.step_s);
      raw_pass_s[pass] += v.raw_loop_s;
      if (pass == 0) {
        total.add(v.counts);
        first.push_back(std::move(v));
        continue;
      }
      const Visit& f = first[k];
      if (v.counts.fingerprint() != f.counts.fingerprint() || v.kinds != f.kinds ||
          v.decide_s.size() != f.decide_s.size()) {
        report.check(false, "session " + std::to_string(k) + " did not repeat bit-exactly");
        continue;
      }
      for (std::size_t i = 0; i < v.step_s.size(); ++i) {
        const double dt = std::min(v.step_s[i], f.step_s[i]);
        step_s.push_back(dt);
        by_kind[kind_index(v.kinds[i])].push_back(dt);
      }
      for (std::size_t i = 0; i < v.decide_s.size(); ++i) {
        decide_s.push_back(std::min(v.decide_s[i], f.decide_s[i]));
      }
    }
  }
  ReplayCounts rc;
  if (opts.trace) rc = replay_layers(s, opts.seed, tracer, cpu);

  const double apps = static_cast<double>(total.apps);
  const double loop_s = sum(step_s);
  const double apps_per_s = ratio(apps, loop_s);
  const double failed_frac = ratio(static_cast<double>(total.failed), apps);
  const double probes_per_app = ratio(static_cast<double>(total.pairs_probed), apps);
  report.attempted = total.apps;
  report.failed = total.failed;
  const double p50_s = rank_quantile(decide_s.begin(), decide_s.end(), 0.50);
  const double p96_s = rank_quantile(decide_s.begin(), decide_s.end(), 0.96);
  const auto beyond_p96 = std::count_if(decide_s.begin(), decide_s.end(),
                                        [p96_s](double d) { return d > p96_s; });

  std::cout << opts.workload << ": " << sessions << " sessions x 2 passes, " << total.apps
            << " apps, " << decide_s.size() << " decisions (" << beyond_p96
            << " beyond p96), loop " << loop_s
            << " s (reference-scaled, per-step minimum of the passes); unscaled host "
               "loop time per pass "
            << raw_pass_s[0] << " s, " << raw_pass_s[1] << " s\n";
  std::cout << "  probes_per_app " << probes_per_app << "  failed_frac " << failed_frac
            << "  reevaluations " << total.reevaluations << "  retries " << total.retries
            << "\n  loop time by step kind:";
  for (std::size_t k = 0; k < kKinds; ++k) {
    std::cout << " " << core::to_string(static_cast<RuntimeEventKind>(k)) << " "
              << sum(by_kind[k]) << " s";
  }
  std::cout << "\n";

  if (!opts.trace) {
    report.metric("throughput_per_s", apps_per_s, "1/s");
    report.metric("latency_p50_ms", 1e3 * p50_s, "ms");
    report.metric("latency_p96_ms", 1e3 * p96_s, "ms");
    report.exact("app_runtime_mean_s", ratio(total.total_runtime_s, apps), "sim_s");
    report.metric("setup_s", rank_quantile(setup_s.begin(), setup_s.end(), 0.5), "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    report.deterministic.push_back({"probes_per_app", probes_per_app, "count"});
    report.deterministic.push_back({"failed_frac", failed_frac, "frac"});
    return report;
  }

  // Per-layer counts; time-based per-layer metrics are derived by run.py
  // from the trace's span self times.
  report.exact("core.events_per_app", ratio(static_cast<double>(total.events), apps),
               "count");
  report.exact("core.stale_skipped", static_cast<double>(total.stale_skipped), "count");
  report.exact("core.decisions", static_cast<double>(total.decisions), "count");
  report.exact("measure.probes_per_app", probes_per_app, "count");
  report.exact("measure.pairs_per_refresh",
               ratio(static_cast<double>(total.refresh_pairs),
                     static_cast<double>(total.refreshes)),
               "count");
  report.exact("measure.rounds_per_refresh",
               ratio(static_cast<double>(total.refresh_rounds),
                     static_cast<double>(total.refreshes)),
               "count");
  report.exact("packetsim.records_per_train",
               ratio(static_cast<double>(rc.records), static_cast<double>(rc.trains)),
               "count");
  report.exact("place.candidates_per_app", ratio(static_cast<double>(total.candidates), apps),
               "count");
  report.exact("place.txn_ops_per_app", ratio(static_cast<double>(total.txn_ops), apps),
               "count");
  report.exact("serve.batch_attempts_per_retry",
               ratio(static_cast<double>(total.batch_attempts),
                     static_cast<double>(total.retries)),
               "count");
  report.exact("agent.useful_probe_frac",
               ratio(static_cast<double>(total.agent_samples),
                     static_cast<double>(total.agent_probes)),
               "frac");
  report.exact("agent.wire_bytes_per_cycle",
               ratio(static_cast<double>(total.agent_bytes),
                     static_cast<double>(total.agent_cycles)),
               "B");
  report.exact("agent.retransmits_per_cycle",
               ratio(static_cast<double>(total.agent_retransmits),
                     static_cast<double>(total.agent_cycles)),
               "count");
  report.exact("agent.pairs_missing_frac",
               ratio(static_cast<double>(total.agent_missing),
                     static_cast<double>(total.agent_planned)),
               "frac");
  report.exact("agent.pairs_defaulted", static_cast<double>(total.agent_defaulted), "count");
  report.exact("forecast.skip_frac",
               ratio(static_cast<double>(total.predictable),
                     static_cast<double>(total.predictable + total.pairs_probed)),
               "frac");
  report.exact("alloc.per_decision",
               ratio(static_cast<double>(total.decision_allocs),
                     static_cast<double>(total.decisions)),
               "count");
  // Serve-only per-layer counts: no serving front end runs in a session.
  report.exact("alloc.per_query", 0.0, "n/a");
  report.exact("serve.refreshes_per_publish", 0.0, "n/a");
  // Loop time of the untraced first pass against the traced second pass.
  report.metric("trace.overhead_frac", ratio(pass_s[1] - pass_s[0], pass_s[1]), "frac");
  return report;
}

}  // namespace perfbench
