// serve-churn: serve::PlacementService over a fixed synthetic 200-VM fleet.
// Two closed-loop reader threads issue placement queries for 3-12-task apps
// generated from the seed; one writer thread runs an open-loop schedule
// that, every 20 ms, publishes a re-measured (seed-perturbed) view and then
// commits a new app or releases the oldest one. Every epoch a reader
// observes makes its scratch arena clone the new snapshot before placing.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "common.h"
#include "obs/trace.h"
#include "place/engine.h"
#include "place/greedy.h"
#include "place/rate_model.h"
#include "serve/service.h"
#include "util/rng.h"
#include "util/units.h"
#include "workload/generator.h"

namespace perfbench {
namespace {

using namespace choreo;

constexpr std::size_t kMachines = 200;
constexpr std::size_t kReaders = 2;
constexpr std::size_t kViews = 8;
constexpr std::size_t kApps = 1024;
/// Latency samples each reader can record per window (prefaulted once):
/// about 2.5x what a reader issues in 20 s on a 4-core host. Queries past
/// it still count towards the rate.
constexpr std::size_t kMaxSamples = std::size_t{3} << 19;
constexpr std::size_t kMaxCommitted = 16;
constexpr double kTickS = 0.02;
constexpr int kSetups = 3;
constexpr std::uint32_t kWriterLane = 10;
constexpr std::uint32_t kReplayLane = 100;

place::ClusterView synthetic_fleet(Rng& rng) {
  place::ClusterView view;
  view.rate_bps = DoubleMatrix(kMachines, kMachines, 0.0);
  view.cross_traffic = DoubleMatrix(kMachines, kMachines, 0.0);
  for (std::size_t i = 0; i < kMachines; ++i) {
    for (std::size_t j = 0; j < kMachines; ++j) {
      if (i == j) continue;
      view.rate_bps(i, j) = rng.chance(0.2) ? rng.uniform(units::mbps(300), units::mbps(900))
                                            : rng.uniform(units::mbps(900), units::mbps(1100));
      if (rng.chance(0.2)) view.cross_traffic(i, j) = rng.uniform(0.5, 3.0);
    }
  }
  view.colocation_group.resize(kMachines);
  for (std::size_t m = 0; m < kMachines; ++m) view.colocation_group[m] = static_cast<int>(m);
  view.cores.assign(kMachines, 8.0);
  return view;
}

/// The view re-measured: every pair's rate scaled by up to +-20%.
place::ClusterView perturbed(const place::ClusterView& base, Rng& rng) {
  place::ClusterView view = base;
  for (std::size_t i = 0; i < kMachines; ++i) {
    for (std::size_t j = 0; j < kMachines; ++j) {
      if (i != j) view.rate_bps(i, j) *= rng.uniform(0.8, 1.2);
    }
  }
  return view;
}

struct Inputs {
  place::ClusterView base;
  std::vector<place::ClusterView> views;
  std::vector<place::Application> apps;
  std::unique_ptr<serve::PlacementService> service;
  std::vector<serve::Scratch> scratch;
};

/// Fleet generation, service construction and reader warm-up. The base
/// fleet is fixed (like the session workloads' clouds, it is the system
/// being measured: its placement quality differs by tens of percent from
/// one random fleet to the next); the seed generates the re-measured views
/// the writer publishes and the query apps.
Inputs set_up(std::uint64_t seed) {
  Inputs in;
  Rng fleet_rng(2013);
  in.base = synthetic_fleet(fleet_rng);
  Rng rng(seed * 31 + 7);
  for (std::size_t k = 0; k < kViews; ++k) in.views.push_back(perturbed(in.base, rng));
  workload::GeneratorConfig gen;
  gen.min_tasks = 3;
  gen.max_tasks = 12;
  gen.max_cpu = 2.0;
  gen.size_sigma = 0.3;
  for (std::size_t a = 0; a < kApps; ++a) in.apps.push_back(workload::generate_app(rng, gen));
  in.service = std::make_unique<serve::PlacementService>(in.base, place::RateModel::Hose);
  in.scratch.resize(kReaders);
  for (std::size_t t = 0; t < kReaders; ++t) in.service->place(in.apps[t], in.scratch[t]);
  return in;
}

/// Every task placed on a machine of the fleet, and CPU fits the snapshot.
bool answer_fits(const place::Application& app, const place::Placement& p,
                 const place::ClusterState& state) {
  if (!p.complete() || p.machine_of_task.size() != app.task_count()) return false;
  std::vector<double> demand(kMachines, 0.0);
  for (std::size_t i = 0; i < app.task_count(); ++i) {
    if (p.machine_of_task[i] >= kMachines) return false;
    demand[p.machine_of_task[i]] += app.cpu_demand[i];
  }
  for (std::size_t m = 0; m < kMachines; ++m) {
    if (demand[m] > 0.0 && !state.engine().cpu_fits(m, demand[m])) return false;
  }
  return true;
}

struct Window {
  double p50_s = 0.0;  ///< reference-scaled query latency quantiles
  double p96_s = 0.0;
  double qps = 0.0;    ///< sum over readers of queries / scaled busy time
  double raw_qps = 0.0;  ///< the same over unscaled busy time
  std::uint64_t queries = 0;
  std::uint64_t failed = 0;
  std::uint64_t verified = 0;
  std::uint64_t refreshes = 0;
  std::uint64_t epochs_published = 0;
  std::uint64_t ticks = 0;
  double wall_s = 0.0;
  double max_lag_s = 0.0;
};

/// Runs the readers and the writer for `seconds`. Reader t records its
/// query latencies into samples[t * kMaxSamples, ...); the buffer is
/// allocated and touched once so its size never depends on the query rate.
/// Latencies are scaled to the reference loop's speed, which each reader
/// re-measures on its own CPU every 50 ms.
Window run_window(Inputs& in, std::vector<float>& samples, double seconds,
                  obs::Tracer* tracer) {
  serve::PlacementService& service = *in.service;
  const std::uint64_t epoch0 = service.epoch();
  std::vector<std::uint64_t> refreshes0(kReaders);
  for (std::size_t t = 0; t < kReaders; ++t) refreshes0[t] = in.scratch[t].refreshes();

  std::atomic<bool> stop{false};
  // Each reader tallies in locals and stores its tally once it stops, so the
  // readers share no cache line while they run.
  struct Tally {
    std::size_t recorded = 0, issued = 0;
    std::uint64_t failed = 0, verified = 0;
    double busy_s = 0.0, raw_busy_s = 0.0;
  };
  std::vector<Tally> tally(kReaders);
  Window w;

  const Clock::time_point t0 = Clock::now();
  std::thread writer([&] {
    std::deque<std::size_t> committed;
    std::vector<place::Placement> placement_of(kApps);
    serve::Scratch scratch;
    std::size_t next_app = 0;
    for (std::uint64_t tick = 0;; ++tick) {
      const Clock::time_point due =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(kTickS * static_cast<double>(tick)));
      std::this_thread::sleep_until(due);
      if (stop.load(std::memory_order_relaxed)) break;
      w.max_lag_s = std::max(w.max_lag_s, seconds_between(due, Clock::now()));
      {
        obs::SpanGuard span(tracer, kWriterLane, "serve.publish", "serve");
        service.publish_view(in.views[tick % kViews]);
      }
      if (committed.size() < kMaxCommitted) {
        const std::size_t a = next_app++ % kApps;
        obs::SpanGuard span(tracer, kWriterLane, "serve.commit", "serve");
        placement_of[a] = service.place(in.apps[a], scratch).placement;
        service.commit(in.apps[a], placement_of[a]);
        committed.push_back(a);
      } else {
        obs::SpanGuard span(tracer, kWriterLane, "serve.release", "serve");
        service.release(in.apps[committed.front()], placement_of[committed.front()]);
        committed.pop_front();
      }
      ++w.ticks;
    }
    // Leave the service unoccupied so the next window starts from the same
    // state.
    while (!committed.empty()) {
      service.release(in.apps[committed.front()], placement_of[committed.front()]);
      committed.pop_front();
    }
  });

  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      float* lat = samples.data() + t * kMaxSamples;
      Tally x;
      serve::Scratch& scratch = in.scratch[t];
      double reference_s = reference_loop_s();
      Clock::time_point probed = Clock::now();
      for (std::size_t q = 0; !stop.load(std::memory_order_relaxed); ++q) {
        if (seconds_between(probed, Clock::now()) > 0.05) {
          reference_s = reference_loop_s();
          probed = Clock::now();
        }
        const place::Application& app = in.apps[(t + q * kReaders) % kApps];
        const std::shared_ptr<const serve::ClusterSnapshot> snap = service.snapshot();
        serve::PlacementService::Result r;
        bool ok = true;
        const Clock::time_point q0 = Clock::now();
        {
          // One query in 8 is traced, which keeps a window's spans within
          // the tracer's ring.
          obs::SpanGuard span(q % 8 == 0 ? tracer : nullptr, static_cast<std::uint32_t>(1 + t),
                              "serve.query", "serve");
          try {
            r = service.place(app, scratch);
          } catch (const place::PlacementError&) {
            ok = false;
          }
        }
        const double raw_dt = seconds_between(q0, Clock::now());
        const double dt = raw_dt * kReferenceLoopS / reference_s;
        ++x.issued;
        x.raw_busy_s += raw_dt;
        x.busy_s += dt;
        if (x.recorded < kMaxSamples) lat[x.recorded++] = static_cast<float>(dt);
        if (ok && r.epoch == snap->epoch) {
          ok = answer_fits(app, r.placement, snap->state);
          ++x.verified;
        } else if (ok) {
          ok = r.placement.complete() && r.placement.machine_of_task.size() == app.task_count();
        }
        if (!ok) ++x.failed;
      }
      tally[t] = x;
    });
  }

  while (seconds_between(t0, Clock::now()) < seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  for (std::thread& th : readers) th.join();
  w.wall_s = seconds_between(t0, Clock::now());
  writer.join();

  // Pack the readers' samples contiguously, then take the quantiles.
  float* end = samples.data();
  for (std::size_t t = 0; t < kReaders; ++t) {
    const float* from = samples.data() + t * kMaxSamples;
    const Tally& x = tally[t];
    end = std::copy(from, from + x.recorded, end);
    w.queries += x.issued;
    if (x.busy_s > 0.0) w.qps += static_cast<double>(x.issued) / x.busy_s;
    if (x.raw_busy_s > 0.0) w.raw_qps += static_cast<double>(x.issued) / x.raw_busy_s;
    w.failed += x.failed;
    w.verified += x.verified;
    w.refreshes += in.scratch[t].refreshes() - refreshes0[t];
  }
  w.p96_s = rank_quantile(samples.data(), end, 0.96);
  w.p50_s = rank_quantile(samples.data(), end, 0.50);
  w.epochs_published = service.epoch() - epoch0;
  return w;
}

/// Mean estimated completion of every query app placed one at a time on the
/// unoccupied, unperturbed fleet: deterministic, moves only if placements do.
/// Every one of these answers must be complete and fit CPU.
double placement_quality(const Inputs& in, Report& report) {
  serve::PlacementService service(in.base, place::RateModel::Hose);
  serve::Scratch scratch;
  double sum = 0.0;
  std::size_t bad = 0;
  for (const place::Application& app : in.apps) {
    const serve::PlacementService::Result r = service.place(app, scratch);
    if (!answer_fits(app, r.placement, service.snapshot()->state)) ++bad;
    sum += place::estimate_completion_s(app, r.placement, in.base, place::RateModel::Hose);
  }
  report.check(bad == 0, "serve answer on the unoccupied fleet incomplete or CPU-infeasible");
  return sum / static_cast<double>(in.apps.size());
}

/// Single-threaded replays on the serve fleet: scratch refresh (a clone of
/// a published state), the greedy search itself, and warm-arena queries.
/// Returns the allocations one warm-arena query makes.
double replay_layers(const Inputs& in, obs::Tracer* tracer) {
  serve::PlacementService service(in.base, place::RateModel::Hose);
  const std::shared_ptr<const serve::ClusterSnapshot> snap = service.snapshot();
  for (int k = 0; k < 16; ++k) {
    obs::SpanGuard span(tracer, kReplayLane, "serve.clone", "serve");
    const place::ClusterState copy = snap->state.clone();
  }
  place::GreedyPlacer greedy(place::RateModel::Hose);
  place::ClusterState state = snap->state.clone();
  for (const place::Application& app : in.apps) {
    obs::SpanGuard span(tracer, kReplayLane, "place.place", "place");
    greedy.place(app, state);
  }
  serve::Scratch scratch;
  service.place(in.apps[0], scratch);
  const std::uint64_t a0 = thread_allocations();
  for (const place::Application& app : in.apps) service.place(app, scratch);
  return static_cast<double>(thread_allocations() - a0) /
         static_cast<double>(in.apps.size());
}

/// Session-only per-layer counts, zero here: no session layer runs.
void zero_session_layers(Report& report) {
  for (const char* name :
       {"core.events_per_app", "core.stale_skipped", "core.decisions",
        "measure.probes_per_app", "measure.pairs_per_refresh", "measure.rounds_per_refresh",
        "packetsim.records_per_train", "place.candidates_per_app", "place.txn_ops_per_app",
        "serve.batch_attempts_per_retry", "agent.useful_probe_frac",
        "agent.wire_bytes_per_cycle", "agent.retransmits_per_cycle",
        "agent.pairs_missing_frac", "agent.pairs_defaulted", "forecast.skip_frac",
        "alloc.per_decision"}) {
    report.exact(name, 0.0, "n/a");
  }
}

}  // namespace

Report run_serve_workload(const Options& opts, obs::Tracer* tracer) {
  Report report;
  std::vector<float> samples(kReaders * kMaxSamples, 0.0f);
  const double samples_mb =
      static_cast<double>(samples.size() * sizeof(float)) / (1024.0 * 1024.0);
  std::vector<double> setup_s;
  Inputs in;
  for (int k = 0; k < kSetups; ++k) {
    const double r0 = reference_loop_s();
    const Clock::time_point t0 = Clock::now();
    in = set_up(opts.seed);
    const double dt = seconds_between(t0, Clock::now());
    setup_s.push_back(dt * kReferenceLoopS / (0.5 * (r0 + reference_loop_s())));
  }

  // Traced runs split the run into an untraced and a traced window on the
  // same inputs; the two query rates give the tracing overhead.
  const double window_s = opts.trace ? opts.seconds / 2.0 : opts.seconds;
  const Window w = run_window(in, samples, window_s, nullptr);
  const Window traced = opts.trace ? run_window(in, samples, window_s, tracer) : Window{};
  const double qps = w.qps;
  report.attempted = w.queries + traced.queries;
  report.failed = w.failed + traced.failed;
  for (const Window* x : {&w, &traced}) {
    report.check(x->failed == 0, "serve answer incomplete or CPU-infeasible on its epoch");
    report.check(x->verified * 2 >= x->queries,
                 "fewer than half of the serve answers could be checked on their epoch");
  }
  const double quality = placement_quality(in, report);

  for (const Window* x : {&w, &traced}) {
    if (x->queries == 0) continue;
    std::cout << "serve-churn window: " << x->queries << " queries in " << x->wall_s
              << " s, " << x->verified << " checked on their epoch, " << x->failed
              << " failed; writer " << x->ticks << " ticks, " << x->epochs_published
              << " epochs, max lag " << 1e3 * x->max_lag_s << " ms; scratch refreshes "
              << x->refreshes << "; " << x->qps << " queries per scaled busy second, "
              << x->raw_qps << " per unscaled busy second\n";
  }
  std::cout << "  failed_frac "
            << static_cast<double>(report.failed) / static_cast<double>(report.attempted)
            << "\n";

  if (!opts.trace) {
    report.metric("throughput_per_s", qps, "1/s");
    report.metric("latency_p50_ms", 1e3 * w.p50_s, "ms");
    report.metric("latency_p96_ms", 1e3 * w.p96_s, "ms");
    report.exact("app_runtime_mean_s", quality, "sim_s");
    report.metric("setup_s", rank_quantile(setup_s.begin(), setup_s.end(), 0.5), "s");
    // The latency buffer is the benchmark's own and resident for the whole
    // run (allocated and touched before set-up), so it is left out.
    report.metric("peak_rss_mb", peak_rss_mb() - samples_mb, "MiB");
    return report;
  }

  const double allocs_per_query = replay_layers(in, tracer);
  zero_session_layers(report);
  report.metric("serve.refreshes_per_publish",
                w.epochs_published > 0 ? static_cast<double>(w.refreshes) /
                                             static_cast<double>(w.epochs_published)
                                       : 0.0,
                "ratio");
  report.exact("alloc.per_query", allocs_per_query, "count");
  report.metric("trace.overhead_frac", (qps - traced.qps) / qps, "frac");
  return report;
}

}  // namespace perfbench
