// choreo_sim: the repository's experiment driver. Spin up an emulated
// provider, rent VMs, measure, place a workload with any algorithm, execute
// it, and print the outcome — everything the fig10 benches do, but
// parameterized from the command line so new scenarios need no recompile.
//
//   choreo_sim --provider ec2 --vms 10 --apps 2 --algorithm greedy --seed 7
//   choreo_sim --mode sequence --apps 4 --algorithm round-robin
//   choreo_sim --mode session --tenants 3 --vms 8 --duration-hours 12 --bursty
//   choreo_sim --mode session --tenants 8 --threads 4   # sharded, same output
//   choreo_sim --mode agents --vms 20 --cycles 8 --loss 0.2 --crash-rate 0.02
//   choreo_sim --mode session --agents --batch --trace=trace.json --metrics=m.json
//   choreo_sim --help
//
// Exit status: 0 on success, 1 when the workload has no feasible placement,
// 2 on a bad flag or flag value (the message and usage go to stderr).
//
// --trace=PATH writes a Chrome trace-event JSON (load it at ui.perfetto.dev)
// with one lane per tenant; --metrics=PATH dumps the obs registry snapshot.
// Either flag also runs an executed-transfer spot check after a session so
// the trace covers the flowsim plane end to end.
//
// --mode session drives the discrete-event core::SessionRuntime: N tenants
// on disjoint VM slices of one cloud, each streaming a diurnal trace
// workload (optionally MMPP-bursty), interleaved on a shared clock — a
// manual scenario harness for the control plane.
//
// --mode agents drives the distributed measurement plane: one host agent
// per VM reporting to a ClusterAgent over a simulated transport whose
// fault profile (--loss / --duplicate / --delay-max / --crash-rate) is set
// from the command line, with a per-cycle view of what survived the wire.

#include <iostream>
#include <memory>

#include "agent/measure_cycle.h"
#include "agent/options.h"
#include "agent/plane.h"
#include "core/controller.h"
#include "core/sharded.h"
#include "measure/throughput_matrix.h"
#include "obs/observer.h"
#include "place/baselines.h"
#include "place/greedy.h"
#include "place/ilp.h"
#include "util/args.h"
#include "util/table.h"
#include "util/units.h"
#include "workload/stream.h"
#include "workload/trace.h"

namespace {

using namespace choreo;

std::unique_ptr<place::Placer> make_placer(const std::string& name,
                                           place::RateModel model, std::uint64_t seed) {
  if (name == "greedy") return std::make_unique<place::GreedyPlacer>(model);
  if (name == "random") return std::make_unique<place::RandomPlacer>(seed);
  if (name == "round-robin") return std::make_unique<place::RoundRobinPlacer>();
  if (name == "min-machines") return std::make_unique<place::MinMachinesPlacer>();
  if (name == "ilp") return std::make_unique<place::IlpPlacer>(model);
  throw PreconditionError("unknown algorithm: " + name +
                          " (greedy|random|round-robin|min-machines|ilp)");
}

cloud::ProviderProfile make_profile(const std::string& name) {
  if (name == "ec2") return cloud::ec2_2013();
  if (name == "ec2-2012") return cloud::ec2_2012();
  if (name == "rackspace") return cloud::rackspace();
  throw PreconditionError("unknown provider: " + name + " (ec2|ec2-2012|rackspace)");
}

/// A count flag as a size; negative values are rejected before the cast
/// (a wrapped-around count would ask for billions of VMs, cycles or threads).
std::size_t get_count(const Args& args, const std::string& name) {
  const std::int64_t value = args.get_int(name);
  if (value < 0) {
    throw PreconditionError("--" + name + " must be non-negative, got " +
                            std::to_string(value));
  }
  return static_cast<std::size_t>(value);
}

/// Runs the mode `args` selects and returns its exit code.
int run(const Args& args) {
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
  const std::size_t n_vms = get_count(args, "vms");
  const std::size_t n_apps = get_count(args, "apps");
  const place::RateModel model =
      args.get("rate-model") == "pipe" ? place::RateModel::Pipe : place::RateModel::Hose;

  cloud::Cloud cloud(make_profile(args.get("provider")), seed);
  const auto vms = cloud.allocate_vms(n_vms);
  std::cout << "provider " << cloud.profile().name << ", " << n_vms << " VMs, seed "
            << seed << "\n";

  // Observability plane: a sharded registry (counter totals merge
  // deterministically) and/or a ring-buffered tracer, attached to every
  // plane the chosen mode drives. Lane 0 is the driver; tenants get their
  // own lanes below.
  constexpr std::uint32_t kObsShards = 16;
  const std::string trace_path = args.get("trace");
  const std::string metrics_path = args.get("metrics");
  std::unique_ptr<obs::Registry> registry;
  std::unique_ptr<obs::Tracer> tracer;
  obs::Observer obsv;
  if (!metrics_path.empty()) {
    registry = std::make_unique<obs::Registry>(kObsShards);
    obsv.metrics = registry.get();
  }
  if (!trace_path.empty()) {
    tracer = std::make_unique<obs::Tracer>(std::size_t{1} << 18);
    tracer->set_lane_name(0, "driver");
    obsv.tracer = tracer.get();
  }
  if (obsv.enabled()) cloud.set_observer(obsv);
  const auto write_obs = [&] {
    if (registry) registry->snapshot().write_json(metrics_path);
    if (tracer) tracer->write_json(trace_path);
  };

  measure::MeasurementPlan plan;
  plan.train.bursts = 10;
  plan.train.burst_length = args.get("provider") == "rackspace" ? 2000 : 200;

  if (args.get("mode") == "batch") {
    // Workload from the synthetic HP-Cloud trace; measurement (or ground
    // truth with --truth) up front, placement by the chosen algorithm.
    const workload::HpCloudTrace trace(seed * 7 + 5, workload::TraceConfig{});
    Rng rng(seed * 11 + 3);
    const place::ClusterView view =
        args.get_flag("truth")
            ? measure::true_cluster_view(cloud, vms, seed)
            : agent::MeasureCycle(cloud, vms, plan, {}, {}).run(seed).view;
    const auto placer = make_placer(args.get("algorithm"), model, seed);
    const place::Application combined = place::combine(trace.sample_batch(rng, n_apps));
    place::ClusterState state(view);
    const place::Placement placement = placer->place(combined, state);

    Table t({"task", "machine", "cpu"});
    for (std::size_t i = 0; i < combined.task_count(); ++i) {
      t.add_row({std::to_string(i), std::to_string(placement.machine_of_task[i]),
                 fmt(combined.cpu_demand[i], 1)});
    }
    std::cout << t.to_string();

    std::vector<cloud::Cloud::Transfer> transfers;
    for (std::size_t i = 0; i < combined.task_count(); ++i) {
      for (std::size_t j = 0; j < combined.task_count(); ++j) {
        const double b = combined.traffic_bytes(i, j);
        if (b <= 0.0) continue;
        transfers.push_back({vms[placement.machine_of_task[i]],
                             vms[placement.machine_of_task[j]], b, 0.0});
      }
    }
    const double est = place::estimate_completion_s(combined, placement, view, model);
    std::cout << "estimated completion: " << fmt(est, 2) << " s\n";
    if (!transfers.empty()) {
      const auto result = cloud.execute(transfers, seed + 1);
      std::cout << "executed completion:  " << fmt(result.makespan_s, 2) << " s ("
                << transfers.size() << " transfers)\n";
    }
    write_obs();
    return 0;
  }

  // The per-pair refresh mix a session spent its probes on (and saved them
  // with): the Choreo::last_measure() counters summed over every cycle.
  const auto print_probe_mix = [](const core::SessionLog& log) {
    std::cout << "probe mix: " << log.pairs_probed << " probed ("
              << log.pairs_volatile << " volatile, " << log.pairs_unpredictable
              << " unpredictable, " << log.pairs_changepoint
              << " change-point); " << log.pairs_predictable
              << " skipped on forecasts, " << log.pairs_predicted
              << " view entries predicted\n";
  };

  if (args.get("mode") == "sequence") {
    const workload::HpCloudTrace trace(seed * 7 + 5, workload::TraceConfig{});
    Rng rng(seed * 11 + 3);
    auto apps = trace.sample_sequence(rng, n_apps, args.get_double("mean-gap"));
    core::ControllerConfig config;
    config.choreo.plan = plan;
    config.choreo.rate_model = model;
    config.choreo.use_measured_view = !args.get_flag("truth");
    config.choreo.forecast.enabled = args.get_flag("forecast");
    config.choreo.obs = obsv.with_lane(1, 1 % kObsShards);
    if (tracer) tracer->set_lane_name(1, "controller");
    core::Controller controller(cloud, vms, config);
    const core::SessionLog log = controller.run(apps);

    Table t({"t (s)", "event", "detail"});
    for (const core::SessionEvent& e : log.events) {
      t.add_row({fmt(e.time_s, 0), core::to_string(e.kind), log.detail(e)});
    }
    std::cout << t.to_string();
    std::cout << "total runtime (sum over apps): " << fmt(log.total_runtime_s, 1)
              << " s; re-evaluations: " << log.reevaluations << " ("
              << log.reevaluations_adopted << " adopted, " << log.tasks_migrated
              << " tasks migrated)\n";
    print_probe_mix(log);
    write_obs();
    return 0;
  }

  if (args.get("mode") == "session") {
    const std::size_t n_tenants = get_count(args, "tenants");
    workload::TraceConfig trace_cfg;
    trace_cfg.duration_hours = args.get_double("duration-hours");
    trace_cfg.apps_per_day = args.get_double("apps-per-day");
    trace_cfg.gen.min_tasks = 3;
    trace_cfg.gen.max_tasks = 6;
    trace_cfg.gen.max_cpu = 2.0;

    // Per-tenant workload streams: a diurnal trace, optionally re-timed by
    // the MMPP burstiness modulator. Streams must outlive the session.
    std::vector<std::unique_ptr<workload::ArrivalStream>> streams;
    std::vector<core::TenantSpec> tenants;
    for (std::size_t i = 0; i < n_tenants; ++i) {
      auto trace_stream = std::make_unique<workload::TraceArrivalStream>(
          seed * 1000 + i, trace_cfg);
      workload::ArrivalStream* source = trace_stream.get();
      streams.push_back(std::move(trace_stream));
      if (args.get_flag("bursty")) {
        // Calm/burst states scaled to the configured arrival rate, so
        // --apps-per-day still governs the long-run average under --bursty.
        workload::MmppArrivalStream::Config mmpp;
        const double base_rate_per_s = trace_cfg.apps_per_day / 86400.0;
        mmpp.rate_per_s = {0.5 * base_rate_per_s, 3.0 * base_rate_per_s};
        mmpp.mean_sojourn_s = {1800.0, 300.0};
        mmpp.duration_s = trace_cfg.duration_hours * 3600.0;
        streams.push_back(std::make_unique<workload::MmppArrivalStream>(
            *source, seed * 2000 + i, mmpp));
        source = streams.back().get();
      }
      core::TenantSpec spec;
      spec.name = "tenant" + std::to_string(i);
      spec.vms = (i == 0) ? vms : cloud.allocate_vms(n_vms);
      spec.config.choreo.plan = plan;
      spec.config.choreo.rate_model = model;
      spec.config.choreo.use_measured_view = !args.get_flag("truth");
      spec.config.choreo.forecast.enabled = args.get_flag("forecast");
      if (args.get_flag("batch")) spec.config.batch.enabled = true;
      if (args.get_flag("agents")) {
        spec.config.agents.enabled = true;
        spec.config.agents.transport.seed = seed * 17 + 3 + i;
        spec.config.agents.transport.fault.loss = args.get_double("loss");
        spec.config.agents.transport.fault.duplicate = args.get_double("duplicate");
        spec.config.agents.transport.fault.delay_max_cycles =
            static_cast<std::uint32_t>(get_count(args, "delay-max"));
        spec.config.agents.crash_rate = args.get_double("crash-rate");
        spec.config.agents.crash_seed = seed + 11 + i;
      }
      const auto lane = static_cast<std::uint32_t>(1 + i);
      spec.config.choreo.obs = obsv.with_lane(lane, lane % kObsShards);
      if (tracer) tracer->set_lane_name(lane, "tenant" + std::to_string(i));
      spec.stream = source;
      tenants.push_back(std::move(spec));
    }

    // --threads 1 (the default) keeps the single-threaded oracle path;
    // anything higher routes through the sharded control plane, whose
    // output is bit-identical for any shard/thread count.
    const auto n_threads = static_cast<unsigned>(get_count(args, "threads"));
    core::MultiTenantLog result;
    std::vector<core::SessionRuntime::Stats> tenant_stats;
    if (n_threads <= 1) {
      core::MultiTenantSession session(cloud, std::move(tenants));
      result = session.run();
      tenant_stats = session.tenant_stats();
    } else {
      core::ShardedOptions sharded;
      sharded.threads = n_threads;
      sharded.shards = get_count(args, "shards");
      sharded.obs = obsv;
      core::ShardedSession session(cloud, std::move(tenants), sharded);
      result = session.run();
      tenant_stats = session.tenant_stats();
      std::cout << "sharded control plane: " << session.stats().shards
                << " shards, " << session.stats().threads << " threads, "
                << session.stats().epoch_grants << " epoch grants\n";
    }

    Table t({"tenant", "apps", "rejected", "reevals (adopted)", "migrated",
             "runtime sum (s)", "measure wall (s)", "probes"});
    for (std::size_t i = 0; i < result.tenants.size(); ++i) {
      const core::SessionLog& log = result.tenants[i];
      t.add_row({"tenant" + std::to_string(i), std::to_string(log.apps.size()),
                 std::to_string(log.rejected),
                 std::to_string(log.reevaluations) + " (" +
                     std::to_string(log.reevaluations_adopted) + ")",
                 std::to_string(log.tasks_migrated), fmt(log.total_runtime_s, 1),
                 fmt(log.measurement_wall_s, 1), std::to_string(log.pairs_probed)});
    }
    const core::SessionLog& agg = result.aggregate;
    t.add_row({"aggregate", std::to_string(agg.apps.size()),
               std::to_string(agg.rejected),
               std::to_string(agg.reevaluations) + " (" +
                   std::to_string(agg.reevaluations_adopted) + ")",
               std::to_string(agg.tasks_migrated), fmt(agg.total_runtime_s, 1),
               fmt(agg.measurement_wall_s, 1), std::to_string(agg.pairs_probed)});
    std::cout << t.to_string();

    std::uint64_t events = 0;
    std::size_t peak_state = 0;
    for (const core::SessionRuntime::Stats& s : tenant_stats) {
      events += s.events_processed;
      peak_state += s.peak_queue + s.peak_in_flight + s.peak_waiting;
    }
    std::cout << "aggregate events: " << agg.events.size() << " merged, " << events
              << " processed; peak runtime state (events+apps): " << peak_state
              << "\n";
    print_probe_mix(agg);

    if (obsv.enabled()) {
      // Executed-transfer spot check: place a small sampled batch on ground
      // truth and run its transfers through the fluid simulator — the
      // estimated-vs-executed cross-check, and the reason a traced session
      // also covers the flowsim plane.
      const workload::HpCloudTrace trace(seed * 7 + 5, workload::TraceConfig{});
      Rng rng(seed * 11 + 3);
      const place::ClusterView view = measure::true_cluster_view(cloud, vms, seed);
      place::GreedyPlacer greedy(model);
      // Step the batch down until the joint application fits the fleet.
      for (std::size_t batch = 3; batch >= 1; --batch) {
        const place::Application combined =
            place::combine(trace.sample_batch(rng, batch));
        place::ClusterState state(view);
        place::Placement placement;
        try {
          placement = greedy.place(combined, state);
        } catch (const place::PlacementError&) {
          continue;
        }
        std::vector<cloud::Cloud::Transfer> transfers;
        for (std::size_t i = 0; i < combined.task_count(); ++i) {
          for (std::size_t j = 0; j < combined.task_count(); ++j) {
            const double b = combined.traffic_bytes(i, j);
            if (b <= 0.0) continue;
            transfers.push_back({vms[placement.machine_of_task[i]],
                                 vms[placement.machine_of_task[j]], b, 0.0});
          }
        }
        if (transfers.empty()) continue;
        const double est =
            place::estimate_completion_s(combined, placement, view, model);
        const auto exec = cloud.execute(transfers, seed + 1);
        std::cout << "flowsim spot-check: estimated " << fmt(est, 2)
                  << " s, executed " << fmt(exec.makespan_s, 2) << " s ("
                  << transfers.size() << " transfers)\n";
        break;
      }
    }
    write_obs();
    return 0;
  }

  if (args.get("mode") == "agents") {
    agent::AgentOptions opts;
    opts.enabled = true;
    opts.transport.seed = seed * 17 + 3;
    opts.transport.fault.loss = args.get_double("loss");
    opts.transport.fault.duplicate = args.get_double("duplicate");
    opts.transport.fault.delay_max_cycles =
        static_cast<std::uint32_t>(get_count(args, "delay-max"));
    opts.crash_rate = args.get_double("crash-rate");
    opts.crash_seed = seed + 11;
    opts.max_samples_per_report = get_count(args, "report-budget");

    measure::RefreshPolicy refresh;
    forecast::ForecastOptions forecast;
    forecast.enabled = args.get_flag("forecast");
    agent::MeasureCycle measurement(cloud, vms, plan, refresh, forecast);
    agent::AgentPlane plane(measurement, opts);
    if (obsv.enabled()) plane.set_observer(obsv);

    const std::uint64_t n_cycles = get_count(args, "cycles");
    Table t({"epoch", "planned", "probed", "missing", "defaulted", "reports",
             "wall (s)"});
    for (std::uint64_t epoch = 1; epoch <= n_cycles; ++epoch) {
      const agent::MeasureReport rep = plane.run_cycle(epoch).report;
      t.add_row({std::to_string(epoch), std::to_string(rep.agent_pairs_planned),
                 std::to_string(rep.pairs_probed), std::to_string(rep.agent_pairs_missing),
                 std::to_string(rep.pairs_defaulted),
                 std::to_string(rep.agent_reports), fmt(rep.wall_time_s, 1)});
    }
    std::cout << t.to_string();

    const agent::AgentPlane::Stats s = plane.stats();
    std::cout << "transport: " << s.transport.sent << " sent, "
              << s.transport.delivered << " delivered, " << s.transport.dropped
              << " dropped, " << s.transport.duplicated << " duplicated, "
              << s.transport.delayed << " delayed ("
              << fmt(static_cast<double>(s.transport.bytes_sent) / 1e6, 2)
              << " MB on the wire)\n";
    std::cout << "agents: " << s.reports_sent << " reports ("
              << s.retransmits << " retransmits, " << s.samples_deferred
              << " samples deferred), " << s.crashes << " crashes, " << s.restarts
              << " restarts; controller dropped " << s.cluster.duplicates_dropped
              << " duplicates, " << s.cluster.stale_generation_dropped
              << " stale-generation reports, re-synced " << s.cluster.resyncs
              << " incarnations\n";
    write_obs();
    return 0;
  }

  std::cerr << "unknown --mode " << args.get("mode") << "\n" << args.usage("choreo_sim");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace choreo;

  Args args;
  args.add_option("provider", "ec2", "cloud model: ec2 | ec2-2012 | rackspace");
  args.add_option("vms", "10", "VMs to rent (per tenant in session mode)");
  args.add_option("apps", "2", "applications to place");
  args.add_option("mode", "batch",
                  "batch (combine & place at once) | sequence | session | agents");
  args.add_option("algorithm", "greedy",
                  "greedy | random | round-robin | min-machines | ilp");
  args.add_option("rate-model", "hose", "hose | pipe (for greedy/ilp)");
  args.add_option("seed", "1", "experiment seed");
  args.add_option("mean-gap", "60", "sequence mode: mean inter-arrival gap (s)");
  args.add_option("tenants", "2", "session mode: tenants sharing the cloud");
  args.add_option("duration-hours", "6", "session mode: trace length per tenant");
  args.add_option("apps-per-day", "48", "session mode: per-tenant arrival rate");
  args.add_option("threads", "1",
                  "session mode: worker threads for the sharded control "
                  "plane (1 = single-threaded oracle path; output is "
                  "identical either way)");
  args.add_option("shards", "0",
                  "session mode: tenant shards (0 = one per thread); only "
                  "meaningful with --threads > 1");
  args.add_option("cycles", "8", "agents mode: measurement cycles to run");
  args.add_option("loss", "0", "agents mode: per-message loss probability");
  args.add_option("duplicate", "0", "agents mode: per-message duplicate probability");
  args.add_option("delay-max", "0", "agents mode: max delivery delay (cycles)");
  args.add_option("crash-rate", "0", "agents mode: per-agent crash probability/cycle");
  args.add_option("report-budget", "0",
                  "agents mode: max samples per StatsReport (0 = unlimited)");
  args.add_option("trace", "",
                  "write a Chrome trace-event JSON of the run to this path "
                  "(open in Perfetto)");
  args.add_option("metrics", "",
                  "write the metrics-registry snapshot JSON to this path");
  args.add_flag("agents",
                "session mode: measure through the distributed agent plane "
                "(--loss/--crash-rate etc. apply per tenant)");
  args.add_flag("batch",
                "session mode: batched joint placement of queued arrivals");
  args.add_flag("bursty", "session mode: MMPP-modulate the arrival process");
  args.add_flag("forecast",
                "enable the forecast plane: predictability-driven refresh + "
                "uncertainty-discounted placement rates");
  args.add_flag("truth", "place on ground-truth rates instead of packet trains");
  args.add_flag("help", "show this help");

  try {
    args.parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n" << args.usage("choreo_sim");
    return 2;
  }
  if (args.get_flag("help")) {
    std::cout << args.usage("choreo_sim");
    return 0;
  }

  try {
    return run(args);
  } catch (const place::PlacementError& e) {
    std::cerr << "no feasible placement: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    // Bad flag values (PreconditionError) and anything else the run rejects.
    std::cerr << e.what() << "\n" << args.usage("choreo_sim");
    return 2;
  }
}
