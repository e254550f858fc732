// choreo_perfbench: the repository benchmark's measuring binary. run.py
// builds it and is the entry point; the binary can also be run directly:
//
//   choreo_perfbench --workload session-probe --seed 1 --seconds 10
//   choreo_perfbench --workload serve-churn --seed 1 --seconds 10 --trace 1 --trace-out t.json
//
// Workloads: session-probe, session-truth, session-agents (multi-tenant
// SessionRuntime sessions stepped by this program) and serve-churn
// (PlacementService readers under an open-loop writer). Every input is
// generated from --seed. Human-readable lines go first; the last line of
// stdout is one JSON object with correct/attempted/failed/metrics plus the
// deterministic fingerprint and any correctness violations. Exit status is
// non-zero when a correctness check failed.

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <queue>
#include <string>

#include <sched.h>

#include "common.h"
#include "obs/trace.h"
#include "util/json.h"

namespace perfbench {

double reference_loop_s() {
  struct Event {
    double time;
    std::function<void()> fire;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const { return a.time > b.time; }
  };
  struct Payload {
    double words[6];
  };
  const Clock::time_point t0 = Clock::now();
  std::priority_queue<Event, std::vector<Event>, Later> queue;
  double sink = 0.0;
  for (int i = 0; i < 256; ++i) {
    const Payload p{{static_cast<double>(i)}};
    queue.push({static_cast<double>(i), [p, &sink] { sink += p.words[0]; }});
  }
  for (int n = 0; n < 3000; ++n) {
    Event e = queue.top();
    queue.pop();
    e.fire();
    const Payload p{{0.0, static_cast<double>(n)}};
    queue.push({e.time + (n * 7919) % 97, [p, &sink] { sink += p.words[1]; }});
  }
  const double dt = seconds_between(t0, Clock::now());
  return sink < 0.0 ? dt + 1e-12 : dt;
}

double pin_to_quietest_cpu() {
  static const cpu_set_t allowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    sched_getaffinity(0, sizeof set, &set);
    return set;
  }();
  int best = -1;
  double best_s = 0.0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0) continue;
    const double s = std::min(reference_loop_s(), reference_loop_s());
    if (best < 0 || s < best_s) {
      best = cpu;
      best_s = s;
    }
  }
  cpu_set_t pick = allowed;
  if (best >= 0) {
    CPU_ZERO(&pick);
    CPU_SET(best, &pick);
  }
  sched_setaffinity(0, sizeof pick, &pick);
  return best >= 0 ? best_s : reference_loop_s();
}

double peak_rss_mb() {
  // VmHWM belongs to this process image; getrusage's ru_maxrss would also
  // count the parent's footprint inherited across fork before exec.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0.0;
}

namespace {

using choreo::util::json_number;
using choreo::util::json_quote;

std::string metrics_json(const std::vector<Report::Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += json_quote(metrics[i].name) + ": {\"value\": " +
           json_number(metrics[i].value) + ", \"unit\": " + json_quote(metrics[i].unit) +
           "}";
  }
  return out + "}";
}

}  // namespace

std::string Report::to_json() const {
  std::string out = "{\"correct\": ";
  out += violations.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": " + metrics_json(metrics);
  out += ", \"deterministic\": " + metrics_json(deterministic);
  out += ", \"violations\": [";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    if (i) out += ", ";
    out += json_quote(violations[i]);
  }
  return out + "]}";
}

}  // namespace perfbench

namespace {

int usage(const char* msg) {
  std::cerr << "choreo_perfbench: " << msg
            << "\nusage: choreo_perfbench --workload NAME --seed N --seconds S "
               "[--trace 0|1] [--trace-out PATH]\n";
  return 2;
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty() || s[0] == '-') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || *end != '\0') return false;
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    std::uint64_t n = 0;
    if (key == "--workload") {
      opts.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      if (!parse_u64(value, n)) return usage("--seed takes a non-negative integer");
      opts.seed = n;
    } else if (key == "--seconds") {
      if (!parse_u64(value, n) || n == 0) return usage("--seconds takes a positive integer");
      opts.seconds = static_cast<double>(n);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      opts.trace = value == "1";
    } else if (key == "--trace-out") {
      opts.trace_out = value;
    } else {
      return usage(("unknown option " + key).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (opts.trace && opts.trace_out.empty()) return usage("--trace 1 needs --trace-out");

  std::unique_ptr<choreo::obs::Tracer> tracer;
  if (opts.trace) tracer = std::make_unique<choreo::obs::Tracer>(std::size_t{1} << 18);

  perfbench::Report report;
  try {
    if (opts.workload == "serve-churn") {
      report = perfbench::run_serve_workload(opts, tracer.get());
    } else if (opts.workload.rfind("session-", 0) == 0) {
      report = perfbench::run_session_workload(opts, tracer.get());
    } else {
      return usage(("unknown workload " + opts.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::cerr << "choreo_perfbench: " << opts.workload << " failed: " << e.what() << "\n";
    return 1;
  }
  if (tracer) {
    tracer->write_json(opts.trace_out);
    std::cout << "trace: " << tracer->size() << " spans, " << tracer->dropped()
              << " dropped -> " << opts.trace_out << "\n";
    report.check(tracer->dropped() == 0, "tracer ring overflowed");
  }
  for (const std::string& v : report.violations) std::cout << "VIOLATION: " << v << "\n";
  std::cout << report.to_json() << std::endl;
  return report.violations.empty() ? 0 : 1;
}
