#pragma once
// Shared plumbing of the choreo benchmark binary: options, clocks, rank
// quantiles, the allocation counter, CPU picking and reference-scaled host
// times, and the result record every workload fills and main() prints as
// one JSON line.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace choreo::obs {
class Tracer;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Heap allocations (global operator new calls) made by the calling thread
/// so far. The counter is thread-local: every counted region runs on one
/// thread, and serve-churn's reader threads then never contend on it.
std::uint64_t thread_allocations();

/// Seconds one run of the benchmark's reference loop takes on the calling
/// thread's CPU right now: a fixed event-queue workload of about 0.5 ms
/// (heap pushes and pops of std::function events with 48-byte captures, so
/// every push allocates). On a host whose vCPUs share cores with other
/// tenants, its speed tracks how fast allocation-heavy simulation code
/// currently runs on that CPU.
double reference_loop_s();

/// The reference loop's time on an undisturbed CPU of the 4-core host the
/// benchmark was defined on. Host times are reported scaled to it.
constexpr double kReferenceLoopS = 0.5e-3;

/// Moves the calling thread to the allowed CPU where the reference loop
/// currently runs fastest and returns that time. Contention differs per CPU
/// and moves every second or so, so callers re-pick between timed steps.
double pin_to_quietest_cpu();

/// Re-pins the calling thread to the quietest CPU at most every 50 ms of
/// wall time (call between timed regions) and converts host times to
/// reference-scaled times: a duration measured while the reference loop
/// ran at time r is reported as duration * kReferenceLoopS / r.
class CpuPicker {
 public:
  void maybe_repick() {
    const Clock::time_point now = Clock::now();
    if (picked_ && seconds_between(last_, now) < 0.05) return;
    reference_s_ = pin_to_quietest_cpu();
    last_ = Clock::now();
    picked_ = true;
  }
  /// `host_s` measured since the last re-pick, scaled to the reference
  /// speed. Durations long enough for contention to change meanwhile are
  /// scaled by the mean of the reference loop before and after them.
  double scaled(double host_s) const {
    double r = reference_s_;
    if (host_s > 0.01) r = 0.5 * (r + reference_loop_s());
    return host_s * kReferenceLoopS / r;
  }

 private:
  Clock::time_point last_;
  double reference_s_ = kReferenceLoopS;
  bool picked_ = false;
};

/// The ceil(q*n)-th smallest of the n samples in [first, last), reordering
/// the range (0 for an empty range).
template <class It>
double rank_quantile(It first, It last, double q) {
  const auto n = static_cast<std::size_t>(last - first);
  if (n == 0) return 0.0;
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  const It nth = first + static_cast<std::ptrdiff_t>(rank <= 1 ? 0 : std::min(rank, n) - 1);
  std::nth_element(first, nth, last);
  return static_cast<double>(*nth);
}

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where a traced run writes its Chrome trace-event JSON.
  std::string trace_out;
};

/// Everything one invocation reports. `metrics` become the JSON "metrics"
/// object; `deterministic` values must repeat bit-exactly for a seed and
/// are fingerprinted across invocations by run.py.
struct Report {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<std::string> violations;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> deterministic;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// A metric that must also repeat bit-exactly for the seed.
  void exact(const std::string& name, double value, const std::string& unit) {
    metric(name, value, unit);
    deterministic.push_back({name, value, unit});
  }
  void check(bool ok, const std::string& what) {
    if (!ok) violations.push_back(what);
  }
  std::string to_json() const;
};

Report run_session_workload(const Options& opts, choreo::obs::Tracer* tracer);
Report run_serve_workload(const Options& opts, choreo::obs::Tracer* tracer);

}  // namespace perfbench
