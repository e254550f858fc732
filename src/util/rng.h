#pragma once

#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "util/require.h"

namespace choreo {

/// The first output of `std::mt19937_64(seed)`, without building the
/// engine's 312-word state. That output tempers the first twist step, which
/// reads state words 0, 1 and 156 only; seeding fills the words in order, so
/// 156 seeding steps stand in for 311 plus a 312-word twist.
std::uint64_t mt19937_64_first_output(std::uint64_t seed);

/// A uniform random bit generator over the full 64-bit range, as
/// `std::mt19937_64` is, that yields one given value. Fed a precomputed
/// engine output (mt19937_64_first_output), a standard distribution that
/// draws once returns exactly what it would have returned from the engine.
class OneShotBits {
 public:
  using result_type = std::uint64_t;
  explicit OneShotBits(result_type bits) : bits_(bits) {}
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() {
    CHOREO_ASSERT_MSG(!drawn_, "OneShotBits drawn twice");
    drawn_ = true;
    return bits_;
  }

 private:
  result_type bits_;
  bool drawn_ = false;
};

/// Deterministic pseudo-random source used by every stochastic component.
///
/// All simulators, workload generators and placement baselines take an `Rng&`
/// (or a seed) explicitly, so that experiments are reproducible and tests can
/// pin behaviour. Never construct from global entropy inside the library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    CHOREO_REQUIRE(lo <= hi);
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    CHOREO_REQUIRE(lo <= hi);
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Bernoulli trial with success probability p.
  bool chance(double p) {
    CHOREO_REQUIRE(p >= 0.0 && p <= 1.0);
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Exponential with mean `mean` (not rate).
  double exponential(double mean) {
    CHOREO_REQUIRE(mean > 0.0);
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev) {
    CHOREO_REQUIRE(stddev >= 0.0);
    if (stddev == 0.0) return mean;
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Log-normal where `mu`/`sigma` parameterise the underlying normal.
  double lognormal(double mu, double sigma) {
    CHOREO_REQUIRE(sigma >= 0.0);
    return std::lognormal_distribution<double>(mu, sigma)(engine_);
  }

  /// Pareto with shape `alpha` and scale `xm` (minimum value).
  double pareto(double alpha, double xm) {
    CHOREO_REQUIRE(alpha > 0.0 && xm > 0.0);
    const double u = uniform(0.0, 1.0);
    return xm / std::pow(1.0 - u, 1.0 / alpha);
  }

  /// Picks an index in [0, weights.size()) proportionally to `weights`.
  std::size_t weighted_index(const std::vector<double>& weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Derives an independent child generator; useful for giving each component
  /// of an experiment its own stream while keeping a single top-level seed.
  Rng fork() { return Rng(engine_()); }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace choreo
