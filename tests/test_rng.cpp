#include "util/rng.h"

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <vector>

#include "util/stats.h"

namespace choreo {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 20; ++i) {
    if (a.uniform(0, 1) != b.uniform(0, 1)) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformRespectsRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(1, 3);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 3);
    saw_lo |= (v == 1);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialMean) {
  Rng rng(11);
  Accumulator acc;
  for (int i = 0; i < 20000; ++i) acc.add(rng.exponential(5.0));
  EXPECT_NEAR(acc.mean(), 5.0, 0.15);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  Accumulator acc;
  for (int i = 0; i < 20000; ++i) acc.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(acc.mean(), 10.0, 0.1);
  EXPECT_NEAR(acc.stddev(), 2.0, 0.1);
}

TEST(Rng, NormalZeroStddevIsDeterministic) {
  Rng rng(1);
  EXPECT_DOUBLE_EQ(rng.normal(3.0, 0.0), 3.0);
}

TEST(Rng, ParetoAboveScale) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.pareto(1.5, 2.0), 2.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(23);
  std::vector<std::size_t> counts(3, 0);
  for (int i = 0; i < 30000; ++i) {
    ++counts[rng.weighted_index({1.0, 0.0, 3.0})];
  }
  EXPECT_EQ(counts[1], 0u);
  EXPECT_NEAR(static_cast<double>(counts[2]) / static_cast<double>(counts[0]), 3.0, 0.3);
}

TEST(Rng, WeightedIndexRejectsDegenerate) {
  Rng rng(1);
  EXPECT_THROW(rng.weighted_index({}), PreconditionError);
  EXPECT_THROW(rng.weighted_index({0.0, 0.0}), PreconditionError);
  EXPECT_THROW(rng.weighted_index({-1.0, 2.0}), PreconditionError);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  auto resorted = v;
  std::sort(resorted.begin(), resorted.end());
  EXPECT_EQ(resorted, sorted);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(42);
  Rng child = a.fork();
  // The child stream should not replay the parent's output.
  Rng b(42);
  (void)b.engine()();  // parent consumed one draw to fork
  bool differs = false;
  for (int i = 0; i < 10; ++i) {
    if (child.uniform(0, 1) != b.uniform(0, 1)) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Rng, FirstOutputWithoutTheEngineMatchesMt19937_64) {
  std::vector<std::uint64_t> seeds = {0,         1,           2,       5489,
                                      ~0ULL,     ~0ULL - 1,   1ULL << 63,
                                      1ULL << 31, (1ULL << 31) - 1};
  std::mt19937_64 seed_source(2013);
  while (seeds.size() < 12000) seeds.push_back(seed_source());
  for (std::uint64_t seed : seeds) {
    ASSERT_EQ(mt19937_64_first_output(seed), std::mt19937_64(seed)()) << "seed " << seed;
  }
}

// An exponential drawn through OneShotBits from the engine's first output is
// the double Rng::exponential draws from the engine itself, bit for bit.
TEST(Rng, OneShotBitsFeedsADistributionExactlyAsTheEngineWould) {
  std::mt19937_64 seed_source(7);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t seed = i == 0 ? 0 : i == 1 ? ~0ULL : seed_source();
    const double mean = 1e-4 * (1 + i % 7);
    OneShotBits first(mt19937_64_first_output(seed));
    const double cheap = std::exponential_distribution<double>(1.0 / mean)(first);
    const double eager = Rng(seed).exponential(mean);
    ASSERT_EQ(std::memcmp(&cheap, &eager, sizeof cheap), 0) << "seed " << seed;
  }
  OneShotBits once(42);
  EXPECT_EQ(once(), 42u);
  EXPECT_THROW(once(), InvariantError);
}

}  // namespace
}  // namespace choreo
