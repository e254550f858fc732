#include "util/rng.h"

#include <cmath>
#include <numeric>

namespace choreo {

std::uint64_t mt19937_64_first_output(std::uint64_t seed) {
  using Mt = std::mt19937_64;
  // Seeding: word i = f * (word i-1 ^ (word i-1 >> (w - 2))) + i.
  std::uint64_t word = seed, word1 = 0;
  for (std::size_t i = 1; i <= Mt::shift_size; ++i) {
    word = Mt::initialization_multiplier * (word ^ (word >> (Mt::word_size - 2))) + i;
    if (i == 1) word1 = word;
  }
  // First twist step: word 0's upper bits and word 1's lower bits, mixed
  // into word 156; then the tempering every output goes through.
  constexpr std::uint64_t upper = ~std::uint64_t{0} << Mt::mask_bits;
  const std::uint64_t y = (seed & upper) | (word1 & ~upper);
  std::uint64_t z = word ^ (y >> 1) ^ ((y & 1) ? Mt::xor_mask : 0);
  z ^= (z >> Mt::tempering_u) & Mt::tempering_d;
  z ^= (z << Mt::tempering_s) & Mt::tempering_b;
  z ^= (z << Mt::tempering_t) & Mt::tempering_c;
  return z ^ (z >> Mt::tempering_l);
}

std::size_t Rng::weighted_index(const std::vector<double>& weights) {
  CHOREO_REQUIRE(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    CHOREO_REQUIRE(w >= 0.0);
    total += w;
  }
  CHOREO_REQUIRE_MSG(total > 0.0, "weights must not all be zero");
  double r = uniform(0.0, total);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (r < weights[i]) return i;
    r -= weights[i];
  }
  return weights.size() - 1;  // numerical edge: fell off the end
}

}  // namespace choreo
