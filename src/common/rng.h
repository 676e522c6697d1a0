// Deterministic random number generation for reproducible experiments.
//
// All stochastic components of the library (seed selection, generators,
// baseline initialisation) draw from an mcdc::Rng that is explicitly seeded,
// so any run can be replayed exactly. The engine is a small, fast
// SplitMix64/xoshiro256** pair implemented here so results do not depend on
// the standard library's unspecified distribution algorithms.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

namespace mcdc {

// xoshiro256** seeded via SplitMix64. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  void reseed(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<std::uint64_t>::max();
  }

  result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // Uniform integer in [0, bound) without modulo bias (Lemire's method).
  std::uint64_t below(std::uint64_t bound);

  // Uniform double in [0, 1).
  double uniform();

  // Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  // Bernoulli trial with success probability p.
  bool bernoulli(double p) { return uniform() < p; }

  // Index drawn from unnormalised non-negative weights. Returns
  // weights.size() - 1 on degenerate (all-zero) input for safety.
  std::size_t weighted_index(const std::vector<double>& weights);

  // In-place Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[below(i)]);
    }
  }

  // k distinct indices sampled uniformly from [0, n) (partial Fisher-Yates).
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace mcdc
