// Deterministic pseudo-random number generation.
//
// The library uses its own xoshiro256** generator rather than <random>
// engines so that results are reproducible across standard-library
// implementations; distribution sampling (util/distributions.h) is likewise
// implemented from first principles.
#pragma once

#include <bit>
#include <cstdint>
#include <limits>

namespace pscd {

/// xoshiro256** 1.0 by Blackman & Vigna, seeded via SplitMix64.
/// Satisfies std::uniform_random_bit_generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) { reseed(seed); }

  /// Re-initializes the state from a 64-bit seed (SplitMix64 expansion).
  void reseed(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() { return next(); }

  // next() and uniform() are defined inline below: the workload
  // generators draw millions of values through them.
  std::uint64_t next();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniformInt(std::uint64_t n);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Standard normal via Box-Muller (deterministic, no cached spare).
  double normal();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Exponential with the given rate (lambda > 0).
  double exponential(double lambda);

  /// Derives an independent child generator; useful to give each workload
  /// component its own stream so edits to one component do not perturb
  /// the others.
  Rng split();

 private:
  std::uint64_t s_[4];
};

inline std::uint64_t Rng::next() {
  const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = std::rotl(s_[3], 45);
  return result;
}

inline double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

/// SplitMix64 step; exposed for seeding helpers and tests.
std::uint64_t splitmix64(std::uint64_t& state);

}  // namespace pscd
