#include "pscd/util/rng.h"

#include <cmath>
#include <numbers>

#include "pscd/util/check.h"

namespace pscd {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
  // xoshiro must not start from the all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

double Rng::uniform(double lo, double hi) {
  PSCD_DCHECK_LE(lo, hi);
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniformInt(std::uint64_t n) {
  PSCD_DCHECK_GT(n, 0u);
  // Lemire's nearly-divisionless bounded sampling with rejection. The
  // rejection threshold 2^64 mod n is below n, so a low word >= n is
  // always accepted and the division runs only when low < n.
  __uint128_t m = static_cast<__uint128_t>(next()) * n;
  if (static_cast<std::uint64_t>(m) < n) {
    const std::uint64_t threshold = (0 - n) % n;
    while (static_cast<std::uint64_t>(m) < threshold) {
      m = static_cast<__uint128_t>(next()) * n;
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::uniformInt(std::int64_t lo, std::int64_t hi) {
  PSCD_DCHECK_LE(lo, hi);
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  return lo + static_cast<std::int64_t>(uniformInt(span));
}

bool Rng::bernoulli(double p) { return uniform() < p; }

double Rng::normal() {
  // Box-Muller; u1 in (0,1] to avoid log(0).
  const double u1 = 1.0 - uniform();
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

double Rng::exponential(double lambda) {
  PSCD_CHECK_GT(lambda, 0.0) << "Rng::exponential rate";
  return -std::log(1.0 - uniform()) / lambda;
}

Rng Rng::split() { return Rng(next() ^ 0xd1b54a32d192ed03ull); }

}  // namespace pscd
