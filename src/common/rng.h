// Deterministic random number generation.
//
// Every stochastic component in the simulator draws from an Rng that was
// seeded explicitly, so any experiment is exactly reproducible from its
// (config, seed) pair. Sub-streams can be forked so that adding draws in one
// component does not perturb another.
#pragma once

#include <cstdint>
#include <random>

#include "common/check.h"

namespace protean {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed), seed_(seed) {}

  /// Derives an independent sub-stream; `salt` distinguishes siblings.
  [[nodiscard]] Rng fork(std::uint64_t salt) const {
    // SplitMix64 finalizer over (seed, salt) gives well-decorrelated streams.
    std::uint64_t z = seed_ + 0x9E3779B97F4A7C15ULL * (salt + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return Rng(z ^ (z >> 31));
  }

  /// Uniform double in [0, 1).
  double uniform() { return std::uniform_real_distribution<double>(0.0, 1.0)(engine_); }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    PROTEAN_DCHECK(lo <= hi);
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    PROTEAN_DCHECK(lo <= hi);
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  /// Exponential variate with the given rate (events per second).
  double exponential(double rate) {
    PROTEAN_DCHECK(rate > 0.0);
    return std::exponential_distribution<double>(rate)(engine_);
  }

  /// Poisson count with the given mean.
  std::int64_t poisson(double mean) {
    if (mean <= 0.0) return 0;
    return std::poisson_distribution<std::int64_t>(mean)(engine_);
  }

  /// Poisson parameters prepared once for a mean that repeats.
  using PoissonParam = std::poisson_distribution<std::int64_t>::param_type;
  /// The same draw as poisson(param.mean()), minus re-deriving the
  /// distribution's constants (a fresh distribution still runs on them).
  std::int64_t poisson(const PoissonParam& param) {
    return std::poisson_distribution<std::int64_t>(param)(engine_);
  }

  /// Normal variate.
  double normal(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  std::uint64_t seed() const noexcept { return seed_; }

  /// Picks a uniformly random index in [0, n).
  std::size_t index(std::size_t n) {
    PROTEAN_DCHECK(n > 0);
    return static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(n) - 1));
  }

 private:
  std::mt19937_64 engine_;
  std::uint64_t seed_;
};

}  // namespace protean
