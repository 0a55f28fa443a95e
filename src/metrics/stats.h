// Small statistics toolkit: percentiles, moments, Welch's t-test, Cohen's d,
// confidence intervals. Used by the metrics collector and by the
// statistical-significance bench (Section 7 of the paper).
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace protean::metrics {

/// Arithmetic mean; 0 for an empty sample.
double mean(const std::vector<double>& xs) noexcept;
double mean_f(const std::vector<float>& xs) noexcept;

/// Unbiased sample standard deviation; 0 for n < 2.
double stddev(const std::vector<double>& xs) noexcept;

/// p-th percentile (p in [0,100]) by linear interpolation between closest
/// ranks. The input is copied and partially sorted. 0 for an empty sample.
double percentile(std::vector<float> xs, double p) noexcept;
double percentile(std::vector<double> xs, double p) noexcept;

/// Several percentiles of one sample, in one copy of it: `ps` must be
/// ascending. Each value is bit-identical to percentile(xs, p); the order
/// statistics are selected in ascending rank on ever shorter tails.
std::vector<double> percentiles(std::vector<float> xs,
                                const std::vector<double>& ps);

/// The interpolation percentile() applies, over `n` samples:
/// `select(lo, hi)` returns the lo-th and hi-th smallest (0-based; hi is lo
/// or lo + 1) as a pair of doubles. Callers that select order statistics
/// some other way share the exact arithmetic.
template <typename SelectPair>
double percentile_of_ranks(std::size_t n, double p, SelectPair select) {
  if (n == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, n - 1);
  const auto [v_lo, v_hi] = select(lo, hi);
  const double frac = rank - static_cast<double>(lo);
  return v_lo + (v_hi - v_lo) * frac;
}

/// Half-width of the 95% confidence interval of the mean (normal approx).
double ci95_halfwidth(const std::vector<double>& xs) noexcept;

/// Two-sided p-value of Welch's unequal-variance t-test (normal
/// approximation of the t CDF, adequate for the df > 30 regime the
/// experiments produce). Returns 1.0 if either sample has n < 2.
double welch_p_value(const std::vector<double>& a,
                     const std::vector<double>& b) noexcept;

/// Cohen's d effect size with pooled standard deviation. 0 if degenerate.
double cohens_d(const std::vector<double>& a,
                const std::vector<double>& b) noexcept;

/// Standard normal CDF.
double normal_cdf(double z) noexcept;

/// Exponentially weighted moving average (Atoll-style predictor used by the
/// GPU Reconfigurator, Algorithm 2 step (a)).
class Ewma {
 public:
  explicit Ewma(double alpha = 0.3) noexcept : alpha_(alpha) {}

  void observe(double x) noexcept {
    value_ = seeded_ ? alpha_ * x + (1.0 - alpha_) * value_ : x;
    seeded_ = true;
  }
  double value() const noexcept { return value_; }
  bool seeded() const noexcept { return seeded_; }
  double alpha() const noexcept { return alpha_; }

 private:
  double alpha_;
  double value_ = 0.0;
  bool seeded_ = false;
};

}  // namespace protean::metrics
