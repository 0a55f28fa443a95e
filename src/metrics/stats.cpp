#include "metrics/stats.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"

namespace protean::metrics {

double mean(const std::vector<double>& xs) noexcept {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double mean_f(const std::vector<float>& xs) noexcept {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (float x : xs) sum += static_cast<double>(x);
  return sum / static_cast<double>(xs.size());
}

double stddev(const std::vector<double>& xs) noexcept {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double ss = 0.0;
  for (double x : xs) ss += (x - m) * (x - m);
  return std::sqrt(ss / static_cast<double>(xs.size() - 1));
}

namespace {
template <typename T>
double percentile_impl(std::vector<T> xs, double p) noexcept {
  const auto kth = [&xs](std::size_t k) {
    std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(k),
                     xs.end());
    return static_cast<double>(xs[k]);
  };
  return percentile_of_ranks(xs.size(), p,
                             [&kth](std::size_t lo, std::size_t hi) {
                               const double v_lo = kth(lo);
                               return std::pair<double, double>(v_lo, kth(hi));
                             });
}
}  // namespace

double percentile(std::vector<float> xs, double p) noexcept {
  return percentile_impl(std::move(xs), p);
}

double percentile(std::vector<double> xs, double p) noexcept {
  return percentile_impl(std::move(xs), p);
}

std::vector<double> percentiles(std::vector<float> xs,
                                const std::vector<double>& ps) {
  PROTEAN_CHECK_MSG(std::is_sorted(ps.begin(), ps.end()),
                    "percentiles must be ascending");
  // Everything before `from` is in its sorted place. Ranks only grow, so a
  // rank below `from` was selected just before and is read back as is.
  auto from = xs.begin();
  const auto kth = [&](std::size_t k) {
    const auto at = xs.begin() + static_cast<std::ptrdiff_t>(k);
    if (at >= from) {
      std::nth_element(from, at, xs.end());
      from = at + 1;
    }
    return static_cast<double>(*at);
  };
  std::vector<double> out;
  out.reserve(ps.size());
  for (const double p : ps) {
    out.push_back(percentile_of_ranks(
        xs.size(), p, [&kth](std::size_t lo, std::size_t hi) {
          const double v_lo = kth(lo);
          return std::pair<double, double>(v_lo, kth(hi));
        }));
  }
  return out;
}

double normal_cdf(double z) noexcept {
  return 0.5 * std::erfc(-z / std::sqrt(2.0));
}

double ci95_halfwidth(const std::vector<double>& xs) noexcept {
  if (xs.size() < 2) return 0.0;
  return 1.96 * stddev(xs) / std::sqrt(static_cast<double>(xs.size()));
}

double welch_p_value(const std::vector<double>& a,
                     const std::vector<double>& b) noexcept {
  if (a.size() < 2 || b.size() < 2) return 1.0;
  const double ma = mean(a), mb = mean(b);
  const double va = stddev(a) * stddev(a), vb = stddev(b) * stddev(b);
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  const double se = std::sqrt(va / na + vb / nb);
  if (se <= 0.0) return ma == mb ? 1.0 : 0.0;
  const double t = (ma - mb) / se;
  return 2.0 * (1.0 - normal_cdf(std::fabs(t)));
}

double cohens_d(const std::vector<double>& a,
                const std::vector<double>& b) noexcept {
  if (a.size() < 2 || b.size() < 2) return 0.0;
  const double sa = stddev(a), sb = stddev(b);
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  const double pooled = std::sqrt(
      ((na - 1.0) * sa * sa + (nb - 1.0) * sb * sb) / (na + nb - 2.0));
  if (pooled <= 0.0) return 0.0;
  return (mean(a) - mean(b)) / pooled;
}

}  // namespace protean::metrics
