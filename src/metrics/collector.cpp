#include "metrics/collector.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <optional>
#include <utility>

#include "common/check.h"

namespace protean::metrics {

namespace {

/// Latency of request i of a record, as the float the samples hold.
float sample_at(const BatchBreakdown& b, int i) noexcept {
  return static_cast<float>(workload::ramp_latency(
      b.worst_latency, b.best_latency, i, b.count));
}

/// First index in [0, n] at which `pred` — false up to some index, true
/// from there on — holds. Probes around `guess` first, so a good guess
/// costs two or three evaluations; a poor one falls back to bisection.
template <typename Pred>
int first_true(int n, int guess, const Pred& pred) {
  int lo = 0;
  int hi = n;  // the answer lies in [lo, hi]
  const auto probe = [&](int i) {
    if (i < lo || i >= hi) return;
    if (pred(i)) {
      hi = i;
    } else {
      lo = i + 1;
    }
  };
  probe(guess);
  probe(guess - 1);
  probe(guess + 1);
  while (lo < hi) probe(lo + (hi - lo) / 2);
  return lo;
}

/// The ramp of `b` is non-increasing in i (the normal case: the earliest
/// request waited longest).
bool falling(const BatchBreakdown& b) noexcept {
  return b.best_latency <= b.worst_latency;
}

/// Where the ramp of `b` crosses latency `x`, as a request index in
/// [0, count]: the starting guess for first_true.
int crossing_guess(const BatchBreakdown& b, double x) noexcept {
  const double span = b.best_latency - b.worst_latency;
  if (b.count == 1 || span == 0.0) return 0;
  const double t = std::ceil((x - b.worst_latency) / span *
                             static_cast<double>(b.count - 1));
  if (!(t > 0.0)) return 0;  // also NaN
  return t >= b.count ? b.count : static_cast<int>(t);
}

/// Requests i of `b` with at(i) <= bound, where `at` is monotone along
/// the ramp — non-increasing when it falls — so they are a suffix of it (a
/// prefix if it rises). The search starts where the ramp crosses latency
/// `x`, near which the boundary lies.
template <typename At, typename T>
int count_at_most(const BatchBreakdown& b, const At& at, T bound, double x) {
  const int guess = crossing_guess(b, x);
  if (falling(b)) {
    return b.count -
           first_true(b.count, guess, [&](int i) { return at(i) <= bound; });
  }
  return first_true(b.count, guess, [&](int i) { return at(i) > bound; });
}

/// Requests of `b` whose latency is within its SLO (the 1e-9 s slack
/// absorbs timestamp rounding).
int compliant_requests(const BatchBreakdown& b) {
  const double bound = b.slo + 1e-9;
  return count_at_most(
      b,
      [&b](int i) {
        return workload::ramp_latency(b.worst_latency, b.best_latency, i,
                                      b.count);
      },
      bound, bound);
}

/// Order-preserving map of a float onto uint32: a < b iff key(a) < key(b)
/// for non-NaN values.
std::uint32_t order_key(float f) noexcept {
  std::uint32_t u = 0;
  std::memcpy(&u, &f, sizeof u);
  return (u & 0x80000000u) != 0 ? ~u : (u | 0x80000000u);
}

float from_order_key(std::uint32_t key) noexcept {
  const std::uint32_t u =
      (key & 0x80000000u) != 0 ? (key & 0x7fffffffu) : ~key;
  float f = 0.0f;
  std::memcpy(&f, &u, sizeof f);
  return f;
}

/// Requests of `b` whose sample's order key is below `bound` (which may be
/// 2^32: all of them).
int count_below(const BatchBreakdown& b, std::uint64_t bound) {
  if (bound > 0xffffffffu) return b.count;
  if (bound == 0) return 0;
  const auto key = static_cast<std::uint32_t>(bound);
  return count_at_most(
      b, [&b](int i) { return order_key(sample_at(b, i)); }, key - 1,
      static_cast<double>(from_order_key(key)));
}

/// Histogram of one radix-select pass: keys sharing the digits fixed so
/// far (`prefix`, the key bits above `shift + digit_bits`) are counted by
/// their next digit. Slot 0 stands for keys below the prefix and the last
/// slot for keys above it, so a key's slot is monotone in the key; those
/// two slots are never read.
class DigitHistogram {
 public:
  DigitHistogram(std::uint32_t prefix, int shift, int digit_bits)
      : prefix_(prefix),
        shift_(shift),
        digit_bits_(digit_bits),
        counts_((std::size_t{1} << digit_bits) + 2, 0) {}

  /// Adds the requests of one ramp inside the prefix: O(1) when the ramp
  /// lies in one slot, else a boundary search per slot boundary its
  /// requests span (or one evaluation per request, when that is cheaper).
  /// Keys outside the prefix are not counted.
  void add(const BatchBreakdown& b) {
    const auto key_at = [&b](int i) { return order_key(sample_at(b, i)); };
    // The ramp's fraction is exactly 0 at the first request and exactly 1
    // at the last, so its end values need no division.
    const double first = b.worst_latency;
    const double last =
        b.count == 1 ? first : first + (b.best_latency - first);
    const int s_first = slot_of(order_key(static_cast<float>(first)));
    const int s_last = slot_of(order_key(static_cast<float>(last)));
    if (s_first == s_last) {
      counts_[static_cast<std::size_t>(s_first)] +=
          static_cast<std::uint64_t>(b.count);
      return;
    }
    // Requests below the prefix, and below its end; the ones in between
    // are a contiguous index run because the keys are monotone in i.
    const int top = 1 << digit_bits_;
    const bool below_prefix = std::min(s_first, s_last) == 0;
    const bool above_prefix = std::max(s_first, s_last) == top + 1;
    const int below = below_prefix ? count_below(b, slot_start(1)) : 0;
    const int end = above_prefix ? count_below(b, slot_start(top + 1))
                                 : b.count;
    const int inside = end - below;
    if (inside == 0) return;
    const int i0 = falling(b) ? b.count - end : below;
    const int s_a = slot_of(key_at(i0));
    const int s_b = slot_of(key_at(i0 + inside - 1));
    const int s_lo = std::min(s_a, s_b);
    const int s_hi = std::max(s_a, s_b);
    if (inside <= 2 * (s_hi - s_lo)) {
      for (int i = i0; i < i0 + inside; ++i) {
        ++counts_[static_cast<std::size_t>(slot_of(key_at(i)))];
      }
      return;
    }
    int prev = below;  // requests with keys below slot j
    for (int j = s_lo; j < s_hi; ++j) {
      const int upto = count_below(b, slot_start(j + 1));
      counts_[static_cast<std::size_t>(j)] +=
          static_cast<std::uint64_t>(upto - prev);
      prev = upto;
    }
    counts_[static_cast<std::size_t>(s_hi)] +=
        static_cast<std::uint64_t>(end - prev);
  }

  /// Every request counted (all that were added, in the first pass, whose
  /// prefix is empty).
  std::uint64_t total() const noexcept {
    std::uint64_t n = 0;
    for (const std::uint64_t c : counts_) n += c;
    return n;
  }

  /// Resolves the next digit of the rank-`k` key (k counts within this
  /// pass's prefix) and returns k's rank within that digit.
  std::uint64_t resolve(std::uint64_t k, std::uint32_t& prefix) const {
    std::uint32_t digit = 0;
    while (digit + 1 < (1u << digit_bits_) && k >= counts_[digit + 1]) {
      k -= counts_[digit + 1];
      ++digit;
    }
    prefix = (prefix << digit_bits_) | digit;
    return k;
  }

 private:
  int slot_of(std::uint32_t key) const noexcept {
    const std::uint64_t high =
        static_cast<std::uint64_t>(key) >> (shift_ + digit_bits_);
    if (high < prefix_) return 0;
    if (high > prefix_) return (1 << digit_bits_) + 1;
    return static_cast<int>((key >> shift_) & ((1u << digit_bits_) - 1)) + 1;
  }

  /// Smallest key of slot j >= 1 (2^32 past the top of the key space).
  std::uint64_t slot_start(int j) const noexcept {
    return (prefix_ << (shift_ + digit_bits_)) +
           (static_cast<std::uint64_t>(j - 1) << shift_);
  }

  std::uint64_t prefix_;
  int shift_;
  int digit_bits_;
  std::vector<std::uint64_t> counts_;
};

constexpr std::array<int, 4> kDigits = {12, 4, 8, 8};

/// The lo-th and hi-th smallest (0-based, hi = lo or lo + 1) per-request
/// float latencies over the records `keep` selects — the values
/// nth_element would find in their expansion — by a most-significant-digit
/// radix select over order_key bits. `first` is the histogram of the first
/// digit. Each later pass fixes the next digit of both answers' keys from a
/// histogram of the keys that share the digits fixed so far; the two ranks
/// share one histogram until their prefixes part. At most two 32 KB
/// histograms: no memory proportional to requests or records.
template <typename Keep>
std::pair<double, double> select_pair(
    const std::vector<BatchBreakdown>& records, Keep keep,
    const DigitHistogram& first, std::uint64_t lo, std::uint64_t hi) {
  std::array<std::uint64_t, 2> rank = {lo, hi};
  std::array<std::uint32_t, 2> prefix = {0, 0};
  rank[0] = first.resolve(rank[0], prefix[0]);
  rank[1] = first.resolve(rank[1], prefix[1]);
  int shift = 32 - kDigits[0];
  for (std::size_t pass = 1; pass < kDigits.size(); ++pass) {
    const int bits = kDigits[pass];
    shift -= bits;
    DigitHistogram h0(prefix[0], shift, bits);
    std::optional<DigitHistogram> h1;
    if (prefix[1] != prefix[0]) h1.emplace(prefix[1], shift, bits);
    for (const auto& b : records) {
      if (!keep(b)) continue;
      h0.add(b);
      if (h1) h1->add(b);
    }
    rank[0] = h0.resolve(rank[0], prefix[0]);
    rank[1] = (h1 ? *h1 : h0).resolve(rank[1], prefix[1]);
  }
  return {static_cast<double>(from_order_key(prefix[0])),
          static_cast<double>(from_order_key(prefix[1]))};
}

/// percentile() over the expansion of the records `keep` selects, without
/// expanding them.
template <typename Keep>
double ramp_percentile(const std::vector<BatchBreakdown>& records, Keep keep,
                       double p) {
  DigitHistogram first(0, 32 - kDigits[0], kDigits[0]);
  for (const auto& b : records) {
    if (keep(b)) first.add(b);
  }
  return percentile_of_ranks(
      static_cast<std::size_t>(first.total()), p,
      [&](std::size_t lo, std::size_t hi) {
        return select_pair(records, keep, first, lo, hi);
      });
}

template <typename Keep>
std::uint64_t requests_of(const std::vector<BatchBreakdown>& records,
                          Keep keep) {
  std::uint64_t n = 0;
  for (const auto& b : records) {
    if (keep(b)) n += static_cast<std::uint64_t>(b.count);
  }
  return n;
}

/// Calls fn(latency) for every request of the records `keep` selects, in
/// record order, as the float the samples hold.
template <typename Keep, typename Fn>
void for_each_sample(const std::vector<BatchBreakdown>& records, Keep keep,
                     Fn fn) {
  for (const auto& b : records) {
    if (!keep(b)) continue;
    for (int i = 0; i < b.count; ++i) fn(sample_at(b, i));
  }
}

template <typename Keep>
std::vector<float> expand(const std::vector<BatchBreakdown>& records,
                          Keep keep) {
  std::vector<float> out;
  out.reserve(static_cast<std::size_t>(requests_of(records, keep)));
  for_each_sample(records, keep, [&out](float lat) { out.push_back(lat); });
  return out;
}

[[maybe_unused]] bool same_bits(double a, double b) noexcept {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

struct OfClass {
  bool strict;
  bool operator()(const BatchBreakdown& b) const noexcept {
    return b.strict == strict;
  }
};

}  // namespace

void Collector::use_sketch_store(double alpha) {
  PROTEAN_CHECK_MSG(batches_.empty(),
                    "use_sketch_store must precede the first record()");
  strict_sketch_.emplace(alpha);
  be_sketch_.emplace(alpha);
}

std::size_t Collector::latency_store_bytes() const noexcept {
  std::size_t bytes = batches_.capacity() * sizeof(BatchBreakdown);
  if (strict_sketch_) {
    bytes += strict_sketch_->approx_bytes() + be_sketch_->approx_bytes();
  }
  return bytes;
}

Breakdown breakdown_of(const workload::Decomposition& d) noexcept {
  using workload::Cause;
  Breakdown b;
  b.queue = d[Cause::kFormation] + d[Cause::kQueue] + d[Cause::kRetry] +
            d[Cause::kBlackout] + d[Cause::kTransfer];
  b.cold = d[Cause::kColdBoot] + d[Cause::kWeightLoad];
  b.min_time = d[Cause::kService];
  b.deficiency = d[Cause::kDeficiency];
  b.interference = d[Cause::kInterference];
  b.swap = d[Cause::kSwapStall];
  return b;
}

void Collector::check_lanes(const workload::Decomposition& d) {
  for (const double lane : d.parts) {
    if (lane < -workload::kLaneEps) {
      ++negative_component_clamps_;
      PROTEAN_DCHECK(lane >= -workload::kLaneEps);
      return;
    }
  }
}

void Collector::record(const workload::Batch& batch) {
  PROTEAN_CHECK_MSG(batch.completed_at > 0.0, "batch not completed");
  PROTEAN_CHECK_MSG(batch.count > 0, "empty batch");
  if (dedup_ && !seen_.insert(batch.id).second) {
    // A hedged duplicate finished after the primary (or vice versa): count
    // it for the wasted-work accounting but keep the statistics clean.
    ++duplicate_hedges_;
    return;
  }
  const workload::Decomposition d = workload::decompose(batch);
  check_lanes(d);
  if (batch.first_arrival < measure_from_) return;

  const BatchBreakdown entry{
      batch.completed_at, batch.completed_at - batch.first_arrival,
      batch.completed_at - batch.last_arrival, breakdown_of(d), batch.slo,
      batch.count, batch.strict, batch.model};
  record_terminal(entry);
  if (attr_batch_hook_) {
    attr_batch_hook_(batch, d, entry.worst_latency, entry.best_latency);
  }
}

void Collector::record_terminal(const BatchBreakdown& entry) {
  const bool strict = entry.strict;
  const int count = entry.count;
  const double lat_first = entry.worst_latency;
  const double lat_last = entry.best_latency;
  PROTEAN_DCHECK(lat_first >= lat_last - 1e-9);
  if (auto& sketch = strict ? strict_sketch_ : be_sketch_) {
    for (int i = 0; i < count; ++i) {
      sketch->add(workload::ramp_latency(lat_first, lat_last, i, count));
    }
  }
  if (strict) {
    strict_total_ += static_cast<std::uint64_t>(count);
    strict_compliant_ +=
        static_cast<std::uint64_t>(compliant_requests(entry));
  } else {
    be_total_ += static_cast<std::uint64_t>(count);
  }
  if (observer_) {
    observer_(entry.completed_at, strict, lat_first, lat_last, count,
              entry.slo);
  }
  batches_.push_back(entry);
}

workload::Decomposition Collector::record_stage(
    const workload::Batch& batch) {
  ++stages_recorded_;
  const workload::Decomposition d = workload::decompose(batch);
  check_lanes(d);
  return d;
}

bool Collector::record_flow(const FlowRecord& flow) {
  PROTEAN_CHECK_MSG(flow.completed_at > 0.0, "flow not completed");
  PROTEAN_CHECK_MSG(flow.count > 0, "empty flow");
  if (!claim(flow.id)) return false;  // raced a terminal drop under dedup
  if (flow.first_arrival < measure_from_) return false;
  ++flows_recorded_;

  record_terminal({flow.completed_at, flow.completed_at - flow.first_arrival,
                   flow.completed_at - flow.last_arrival,
                   breakdown_of(flow.chain), flow.slo, flow.count, flow.strict,
                   flow.model});
  return true;
}

void Collector::record_dropped(bool strict, int count) {
  dropped_ += static_cast<std::uint64_t>(count);
  // A dropped strict request is an SLO violation by definition.
  if (strict) strict_total_ += static_cast<std::uint64_t>(count);
  if (attr_drop_hook_) attr_drop_hook_(strict, count);
}

double Collector::slo_compliance_pct() const noexcept {
  if (strict_total_ == 0) return 100.0;
  return 100.0 * static_cast<double>(strict_compliant_) /
         static_cast<double>(strict_total_);
}

namespace {
Breakdown average_over(const std::vector<const BatchBreakdown*>& batches) {
  Breakdown out;
  if (batches.empty()) return out;
  for (const auto* b : batches) {
    out.queue += b->breakdown.queue;
    out.cold += b->breakdown.cold;
    out.min_time += b->breakdown.min_time;
    out.deficiency += b->breakdown.deficiency;
    out.interference += b->breakdown.interference;
    out.swap += b->breakdown.swap;
  }
  const double n = static_cast<double>(batches.size());
  out.queue /= n;
  out.cold /= n;
  out.min_time /= n;
  out.deficiency /= n;
  out.interference /= n;
  out.swap /= n;
  return out;
}

/// Average breakdown over the records `keep` selects whose worst latency is
/// at or above the p-th percentile of theirs.
template <typename Keep>
Breakdown tail_over(const std::vector<BatchBreakdown>& records, double p,
                    Keep keep) {
  std::vector<float> worst;
  for (const auto& b : records) {
    if (keep(b)) worst.push_back(static_cast<float>(b.worst_latency));
  }
  if (worst.empty()) return {};
  const double cutoff = percentile(worst, p);
  std::vector<const BatchBreakdown*> tail;
  for (const auto& b : records) {
    if (keep(b) && b.worst_latency >= cutoff - 1e-12) tail.push_back(&b);
  }
  return average_over(tail);
}
}  // namespace

double Collector::strict_percentile(double p) const {
  if (strict_sketch_) return strict_sketch_->percentile(p);
  const double v = ramp_percentile(batches_, OfClass{true}, p);
  PROTEAN_DCHECK(same_bits(v, percentile(strict_latencies(), p)));
  return v;
}

double Collector::be_percentile(double p) const {
  if (be_sketch_) return be_sketch_->percentile(p);
  const double v = ramp_percentile(batches_, OfClass{false}, p);
  PROTEAN_DCHECK(same_bits(v, percentile(be_latencies(), p)));
  return v;
}

double Collector::strict_mean() const {
  if (strict_sketch_) return strict_sketch_->mean();
  double sum = 0.0;
  std::uint64_t n = 0;
  for_each_sample(batches_, OfClass{true}, [&](float lat) {
    sum += static_cast<double>(lat);
    ++n;
  });
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

std::vector<float> Collector::strict_latencies() const {
  if (strict_sketch_) return {};
  return expand(batches_, OfClass{true});
}

std::vector<float> Collector::be_latencies() const {
  if (be_sketch_) return {};
  return expand(batches_, OfClass{false});
}

Breakdown Collector::tail_breakdown(double p) const {
  return tail_over(batches_, p,
                   [](const BatchBreakdown& b) { return b.strict; });
}

std::vector<float> Collector::latencies_for(
    const workload::ModelProfile* model, bool strict) const {
  return expand(batches_, [model, strict](const BatchBreakdown& b) {
    return b.model == model && b.strict == strict;
  });
}

double Collector::slo_compliance_pct_for(
    const workload::ModelProfile* model) const {
  std::uint64_t total = 0, compliant = 0;
  for (const auto& b : batches_) {
    if (b.model != model || !b.strict) continue;
    total += static_cast<std::uint64_t>(b.count);
    compliant += static_cast<std::uint64_t>(compliant_requests(b));
  }
  if (total == 0) return 100.0;
  return 100.0 * static_cast<double>(compliant) / static_cast<double>(total);
}

Breakdown Collector::tail_breakdown_for(const workload::ModelProfile* model,
                                        double p) const {
  return tail_over(batches_, p, [model](const BatchBreakdown& b) {
    return b.model == model && b.strict;
  });
}

Breakdown Collector::mean_breakdown() const {
  std::vector<const BatchBreakdown*> all;
  for (const auto& b : batches_) {
    if (b.strict) all.push_back(&b);
  }
  return average_over(all);
}

}  // namespace protean::metrics
