#include "metrics/collector.h"

#include <algorithm>

#include "common/check.h"

namespace protean::metrics {

void Collector::use_sketch_store(double alpha) {
  PROTEAN_CHECK_MSG(strict_lat_.empty() && be_lat_.empty(),
                    "use_sketch_store must precede the first record()");
  strict_sketch_.emplace(alpha);
  be_sketch_.emplace(alpha);
}

std::size_t Collector::latency_store_bytes() const noexcept {
  if (strict_sketch_) {
    return strict_sketch_->approx_bytes() + be_sketch_->approx_bytes();
  }
  return (strict_lat_.capacity() + be_lat_.capacity()) * sizeof(float);
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
  auto& sketch = strict ? strict_sketch_ : be_sketch_;
  auto& sink = strict ? strict_lat_ : be_lat_;
  for (int i = 0; i < count; ++i) {
    // Requests are spread uniformly over [first_arrival, last_arrival];
    // request 0 is the earliest, i.e. the longest-waiting.
    const double frac =
        count == 1 ? 0.0
                   : static_cast<double>(i) / static_cast<double>(count - 1);
    const double lat = lat_first + (lat_last - lat_first) * frac;
    if (sketch) {
      sketch->add(lat);
    } else {
      sink.push_back(static_cast<float>(lat));
    }
    if (strict) {
      ++strict_total_;
      if (lat <= entry.slo + 1e-9) ++strict_compliant_;
    } else {
      ++be_total_;
    }
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

Breakdown Collector::tail_breakdown(double p) const {
  return tail_over(batches_, p,
                   [](const BatchBreakdown& b) { return b.strict; });
}

std::vector<float> Collector::latencies_for(
    const workload::ModelProfile* model, bool strict) const {
  std::vector<float> out;
  for (const auto& b : batches_) {
    if (b.model != model || b.strict != strict) continue;
    for (int i = 0; i < b.count; ++i) {
      const double frac =
          b.count == 1 ? 0.0
                       : static_cast<double>(i) / static_cast<double>(b.count - 1);
      out.push_back(static_cast<float>(
          b.worst_latency + (b.best_latency - b.worst_latency) * frac));
    }
  }
  return out;
}

double Collector::slo_compliance_pct_for(
    const workload::ModelProfile* model) const {
  std::uint64_t total = 0, compliant = 0;
  for (const auto& b : batches_) {
    if (b.model != model || !b.strict) continue;
    for (int i = 0; i < b.count; ++i) {
      const double frac =
          b.count == 1 ? 0.0
                       : static_cast<double>(i) / static_cast<double>(b.count - 1);
      const double lat =
          b.worst_latency + (b.best_latency - b.worst_latency) * frac;
      ++total;
      if (lat <= b.slo + 1e-9) ++compliant;
    }
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
