// Metrics collection for experiment runs.
//
// The collector receives every completed Batch and keeps one record per
// batch (BatchBreakdown): its worst and best request latency, request
// count, SLO and Fig. 2/6 breakdown. Per-request latencies are the linear
// ramp between a record's worst and best latency (workload::ramp_latency,
// arrivals interpolated uniformly across the batch's arrival span), so the
// records alone answer every per-request statistic exactly — percentiles by
// selecting order statistics across the ramps, means and CDF samples by
// expanding ramps on demand — and no per-request store is kept. SLO
// compliance is counted at record time. It decomposes each record once
// (workload::decompose), checks every lane, and derives the breakdown and
// the attribution feed from that one split.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_set>
#include <vector>

#include "common/types.h"
#include "metrics/sketch.h"
#include "metrics/stats.h"
#include "workload/batch.h"
#include "workload/latency.h"

namespace protean::metrics {

/// Fig. 2/6 latency columns (seconds): the eleven decomposition lanes
/// grouped the way the paper's stacked bars are. Summed over the columns it
/// is the same total as the lanes.
struct Breakdown {
  double queue = 0.0;
  double cold = 0.0;
  double min_time = 0.0;      // solo on 7g: the "min possible time"
  double deficiency = 0.0;    // RDF-induced slowdown
  double interference = 0.0;  // MPS co-location slowdown
  double swap = 0.0;          // memory-oversubscription swap stall
  double total() const noexcept {
    return queue + cold + min_time + deficiency + interference + swap;
  }
};

/// Groups decomposition lanes into Breakdown columns — the only code that
/// knows the mapping: queue = formation + queue + retry + blackout +
/// transfer, cold = cold_boot + weight_load, min_time = service, and
/// deficiency, interference and swap are their own lanes.
Breakdown breakdown_of(const workload::Decomposition& d) noexcept;

/// One recorded batch or flow. `breakdown` sums to the latency of the
/// earliest (= worst-off) request.
struct BatchBreakdown {
  SimTime completed_at = 0.0;
  double worst_latency = 0.0;
  double best_latency = 0.0;  // latency of the batch's latest request
  Breakdown breakdown;
  double slo = 0.0;           // relative deadline (strict only)
  int count = 0;
  bool strict = false;
  const workload::ModelProfile* model = nullptr;
};

/// Terminal record of one workflow flow (src/workflow): the per-request
/// side of the split record() API. A flow's stage batches are recorded
/// through record_stage() — lanes only, never request latencies — and
/// exactly one FlowRecord carries the end-to-end latency, SLO verdict and
/// critical-chain decomposition, so multi-stage requests are counted once.
struct FlowRecord {
  BatchId id = 0;  ///< flow id (the sealed entry batch's gateway id)
  const workload::ModelProfile* model = nullptr;  ///< entry-stage model
  bool strict = true;
  int count = 0;  ///< end-user requests in the flow
  SimTime first_arrival = 0.0;
  SimTime last_arrival = 0.0;
  SimTime completed_at = 0.0;  ///< last sink stage completion
  double slo = kNeverTime;     ///< end-to-end deadline, relative seconds
  /// Summed stage decompositions along the critical chain (the
  /// last-finishing sink back through each stage's last-finishing input);
  /// telescopes to `completed_at - first_arrival`.
  workload::Decomposition chain;
};

class Collector {
 public:
  /// Batches whose earliest request arrived before this time are excluded
  /// from every statistic (cold-start warmup transient; the paper reports
  /// steady-state behaviour).
  void set_measure_from(SimTime t) noexcept { measure_from_ = t; }
  SimTime measure_from() const noexcept { return measure_from_; }

  /// Batch completion observer: invoked once per recorded batch with
  /// (completion time, strict?, worst latency, best latency, request
  /// count, SLO seconds). Per-request latencies are
  /// workload::ramp_latency(worst, best, i, count) — the same spread the
  /// collector's own statistics use — so a consumer can expand them
  /// bit-identically (telemetry::TelemetryPipeline::observe_batch does).
  /// Batches arrive in non-decreasing completion-time order; batches
  /// filtered by measure_from never reach the observer. Null
  /// (the default) costs nothing — this is the live-telemetry feed
  /// (src/telemetry), kept out of the collector's own statistics and
  /// deliberately per-batch so recording never loops per request.
  using BatchObserver =
      std::function<void(SimTime, bool, double, double, int, double)>;
  void set_batch_observer(BatchObserver observer) {
    observer_ = std::move(observer);
  }

  // ---- attribution feed (src/attr) ---------------------------------------
  //
  // Same contract as the batch observer, but with the full Batch and the
  // collector's checked decomposition of it in hand. Called after the dedup
  // and measure_from filters, i.e. exactly once per batch this collector's
  // own statistics counted — which is what makes the engine's violation
  // totals reproduce strict_violations() exactly. Function-typed (not a
  // direct dependency) so metrics stays below attr in the build graph.
  using AttrBatchHook =
      std::function<void(const workload::Batch&,
                         const workload::Decomposition&, double, double)>;
  void set_attr_batch_hook(AttrBatchHook hook) {
    attr_batch_hook_ = std::move(hook);
  }
  /// Invoked from record_dropped() with (strict, count).
  using AttrDropHook = std::function<void(bool, int)>;
  void set_attr_drop_hook(AttrDropHook hook) {
    attr_drop_hook_ = std::move(hook);
  }

  /// Answers percentiles and the strict mean from relative-error quantile
  /// sketches (DDSketch-style, see metrics/sketch.h) instead of the batch
  /// records: percentiles then carry an `alpha` relative-error bound
  /// instead of being exact, and `strict_latencies()`/`be_latencies()`
  /// stay empty. The sketches are fed per request on top of the records,
  /// so this saves no memory. SLO-compliance counting is unaffected. Must
  /// be called before the first record().
  void use_sketch_store(double alpha);
  bool sketch_store() const noexcept { return strict_sketch_.has_value(); }

  /// Approximate heap footprint of what the latency statistics are
  /// answered from (bytes): the batch records' capacity, plus the sketch
  /// buckets in sketch mode. It grows with batches, not requests.
  std::size_t latency_store_bytes() const noexcept;

  /// Records a completed batch. The batch must have completed_at set.
  /// Every non-duplicate batch is decomposed and lane-checked, warmup
  /// batches included; only those past measure_from enter the statistics.
  void record(const workload::Batch& batch);

  /// Records a request that was dropped (e.g. VM evicted before service).
  void record_dropped(bool strict, int count);

  // ---- workflow paths (src/workflow) -------------------------------------
  //
  // record() assumes one batch == one set of end-user requests. Workflow
  // stage batches violate that (one request traverses several stages), so
  // they split into a per-stage path and a per-request path: stages feed
  // component aggregates only, and the flow's single terminal record owns
  // the request latencies and the end-to-end SLO verdict.

  /// Per-stage path: decomposes and lane-checks one completed stage batch
  /// and returns the split (the runtime sums it along the critical chain).
  /// Never touches the latency statistics, SLO counters, observer, or
  /// batch records, so workflow statistics cannot double-count a request.
  workload::Decomposition record_stage(const workload::Batch& batch);

  /// Per-request (terminal) path: one end-to-end flow. Claims the flow id
  /// (a retried/raced duplicate is discarded under dedup), applies the
  /// measure_from filter, records the same per-request latency ramp as
  /// record(), and counts SLO compliance against the flow's end-to-end
  /// deadline. The batch-records entry is breakdown_of(flow.chain), whose
  /// lanes record_stage() already checked. Returns true iff the flow
  /// entered the statistics (not deduped or filtered) — the attribution
  /// engine keys off the same verdict.
  bool record_flow(const FlowRecord& flow);

  std::uint64_t stages_recorded() const noexcept { return stages_recorded_; }
  std::uint64_t flows_recorded() const noexcept { return flows_recorded_; }

  void record_cold_start() { ++cold_starts_; }

  // Model-weight cache events (src/memcache).
  void record_cache_hit() { ++cache_hits_; }
  void record_cache_miss() { ++cache_misses_; }
  void record_cache_eviction() { ++cache_evictions_; }

  // ---- fault-tolerance events (src/fault) --------------------------------

  /// When enabled, record() keeps a seen-set of batch ids and counts (then
  /// discards) any second completion of the same id — hedged duplicates must
  /// not inflate throughput or latency statistics.
  void set_dedup(bool enabled) { dedup_ = enabled; }

  /// True when a terminal event (completion or drop) for this batch id was
  /// already recorded. Only meaningful with dedup enabled.
  bool seen(BatchId id) const { return seen_.count(id) != 0; }

  /// Claims terminal ownership of a batch id: true the first time, false
  /// for later copies (whose terminal event must not be double-counted).
  /// Always true with dedup off.
  bool claim(BatchId id) { return !dedup_ || seen_.insert(id).second; }

  /// Requests whose in-flight execution was aborted by a fault. Lost work is
  /// not the same as dropped: the batch may still be retried and served.
  void record_lost_work(int count) {
    lost_requests_ += static_cast<std::uint64_t>(count);
  }
  void record_retry() { ++retries_; }
  void record_hedge() { ++hedges_; }

  // ---- queries -----------------------------------------------------------

  std::uint64_t strict_completed() const noexcept { return strict_total_; }
  std::uint64_t be_completed() const noexcept { return be_total_; }
  std::uint64_t dropped() const noexcept { return dropped_; }
  std::uint64_t cold_starts() const noexcept { return cold_starts_; }
  std::uint64_t cache_hits() const noexcept { return cache_hits_; }
  std::uint64_t cache_misses() const noexcept { return cache_misses_; }
  std::uint64_t cache_evictions() const noexcept { return cache_evictions_; }
  std::uint64_t lost_requests() const noexcept { return lost_requests_; }
  std::uint64_t retries() const noexcept { return retries_; }
  std::uint64_t hedges() const noexcept { return hedges_; }
  std::uint64_t duplicate_hedges() const noexcept { return duplicate_hedges_; }

  /// Percentage of strict requests that met their SLO deadline, in [0,100].
  double slo_compliance_pct() const noexcept;

  /// Strict requests that missed their deadline (dropped strict requests
  /// count: they enter strict_total_ but never strict_compliant_).
  std::uint64_t strict_violations() const noexcept {
    return strict_total_ - strict_compliant_;
  }

  /// Recorded batches and stages with a decomposition lane below
  /// -kLaneEps — a nonzero value means some accounting double-charged time
  /// or served a request before it arrived. Debug builds die instead.
  std::uint64_t negative_component_clamps() const noexcept {
    return negative_component_clamps_;
  }

  /// Latency percentile in seconds over strict (or BE) request latencies.
  /// Bit-identical to percentile() over strict_latencies() (be_latencies()),
  /// found by selecting order statistics across the batch ramps without
  /// expanding them; within the configured relative-error bound in sketch
  /// mode.
  double strict_percentile(double p) const;
  double be_percentile(double p) const;
  /// Mean strict latency in seconds, bit-identical to mean_f() over
  /// strict_latencies().
  double strict_mean() const;

  /// Per-request latency samples (seconds, as float, in record order), for
  /// CDFs and significance tests. Expanded from the batch records on every
  /// call — nothing is cached. Empty in sketch mode.
  std::vector<float> strict_latencies() const;
  std::vector<float> be_latencies() const;

  /// Average breakdown over strict batches whose worst latency is at or
  /// above the given percentile of strict batch latencies (the Fig. 6 tail
  /// bars use p=99).
  Breakdown tail_breakdown(double p) const;

  /// Average breakdown over all strict batches.
  Breakdown mean_breakdown() const;

  const std::vector<BatchBreakdown>& batch_records() const noexcept {
    return batches_;
  }

  // ---- per-model queries (multi-workload experiments, e.g. Fig. 2) -------

  /// Per-request latencies of one (model, strictness) stream, seconds.
  std::vector<float> latencies_for(const workload::ModelProfile* model,
                                   bool strict) const;
  /// SLO compliance over one model's strict requests, in [0,100].
  double slo_compliance_pct_for(const workload::ModelProfile* model) const;
  /// Tail breakdown restricted to one model's strict batches.
  Breakdown tail_breakdown_for(const workload::ModelProfile* model,
                               double p) const;

 private:
  /// Shared terminal path of record()/record_flow(): counts the entry's
  /// requests and SLO compliance, feeds the sketches (sketch mode) and the
  /// batch observer, and keeps the entry.
  void record_terminal(const BatchBreakdown& entry);

  /// The one lane check: every lane of `d` must be >= -kLaneEps.
  void check_lanes(const workload::Decomposition& d);

  std::optional<QuantileSketch> strict_sketch_;
  std::optional<QuantileSketch> be_sketch_;
  BatchObserver observer_;
  AttrBatchHook attr_batch_hook_;
  AttrDropHook attr_drop_hook_;
  std::vector<BatchBreakdown> batches_;
  std::uint64_t strict_total_ = 0;
  std::uint64_t strict_compliant_ = 0;
  std::uint64_t be_total_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t cold_starts_ = 0;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;
  std::uint64_t cache_evictions_ = 0;
  std::uint64_t lost_requests_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t hedges_ = 0;
  std::uint64_t duplicate_hedges_ = 0;
  std::uint64_t stages_recorded_ = 0;
  std::uint64_t flows_recorded_ = 0;
  std::uint64_t negative_component_clamps_ = 0;
  bool dedup_ = false;
  std::unordered_set<BatchId> seen_;
  SimTime measure_from_ = 0.0;
};

}  // namespace protean::metrics
