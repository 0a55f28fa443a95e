// The latency decomposition: the one place Batch timestamps become lanes.
//
// A completed batch's accounting span — `completed_at - first_arrival` for
// gateway batches (stage <= 0), `completed_at - formed_at` for later
// workflow stages, whose formation wait is their predecessor's to account —
// splits into eleven named lanes. Queue wait is the residual after every
// directly measured lane, so the lanes sum to the span *by construction*.
// No lane is clamped: a negative lane means some interval of time was
// charged twice (or a request was served before it arrived), and
// metrics::Collector, which computes this split once per record, checks
// every lane against -kLaneEps.
//
// Every other latency view derives from this split: the Collector's
// Fig. 2/6 breakdown columns (metrics::breakdown_of), the workflow
// critical-chain sum, and the attribution engine's per-cause aggregates
// (src/attr). The header is pure arithmetic, so metrics can use it without
// linking attr.
#pragma once

#include <array>
#include <cstddef>

#include "workload/batch.h"

namespace protean::workload {

/// Latency lanes (kFormation..kService) plus the drop pseudo-cause.
/// Order is load-bearing: classification ties break toward the lower enum
/// value, and telemetry/report rows follow this order.
enum class Cause : int {
  kFormation = 0,     ///< gateway batching wait before the batch sealed
  kQueue = 1,         ///< node-queue wait (the computed residual)
  kColdBoot = 2,      ///< container boot share of the cold start
  kWeightLoad = 3,    ///< model-weight load share of the cold start
  kSwapStall = 4,     ///< execution stalled on oversubscribed memory
  kDeficiency = 5,    ///< RDF slowdown from a smaller-than-7g slice
  kInterference = 6,  ///< co-location contention slowdown
  kTransfer = 7,      ///< inter-stage tensor transfer (workflows)
  kRetry = 8,         ///< wall time burned by failed dispatch attempts
  kBlackout = 9,      ///< queue time under a reconfiguration blackout
  kService = 10,      ///< irreducible solo time on 7g (not an overhead)
  kDropped = 11,      ///< request dropped before service (counter-only)
};

inline constexpr int kComponentCount = 11;  ///< kFormation..kService
inline constexpr int kOverheadCount = 10;   ///< classification lanes
inline constexpr int kCauseCount = 12;      ///< + kDropped

/// A lane below -kLaneEps seconds is an accounting bug.
inline constexpr double kLaneEps = 1e-9;

/// Stable lowercase name ("formation", "queue", ..., "dropped").
inline const char* cause_name(Cause cause) noexcept {
  static constexpr const char* kNames[kCauseCount] = {
      "formation",  "queue",      "cold_boot",    "weight_load",
      "swap_stall", "deficiency", "interference", "transfer",
      "retry",      "blackout",   "service",      "dropped",
  };
  const auto i = static_cast<std::size_t>(cause);
  return i < static_cast<std::size_t>(kCauseCount) ? kNames[i] : "unknown";
}

/// One batch's (its worst request's) or one flow's latency split, seconds.
struct Decomposition {
  std::array<double, kComponentCount> parts{};

  double& operator[](Cause c) noexcept {
    return parts[static_cast<std::size_t>(c)];
  }
  double operator[](Cause c) const noexcept {
    return parts[static_cast<std::size_t>(c)];
  }
  double total() const noexcept {
    double sum = 0.0;
    for (double p : parts) sum += p;
    return sum;
  }
  Decomposition& operator+=(const Decomposition& o) noexcept {
    for (std::size_t i = 0; i < parts.size(); ++i) parts[i] += o.parts[i];
    return *this;
  }
};

/// End-to-end latency of request `i` of a `count`-request batch (or flow)
/// whose requests arrived uniformly over its arrival span: the linear ramp
/// from the earliest request's `lat_first` (i = 0) to the latest's
/// `lat_last` (i = count - 1). Every per-request view — the collector's
/// statistics, live telemetry, attribution — evaluates this one expression,
/// so they agree bit for bit. Rounding preserves order, so the ramp (and
/// its float cast) is monotone in `i`: non-increasing when
/// `lat_last <= lat_first`, the normal case.
inline double ramp_latency(double lat_first, double lat_last, int i,
                           int count) noexcept {
  const double frac =
      count == 1 ? 0.0
                 : static_cast<double>(i) / static_cast<double>(count - 1);
  return lat_first + (lat_last - lat_first) * frac;
}

/// Splits a completed batch's accounting span into lanes. Pure; the only
/// function that reads Batch timestamps into latency components.
inline Decomposition decompose(const Batch& batch) noexcept {
  Decomposition d;
  const bool later_stage = batch.stage > 0;
  const SimTime start = later_stage ? batch.formed_at : batch.first_arrival;
  d[Cause::kFormation] =
      later_stage ? 0.0 : batch.formed_at - batch.first_arrival;
  d[Cause::kWeightLoad] = batch.weight_load;
  d[Cause::kColdBoot] = batch.cold_start - batch.weight_load;
  d[Cause::kSwapStall] = batch.swap_stall;
  d[Cause::kDeficiency] = batch.solo_on_slice - batch.solo_min;
  d[Cause::kInterference] =
      batch.exec_time - batch.solo_on_slice - batch.swap_stall;
  d[Cause::kTransfer] = batch.transfer;
  d[Cause::kRetry] = batch.retry_overhead;
  d[Cause::kBlackout] = batch.reconfig_blackout;
  d[Cause::kService] = batch.solo_min;
  d[Cause::kQueue] = (batch.completed_at - start) - d.total();
  return d;
}

}  // namespace protean::workload
