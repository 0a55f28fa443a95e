// Workload driver: turns a RateTrace into request arrivals.
//
// Arrivals are counted per window of one tick (default 5 ms): the driver
// draws a Poisson count from the trace rate at the window's start, splits it
// into strict and best-effort portions, and pushes the arrivals into a
// RequestSink (the cluster gateway). Arrivals are open loop and the driver's
// RNG is private, so it draws a chunk of windows ahead (one simulated
// second) in one event and hands each window to the sink before it closes;
// the sink holds every window until its end, so no request is acted on
// before its arrival time. Strict requests target one fixed model; BE
// requests target a model that rotates every ~20 s through the opposite
// interference class (Section 5), unless an explicit BE schedule is supplied
// (used to reproduce Fig. 7's DPN 92 switch).
#pragma once

#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "sim/simulator.h"
#include "trace/trace.h"
#include "workload/model.h"

namespace protean::trace {

/// Receives aggregated arrivals. `count` requests of (model, strict) arrive
/// uniformly spread over [window_start, window_end). The driver calls this
/// at or before window_end, in window order; the sink must not act on these
/// requests before window_end.
class RequestSink {
 public:
  virtual ~RequestSink() = default;
  virtual void on_arrivals(const workload::ModelProfile& model, bool strict,
                           int count, SimTime window_start,
                           SimTime window_end) = 0;
};

struct DriverConfig {
  TraceConfig trace;
  const workload::ModelProfile* strict_model = nullptr;
  /// Fraction of requests that are strict (default 50-50, Section 5).
  double strict_fraction = 0.5;
  /// Pool of BE models; if empty, the opposite-class pool of the strict
  /// model is used. A single-entry pool pins the BE model.
  std::vector<const workload::ModelProfile*> be_pool;
  /// Explicit (time, model) BE schedule; overrides random rotation.
  std::vector<std::pair<SimTime, const workload::ModelProfile*>> be_schedule;
  Duration be_rotation_period = 20.0;
  Duration tick = 0.005;
  /// Arrivals before this time are excluded from the emitted counters
  /// (aligned with the metrics warmup window).
  SimTime count_from = 0.0;
  std::uint64_t seed = 7;
};

class WorkloadDriver {
 public:
  WorkloadDriver(sim::Simulator& simulator, const DriverConfig& config,
                 RequestSink& sink);

  ~WorkloadDriver();
  WorkloadDriver(const WorkloadDriver&) = delete;
  WorkloadDriver& operator=(const WorkloadDriver&) = delete;

  /// Starts injecting arrivals; runs until the trace horizon.
  void start();

  /// The BE model of the latest window handed to the sink.
  const workload::ModelProfile& current_be_model() const;
  /// Every model BE requests may target during the run.
  std::vector<const workload::ModelProfile*> be_models() const;
  /// Requests handed to the sink from windows starting at or after
  /// count_from (windows are handed over up to one chunk ahead).
  std::uint64_t requests_emitted() const noexcept { return emitted_; }
  std::uint64_t strict_emitted() const noexcept { return strict_emitted_; }

 private:
  /// Draws the next chunk of windows, hands them to the sink, and schedules
  /// the following chunk at the close of this one's last window.
  void deliver_chunk();
  void deliver_window(SimTime window_start, SimTime window_end);
  void maybe_rotate_be_model(SimTime now);

  sim::Simulator& sim_;
  DriverConfig config_;
  RequestSink& sink_;
  RateTrace trace_;
  Rng rng_;
  Rng::PoissonParam poisson_;  ///< for the latest window's expected count
  std::vector<const workload::ModelProfile*> be_pool_;
  std::size_t be_index_ = 0;
  SimTime next_rotation_ = 0.0;
  std::size_t schedule_index_ = 0;
  std::uint64_t emitted_ = 0;
  std::uint64_t strict_emitted_ = 0;
  sim::TickGrid grid_;          ///< window ends, the tick grid from start()
  sim::EventHandle next_chunk_;
  SimTime window_start_ = 0.0;  ///< start of the next window to draw
  // Carries the fractional expected strict count across ticks so the strict
  // share converges to strict_fraction exactly rather than only on average.
  double strict_carry_ = 0.0;
};

}  // namespace protean::trace
