// Discrete-event simulation core.
//
// The simulator owns a virtual clock and a binary min-heap of events. All
// substrates (GPU engine, cluster, spot market, trace generator) schedule
// callbacks on it. Events scheduled at the same timestamp fire in FIFO order
// of scheduling, which makes runs deterministic.
//
// Scale hygiene (docs/scale.md): cancelled events leave tombstones in the
// heap; a lazy compaction pass rebuilds the heap whenever tombstones
// outnumber live entries, so heavy cancel churn (hedging, autoscale drain,
// PeriodicTask stops) keeps memory bounded by the live event count. The run
// loops extract all events sharing the earliest timestamp in one batch,
// touching the heap once per pop instead of re-checking the top between
// callbacks.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace protean::sim {

/// Handle that allows a scheduled event to be cancelled.
class EventHandle {
 public:
  EventHandle() = default;

  bool valid() const noexcept { return id_ != 0; }
  std::uint64_t id() const noexcept { return id_; }

 private:
  friend class Simulator;
  explicit EventHandle(std::uint64_t id) : id_(id) {}
  std::uint64_t id_ = 0;
};

class Simulator {
 public:
  using Callback = std::function<void()>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time in seconds.
  SimTime now() const noexcept { return now_; }

  /// Schedules `cb` to run at absolute time `when` (must be >= now()).
  EventHandle schedule_at(SimTime when, Callback cb);

  /// Schedules `cb` to run `delay` seconds from now (delay >= 0).
  EventHandle schedule_after(Duration delay, Callback cb) {
    PROTEAN_CHECK_MSG(delay >= 0.0, "negative delay");
    return schedule_at(now_ + delay, std::move(cb));
  }

  /// Cancels a pending event. Returns true if the event was still pending.
  bool cancel(EventHandle handle);

  /// Runs events until the queue drains or the clock passes `until`.
  /// Returns the number of events executed.
  std::size_t run_until(SimTime until);

  /// Runs until the queue is completely drained.
  std::size_t run_to_completion();

  /// Executes the single earliest pending event; returns false if none.
  bool step();

  /// Number of events currently pending (cancelled tombstones excluded).
  std::size_t pending() const noexcept { return live_seqs_.size(); }

  /// Heap entries including tombstones awaiting compaction (test/debug
  /// observability for the bounded-memory guarantee).
  std::size_t heap_size() const noexcept { return queue_.size(); }

  /// Total events executed since construction.
  std::uint64_t executed() const noexcept { return executed_; }

 private:
  struct Event {
    SimTime when;
    std::uint64_t seq;  // FIFO tiebreak + cancellation key.
    Callback cb;
  };

  // Min-heap order for std::push_heap/pop_heap (which build max-heaps):
  // "after" = later time, then later sequence number.
  struct EventAfter {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  void pop_cancelled();
  void maybe_compact();
  Event pop_top();
  /// Moves every event sharing the earliest timestamp into `batch_`
  /// (ascending seq — heap pops at equal `when` preserve FIFO order).
  void extract_batch();

  std::vector<Event> queue_;  // binary heap under EventAfter
  // Sequence numbers of live (scheduled, not cancelled, not yet executed)
  // events. A queue entry whose seq is absent is a cancellation tombstone;
  // tombstones are pruned when they reach the top of the heap and compacted
  // wholesale once they outnumber live entries, so memory stays bounded by
  // the number of live events even under sustained cancel churn.
  std::unordered_set<std::uint64_t> live_seqs_;
  std::vector<Event> batch_;  // scratch for same-timestamp coalescing
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
};

/// The tick sequence every periodic activity fires on: start + period,
/// start + 2·period, ..., accumulated one addition at a time (next += period)
/// so the k-th tick is bit-identical to the k-th PeriodicTask fire. The
/// workload driver's windows and the gateway's timeout checks walk the same
/// grid without an event per tick; this is the one place the accumulation
/// lives.
class TickGrid {
 public:
  TickGrid() = default;
  TickGrid(SimTime start, Duration period) : period_(period), next_(start) {
    advance();
  }

  /// The next tick not yet passed.
  SimTime next() const noexcept { return next_; }
  Duration period() const noexcept { return period_; }
  void advance() noexcept { next_ += period_; }

 private:
  Duration period_ = 0.0;
  SimTime next_ = 0.0;
};

/// Repeatedly invokes a callback every `period` seconds until stopped.
/// The callback observes the simulator clock; the first tick fires at
/// `start + period` unless `fire_immediately` is set. Firing is pinned to
/// an absolute phase (start + k·period accumulated): the next tick is
/// scheduled relative to the previous *fire time*, never to whatever the
/// clock reads after the callback returns, so slow callbacks cannot drift
/// the schedule.
class PeriodicTask {
 public:
  PeriodicTask(Simulator& simulator, Duration period,
               std::function<void()> callback, bool fire_immediately = false);
  ~PeriodicTask() { stop(); }
  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  void stop();
  bool running() const noexcept { return running_; }
  Duration period() const noexcept { return grid_.period(); }

 private:
  void arm();
  void fire();

  Simulator& sim_;
  std::function<void()> callback_;
  EventHandle pending_;
  TickGrid grid_;  // absolute phase of the next fire
  bool running_ = true;
};

}  // namespace protean::sim
