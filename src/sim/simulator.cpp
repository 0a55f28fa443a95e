#include "sim/simulator.h"

#include <algorithm>
#include <utility>

namespace protean::sim {

namespace {
// Below this heap size compaction is pointless churn; the O(n) rebuild only
// pays for itself once tombstone counts are macroscopic.
constexpr std::size_t kCompactionFloor = 64;
}  // namespace

EventHandle Simulator::schedule_at(SimTime when, Callback cb) {
  PROTEAN_CHECK_MSG(when >= now_, "cannot schedule into the past");
  PROTEAN_CHECK_MSG(static_cast<bool>(cb), "null event callback");
  const std::uint64_t seq = next_seq_++;
  queue_.push_back(Event{when, seq, std::move(cb)});
  std::push_heap(queue_.begin(), queue_.end(), EventAfter{});
  live_seqs_.insert(seq);
  return EventHandle(seq);
}

bool Simulator::cancel(EventHandle handle) {
  if (!handle.valid()) return false;
  // We cannot remove from the middle of a binary heap; instead the event is
  // delisted from live_seqs_, turning its queue entry into a tombstone that
  // pop paths discard (and compaction sweeps in bulk). Cancelling an event
  // that already executed (or was already cancelled) is a no-op, so nothing
  // accumulates across repeated PeriodicTask stops.
  const bool was_live = live_seqs_.erase(handle.id()) > 0;
  if (was_live) maybe_compact();
  return was_live;
}

void Simulator::maybe_compact() {
  // Lazy tombstone compaction: rebuild the heap once dead entries exceed the
  // live ones (i.e. more than half the heap is garbage). Amortized O(1) per
  // cancel — each compaction is O(n) but at least halves the heap.
  if (queue_.size() < kCompactionFloor) return;
  const std::size_t live = live_seqs_.size();
  if (queue_.size() <= 2 * live) return;
  std::erase_if(queue_,
                [&](const Event& e) { return live_seqs_.count(e.seq) == 0; });
  std::make_heap(queue_.begin(), queue_.end(), EventAfter{});
}

Simulator::Event Simulator::pop_top() {
  std::pop_heap(queue_.begin(), queue_.end(), EventAfter{});
  Event event = std::move(queue_.back());
  queue_.pop_back();
  return event;
}

void Simulator::pop_cancelled() {
  while (!queue_.empty() && live_seqs_.count(queue_.front().seq) == 0) {
    pop_top();
  }
}

void Simulator::extract_batch() {
  batch_.clear();
  const SimTime when = queue_.front().when;
  while (!queue_.empty() && queue_.front().when == when) {
    batch_.push_back(pop_top());
  }
}

bool Simulator::step() {
  pop_cancelled();
  if (queue_.empty()) return false;
  // Move the event out before running so the callback may schedule freely.
  Event event = pop_top();
  PROTEAN_DCHECK(event.when >= now_);
  now_ = event.when;
  live_seqs_.erase(event.seq);
  ++executed_;
  event.cb();
  return true;
}

std::size_t Simulator::run_until(SimTime until) {
  std::size_t count = 0;
  for (;;) {
    pop_cancelled();
    if (queue_.empty() || queue_.front().when > until) break;
    // Coalesce every event sharing the earliest timestamp into one batch:
    // heap pops at equal `when` yield ascending seq, so execution order is
    // identical to popping one event at a time.
    extract_batch();
    now_ = batch_.front().when;
    for (Event& event : batch_) {
      // A callback earlier in the batch may cancel a later member; re-check
      // liveness immediately before running, exactly like the per-pop path.
      if (live_seqs_.erase(event.seq) == 0) continue;
      ++executed_;
      ++count;
      event.cb();
    }
    // Events the callbacks scheduled *at* this same timestamp carry larger
    // seqs than anything already executed; the next loop iteration extracts
    // them in order, preserving the FIFO contract.
  }
  batch_.clear();
  // Advance the clock to the horizon even if no event landed exactly there,
  // so back-to-back run_until calls observe monotonic time.
  if (until > now_) now_ = until;
  return count;
}

std::size_t Simulator::run_to_completion() {
  std::size_t count = 0;
  for (;;) {
    pop_cancelled();
    if (queue_.empty()) break;
    extract_batch();
    now_ = batch_.front().when;
    for (Event& event : batch_) {
      if (live_seqs_.erase(event.seq) == 0) continue;
      ++executed_;
      ++count;
      event.cb();
    }
  }
  batch_.clear();
  return count;
}

PeriodicTask::PeriodicTask(Simulator& simulator, Duration period,
                           std::function<void()> callback,
                           bool fire_immediately)
    : sim_(simulator),
      callback_(std::move(callback)),
      grid_(simulator.now(), period) {
  PROTEAN_CHECK_MSG(period > 0.0, "period must be positive");
  PROTEAN_CHECK_MSG(static_cast<bool>(callback_), "null periodic callback");
  if (fire_immediately) {
    pending_ = sim_.schedule_at(sim_.now(), [this] { fire(); });
  } else {
    arm();
  }
}

void PeriodicTask::arm() {
  // Absolute phase: accumulate from the previous fire time. The FP sums are
  // bit-identical to the historical schedule_after(period)-from-the-callback
  // sequence (the clock reads the fire time when the callback runs), so fire
  // timestamps are unchanged — but a slow callback can no longer skew them.
  pending_ = sim_.schedule_at(grid_.next(), [this] { fire(); });
  grid_.advance();
}

void PeriodicTask::fire() {
  // Retire the handle before invoking the callback: a stop() issued from
  // inside the callback (or by its side effects) must not cancel whatever
  // unrelated event later reuses this heap slot via a stale handle.
  pending_ = EventHandle();
  callback_();
  if (running_) arm();
}

void PeriodicTask::stop() {
  if (!running_) return;
  running_ = false;
  sim_.cancel(pending_);
  pending_ = EventHandle();
}

}  // namespace protean::sim
