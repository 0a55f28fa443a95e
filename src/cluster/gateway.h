// Gateway ① + Dispatcher ② of Fig. 4.
//
// The gateway accumulates per-(model, strictness) request arrivals and
// seals them into batches of the model's batch size — or earlier, when the
// oldest pending request has waited `batch_timeout` (request surges never
// wait behind a full-batch requirement). Sealed batches flow to a dispatch
// function supplied by the Cluster, which load-balances them across the
// accepting worker nodes.
//
// Formation is event-driven. The workload driver hands arrival windows over
// ahead of time; the gateway holds each one until its window_end (when it
// "lands") and a FormationClock keeps one pending event, at the earliest
// instant a batch seals: the landing that fills a key to its batch size, or
// the first timeout check (a tick of the `batch_flush_check` grid) at which
// a key's oldest request has waited out its hold time. At a tick the order
// is fixed: every gateway's timeout pass, in shard order, then the landings
// at that instant in delivery order, each sealing full batches as it lands.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/config.h"
#include "sim/simulator.h"
#include "trace/driver.h"
#include "workload/batch.h"

namespace protean::cluster {

class FormationClock;

class Gateway : public trace::RequestSink {
 public:
  using DispatchFn = std::function<void(workload::Batch&&)>;

  /// `first_batch_id`/`id_stride` partition the batch-id space when several
  /// gateways run side by side (sharded control plane, docs/scale.md):
  /// shard s uses ids s+1, s+1+K, s+1+2K, ... so ids stay globally unique.
  /// The defaults reproduce the single-gateway sequence 1, 2, 3, ...
  /// Side-by-side gateways share one `clock` (attached in shard order); a
  /// gateway given none runs its own.
  Gateway(sim::Simulator& simulator, const ClusterConfig& config,
          DispatchFn dispatch, BatchId first_batch_id = 1,
          std::uint64_t id_stride = 1, FormationClock* clock = nullptr);
  ~Gateway() override;
  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;

  /// Holds the window until window_end. A window that has already closed
  /// lands at once, sealing any batch it fills.
  void on_arrivals(const workload::ModelProfile& model, bool strict, int count,
                   SimTime window_start, SimTime window_end) override;

  /// Seals every partial batch of the requests delivered so far
  /// (end-of-experiment drain). Windows still open keep their schedule.
  void flush_all();

  /// SLO-aware hold time for a partial batch of `model` (see ClusterConfig).
  static Duration timeout_for(const workload::ModelProfile& model,
                              const ClusterConfig& config);

  std::uint64_t batches_formed() const noexcept { return batches_formed_; }
  std::uint64_t partial_batches() const noexcept { return partial_batches_; }
  /// Requests whose window has closed by now.
  std::uint64_t requests_seen() const noexcept;

  /// Requests delivered but not yet sealed into a batch, across all
  /// (model, strictness) streams.
  std::size_t pending_requests() const noexcept;
  /// Age of the oldest delivered, unsealed request (0 when none).
  Duration oldest_pending_age() const noexcept;

  /// Registers the gateway's instruments (src/telemetry): queue depth,
  /// backlog age, and cumulative batch-formation counts. `label` suffixes
  /// every metric name (e.g. "{shard=\"1\"}" on a sharded control plane).
  void register_telemetry(telemetry::MetricsRegistry& registry,
                          const std::string& label = "");

 private:
  friend class FormationClock;

  /// A burst of `count` arrivals spread uniformly over [t0, t1), landing at
  /// t1; `seq` is its place in the clock's delivery order.
  struct Grain {
    SimTime t0;
    SimTime t1;
    int count;
    std::uint64_t seq;
  };
  struct Accumulator {
    /// In landing order. Every grain whose window has closed has landed:
    /// the closed prefix holds the requests waiting for a batch.
    std::deque<Grain> grains;
    int queued = 0;  ///< requests in all grains, closed or not
    /// The grain whose landing fills the key to its batch size (once
    /// queued reaches it), and the first timeout tick of the oldest grain
    /// (left at never when the fill comes well before it).
    SimTime fill_at = kNeverTime;
    std::uint64_t fill_seq = 0;
    SimTime timeout_at = kNeverTime;
    SimTime due() const noexcept { return std::min(fill_at, timeout_at); }
  };
  using Key = std::pair<const workload::ModelProfile*, bool>;

  void seal(const Key& key, Accumulator& acc, int size);
  /// Requests in grains that closed before `t` (or at `t`, if `inclusive`).
  static int closed(const Accumulator& acc, SimTime t, bool inclusive);
  /// Seals every key whose oldest landed request has waited its hold time.
  void timeout_pass(SimTime now);
  /// Recomputes the key's fill and timeout instants.
  void refresh(const Key& key, Accumulator& acc);
  /// Earliest instant any key seals.
  SimTime due() const noexcept;

  sim::Simulator& sim_;
  const ClusterConfig& config_;
  DispatchFn dispatch_;
  std::unique_ptr<FormationClock> own_clock_;  ///< standalone gateways only
  FormationClock* clock_;
  std::map<Key, Accumulator> acc_;
  BatchId next_batch_id_ = 1;
  std::uint64_t id_stride_ = 1;
  std::uint64_t batches_formed_ = 0;
  std::uint64_t partial_batches_ = 0;
  std::uint64_t sealed_requests_ = 0;
};

/// The one pending sealing event shared by a set of gateways (the shards of
/// a control plane), and the timeout-check grid they share. One event per
/// sealing instant serves every shard, so the seals of different shards
/// interleave exactly as the shard order and the delivery order dictate.
class FormationClock {
 public:
  /// The timeout-check grid starts at the simulator's current time.
  FormationClock(sim::Simulator& simulator, Duration flush_period);
  ~FormationClock();
  FormationClock(const FormationClock&) = delete;
  FormationClock& operator=(const FormationClock&) = delete;

 private:
  friend class Gateway;

  void attach(Gateway* gateway);
  void detach(Gateway* gateway);
  /// Delivery order of arrival grains, across every attached gateway.
  std::uint64_t next_seq() noexcept { return next_seq_++; }
  /// The first timeout-check tick t with t > landing and t - t0 >= timeout.
  SimTime first_timeout_tick(SimTime landing, SimTime t0, Duration timeout);
  /// Brings the pending event forward to `due` if that is earlier.
  void consider(SimTime due);
  /// Re-arms the pending event at the earliest instant any gateway seals.
  void reschedule();
  /// The sealing event: timeout passes, then landings, then re-arm.
  void on_tick();

  /// A key whose fill lands at the current tick.
  struct Filling {
    Gateway* gateway;
    const Gateway::Key* key;
    Gateway::Accumulator* acc;
  };

  sim::Simulator& sim_;
  sim::TickGrid grid_;  ///< next timeout-check tick not yet passed
  std::vector<Gateway*> gateways_;
  sim::EventHandle event_;
  SimTime event_at_ = kNeverTime;
  std::uint64_t next_seq_ = 0;
  std::vector<Filling> filling_;  ///< on_tick scratch
};

}  // namespace protean::cluster
