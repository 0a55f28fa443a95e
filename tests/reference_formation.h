// Test-only reference for batch formation: the polling gateway and the
// window-at-a-time workload driver that cluster::Gateway and
// trace::WorkloadDriver replaced. The driver delivers each window at its
// close from a 5 ms PeriodicTask; the gateway seals full batches as windows
// land and checks hold timers from its own 5 ms PeriodicTask. It is slow
// (two events per tick) and obviously right, so the event-driven pair must
// agree with it bit for bit (formation_test.cpp), like the full node scan
// behind the dispatch index.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "cluster/config.h"
#include "cluster/gateway.h"
#include "common/rng.h"
#include "sim/simulator.h"
#include "trace/driver.h"
#include "trace/trace.h"
#include "workload/batch.h"

namespace protean::reference {

class PollingGateway final : public trace::RequestSink {
 public:
  using DispatchFn = std::function<void(workload::Batch&&)>;

  PollingGateway(sim::Simulator& simulator, const cluster::ClusterConfig& config,
                 DispatchFn dispatch, BatchId first_batch_id = 1,
                 std::uint64_t id_stride = 1)
      : sim_(simulator),
        config_(config),
        dispatch_(std::move(dispatch)),
        next_batch_id_(first_batch_id),
        id_stride_(id_stride) {
    flush_task_ = std::make_unique<sim::PeriodicTask>(
        sim_, config_.batch_flush_check, [this] { flush_check(); });
  }

  void on_arrivals(const workload::ModelProfile& model, bool strict, int count,
                   SimTime window_start, SimTime window_end) override {
    requests_seen_ += static_cast<std::uint64_t>(count);
    const Key key{&model, strict};
    Accumulator& acc = acc_[key];
    acc.grains.push_back(Grain{window_start, window_end, count});
    acc.pending += count;
    while (acc.pending >= model.batch_size) seal(key, acc, model.batch_size);
  }

  void flush_all() {
    for (auto& [key, acc] : acc_) {
      while (acc.pending > 0) seal(key, acc, key.first->batch_size);
    }
  }

  std::uint64_t requests_seen() const noexcept { return requests_seen_; }
  std::size_t pending_requests() const noexcept {
    std::size_t total = 0;
    for (const auto& [key, acc] : acc_) {
      total += static_cast<std::size_t>(acc.pending);
    }
    return total;
  }
  Duration oldest_pending_age() const noexcept {
    Duration oldest = 0.0;
    for (const auto& [key, acc] : acc_) {
      if (acc.pending == 0) continue;
      oldest = std::max(oldest, sim_.now() - acc.grains.front().t0);
    }
    return oldest;
  }

 private:
  struct Grain {
    SimTime t0;
    SimTime t1;
    int count;
  };
  struct Accumulator {
    std::deque<Grain> grains;
    int pending = 0;
  };
  using Key = std::pair<const workload::ModelProfile*, bool>;

  void flush_check() {
    const SimTime now = sim_.now();
    for (auto& [key, acc] : acc_) {
      if (acc.pending == 0) continue;
      if (now - acc.grains.front().t0 >=
          cluster::Gateway::timeout_for(*key.first, config_)) {
        seal(key, acc, key.first->batch_size);
      }
    }
  }

  void seal(const Key& key, Accumulator& acc, int size) {
    size = std::min(size, acc.pending);
    if (size == 0) return;
    workload::Batch batch;
    batch.id = next_batch_id_;
    next_batch_id_ += id_stride_;
    batch.model = key.first;
    batch.strict = key.second;
    batch.count = size;
    batch.first_arrival = acc.grains.front().t0;
    batch.formed_at = sim_.now();
    if (batch.strict) {
      batch.slo = batch.model->slo_deadline(config_.slo_multiplier);
    }
    int remaining = size;
    SimTime last_arrival = batch.first_arrival;
    while (remaining > 0) {
      Grain& g = acc.grains.front();
      if (g.count <= remaining) {
        remaining -= g.count;
        last_arrival = g.t1;
        acc.grains.pop_front();
      } else {
        const double frac =
            static_cast<double>(remaining) / static_cast<double>(g.count);
        last_arrival = g.t0 + (g.t1 - g.t0) * frac;
        g.t0 = last_arrival;
        g.count -= remaining;
        remaining = 0;
      }
    }
    acc.pending -= size;
    batch.last_arrival = std::max(last_arrival, batch.first_arrival);
    dispatch_(std::move(batch));
  }

  sim::Simulator& sim_;
  const cluster::ClusterConfig& config_;
  DispatchFn dispatch_;
  std::map<Key, Accumulator> acc_;
  std::unique_ptr<sim::PeriodicTask> flush_task_;
  BatchId next_batch_id_ = 1;
  std::uint64_t id_stride_ = 1;
  std::uint64_t requests_seen_ = 0;
};

class PollingDriver {
 public:
  PollingDriver(sim::Simulator& simulator, const trace::DriverConfig& config,
                trace::RequestSink& sink)
      : sim_(simulator),
        config_(config),
        sink_(sink),
        trace_(config.trace),
        rng_(Rng(config.seed).fork(0x7ace)) {
    be_pool_ = config_.be_pool;
    if (be_pool_.empty() && config_.be_schedule.empty()) {
      be_pool_ = workload::ModelCatalog::instance().opposite_class_pool(
          *config_.strict_model);
    }
    if (!be_pool_.empty()) be_index_ = rng_.index(be_pool_.size());
    next_rotation_ = config_.be_rotation_period;
  }

  void start() {
    window_start_ = sim_.now();
    task_ = std::make_unique<sim::PeriodicTask>(sim_, config_.tick,
                                                [this] { tick(); });
  }

  std::uint64_t requests_emitted() const noexcept { return emitted_; }
  std::uint64_t strict_emitted() const noexcept { return strict_emitted_; }

 private:
  const workload::ModelProfile& current_be_model() const {
    if (!config_.be_schedule.empty()) {
      const std::size_t idx = schedule_index_ == 0 ? 0 : schedule_index_ - 1;
      return *config_.be_schedule[idx].second;
    }
    return *be_pool_[be_index_];
  }

  void maybe_rotate_be_model(SimTime now) {
    if (!config_.be_schedule.empty()) {
      while (schedule_index_ < config_.be_schedule.size() &&
             now >= config_.be_schedule[schedule_index_].first) {
        ++schedule_index_;
      }
      return;
    }
    if (be_pool_.size() > 1 && now >= next_rotation_) {
      std::size_t next = rng_.index(be_pool_.size());
      if (next == be_index_) next = (next + 1) % be_pool_.size();
      be_index_ = next;
      next_rotation_ = now + config_.be_rotation_period;
    }
  }

  void tick() {
    const SimTime window_start = window_start_;
    const SimTime window_end = sim_.now();
    window_start_ = window_end;
    if (window_start >= trace_.horizon()) {
      task_->stop();
      return;
    }
    maybe_rotate_be_model(window_start);
    const double expected = trace_.rate_at(window_start) * config_.tick;
    const auto total = static_cast<int>(rng_.poisson(expected));
    if (total <= 0) return;
    int strict_count = 0;
    if (config_.strict_fraction >= 1.0) {
      strict_count = total;
    } else if (config_.strict_fraction > 0.0) {
      strict_carry_ += static_cast<double>(total) * config_.strict_fraction;
      strict_count = static_cast<int>(std::floor(strict_carry_));
      strict_carry_ -= strict_count;
      strict_count = std::min(strict_count, total);
    }
    const int be_count = total - strict_count;
    if (strict_count > 0) {
      sink_.on_arrivals(*config_.strict_model, true, strict_count,
                        window_start, window_end);
      if (window_start >= config_.count_from) {
        strict_emitted_ += static_cast<std::uint64_t>(strict_count);
      }
    }
    if (be_count > 0) {
      sink_.on_arrivals(current_be_model(), false, be_count, window_start,
                        window_end);
    }
    if (window_start >= config_.count_from) {
      emitted_ += static_cast<std::uint64_t>(total);
    }
  }

  sim::Simulator& sim_;
  trace::DriverConfig config_;
  trace::RequestSink& sink_;
  trace::RateTrace trace_;
  Rng rng_;
  std::vector<const workload::ModelProfile*> be_pool_;
  std::size_t be_index_ = 0;
  SimTime next_rotation_ = 0.0;
  std::size_t schedule_index_ = 0;
  std::uint64_t emitted_ = 0;
  std::uint64_t strict_emitted_ = 0;
  std::unique_ptr<sim::PeriodicTask> task_;
  SimTime window_start_ = 0.0;
  double strict_carry_ = 0.0;
};

}  // namespace protean::reference
