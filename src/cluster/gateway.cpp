#include "cluster/gateway.h"

#include <algorithm>

#include "common/check.h"
#include "obs/trace.h"
#include "telemetry/registry.h"

namespace protean::cluster {

namespace {
/// The gateway/dispatcher shares Perfetto process lane 0; worker nodes use
/// lanes 1 + node id.
constexpr int kGatewayPid = 0;
}  // namespace

FormationClock::FormationClock(sim::Simulator& simulator,
                               Duration flush_period)
    : sim_(simulator), grid_(simulator.now(), flush_period) {
  PROTEAN_CHECK_MSG(flush_period > 0.0, "flush period must be positive");
}

FormationClock::~FormationClock() { sim_.cancel(event_); }

void FormationClock::attach(Gateway* gateway) { gateways_.push_back(gateway); }

void FormationClock::detach(Gateway* gateway) {
  std::erase(gateways_, gateway);
  reschedule();
}

SimTime FormationClock::first_timeout_tick(SimTime landing, SimTime t0,
                                           Duration timeout) {
  // Ticks before now have passed: each either ran its pass or had nothing
  // due. The remaining ones are walked one accumulation at a time, so the
  // tick is bit-identical to the one a periodic check would fire on.
  while (grid_.next() < sim_.now()) grid_.advance();
  sim::TickGrid tick = grid_;
  while (!(tick.next() > landing && tick.next() - t0 >= timeout)) {
    tick.advance();
  }
  return tick.next();
}

void FormationClock::consider(SimTime due) {
  if (due >= event_at_) return;
  sim_.cancel(event_);
  event_at_ = due;
  event_ = sim_.schedule_at(due, [this] { on_tick(); });
}

void FormationClock::reschedule() {
  SimTime due = kNeverTime;
  for (const Gateway* gateway : gateways_) due = std::min(due, gateway->due());
  if (due == event_at_) return;
  sim_.cancel(event_);
  event_ = sim::EventHandle();
  event_at_ = kNeverTime;
  consider(due);
}

void FormationClock::on_tick() {
  event_ = sim::EventHandle();
  event_at_ = kNeverTime;
  const SimTime now = sim_.now();
  while (grid_.next() < now) grid_.advance();
  if (grid_.next() == now) {
    grid_.advance();
    for (Gateway* gateway : gateways_) gateway->timeout_pass(now);
  }
  // Then the windows closing now, in delivery order: the grain that fills a
  // key seals its batch as it lands (an overflow refills at the same grain).
  for (Gateway* gateway : gateways_) {
    for (auto& [key, acc] : gateway->acc_) {
      if (acc.fill_at <= now) filling_.push_back({gateway, &key, &acc});
    }
  }
  while (!filling_.empty()) {
    const auto next = std::min_element(
        filling_.begin(), filling_.end(), [](const Filling& a, const Filling& b) {
          return a.acc->fill_seq < b.acc->fill_seq;
        });
    PROTEAN_DCHECK(next->acc->fill_at == now);
    next->gateway->seal(*next->key, *next->acc, next->key->first->batch_size);
    next->gateway->refresh(*next->key, *next->acc);
    if (next->acc->fill_at > now) {
      *next = filling_.back();
      filling_.pop_back();
    }
  }
  reschedule();
  PROTEAN_DCHECK(event_at_ > now);
}

Gateway::Gateway(sim::Simulator& simulator, const ClusterConfig& config,
                 DispatchFn dispatch, BatchId first_batch_id,
                 std::uint64_t id_stride, FormationClock* clock)
    : sim_(simulator),
      config_(config),
      dispatch_(std::move(dispatch)),
      clock_(clock),
      next_batch_id_(first_batch_id),
      id_stride_(id_stride) {
  PROTEAN_CHECK_MSG(static_cast<bool>(dispatch_), "null dispatch function");
  PROTEAN_CHECK_MSG(id_stride_ > 0, "batch-id stride must be positive");
  if (obs::Tracer* t = config_.tracer; t != nullptr) {
    t->process_name(kGatewayPid, "gateway");
  }
  if (clock_ == nullptr) {
    own_clock_ =
        std::make_unique<FormationClock>(sim_, config_.batch_flush_check);
    clock_ = own_clock_.get();
  }
  clock_->attach(this);
}

Gateway::~Gateway() { clock_->detach(this); }

void Gateway::on_arrivals(const workload::ModelProfile& model, bool strict,
                          int count, SimTime window_start,
                          SimTime window_end) {
  PROTEAN_CHECK_MSG(count > 0, "empty arrival burst");
  PROTEAN_CHECK_MSG(window_start <= window_end, "inverted arrival window");
  const SimTime now = sim_.now();
  const Key key{&model, strict};
  Accumulator& acc = acc_[key];
  const Grain grain{window_start, window_end, count, clock_->next_seq()};
  // Grains queue in landing order: window_end order, ties in delivery
  // order, and a window that has already closed behind every closed one. A
  // driver delivers in that order already; only several drivers sharing a
  // sink interleave.
  const SimTime lands = std::max(window_end, now);
  const bool at_back = acc.grains.empty() || acc.grains.back().t1 <= lands;
  if (at_back) {
    acc.grains.push_back(grain);
  } else {
    acc.grains.insert(std::upper_bound(acc.grains.begin(), acc.grains.end(),
                                       lands,
                                       [](SimTime t, const Grain& g) {
                                         return t < g.t1;
                                       }),
                      grain);
  }
  acc.queued += count;
  if (window_end <= now) {
    for (int ready = closed(acc, now, /*inclusive=*/true);
         ready >= model.batch_size; ready -= model.batch_size) {
      seal(key, acc, model.batch_size);
    }
    refresh(key, acc);
    clock_->reschedule();
    return;
  }
  if (!at_back || acc.grains.size() == 1) {
    refresh(key, acc);
  } else if (acc.fill_at == kNeverTime && acc.queued >= model.batch_size) {
    acc.fill_at = window_end;  // this grain completes the batch
    acc.fill_seq = grain.seq;
  }
  clock_->consider(acc.due());
}

int Gateway::closed(const Accumulator& acc, SimTime t, bool inclusive) {
  int total = 0;
  for (const Grain& g : acc.grains) {
    if (inclusive ? g.t1 > t : g.t1 >= t) break;
    total += g.count;
  }
  return total;
}

void Gateway::refresh(const Key& key, Accumulator& acc) {
  const int batch_size = key.first->batch_size;
  acc.fill_at = kNeverTime;
  if (acc.queued >= batch_size) {
    int cumulative = 0;
    for (const Grain& g : acc.grains) {
      cumulative += g.count;
      if (cumulative >= batch_size) {
        acc.fill_at = g.t1;
        acc.fill_seq = g.seq;
        break;
      }
    }
  }
  acc.timeout_at = kNeverTime;
  if (acc.grains.empty()) return;
  // The hold timer runs from the oldest request. When the batch fills well
  // before it could expire, the tick is not needed: the fill reseals the
  // key, and this runs again on the new oldest request.
  const Grain& oldest = acc.grains.front();
  const Duration timeout = timeout_for(*key.first, config_);
  constexpr Duration kSlack = 1e-9;  // far above the rounding of t - t0
  if (acc.fill_at < oldest.t0 + timeout - kSlack) return;
  acc.timeout_at = clock_->first_timeout_tick(oldest.t1, oldest.t0, timeout);
}

SimTime Gateway::due() const noexcept {
  SimTime due = kNeverTime;
  for (const auto& [key, acc] : acc_) due = std::min(due, acc.due());
  return due;
}

void Gateway::seal(const Key& key, Accumulator& acc, int size) {
  PROTEAN_DCHECK(size > 0 && size <= acc.queued);
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

  // Consume `size` requests from the grain FIFO; the last consumed
  // request's arrival time is interpolated inside its grain.
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
      g.t0 = last_arrival;  // the rest of the grain arrives afterwards
      g.count -= remaining;
      remaining = 0;
    }
  }
  acc.queued -= size;
  sealed_requests_ += static_cast<std::uint64_t>(size);
  batch.last_arrival = std::max(last_arrival, batch.first_arrival);
  PROTEAN_DCHECK(batch.last_arrival <= batch.formed_at);

  ++batches_formed_;
  if (size < key.first->batch_size) ++partial_batches_;
  if (obs::Tracer* t = config_.tracer;
      t != nullptr && t->wants(obs::kSpans)) {
    // "form": first request arrival -> batch sealed (the batching delay).
    t->async_begin(obs::kSpans, "form", batch.id, kGatewayPid,
                   batch.first_arrival,
                   {{"model", batch.model->name},
                    {"strict", batch.strict ? 1.0 : 0.0},
                    {"count", static_cast<double>(batch.count)}});
    t->async_end(obs::kSpans, "form", batch.id, kGatewayPid, sim_.now());
  }
  dispatch_(std::move(batch));
}

Duration Gateway::timeout_for(const workload::ModelProfile& model,
                              const ClusterConfig& config) {
  const Duration budget_based = config.batch_wait_slo_fraction *
                                config.slo_multiplier * model.solo_time_7g;
  return std::clamp(budget_based, config.batch_timeout_floor,
                    config.batch_timeout);
}

void Gateway::timeout_pass(SimTime now) {
  for (auto& [key, acc] : acc_) {
    // Windows closing at this tick land after the pass.
    const int ready = closed(acc, now, /*inclusive=*/false);
    if (ready == 0) continue;
    PROTEAN_DCHECK(ready < key.first->batch_size);
    const bool expired =
        now - acc.grains.front().t0 >= timeout_for(*key.first, config_);
    PROTEAN_DCHECK(expired == (acc.timeout_at == now));
    if (expired) {
      seal(key, acc, ready);
      refresh(key, acc);
    }
  }
}

void Gateway::flush_all() {
  const SimTime now = sim_.now();
  for (auto& [key, acc] : acc_) {
    const int batch_size = key.first->batch_size;
    int ready = closed(acc, now, /*inclusive=*/true);
    if (ready == 0) continue;
    for (; ready > 0; ready -= batch_size) {
      seal(key, acc, std::min(ready, batch_size));
    }
    refresh(key, acc);
  }
  clock_->reschedule();
}

// The readers count a window as delivered once it has closed, whether or
// not a sealing event has come by since.

std::uint64_t Gateway::requests_seen() const noexcept {
  return sealed_requests_ + pending_requests();
}

std::size_t Gateway::pending_requests() const noexcept {
  std::size_t total = 0;
  for (const auto& [key, acc] : acc_) {
    total += static_cast<std::size_t>(closed(acc, sim_.now(), true));
  }
  return total;
}

Duration Gateway::oldest_pending_age() const noexcept {
  const SimTime now = sim_.now();
  Duration oldest = 0.0;
  for (const auto& [key, acc] : acc_) {
    if (acc.grains.empty() || acc.grains.front().t1 > now) continue;
    oldest = std::max(oldest, now - acc.grains.front().t0);
  }
  return oldest;
}

void Gateway::register_telemetry(telemetry::MetricsRegistry& registry,
                                 const std::string& label) {
  registry.gauge("gateway_pending_requests" + label, [this] {
    return static_cast<double>(pending_requests());
  });
  registry.gauge("gateway_oldest_pending_age_seconds" + label,
                 [this] { return oldest_pending_age(); });
  registry.gauge("gateway_requests_seen_total" + label, [this] {
    return static_cast<double>(requests_seen());
  });
  registry.gauge("gateway_batches_formed_total" + label, [this] {
    return static_cast<double>(batches_formed_);
  });
  registry.gauge("gateway_partial_batches_total" + label, [this] {
    return static_cast<double>(partial_batches_);
  });
}

}  // namespace protean::cluster
