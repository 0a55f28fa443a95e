#include "trace/driver.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/log.h"

namespace protean::trace {

namespace {
/// Windows drawn per driver event: one simulated second at the default
/// 5 ms tick. Only the event count depends on it, never an arrival.
constexpr int kChunkWindows = 200;
}  // namespace

WorkloadDriver::WorkloadDriver(sim::Simulator& simulator,
                               const DriverConfig& config, RequestSink& sink)
    : sim_(simulator),
      config_(config),
      sink_(sink),
      trace_(config.trace),
      rng_(Rng(config.seed).fork(0x7ace)) {
  PROTEAN_CHECK_MSG(config_.strict_model != nullptr, "strict model required");
  PROTEAN_CHECK_MSG(config_.tick > 0.0, "tick must be positive");
  PROTEAN_CHECK_MSG(config_.strict_fraction >= 0.0 &&
                        config_.strict_fraction <= 1.0,
                    "strict fraction out of range");
  be_pool_ = config_.be_pool;
  if (be_pool_.empty() && config_.be_schedule.empty()) {
    be_pool_ = workload::ModelCatalog::instance().opposite_class_pool(
        *config_.strict_model);
  }
  if (!be_pool_.empty()) be_index_ = rng_.index(be_pool_.size());
  next_rotation_ = config_.be_rotation_period;
}

WorkloadDriver::~WorkloadDriver() { sim_.cancel(next_chunk_); }

const workload::ModelProfile& WorkloadDriver::current_be_model() const {
  if (!config_.be_schedule.empty()) {
    // Last schedule entry whose time has passed (schedule_index_ points one
    // beyond it once advanced).
    const std::size_t idx = schedule_index_ == 0 ? 0 : schedule_index_ - 1;
    return *config_.be_schedule[idx].second;
  }
  PROTEAN_CHECK_MSG(!be_pool_.empty(), "no BE model configured");
  return *be_pool_[be_index_];
}

std::vector<const workload::ModelProfile*> WorkloadDriver::be_models() const {
  if (!config_.be_schedule.empty()) {
    std::vector<const workload::ModelProfile*> out;
    for (const auto& [when, model] : config_.be_schedule) {
      if (std::find(out.begin(), out.end(), model) == out.end()) {
        out.push_back(model);
      }
    }
    return out;
  }
  return be_pool_;
}

void WorkloadDriver::start() {
  window_start_ = sim_.now();
  grid_ = sim::TickGrid(window_start_, config_.tick);
  next_chunk_ = sim_.schedule_at(window_start_, [this] { deliver_chunk(); });
}

void WorkloadDriver::deliver_chunk() {
  next_chunk_ = sim::EventHandle();
  for (int i = 0; i < kChunkWindows; ++i) {
    if (window_start_ >= trace_.horizon()) return;  // the last chunk
    const SimTime window_end = grid_.next();
    grid_.advance();
    deliver_window(window_start_, window_end);
    window_start_ = window_end;
  }
  next_chunk_ = sim_.schedule_at(window_start_, [this] { deliver_chunk(); });
}

void WorkloadDriver::maybe_rotate_be_model(SimTime now) {
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
    LOG_DEBUG << "BE model rotated to " << be_pool_[be_index_]->name;
  }
}

void WorkloadDriver::deliver_window(SimTime window_start,
                                    SimTime window_end) {
  // Everything about the window (BE rotation, rate, Poisson draw, the
  // count_from test) keys off its start and the draws run in window order,
  // so the arrival process does not depend on when the window is drawn.
  maybe_rotate_be_model(window_start);

  const double rate = trace_.rate_at(window_start);
  const double expected = rate * config_.tick;
  if (expected <= 0.0) return;
  // The trace rate holds for a second at a time, so consecutive windows
  // share their Poisson parameters.
  if (expected != poisson_.mean()) poisson_ = Rng::PoissonParam(expected);
  const auto total = static_cast<int>(rng_.poisson(poisson_));
  if (total <= 0) return;

  // Deterministic strict/BE split with fractional carry: over any window the
  // strict share matches strict_fraction to within one request.
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
    sink_.on_arrivals(*config_.strict_model, /*strict=*/true, strict_count,
                      window_start, window_end);
    if (window_start >= config_.count_from) {
      strict_emitted_ += static_cast<std::uint64_t>(strict_count);
    }
  }
  if (be_count > 0) {
    sink_.on_arrivals(current_be_model(), /*strict=*/false, be_count,
                      window_start, window_end);
  }
  if (window_start >= config_.count_from) {
    emitted_ += static_cast<std::uint64_t>(total);
  }
}

}  // namespace protean::trace
