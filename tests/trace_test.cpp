// Tests for trace generation and the workload driver.
#include <gtest/gtest.h>

#include <map>

#include "trace/driver.h"
#include "trace/trace.h"

namespace protean::trace {
namespace {

using workload::ModelCatalog;
using workload::ModelProfile;

TraceConfig base_config(TraceKind kind, double rps = 1000.0,
                        Duration horizon = 100.0) {
  TraceConfig config;
  config.kind = kind;
  config.target_rps = rps;
  config.horizon = horizon;
  config.seed = 17;
  return config;
}

TEST(RateTrace, ConstantTraceIsFlatAtTarget) {
  RateTrace trace(base_config(TraceKind::kConstant, 500.0));
  EXPECT_DOUBLE_EQ(trace.mean_rate(), 500.0);
  EXPECT_DOUBLE_EQ(trace.peak_rate(), 500.0);
  EXPECT_DOUBLE_EQ(trace.rate_at(0.0), 500.0);
  EXPECT_DOUBLE_EQ(trace.rate_at(99.5), 500.0);
}

TEST(RateTrace, WikiMeanMatchesTarget) {
  RateTrace trace(base_config(TraceKind::kWiki, 5000.0));
  EXPECT_NEAR(trace.mean_rate(), 5000.0, 1.0);
}

TEST(RateTrace, WikiPeakToMeanNearPaperRatio) {
  // Paper: Wiki peak:mean = 316:303 ≈ 1.043.
  RateTrace trace(base_config(TraceKind::kWiki, 5000.0, 300.0));
  const double ratio = trace.peak_rate() / trace.mean_rate();
  EXPECT_GT(ratio, 1.01);
  EXPECT_LT(ratio, 1.12);
}

TEST(RateTrace, TwitterScalesToPeak) {
  auto config = base_config(TraceKind::kTwitter, 5000.0, 300.0);
  config.scale_to_peak = true;
  RateTrace trace(config);
  EXPECT_NEAR(trace.peak_rate(), 5000.0, 1.0);
  // Paper: Twitter peak:mean = 4561:2969 ≈ 1.54 (mean lands near 3000).
  const double ratio = trace.peak_rate() / trace.mean_rate();
  EXPECT_GT(ratio, 1.25);
  EXPECT_LT(ratio, 1.9);
}

TEST(RateTrace, DeterministicForSameSeed) {
  RateTrace a(base_config(TraceKind::kTwitter));
  RateTrace b(base_config(TraceKind::kTwitter));
  EXPECT_EQ(a.table(), b.table());
}

TEST(RateTrace, DifferentSeedsDiffer) {
  auto config = base_config(TraceKind::kTwitter);
  RateTrace a(config);
  config.seed = 18;
  RateTrace b(config);
  EXPECT_NE(a.table(), b.table());
}

TEST(RateTrace, RatesAreAlwaysPositive) {
  for (auto kind : {TraceKind::kConstant, TraceKind::kWiki, TraceKind::kTwitter}) {
    RateTrace trace(base_config(kind, 100.0, 600.0));
    for (double r : trace.table()) EXPECT_GT(r, 0.0);
  }
}

TEST(RateTrace, RateAtClampsOutOfRange) {
  RateTrace trace(base_config(TraceKind::kWiki, 100.0, 10.0));
  EXPECT_DOUBLE_EQ(trace.rate_at(-5.0), trace.table().front());
  EXPECT_DOUBLE_EQ(trace.rate_at(1e9), trace.table().back());
}

TEST(RateTrace, InvalidConfigThrows) {
  auto config = base_config(TraceKind::kWiki);
  config.horizon = 0.0;
  EXPECT_THROW(RateTrace{config}, std::logic_error);
  config = base_config(TraceKind::kWiki);
  config.target_rps = 0.0;
  EXPECT_THROW(RateTrace{config}, std::logic_error);
}

// Property sweep over seeds: normalization holds for any seed.
class TraceSeedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TraceSeedTest, WikiNormalizationHolds) {
  auto config = base_config(TraceKind::kWiki, 2000.0, 200.0);
  config.seed = GetParam();
  RateTrace trace(config);
  EXPECT_NEAR(trace.mean_rate(), 2000.0, 1e-6);
  EXPECT_GE(trace.peak_rate(), trace.mean_rate());
}

TEST_P(TraceSeedTest, TwitterPeakNormalizationHolds) {
  auto config = base_config(TraceKind::kTwitter, 2000.0, 200.0);
  config.scale_to_peak = true;
  config.seed = GetParam();
  RateTrace trace(config);
  EXPECT_NEAR(trace.peak_rate(), 2000.0, 1e-6);
  EXPECT_LE(trace.mean_rate(), trace.peak_rate());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceSeedTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---- WorkloadDriver ---------------------------------------------------

class CountingSink : public RequestSink {
 public:
  void on_arrivals(const ModelProfile& model, bool strict, int count,
                   SimTime window_start, SimTime window_end) override {
    EXPECT_GT(count, 0);
    EXPECT_LE(window_start, window_end);
    (strict ? strict_count : be_count) += count;
    models_seen[&model] += count;
  }
  std::int64_t strict_count = 0;
  std::int64_t be_count = 0;
  std::map<const ModelProfile*, std::int64_t> models_seen;
};

DriverConfig driver_config(double strict_fraction = 0.5) {
  DriverConfig config;
  config.trace.kind = TraceKind::kConstant;
  config.trace.target_rps = 2000.0;
  config.trace.horizon = 30.0;
  config.strict_model = &ModelCatalog::instance().by_name("ResNet 50");
  config.strict_fraction = strict_fraction;
  config.seed = 5;
  return config;
}

TEST(WorkloadDriver, EmitsApproximatelyTargetVolume) {
  sim::Simulator sim;
  CountingSink sink;
  WorkloadDriver driver(sim, driver_config(), sink);
  driver.start();
  sim.run_until(30.0);
  const double expected = 2000.0 * 30.0;
  EXPECT_NEAR(static_cast<double>(sink.strict_count + sink.be_count), expected,
              expected * 0.05);
}

TEST(WorkloadDriver, StrictFractionIsRespected) {
  sim::Simulator sim;
  CountingSink sink;
  WorkloadDriver driver(sim, driver_config(0.25), sink);
  driver.start();
  sim.run_until(30.0);
  const double frac =
      static_cast<double>(sink.strict_count) /
      static_cast<double>(sink.strict_count + sink.be_count);
  EXPECT_NEAR(frac, 0.25, 0.01);
}

TEST(WorkloadDriver, AllStrictEmitsNoBe) {
  sim::Simulator sim;
  CountingSink sink;
  WorkloadDriver driver(sim, driver_config(1.0), sink);
  driver.start();
  sim.run_until(30.0);
  EXPECT_EQ(sink.be_count, 0);
  EXPECT_GT(sink.strict_count, 0);
}

TEST(WorkloadDriver, AllBeEmitsNoStrict) {
  sim::Simulator sim;
  CountingSink sink;
  WorkloadDriver driver(sim, driver_config(0.0), sink);
  driver.start();
  sim.run_until(30.0);
  EXPECT_EQ(sink.strict_count, 0);
  EXPECT_GT(sink.be_count, 0);
}

TEST(WorkloadDriver, BeModelsRotateThroughOppositePool) {
  sim::Simulator sim;
  CountingSink sink;
  auto config = driver_config();
  config.be_rotation_period = 2.0;
  WorkloadDriver driver(sim, config, sink);
  driver.start();
  sim.run_until(30.0);
  // Strict model is HI, so BE models must all be LI vision models; with a
  // 2 s rotation over 30 s several distinct models should appear.
  int be_models = 0;
  for (const auto& [model, count] : sink.models_seen) {
    if (model == config.strict_model) continue;
    EXPECT_EQ(model->iclass, workload::InterferenceClass::kLI);
    ++be_models;
  }
  EXPECT_GE(be_models, 3);
}

TEST(WorkloadDriver, ExplicitScheduleOverridesRotation) {
  sim::Simulator sim;
  CountingSink sink;
  auto config = driver_config();
  const auto& m1 = ModelCatalog::instance().by_name("MobileNet");
  const auto& m2 = ModelCatalog::instance().by_name("DPN 92");
  config.be_schedule = {{0.0, &m1}, {10.0, &m2}};
  WorkloadDriver driver(sim, config, sink);
  driver.start();
  sim.run_until(30.0);
  EXPECT_GT(sink.models_seen[&m1], 0);
  EXPECT_GT(sink.models_seen[&m2], 0);
  EXPECT_EQ(sink.models_seen.size(), 3u);  // strict + the two scheduled
}

TEST(WorkloadDriver, CountFromExcludesWarmup) {
  sim::Simulator sim;
  CountingSink sink;
  auto config = driver_config();
  config.count_from = 15.0;
  WorkloadDriver driver(sim, config, sink);
  driver.start();
  sim.run_until(30.0);
  // The sink still sees everything, but the counters only cover [15, 30).
  const double counted = static_cast<double>(driver.requests_emitted());
  EXPECT_NEAR(counted, 2000.0 * 15.0, 2000.0 * 15.0 * 0.1);
  EXPECT_GT(static_cast<double>(sink.strict_count + sink.be_count), counted);
}

TEST(WorkloadDriver, StopsAtHorizon) {
  sim::Simulator sim;
  CountingSink sink;
  WorkloadDriver driver(sim, driver_config(), sink);
  driver.start();
  sim.run_until(60.0);
  const auto at_horizon = sink.strict_count + sink.be_count;
  sim.run_until(120.0);
  EXPECT_EQ(sink.strict_count + sink.be_count, at_horizon);
}

TEST(WorkloadDriver, HandsWindowsOverAheadAndCancelsOnDestruction) {
  // Windows are handed over a chunk ahead, each before it closes; the
  // driver leaves no event behind once the trace ends or it is destroyed.
  sim::Simulator sim;
  struct AheadSink : RequestSink {
    sim::Simulator* sim = nullptr;
    SimTime last_end = 0.0;
    void on_arrivals(const ModelProfile&, bool, int, SimTime window_start,
                     SimTime window_end) override {
      EXPECT_LT(window_start, window_end);
      EXPECT_LT(sim->now(), window_end);
      EXPECT_GE(window_end, last_end);
      last_end = window_end;
    }
  } sink;
  sink.sim = &sim;
  {
    WorkloadDriver driver(sim, driver_config(), sink);
    driver.start();
    sim.run_until(0.5);
    EXPECT_GT(sink.last_end, 0.9);  // a second's windows are already out
    EXPECT_EQ(sim.pending(), 1u);   // the next chunk
  }
  EXPECT_EQ(sim.pending(), 0u);
  sink.last_end = 0.0;
  WorkloadDriver driver(sim, driver_config(), sink);
  driver.start();
  sim.run_until(31.0);  // past the 30 s horizon
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(WorkloadDriver, BeModelsListCoversScheduleAndPool) {
  sim::Simulator sim;
  CountingSink sink;
  auto config = driver_config();
  WorkloadDriver driver(sim, config, sink);
  EXPECT_FALSE(driver.be_models().empty());
  for (const auto* m : driver.be_models()) {
    EXPECT_EQ(m->iclass, workload::InterferenceClass::kLI);
  }
}

}  // namespace
}  // namespace protean::trace
