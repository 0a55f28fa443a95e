// Tests for the statistics toolkit and metrics collector.
#include <gtest/gtest.h>

#include "metrics/collector.h"
#include "metrics/stats.h"
#include "workload/model.h"

namespace protean::metrics {
namespace {

TEST(Stats, MeanAndStddev) {
  std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(xs), 5.0);
  EXPECT_NEAR(stddev(xs), 2.138, 0.001);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(stddev({1.0}), 0.0);
}

TEST(Stats, PercentileInterpolatesBetweenRanks) {
  std::vector<float> xs = {10.0f, 20.0f, 30.0f, 40.0f};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 25.0);
  EXPECT_NEAR(percentile(xs, 75.0), 32.5, 1e-9);
}

TEST(Stats, PercentileHandlesEdgeCases) {
  EXPECT_DOUBLE_EQ(percentile(std::vector<float>{}, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile(std::vector<float>{7.0f}, 99.0), 7.0);
  EXPECT_DOUBLE_EQ(percentile(std::vector<float>{3.0f, 1.0f}, 200.0), 3.0);
}

TEST(Stats, PercentileUnsortedInput) {
  std::vector<double> xs = {5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 3.0);
}

TEST(Stats, NormalCdf) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_cdf(1.96), 0.975, 0.001);
  EXPECT_NEAR(normal_cdf(-1.96), 0.025, 0.001);
}

TEST(Stats, WelchDistinguishesSeparatedSamples) {
  std::vector<double> a, b;
  for (int i = 0; i < 100; ++i) {
    a.push_back(10.0 + 0.1 * (i % 5));
    b.push_back(20.0 + 0.1 * (i % 5));
  }
  EXPECT_LT(welch_p_value(a, b), 1e-6);
  EXPECT_GT(welch_p_value(a, a), 0.99);
}

TEST(Stats, WelchDegenerateSamples) {
  EXPECT_DOUBLE_EQ(welch_p_value({1.0}, {2.0, 3.0}), 1.0);
}

TEST(Stats, CohensDLargeForSeparatedSamples) {
  std::vector<double> a, b;
  for (int i = 0; i < 50; ++i) {
    a.push_back(10.0 + 0.2 * (i % 3));
    b.push_back(12.0 + 0.2 * (i % 3));
  }
  EXPECT_GT(std::abs(cohens_d(a, b)), 5.0);
  EXPECT_DOUBLE_EQ(cohens_d(a, a), 0.0);
}

TEST(Stats, Ci95ShrinksWithSampleSize) {
  std::vector<double> small = {1.0, 2.0, 3.0};
  std::vector<double> large;
  for (int i = 0; i < 300; ++i) large.push_back(1.0 + (i % 3));
  EXPECT_GT(ci95_halfwidth(small), ci95_halfwidth(large));
}

TEST(Ewma, SeedsWithFirstObservation) {
  Ewma ewma(0.5);
  EXPECT_FALSE(ewma.seeded());
  ewma.observe(10.0);
  EXPECT_TRUE(ewma.seeded());
  EXPECT_DOUBLE_EQ(ewma.value(), 10.0);
}

TEST(Ewma, BlendsSubsequentObservations) {
  Ewma ewma(0.5);
  ewma.observe(10.0);
  ewma.observe(20.0);
  EXPECT_DOUBLE_EQ(ewma.value(), 15.0);
  ewma.observe(20.0);
  EXPECT_DOUBLE_EQ(ewma.value(), 17.5);
}

TEST(Ewma, ConvergesToConstantSignal) {
  Ewma ewma(0.3);
  for (int i = 0; i < 100; ++i) ewma.observe(42.0);
  EXPECT_NEAR(ewma.value(), 42.0, 1e-9);
}

// ---- Collector ----------------------------------------------------------

workload::Batch make_batch(bool strict, int count, double first_arrival,
                           double completed, double slo = 0.6) {
  workload::Batch b;
  b.model = &workload::ModelCatalog::instance().by_name("ResNet 50");
  b.strict = strict;
  b.count = count;
  b.first_arrival = first_arrival;
  b.last_arrival = first_arrival + 0.05;
  b.formed_at = first_arrival + 0.05;
  b.slo = strict ? slo : kNeverTime;
  b.exec_start = completed - 0.2;
  b.completed_at = completed;
  b.exec_time = 0.2;
  b.solo_min = 0.195;
  b.solo_on_slice = 0.195;
  return b;
}

TEST(Collector, ExpandsBatchIntoPerRequestLatencies) {
  Collector collector;
  collector.record(make_batch(true, 10, 1.0, 1.5));
  EXPECT_EQ(collector.strict_completed(), 10u);
  EXPECT_EQ(collector.strict_latencies().size(), 10u);
  // Earliest request: 0.5 s, latest: 0.45 s.
  EXPECT_NEAR(collector.strict_percentile(100.0), 0.5, 1e-6);
  EXPECT_NEAR(collector.strict_percentile(0.0), 0.45, 1e-6);
}

TEST(Collector, SloComplianceCountsDeadlines) {
  Collector collector;
  collector.record(make_batch(true, 10, 1.0, 1.5, /*slo=*/0.6));  // compliant
  collector.record(make_batch(true, 10, 2.0, 2.8, /*slo=*/0.6));  // violating
  EXPECT_NEAR(collector.slo_compliance_pct(), 50.0, 1e-9);
}

TEST(Collector, BeRequestsDontAffectCompliance) {
  Collector collector;
  collector.record(make_batch(false, 10, 1.0, 9.0));
  EXPECT_EQ(collector.be_completed(), 10u);
  EXPECT_DOUBLE_EQ(collector.slo_compliance_pct(), 100.0);
}

TEST(Collector, MeasureFromSkipsWarmupBatches) {
  Collector collector;
  collector.set_measure_from(5.0);
  collector.record(make_batch(true, 10, 1.0, 1.5));
  EXPECT_EQ(collector.strict_completed(), 0u);
  collector.record(make_batch(true, 10, 6.0, 6.5));
  EXPECT_EQ(collector.strict_completed(), 10u);
}

TEST(Collector, DroppedStrictRequestsAreViolations) {
  Collector collector;
  collector.record(make_batch(true, 10, 1.0, 1.5));
  collector.record_dropped(true, 10);
  EXPECT_NEAR(collector.slo_compliance_pct(), 50.0, 1e-9);
  EXPECT_EQ(collector.dropped(), 10u);
}

TEST(Collector, BreakdownComponentsAreAttributed) {
  Collector collector;
  workload::Batch b = make_batch(true, 4, 0.0, 1.0);
  b.cold_start = 0.1;
  b.exec_start = 0.5;
  b.exec_time = 0.5;
  b.solo_min = 0.2;
  b.solo_on_slice = 0.3;
  b.completed_at = 1.0;
  collector.record(b);
  const workload::Decomposition d = workload::decompose(b);
  using workload::Cause;
  EXPECT_NEAR(d[Cause::kFormation], 0.05, 1e-9);  // sealed at 0.05
  EXPECT_NEAR(d[Cause::kQueue], 0.35, 1e-9);      // 0.5 start - 0.05 - 0.1
  EXPECT_NEAR(d[Cause::kColdBoot], 0.1, 1e-9);
  EXPECT_NEAR(d[Cause::kService], 0.2, 1e-9);
  EXPECT_NEAR(d[Cause::kDeficiency], 0.1, 1e-9);    // 0.3 - 0.2
  EXPECT_NEAR(d[Cause::kInterference], 0.2, 1e-9);  // 0.5 - 0.3
  const Breakdown bd = collector.mean_breakdown();
  EXPECT_NEAR(bd.cold, 0.1, 1e-9);
  EXPECT_NEAR(bd.queue, 0.4, 1e-9);  // formation + node-queue wait
  EXPECT_NEAR(bd.min_time, 0.2, 1e-9);
  EXPECT_NEAR(bd.deficiency, 0.1, 1e-9);
  EXPECT_NEAR(bd.interference, 0.2, 1e-9);
  EXPECT_NEAR(bd.total(), 1.0, 1e-9);
  EXPECT_EQ(collector.negative_component_clamps(), 0u);
}

TEST(Collector, BreakdownGroupsEveryLaneIntoOneColumn) {
  // Distinct powers of two per lane: every column sum identifies exactly
  // which lanes it took.
  workload::Decomposition d;
  for (int c = 0; c < workload::kComponentCount; ++c) {
    d.parts[static_cast<std::size_t>(c)] = static_cast<double>(1 << c);
  }
  using workload::Cause;
  const Breakdown b = breakdown_of(d);
  EXPECT_EQ(b.queue, d[Cause::kFormation] + d[Cause::kQueue] +
                         d[Cause::kRetry] + d[Cause::kBlackout] +
                         d[Cause::kTransfer]);
  EXPECT_EQ(b.cold, d[Cause::kColdBoot] + d[Cause::kWeightLoad]);
  EXPECT_EQ(b.min_time, d[Cause::kService]);
  EXPECT_EQ(b.deficiency, d[Cause::kDeficiency]);
  EXPECT_EQ(b.interference, d[Cause::kInterference]);
  EXPECT_EQ(b.swap, d[Cause::kSwapStall]);
  EXPECT_EQ(b.total(), d.total());
}

TEST(Collector, TailBreakdownSelectsWorstBatches) {
  Collector collector;
  for (int i = 0; i < 99; ++i) {
    collector.record(make_batch(true, 1, i, i + 0.3));
  }
  workload::Batch slow = make_batch(true, 1, 200.0, 205.0);
  slow.exec_start = 204.8;
  collector.record(slow);
  const Breakdown tail = collector.tail_breakdown(99.0);
  EXPECT_GT(tail.queue, 1.0);  // dominated by the slow batch
}

TEST(Collector, ColdStartCounter) {
  Collector collector;
  collector.record_cold_start();
  collector.record_cold_start();
  EXPECT_EQ(collector.cold_starts(), 2u);
}

}  // namespace
}  // namespace protean::metrics
