// Tests for the statistics toolkit and metrics collector.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>

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

TEST(Stats, PercentilesInOnePassMatchPercentileBitForBit) {
  // Random samples with many duplicates (values drawn from a small set) and
  // sizes down to 1, where neighbouring percentiles share ranks.
  const std::vector<double> ps = {0.0,  10.0, 25.0, 50.0, 75.0,
                                  90.0, 95.0, 99.0, 99.9, 100.0};
  std::mt19937_64 rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + rng() % (trial < 100 ? 12 : 3000);
    const std::uint64_t distinct = 1 + rng() % 50;
    std::vector<float> xs(n);
    for (float& x : xs) x = static_cast<float>(rng() % distinct) * 0.37f;
    const std::vector<double> got = metrics::percentiles(xs, ps);
    ASSERT_EQ(got.size(), ps.size());
    for (std::size_t i = 0; i < ps.size(); ++i) {
      const double want = metrics::percentile(xs, ps[i]);
      EXPECT_EQ(std::memcmp(&got[i], &want, sizeof want), 0)
          << "n=" << n << " p=" << ps[i] << ": " << got[i] << " vs " << want;
    }
  }
  EXPECT_TRUE(metrics::percentiles({}, ps) == std::vector<double>(ps.size()));
  EXPECT_THROW(metrics::percentiles({1.0f}, {50.0, 10.0}), std::logic_error);
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

std::uint64_t bits_of(double x) {
  std::uint64_t u = 0;
  std::memcpy(&u, &x, sizeof u);
  return u;
}

// Percentiles are selected across the batch ramps without expanding them;
// they must equal percentile() over the expanded samples bit for bit, as
// must the mean and the compliance counts against a per-request loop.
TEST(Collector, RampSelectionMatchesExpandedSamples) {
  const auto& catalog = workload::ModelCatalog::instance();
  const workload::ModelProfile* models[2] = {&catalog.by_name("ResNet 50"),
                                             &catalog.by_name("VGG 19")};
  std::mt19937_64 rng(20241);
  for (int trial = 0; trial < 300; ++trial) {
    Collector collector;
    std::uint64_t strict_total = 0, strict_ok = 0;
    std::uint64_t model0_total = 0, model0_ok = 0;
    // Some trials leave a class empty.
    const int mode = trial % 5;  // 0: both, 1: strict only, 2: BE only
    const int records = static_cast<int>(rng() % 40);
    for (int r = 0; r < records; ++r) {
      FlowRecord flow;
      flow.id = static_cast<BatchId>(r);
      flow.strict = mode == 1 ? true : mode == 2 ? false : (rng() % 2) == 0;
      flow.model = models[rng() % 2];
      switch (rng() % 4) {
        case 0: flow.count = 1; break;
        case 1: flow.count = 2 + static_cast<int>(rng() % 3); break;
        case 2: flow.count = 1 + static_cast<int>(rng() % 128); break;
        default: flow.count = 1 + static_cast<int>(rng() % 2000); break;
      }
      // Millisecond-grid endpoints make values repeat across ramps; wide
      // ramps (up to several seconds) span many float exponents.
      double worst = 0.001 * static_cast<double>(1 + rng() % 3000);
      double best = worst;
      switch (rng() % 4) {
        case 0: break;  // worst == best: one repeated value
        case 1: best = worst - 0.001 * static_cast<double>(rng() % 20); break;
        case 2: best = 0.001 * static_cast<double>(rng() % 3000); break;
        default: best = worst + 5e-10; break;  // rising within tolerance
      }
      if (best > worst + 1e-9) std::swap(best, worst);
      flow.completed_at = 100.0;
      flow.first_arrival = flow.completed_at - worst;
      flow.last_arrival = flow.completed_at - best;
      // SLOs sometimes sit exactly on a request's latency.
      const double lat_first = flow.completed_at - flow.first_arrival;
      const double lat_last = flow.completed_at - flow.last_arrival;
      flow.slo = (rng() % 2) == 0
                     ? workload::ramp_latency(
                           lat_first, lat_last,
                           static_cast<int>(rng() % static_cast<unsigned>(
                                                         flow.count)),
                           flow.count)
                     : 0.001 * static_cast<double>(rng() % 3000);
      const int copies = (rng() % 8) == 0 ? 2 : 1;  // identical records
      for (int c = 0; c < copies; ++c) {
        ASSERT_TRUE(collector.record_flow(flow));
        if (!flow.strict) continue;
        for (int i = 0; i < flow.count; ++i) {
          const bool ok = workload::ramp_latency(lat_first, lat_last, i,
                                                 flow.count) <= flow.slo + 1e-9;
          ++strict_total;
          strict_ok += ok ? 1 : 0;
          if (flow.model == models[0]) {
            ++model0_total;
            model0_ok += ok ? 1 : 0;
          }
        }
      }
    }
    const std::vector<float> strict = collector.strict_latencies();
    const std::vector<float> be = collector.be_latencies();
    ASSERT_EQ(strict.size(), strict_total);
    ASSERT_EQ(strict.size(), collector.strict_completed());
    ASSERT_EQ(be.size(), collector.be_completed());
    const double random_p = std::uniform_real_distribution<>(0, 100)(rng);
    for (const double p : {0.0, 50.0, 99.0, 100.0, random_p}) {
      EXPECT_EQ(bits_of(collector.strict_percentile(p)),
                bits_of(percentile(strict, p)))
          << "trial " << trial << " p" << p;
      EXPECT_EQ(bits_of(collector.be_percentile(p)), bits_of(percentile(be, p)))
          << "trial " << trial << " p" << p;
    }
    EXPECT_EQ(bits_of(collector.strict_mean()), bits_of(mean_f(strict)))
        << "trial " << trial;
    EXPECT_EQ(collector.strict_violations(), strict_total - strict_ok)
        << "trial " << trial;
    const double want_pct =
        model0_total == 0 ? 100.0
                          : 100.0 * static_cast<double>(model0_ok) /
                                static_cast<double>(model0_total);
    EXPECT_EQ(bits_of(collector.slo_compliance_pct_for(models[0])),
              bits_of(want_pct))
        << "trial " << trial;
    EXPECT_EQ(collector.latencies_for(models[0], true).size(), model0_total);
  }
}

// The latency statistics are answered from one record per batch, so the
// memory they hold grows with batches, not requests (one float per request
// would be 4 B).
TEST(Collector, LatencyStoreHoldsNoPerRequestState) {
  Collector collector;
  constexpr int kRequests = 1'000'000;
  constexpr int kBatch = 128;
  int recorded = 0;
  for (int b = 0; recorded < kRequests; ++b) {
    const int count = std::min(kBatch, kRequests - recorded);
    const double t = 0.01 * static_cast<double>(b);
    collector.record(make_batch((b % 2) == 0, count, t, t + 0.5));
    recorded += count;
  }
  ASSERT_EQ(collector.strict_completed() + collector.be_completed(),
            static_cast<std::uint64_t>(kRequests));
  const double bytes_per_request =
      static_cast<double>(collector.latency_store_bytes()) / kRequests;
  EXPECT_LT(bytes_per_request, 1.5);
}

}  // namespace
}  // namespace protean::metrics
