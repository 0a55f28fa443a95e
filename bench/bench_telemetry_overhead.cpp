// Telemetry overhead bench: wall-clock cost of the scrape pipeline and
// memory footprint of the Collector's latency statistics.
//
// Two measurements (docs/telemetry.md):
//  1. A standard wiki-trace run with `--telemetry` enabled stays within a
//     few percent of the telemetry-off wall-clock time (target < 5%).
//  2. What the exact (batch-record) and sketch-backed Collector each hold
//     after a long stream of realistic batches, and the percentiles each
//     reports.
#include <chrono>
#include <cstdio>

#include "bench_common.h"
#include "metrics/collector.h"

using namespace protean;

namespace {

/// The paper's standard load (primary_config: 5000 rps wiki trace), with
/// the horizon floored at 300 s so the denominator is large enough for a
/// stable percentage — at the default 60 s bench horizon a run is ~30 ms
/// of wall time and machine noise swamps the telemetry cost.
Duration overhead_horizon() {
  return std::max(bench::bench_horizon(), Duration{300.0});
}

harness::ExperimentConfig overhead_config() {
  return harness::primary_config("ResNet 50", overhead_horizon())
      .with_scheme(sched::Scheme::kProtean);
}

double wall_seconds_once(const harness::ExperimentConfig& config) {
  const auto start = std::chrono::steady_clock::now();
  (void)harness::run_experiment(config);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count();
}

/// Streams `n` requests in full 128-request batches (the gateway's batch
/// size under load) into a collector — the long-run memory scenario with
/// the simulation factored out.
void stream_requests(metrics::Collector& collector, int n) {
  constexpr int kBatch = 128;
  workload::Batch batch;
  for (int i = 0; i * kBatch < n; ++i) {
    // Worst latencies spread over [50 ms, ~1 s], each batch's arrivals
    // over 2.5 ms, strict/BE interleaved.
    batch.id = static_cast<BatchId>(i);
    batch.count = std::min(kBatch, n - i * kBatch);
    batch.strict = (i % 2) == 0;
    batch.first_arrival = static_cast<double>(i) * 1e-3;
    batch.last_arrival = batch.first_arrival + 0.0025;
    batch.formed_at = batch.last_arrival;
    batch.completed_at =
        batch.first_arrival + 0.05 + 0.001 * static_cast<double>(i % 950);
    batch.slo = 0.5;
    collector.record(batch);
  }
}

}  // namespace

int main() {
  const int kReps = 5;
  std::printf("Telemetry overhead (wiki trace @ 5000 rps, PROTEAN, %u s "
              "horizon, best of %d interleaved runs)\n\n",
              static_cast<unsigned>(overhead_horizon()), kReps);

  auto off = overhead_config();
  auto on = overhead_config();
  on.telemetry.path = "bench_telemetry_overhead_out.jsonl";
  on.telemetry.interval = 10.0;  // the CLI default scrape cadence

  // Interleave the off/on repetitions so both modes sample the same
  // machine conditions; best-of filters scheduler and allocator noise
  // (the simulation itself is deterministic).
  double t_off = 1e300;
  double t_on = 1e300;
  for (int i = 0; i < kReps; ++i) {
    t_off = std::min(t_off, wall_seconds_once(off));
    t_on = std::min(t_on, wall_seconds_once(on));
  }
  const double overhead_pct = 100.0 * (t_on - t_off) / t_off;

  harness::Table wall({"Mode", "Wall (s)", "Overhead"});
  wall.add_row({"telemetry off", strfmt("%.3f", t_off), "-"});
  wall.add_row({"telemetry on (10 s scrapes)", strfmt("%.3f", t_on),
                strfmt("%+.2f%%", overhead_pct)});
  wall.print();
  std::printf("\ntelemetry wall-clock overhead below 5%%: %s\n",
              overhead_pct < 5.0 ? "yes" : "NO");

  // ---- latency-statistics memory: batch records alone vs with sketches --
  const int kRequests = 2'000'000;
  metrics::Collector exact;
  metrics::Collector sk;
  sk.use_sketch_store(0.01);
  stream_requests(exact, kRequests);
  stream_requests(sk, kRequests);

  std::printf("\nLatency statistics after %d requests in 128-request "
              "batches:\n\n",
              kRequests);
  harness::Table mem({"Collector", "Bytes held", "Bytes/request",
                      "Strict p99 (ms)", "BE p99 (ms)"});
  const auto row = [&](const char* name, const metrics::Collector& c) {
    const std::size_t bytes = c.latency_store_bytes();
    mem.add_row({name, strfmt("%zu", bytes),
                 strfmt("%.3f", static_cast<double>(bytes) / kRequests),
                 bench::ms(c.strict_percentile(99.0) * 1e3),
                 bench::ms(c.be_percentile(99.0) * 1e3)});
  };
  row("exact (batch records)", exact);
  row("sketches (alpha 0.01) + batch records", sk);
  mem.print();
  return 0;
}
