// perfbench: host wall time and memory of the PROTEAN simulator on one named
// workload, plus a traced run that attributes that wall time to the src/
// layers. See README.md for the workloads, the metrics and how to run it.
//
// The deployment is wired here from the same public APIs
// harness::run_experiment uses, so every layer call can be timed from the
// outside; `--fidelity` proves the wiring reproduces run_experiment's
// Report field for field. All timings are host (steady_clock) time; names
// containing `sim` are simulated time. The end-to-end timings are scaled to
// a reference host speed (see calibrate()).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/node.h"
#include "common/check.h"
#include "harness/experiment.h"
#include "harness/json.h"
#include "obs/trace.h"
#include "sched/registry.h"
#include "sim/simulator.h"
#include "telemetry/pipeline.h"
#include "trace/driver.h"
#include "workload/model.h"

namespace {

using namespace protean;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---- spans -----------------------------------------------------------------

/// Span names, one per timed layer call. `sim.chunk` is one 1-simulated-
/// second run_until call; everything the event loop runs that no other span
/// wraps (driver ticks, node queues, the GPU engine, Collector::record,
/// spot) is its self time.
enum Layer : std::uint32_t {
  kChunk,
  kGateway,
  kPlace,
  kMakeJob,
  kMonitor,
  kClusterBuild,
  kDriverBuild,
  kPrewarm,
  kFlush,
  kTelemetryFinish,
  kFinalize,
  kTeardown,
  kObsWrite,
  kTelemetryWrite,
  kLayerCount
};

constexpr const char* kLayerNames[kLayerCount] = {
    "sim.chunk",        "cluster.gateway",  "sched.place",
    "sched.make_job",   "sched.monitor",    "cluster.build",
    "trace.build",      "cluster.prewarm",  "cluster.flush",
    "telemetry.finish", "metrics.finalize", "cluster.teardown",
    "obs.write",        "telemetry.write"};

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t parent = 0;
  std::uint32_t layer = 0;
};

/// Keeps every span of the traced run in memory; written out after the run.
class SpanRecorder {
 public:
  static constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;

  std::uint32_t begin(Layer layer) {
    const auto id = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back(
        {now_ns(), 0, open_.empty() ? kNoParent : open_.back(), layer});
    open_.push_back(id);
    return id;
  }
  void end(std::uint32_t id) {
    spans_[id].end_ns = now_ns();
    open_.pop_back();
  }
  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Layout: a text header line, a line of comma-separated layer names,
  /// then raw little-endian records {i64 start_ns, i64 end_ns, u32 parent,
  /// u32 layer}.
  bool write(const std::string& path) const {
    std::ofstream out(path, std::ios::binary);
    out << "perfbench-spans v1\n";
    for (std::uint32_t l = 0; l < kLayerCount; ++l) {
      out << (l ? "," : "") << kLayerNames[l];
    }
    out << '\n';
    out.write(reinterpret_cast<const char*>(spans_.data()),
              static_cast<std::streamsize>(spans_.size() * sizeof(Span)));
    return static_cast<bool>(out);
  }

 private:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

/// Times one scope as a span; a no-op on untraced runs (null recorder).
class Scope {
 public:
  Scope(SpanRecorder* recorder, Layer layer)
      : recorder_(recorder), id_(recorder ? recorder->begin(layer) : 0) {}
  ~Scope() {
    if (recorder_ != nullptr) recorder_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanRecorder* recorder_;
  std::uint32_t id_;
};

// ---- layer wrappers --------------------------------------------------------

/// Decorates the scheduler make_scheduler returns: every virtual forwards
/// unchanged; place/make_job/on_monitor are timed.
class TimedScheduler final : public cluster::Scheduler {
 public:
  TimedScheduler(std::unique_ptr<cluster::Scheduler> inner,
                 SpanRecorder& recorder)
      : inner_(std::move(inner)), recorder_(&recorder) {}

  std::string name() const override { return inner_->name(); }
  gpu::SharingMode sharing_mode() const override {
    return inner_->sharing_mode();
  }
  gpu::Geometry initial_geometry() const override {
    return inner_->initial_geometry();
  }
  bool reorder_strict_first() const override {
    return inner_->reorder_strict_first();
  }
  std::optional<cluster::DispatchPolicy> dispatch_policy() const override {
    return inner_->dispatch_policy();
  }
  bool pipeline_conscious() const override {
    return inner_->pipeline_conscious();
  }
  gpu::Slice* place(const workload::Batch& batch,
                    cluster::WorkerNode& node) override {
    Scope span(recorder_, kPlace);
    gpu::Slice* slice = inner_->place(batch, node);
    if (slice == nullptr) ++null_places_;
    return slice;
  }
  gpu::JobSpec make_job(const workload::Batch& batch, const gpu::Slice& slice,
                        JobId job_id) const override {
    Scope span(recorder_, kMakeJob);
    return inner_->make_job(batch, slice, job_id);
  }
  void on_monitor(cluster::WorkerNode& node, int& reconfig_budget) override {
    Scope span(recorder_, kMonitor);
    inner_->on_monitor(node, reconfig_budget);
  }

  std::uint64_t null_places() const noexcept { return null_places_; }

 private:
  std::unique_ptr<cluster::Scheduler> inner_;
  SpanRecorder* recorder_;
  std::uint64_t null_places_ = 0;
};

/// Sits between the driver and the cluster's sink. Counts every arrival
/// (the output checks compare the counts with the driver's and the
/// gateway's); on the traced run it also times the gateway.
class CountingSink final : public trace::RequestSink {
 public:
  CountingSink(trace::RequestSink& inner, SimTime count_from,
               SpanRecorder* recorder)
      : inner_(inner), count_from_(count_from), recorder_(recorder) {}

  void on_arrivals(const workload::ModelProfile& model, bool strict,
                   int count, SimTime window_start,
                   SimTime window_end) override {
    Scope span(recorder_, kGateway);
    ++calls_;
    requests_ += static_cast<std::uint64_t>(count);
    // The driver's own counters start at count_from (window start).
    if (window_start >= count_from_) {
      counted_ += static_cast<std::uint64_t>(count);
    }
    inner_.on_arrivals(model, strict, count, window_start, window_end);
  }

  std::uint64_t calls() const noexcept { return calls_; }
  std::uint64_t requests() const noexcept { return requests_; }
  std::uint64_t counted() const noexcept { return counted_; }

 private:
  trace::RequestSink& inner_;
  SimTime count_from_;
  SpanRecorder* recorder_;
  std::uint64_t calls_ = 0;
  std::uint64_t requests_ = 0;
  std::uint64_t counted_ = 0;
};

// ---- workloads -------------------------------------------------------------

struct Workload {
  std::string name;
  harness::ExperimentConfig config;
};

constexpr const char* kWorkloads[] = {"wiki-8", "fleet-1024", "overload-9",
                                      "observed-1024"};

/// The four named cells (README.md says why each was chosen). `fidelity`
/// shortens the horizon for the run_experiment comparison; `tag` keeps the
/// artifact files of different runs apart.
std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed,
                                      const std::string& out_dir,
                                      bool fidelity, const std::string& tag) {
  harness::ExperimentConfig config;
  if (name == "wiki-8") {
    config = harness::primary_config("ResNet 50", fidelity ? 60.0 : 3600.0);
  } else if (name == "fleet-1024" || name == "observed-1024") {
    const bool observed = name == "observed-1024";
    config = harness::primary_config(
        "ResNet 50", fidelity ? 30.0 : (observed ? 60.0 : 300.0));
    config.with_nodes(1024).with_rps(100000.0);
    if (fidelity) config.with_warmup(10.0);
    if (observed) {
      const std::string base = out_dir + "/" + name + "-" + tag;
      obs::TraceOptions trace_out;
      trace_out.path = base + ".trace.json";
      telemetry::TelemetryOptions telemetry;
      telemetry.path = base + ".metrics.jsonl";
      attr::AttrConfig attribution;
      attribution.enabled = true;
      config.with_trace(trace_out)
          .with_telemetry(telemetry)
          .with_attr(attribution);
    }
  } else if (name == "overload-9") {
    // Warmup below the horizon: the CLI's default 20 s warmup would leave
    // the measurement window empty on a 10 s trace.
    config = harness::primary_config("ResNet 50", fidelity ? 5.0 : 10.0);
    config.with_nodes(9).with_rps(100000.0).with_warmup(fidelity ? 1.0 : 2.0);
  } else {
    return std::nullopt;
  }
  // The BE stream rotates through the strict model's opposite-class pool in
  // catalog order rather than in seeded random order: which BE model
  // overload-9 draws changes its host cost by up to 1.8x, and the seed
  // should vary the arrivals, not the cell.
  const workload::ModelCatalog& catalog = workload::ModelCatalog::instance();
  const auto pool =
      catalog.opposite_class_pool(catalog.by_name(config.strict_model));
  std::size_t next = 0;
  for (SimTime t = 0.0; t < config.trace.horizon;
       t += config.be_rotation_period) {
    config.be_schedule.emplace_back(t, pool[next++ % pool.size()]->name);
  }
  config.with_seed(seed);
  return Workload{name, config};
}

// ---- one run ---------------------------------------------------------------

/// What one run measured. The layer counters are read from the live
/// deployment before teardown.
struct RunResult {
  harness::Report report;
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::uint64_t requests = 0;  ///< every arrival the driver emitted
  std::uint64_t arrival_calls = 0;
  std::uint64_t unfinished = 0;  ///< strict requests never terminated
  std::uint64_t negative_clamps = 0;
  std::uint64_t batches = 0;
  std::uint64_t partial_batches = 0;
  std::uint64_t null_places = 0;
  std::uint64_t records = 0;
  std::size_t store_bytes = 0;
  std::size_t heap_peak = 0;
  std::size_t backlog_peak = 0;
  double gpu_busy_sim_s = 0.0;
  std::uintmax_t obs_file_bytes = 0;
  std::uintmax_t telemetry_file_bytes = 0;
  std::vector<std::string> failures;  ///< output checks this run failed
};

std::uintmax_t file_bytes(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  return ec ? 0 : size;
}

/// One run of `config`, wired like harness::run_experiment. The features
/// the workloads leave off (memcache, faults, autoscale, soft GPUs,
/// workflows, shards, sketches) are not wired. With a recorder, the layer
/// calls are timed and the event loop runs in 1-simulated-second chunks.
/// `setup_only` stops after setup_s is taken and tears the deployment down.
RunResult run_once(const harness::ExperimentConfig& config,
                   SpanRecorder* recorder, bool setup_only = false) {
  const cluster::ClusterConfig& cc = config.cluster;
  PROTEAN_CHECK_MSG(!cc.memcache.enabled && !cc.fault.enabled &&
                        !cc.autoscale.enabled && !cc.softgpu.enabled &&
                        !cc.workflow.enabled && cc.shards <= 1 &&
                        !config.sketch_collector &&
                        config.scheme != sched::Scheme::kOracle,
                    "perfbench wires only the features its workloads use");
  RunResult result;
  harness::Report& report = result.report;
  const Clock::time_point setup_start = Clock::now();
  Clock::time_point run_start;
  {
    sim::Simulator sim;
    std::optional<obs::Tracer> tracer;
    if (config.trace_out.enabled()) {
      tracer.emplace(sim, config.trace_out.categories);
    }
    std::optional<telemetry::TelemetryPipeline> pipeline;
    if (config.telemetry.enabled()) {
      pipeline.emplace(sim, config.telemetry, config.burn,
                       tracer.has_value() ? &*tracer : nullptr);
    }

    std::unique_ptr<cluster::Scheduler> scheduler =
        sched::make_scheduler(config.scheme);
    TimedScheduler* timed = nullptr;
    if (recorder != nullptr) {
      auto wrapped =
          std::make_unique<TimedScheduler>(std::move(scheduler), *recorder);
      timed = wrapped.get();
      scheduler = std::move(wrapped);
    }
    cluster::ClusterConfig cluster_config = cc;
    cluster_config.shards = 1;
    cluster_config.market.seed = config.seed ^ 0xC0FFEEULL;
    cluster_config.fault.seed = config.seed ^ 0xFA017ULL;
    cluster_config.tracer = tracer.has_value() ? &*tracer : nullptr;
    cluster_config.telemetry =
        pipeline.has_value() ? &pipeline->registry() : nullptr;

    std::optional<cluster::Cluster> deployment;
    {
      Scope span(recorder, kClusterBuild);
      deployment.emplace(sim, cluster_config, *scheduler);
    }
    metrics::Collector& collector = deployment->collector();
    if (recorder != nullptr || pipeline.has_value()) {
      // Counts Collector records (metrics.records), then feeds telemetry.
      collector.set_batch_observer(
          [&pipeline, &result](SimTime when, bool strict, double lat_first,
                               double lat_last, int count, double slo) {
            ++result.records;
            if (pipeline.has_value()) {
              pipeline->observe_batch(when, strict, lat_first, lat_last,
                                      count, slo);
            }
          });
    }
    if (pipeline.has_value()) {
      if (const attr::AttributionEngine* ae = deployment->attribution()) {
        pipeline->set_dominant_cause_provider(
            [ae] { return ae->dominant_cause(); });
      }
    }

    trace::DriverConfig driver_config;
    driver_config.trace = config.trace;
    driver_config.trace.seed = config.seed;
    driver_config.strict_model =
        &workload::ModelCatalog::instance().by_name(config.strict_model);
    driver_config.strict_fraction = config.strict_fraction;
    driver_config.be_rotation_period = config.be_rotation_period;
    driver_config.seed = config.seed ^ 0xD417E5ULL;
    driver_config.count_from = config.warmup;
    collector.set_measure_from(config.warmup);
    for (const auto& name : config.be_pool) {
      driver_config.be_pool.push_back(
          &workload::ModelCatalog::instance().by_name(name));
    }
    for (const auto& [when, name] : config.be_schedule) {
      driver_config.be_schedule.emplace_back(
          when, &workload::ModelCatalog::instance().by_name(name));
    }
    CountingSink sink(deployment->sink(), config.warmup, recorder);
    std::optional<trace::WorkloadDriver> driver;
    {
      Scope span(recorder, kDriverBuild);
      driver.emplace(sim, driver_config, sink);
    }
    {
      Scope span(recorder, kPrewarm);
      for (NodeId id = 0; id < cluster_config.node_count; ++id) {
        deployment->node(id).prewarm(*driver_config.strict_model, 4);
        for (const auto* be_model : driver->be_models()) {
          deployment->node(id).prewarm(*be_model, 2);
        }
      }
    }
    deployment->start();
    driver->start();
    run_start = Clock::now();
    result.setup_s = std::chrono::duration<double>(run_start - setup_start)
                         .count();
    if (setup_only) {
      deployment->stop();
      return result;
    }

    const auto run_to = [&](SimTime end) {
      if (recorder == nullptr) {
        sim.run_until(end);
        return;
      }
      // Same event order as one run_until(end): nothing is scheduled
      // between chunks.
      while (sim.now() < end) {
        const SimTime next = std::min(end, std::floor(sim.now()) + 1.0);
        {
          Scope span(recorder, kChunk);
          sim.run_until(next);
        }
        result.heap_peak = std::max(result.heap_peak, sim.heap_size());
        result.backlog_peak =
            std::max(result.backlog_peak, deployment->backlog());
      }
    };

    run_to(config.trace.horizon);
    const double gpu_util = deployment->gpu_utilization_pct();
    const double mem_util = deployment->memory_utilization_pct();
    {
      Scope span(recorder, kFlush);
      deployment->flush_gateways();
    }
    run_to(config.trace.horizon + config.drain_grace);
    if (pipeline.has_value()) {
      Scope span(recorder, kTelemetryFinish);
      pipeline->finish(sim.now());
    }

    // ---- report extraction (harness::run_experiment's arithmetic) ----
    report.scheme = scheduler->name();
    report.strict_model = driver_config.strict_model->name;
    report.min_possible_ms = to_ms(driver_config.strict_model->solo_time_7g);
    report.slo_ms = to_ms(driver_config.strict_model->slo_deadline(
        cluster_config.slo_multiplier));
    report.strict_emitted = driver->strict_emitted();
    report.strict_completed = collector.strict_completed();
    report.be_completed = collector.be_completed();
    {
      Scope span(recorder, kFinalize);
      const double compliant =
          collector.slo_compliance_pct() / 100.0 *
          static_cast<double>(collector.strict_completed());
      double denom = static_cast<double>(collector.strict_completed());
      if (config.count_unfinished_as_violations &&
          driver->strict_emitted() > collector.strict_completed()) {
        denom = static_cast<double>(driver->strict_emitted());
      }
      report.slo_compliance_pct =
          denom > 0.0 ? 100.0 * compliant / denom : 100.0;
      report.strict_p50_ms = to_ms(collector.strict_percentile(50.0));
      report.strict_p99_ms = to_ms(collector.strict_percentile(99.0));
      report.strict_mean_ms = to_ms(collector.strict_mean());
      report.be_p50_ms = to_ms(collector.be_percentile(50.0));
      report.be_p99_ms = to_ms(collector.be_percentile(99.0));
      report.tail_breakdown = collector.tail_breakdown(99.0);

      const double gpu_seconds =
          static_cast<double>(cluster_config.node_count) *
          config.trace.horizon;
      report.throughput_strict =
          static_cast<double>(collector.strict_completed()) / gpu_seconds;
      report.goodput_strict = report.slo_compliance_pct / 100.0 *
                              static_cast<double>(denom) / gpu_seconds;
      report.throughput_total =
          static_cast<double>(collector.strict_completed() +
                              collector.be_completed()) /
          gpu_seconds;
    }
    report.gpu_util_pct = gpu_util;
    report.mem_util_pct = mem_util;
    report.cold_starts = deployment->total_cold_starts();
    report.dropped = collector.dropped();
    report.reconfigurations = deployment->total_reconfigurations();
    report.events_executed = sim.executed();
    report.cost_usd = deployment->market().total_cost();
    report.cost_on_demand_ref_usd =
        deployment->market().on_demand_reference_cost();
    report.evictions = deployment->market().evictions();
    if (config.keep_latency_samples) {
      report.strict_latencies = collector.strict_latencies();
    }

    if (pipeline.has_value()) {
      report.telemetry.enabled = true;
      report.telemetry.scrapes = pipeline->scrape_count();
      const telemetry::BurnSummary burn = pipeline->burn_summary();
      report.telemetry.alerts_fired = burn.alerts_fired;
      report.telemetry.first_alert_at_s = burn.first_alert_at;
      report.telemetry.alert_active_seconds = burn.alert_active_seconds;
    }

    const attr::AttributionEngine* ae = deployment->attribution();
    if (ae != nullptr) {
      auto& a = report.attribution;
      a.enabled = true;
      a.requests = ae->requests();
      a.batches = ae->batches();
      a.violations = ae->violations();
      a.identity_violations = ae->identity_violations();
      a.negative_component_clamps = collector.negative_component_clamps();
      a.dominant_cause = ae->dominant_cause();
      for (int c = 0; c < attr::kCauseCount; ++c) {
        const auto cause = static_cast<attr::Cause>(c);
        harness::Report::AttributionStats::CauseRow row;
        row.cause = attr::cause_name(cause);
        row.violations = ae->violations_for(cause);
        if (c < attr::kComponentCount) {
          row.seconds = ae->component_seconds(cause);
          const metrics::QuantileSketch& sk = ae->sketch(cause);
          row.p50_ms = to_ms(sk.quantile(0.50));
          row.p99_ms = to_ms(sk.quantile(0.99));
        }
        a.causes.push_back(std::move(row));
      }
      for (const attr::AttributionEngine::GroupRow& g : ae->group_rows()) {
        harness::Report::AttributionStats::GroupRow row;
        row.model = g.model;
        row.shard = g.shard;
        row.strict = g.strict;
        row.requests = g.requests;
        row.violations = g.violations;
        if (g.violations > 0) row.dominant = attr::cause_name(g.dominant);
        a.groups.push_back(std::move(row));
      }
    }

    double busy = 0.0;
    for (NodeId id = 0; id < deployment->node_count(); ++id) {
      busy += deployment->node(id).gpu_busy_seconds();
    }
    if (tracer.has_value()) {
      // The collector block obs::check_invariants replays the spans
      // against, as run_experiment writes it.
      tracer->set_summary("busy_seconds", busy);
      tracer->set_summary(
          "cold_starts", static_cast<double>(deployment->total_cold_starts()));
      tracer->set_summary("retries", static_cast<double>(collector.retries()));
      tracer->set_summary("hedges", static_cast<double>(collector.hedges()));
      tracer->set_summary(
          "lost_batches",
          static_cast<double>(deployment->total_lost_batches()));
      tracer->set_summary("strict_completed",
                          static_cast<double>(collector.strict_completed()));
      tracer->set_summary("be_completed",
                          static_cast<double>(collector.be_completed()));
      tracer->set_summary(
          "reconfigurations",
          static_cast<double>(deployment->total_reconfigurations()));
      tracer->set_summary("horizon",
                          config.trace.horizon + config.drain_grace);
      if (ae != nullptr) {
        tracer->set_summary("attr_requests",
                            static_cast<double>(ae->requests()));
        tracer->set_summary("attr_violations",
                            static_cast<double>(ae->violations()));
        tracer->set_summary("attr_identity_violations",
                            static_cast<double>(ae->identity_violations()));
        tracer->set_summary(
            "negative_component_clamps",
            static_cast<double>(collector.negative_component_clamps()));
        for (int c = 0; c < attr::kCauseCount; ++c) {
          const auto cause = static_cast<attr::Cause>(c);
          tracer->set_summary(
              std::string("attr_cause_") + attr::cause_name(cause),
              static_cast<double>(ae->violations_for(cause)));
        }
      }
    }

    // ---- layer counters and output-check inputs (live deployment) ----
    const cluster::Gateway& gateway = deployment->gateway();
    result.requests = sink.requests();
    result.arrival_calls = sink.calls();
    result.negative_clamps = collector.negative_component_clamps();
    result.batches = gateway.batches_formed();
    result.partial_batches = gateway.partial_batches();
    result.null_places = timed != nullptr ? timed->null_places() : 0;
    result.store_bytes = collector.latency_store_bytes();
    result.gpu_busy_sim_s = busy;
    std::uint64_t queued_strict = 0;
    for (NodeId id = 0; id < deployment->node_count(); ++id) {
      for (const workload::Batch& b : deployment->node(id).queue()) {
        if (b.strict && b.first_arrival >= config.warmup) {
          queued_strict += static_cast<std::uint64_t>(b.count);
        }
      }
    }
    const std::uint64_t terminal =
        collector.strict_completed() + collector.lost_requests();
    if (report.strict_completed == 0) {
      result.failures.push_back("empty measurement window");
    }
    if (sink.requests() != deployment->gateway_requests_seen() ||
        sink.counted() != driver->requests_emitted()) {
      result.failures.push_back(
          "arrivals: driver emitted " +
          std::to_string(driver->requests_emitted()) + " (" +
          std::to_string(sink.counted()) + " after warmup, " +
          std::to_string(sink.requests()) + " in all), gateway saw " +
          std::to_string(deployment->gateway_requests_seen()));
    }
    // strict_emitted = completed + dropped + lost + unfinished, where the
    // unfinished include at least the strict requests still queued at nodes.
    if (report.strict_emitted < terminal + queued_strict) {
      result.failures.push_back(
          "strict conservation: emitted " +
          std::to_string(report.strict_emitted) + " < completed+dropped+" +
          "lost " + std::to_string(terminal) + " + queued " +
          std::to_string(queued_strict));
    } else {
      result.unfinished = report.strict_emitted - terminal;
    }

    {
      Scope span(recorder, kTeardown);
      deployment->stop();
      driver.reset();
      deployment.reset();
    }
    bool written = true;
    if (tracer.has_value()) {
      Scope span(recorder, kObsWrite);
      written &= tracer->write_file(config.trace_out.path);
    }
    if (pipeline.has_value()) {
      Scope span(recorder, kTelemetryWrite);
      written &= pipeline->write_files();
    }
    if (!written) result.failures.push_back("artifact write failed");
  }
  result.wall_s = seconds_since(run_start);
  if (config.trace_out.enabled()) {
    result.obs_file_bytes = file_bytes(config.trace_out.path);
  }
  if (config.telemetry.enabled()) {
    result.telemetry_file_bytes = file_bytes(config.telemetry.path) +
                                  file_bytes(config.telemetry.path + ".om");
  }
  return result;
}

// ---- output ----------------------------------------------------------------

std::string digest(const harness::Report& report) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a over the report JSON
  for (const char c : harness::report_to_json(report).dump()) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string number(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
  return buf;
}

/// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
void print_result(std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (failed == 0 ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
        << number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
        << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

/// Per-layer metrics of the traced run; `trace_overhead_pct` compares its
/// wall time with the untraced runs' wall_s.
std::vector<Metric> layer_metrics(const RunResult& run,
                                  const SpanRecorder& recorder,
                                  double trace_overhead_pct) {
  const std::vector<Span>& spans = recorder.spans();
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent != SpanRecorder::kNoParent) {
      child_ns[s.parent] += s.end_ns - s.start_ns;
    }
  }
  double total[kLayerCount] = {};
  double self[kLayerCount] = {};
  double longest[kLayerCount] = {};
  std::uint64_t calls[kLayerCount] = {};
  std::vector<double> place_ns;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const auto ns = static_cast<double>(s.end_ns - s.start_ns);
    total[s.layer] += ns * 1e-9;
    self[s.layer] += (ns - static_cast<double>(child_ns[i])) * 1e-9;
    longest[s.layer] = std::max(longest[s.layer], ns * 1e-9);
    ++calls[s.layer];
    if (s.layer == kPlace) place_ns.push_back(ns);
  }
  const auto percentile = [&place_ns](double p) {
    if (place_ns.empty()) return 0.0;
    const auto k = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(place_ns.size())) - 1);
    std::nth_element(place_ns.begin(),
                     place_ns.begin() + static_cast<std::ptrdiff_t>(k),
                     place_ns.end());
    return place_ns[k];
  };
  const harness::Report& r = run.report;
  const auto events = static_cast<double>(r.events_executed);
  const auto batches = static_cast<double>(run.batches);
  const auto places = static_cast<double>(calls[kPlace]);
  constexpr double kMb = 1e6;
  return {
      {"sim.events", events, "count"},
      {"sim.ns_per_event", ratio(total[kChunk] * 1e9, events), "ns"},
      {"sim.self_s", self[kChunk], "s"},
      {"sim.heap_peak", static_cast<double>(run.heap_peak), "count"},
      {"sim.chunk_wall_max_s", longest[kChunk], "s"},
      {"trace.requests", static_cast<double>(run.requests), "count"},
      {"trace.arrival_calls", static_cast<double>(run.arrival_calls),
       "count"},
      {"trace.build_s", total[kDriverBuild], "s"},
      {"cluster.gateway_s", total[kGateway], "s"},
      {"cluster.gateway_self_s", self[kGateway], "s"},
      {"cluster.batches", batches, "count"},
      {"cluster.partial_batches", static_cast<double>(run.partial_batches),
       "count"},
      {"cluster.req_per_batch", ratio(static_cast<double>(run.requests),
                                      batches),
       "ratio"},
      {"cluster.backlog_peak", static_cast<double>(run.backlog_peak),
       "count"},
      {"cluster.flush_s", total[kFlush], "s"},
      {"cluster.build_s", total[kClusterBuild], "s"},
      {"cluster.prewarm_s", total[kPrewarm], "s"},
      {"cluster.teardown_s", total[kTeardown], "s"},
      {"sched.place_calls", places, "count"},
      {"sched.place_per_batch", ratio(places, batches), "ratio"},
      {"sched.place_null_frac",
       ratio(static_cast<double>(run.null_places), places), "ratio"},
      {"sched.place_s", total[kPlace], "s"},
      {"sched.place_ns_p50", percentile(50.0), "ns"},
      {"sched.place_ns_p99", percentile(99.0), "ns"},
      {"sched.make_job_s", total[kMakeJob], "s"},
      {"sched.monitor_calls", static_cast<double>(calls[kMonitor]), "count"},
      {"sched.monitor_s", total[kMonitor], "s"},
      {"gpu.busy_sim_s", run.gpu_busy_sim_s, "sim_s"},
      {"gpu.reconfigurations", static_cast<double>(r.reconfigurations),
       "count"},
      {"gpu.cold_starts", static_cast<double>(r.cold_starts), "count"},
      {"metrics.records", static_cast<double>(run.records), "count"},
      {"metrics.store_mb", static_cast<double>(run.store_bytes) / kMb, "MB"},
      {"metrics.finalize_s", total[kFinalize], "s"},
      {"metrics.negative_clamps", static_cast<double>(run.negative_clamps),
       "count"},
      {"obs.write_s", total[kObsWrite], "s"},
      {"obs.file_mb", static_cast<double>(run.obs_file_bytes) / kMb, "MB"},
      {"telemetry.scrapes", static_cast<double>(r.telemetry.scrapes),
       "count"},
      {"telemetry.finish_s", total[kTelemetryFinish], "s"},
      {"telemetry.write_s", total[kTelemetryWrite], "s"},
      {"telemetry.file_mb",
       static_cast<double>(run.telemetry_file_bytes) / kMb, "MB"},
      {"attr.requests", static_cast<double>(r.attribution.requests),
       "count"},
      {"attr.identity_violations",
       static_cast<double>(r.attribution.identity_violations), "count"},
      {"bench.trace_overhead_pct", trace_overhead_pct, "%"},
  };
}

/// The process's resident-memory high-water mark (VmHWM). Unlike
/// getrusage's ru_maxrss, it starts afresh at exec, so the RSS of the
/// process that launched this one does not leak into it.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) * 1024.0 / 1e6;  // kB
    }
  }
  return 0.0;
}

// ---- host-speed calibration -----------------------------------------------

/// Host seconds calibrate() typically took on the 4-vCPU Xeon KVM guest the
/// benchmark was tuned on, while that host was quiet. End-to-end timings are
/// scaled to this host's speed: t * kReferenceCalibrationS / calibrate().
constexpr double kReferenceCalibrationS = 0.210;

/// A fixed kernel that never calls into the simulator: a 50k-entry binary-
/// heap event loop (1.5M pops and pushes) that reads and writes a freshly
/// allocated 64 MiB arena at pseudo-random slots. Like the event loop, it is
/// bound by branchy heap code, cache misses and page faults, so it slows
/// with the simulator when other tenants of a shared host contend for the
/// core and its caches. Returns its host seconds.
double calibrate() {
  constexpr std::size_t kArenaSlots = std::size_t{1} << 23;  // 64 MiB
  constexpr int kEvents = 50000;
  constexpr int kSteps = 1500000;
  const Clock::time_point start = Clock::now();
  std::vector<std::uint64_t> arena(kArenaSlots, 1);
  std::vector<std::pair<double, std::uint64_t>> heap;
  heap.reserve(kEvents);
  auto lcg = [](std::uint64_t x) {
    return x * 6364136223846793005ULL + 1442695040888963407ULL;
  };
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (int i = 0; i < kEvents; ++i) {
    heap.emplace_back(static_cast<double>(i), x);
    x = lcg(x);
  }
  const auto later = std::greater<>();
  std::make_heap(heap.begin(), heap.end(), later);
  std::uint64_t acc = 0;
  for (int i = 0; i < kSteps; ++i) {
    std::pop_heap(heap.begin(), heap.end(), later);
    auto& [time, key] = heap.back();
    std::uint64_t& slot = arena[(key >> 17) & (kArenaSlots - 1)];
    acc += slot;
    slot += key;
    key = lcg(key);
    time += static_cast<double>(acc & 1023) * 1e-3;
    std::push_heap(heap.begin(), heap.end(), later);
  }
  const double elapsed = seconds_since(start);
  // Keeps the compiler from dropping the loop.
  PROTEAN_CHECK_MSG(acc != 0, "calibration kernel produced no work");
  return elapsed;
}

// ---- modes -----------------------------------------------------------------

/// Runs one workload untraced for about `seconds` (at least three times),
/// then once traced if asked; prints the result line.
int bench(const Workload& workload, double seconds, bool traced,
          const std::string& out_dir) {
  constexpr std::size_t kMinRuns = 3;
  // Set-up takes well under a millisecond on the small cells, so its median
  // comes from extra set-up-only passes after the runs: at least this many,
  // and as many as fit in the last tenth of `seconds`. They run in blocks of
  // about kSetupBlockS, each followed by calibrate().
  constexpr std::size_t kSetupSamples = 51;
  constexpr double kSetupBlockS = 0.25;
  // A traced run takes up to a few untraced-run lengths; it gets the second
  // half of `seconds`.
  const double run_seconds = (traced ? 0.5 : 0.9) * seconds;
  const Clock::time_point start = Clock::now();
  std::vector<RunResult> runs;
  // calibrate() right after each run: the host's speed at that time. Not
  // before the first run, whose peak RSS must be the simulator's alone.
  std::vector<double> calibrations;
  double peak_rss = 0.0;  // of a fresh process's first run
  do {
    runs.push_back(run_once(workload.config, nullptr));
    if (runs.size() == 1) peak_rss = peak_rss_mb();
    calibrations.push_back(calibrate());
  } while (runs.size() < kMinRuns ||
           seconds_since(start) *
                   (1.0 + 1.0 / static_cast<double>(runs.size())) <
               run_seconds);

  const std::string reference = digest(runs.front().report);
  std::vector<double> walls;
  // Scaled to the reference host's speed, each by the calibration after it.
  std::vector<double> scaled_walls;
  std::vector<double> setups;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (digest(runs[i].report) != reference) {
      runs[i].failures.push_back("report differs from the first run's");
    }
    walls.push_back(runs[i].wall_s);
    scaled_walls.push_back(runs[i].wall_s * kReferenceCalibrationS /
                           calibrations[i]);
    setups.push_back(runs[i].setup_s * kReferenceCalibrationS /
                     calibrations[i]);
  }
  while (!traced && (setups.size() < kSetupSamples ||
                     seconds_since(start) < seconds)) {
    const std::size_t block_begin = setups.size();
    const Clock::time_point block_start = Clock::now();
    do {
      setups.push_back(run_once(workload.config, nullptr, true).setup_s);
    } while (seconds_since(block_start) < kSetupBlockS);
    const double scale = kReferenceCalibrationS / calibrate();
    for (std::size_t i = block_begin; i < setups.size(); ++i) {
      setups[i] *= scale;
    }
  }
  const double host_speed = kReferenceCalibrationS / median(calibrations);
  const double wall_s = median(scaled_walls);
  const double setup_s = median(setups);

  std::optional<RunResult> traced_run;
  SpanRecorder recorder;
  double trace_overhead_pct = 0.0;
  if (traced) {
    traced_run = run_once(workload.config, &recorder);
    const double traced_wall_s =
        traced_run->wall_s * kReferenceCalibrationS / calibrate();
    trace_overhead_pct = 100.0 * ratio(traced_wall_s - wall_s, wall_s);
    if (digest(traced_run->report) != reference) {
      traced_run->failures.push_back("traced report differs from untraced");
    }
    recorder.write(out_dir + "/" + workload.name + ".spans");
  }

  std::vector<const RunResult*> attempted_runs;
  for (const RunResult& run : runs) attempted_runs.push_back(&run);
  if (traced_run) attempted_runs.push_back(&*traced_run);
  const std::size_t attempted = attempted_runs.size();
  std::size_t failed = 0;
  for (std::size_t i = 0; i < attempted; ++i) {
    if (!attempted_runs[i]->failures.empty()) ++failed;
    for (const std::string& why : attempted_runs[i]->failures) {
      std::cout << "check failed (run " << i << "): " << why << '\n';
    }
  }

  const harness::Report& r = runs.front().report;
  std::cout << "workload " << workload.name << " seed " << workload.config.seed
            << ": " << runs.size() << " untraced runs"
            << (traced ? " + 1 traced" : "") << ", " << failed
            << " failed, " << setups.size() << " set-ups\n"
            << "outputs (simulated fleet): slo_compliance_pct "
            << number(r.slo_compliance_pct) << ", strict_p99_ms "
            << number(r.strict_p99_ms) << ", cost_usd " << number(r.cost_usd)
            << ", dropped " << r.dropped << ", unfinished "
            << runs.front().unfinished << ", metrics.negative_clamps "
            << runs.front().negative_clamps << ", digest " << reference
            << '\n'
            << "failed_run_frac " << number(ratio(
                   static_cast<double>(failed),
                   static_cast<double>(attempted)))
            << " ratio\n"
            << "host speed vs reference " << number(host_speed)
            << ", unscaled median wall " << number(median(walls)) << " s\n";
  const auto print_samples = [](const char* what, std::vector<double> v) {
    std::sort(v.begin(), v.end());
    std::cout << what;
    for (const double x : v) std::cout << ' ' << number(x);
    std::cout << '\n';
  };
  print_samples("wall samples (s, host, unscaled):", walls);
  print_samples("calibrate() samples (s, host):", calibrations);
  print_samples("wall_s samples (s, scaled to the reference host):",
                scaled_walls);
  std::cout.flush();

  if (traced_run) {
    print_result(attempted, failed,
                 layer_metrics(*traced_run, recorder, trace_overhead_pct));
  } else {
    print_result(
        attempted, failed,
        {{"wall_s", wall_s, "s"},
         {"setup_s", setup_s, "s"},
         {"sim_req_per_wall_s",
          ratio(static_cast<double>(runs.front().requests), wall_s), "req/s"},
         {"peak_rss_mb", peak_rss, "MB"}});
  }
  return 0;
}

/// Shows the benchmark measures the program users run: for every workload
/// at a short horizon, this file's wiring (untraced and traced) must give
/// harness::run_experiment's Report field for field and byte-identical
/// trace/telemetry files.
int fidelity(const std::string& out_dir) {
  int mismatches = 0;
  const auto compare_lines = [&mismatches](const std::string& what,
                                           const std::string& want,
                                           const std::string& got) {
    std::istringstream a(want);
    std::istringstream b(got);
    std::string la;
    std::string lb;
    bool ok = true;
    while (true) {
      const bool more_a = static_cast<bool>(std::getline(a, la));
      const bool more_b = static_cast<bool>(std::getline(b, lb));
      if (!more_a && !more_b) break;
      if (la != lb || more_a != more_b) {
        std::cout << "  " << what << ": run_experiment `" << la
                  << "` vs perfbench `" << lb << "`\n";
        ok = false;
        ++mismatches;
        if (!more_a || !more_b) break;
      }
    }
    return ok;
  };
  const auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream s;
    s << in.rdbuf();
    return s.str();
  };
  for (const char* name : kWorkloads) {
    const Workload ref = *make_workload(name, 1, out_dir, true, "ref");
    const std::string want_json =
        harness::report_to_json(harness::run_experiment(ref.config)).dump(1);
    bool ok = true;
    for (const bool traced : {false, true}) {
      const std::string tag = traced ? "traced" : "untraced";
      const Workload mine = *make_workload(name, 1, out_dir, true, tag);
      SpanRecorder recorder;
      const RunResult got =
          run_once(mine.config, traced ? &recorder : nullptr);
      const std::string what = std::string(name) + " " + tag;
      ok &= compare_lines(what, want_json,
                          harness::report_to_json(got.report).dump(1));
      if (ref.config.trace_out.enabled()) {
        ok &= compare_lines(what + " trace file",
                            slurp(ref.config.trace_out.path),
                            slurp(mine.config.trace_out.path));
      }
      if (ref.config.telemetry.enabled()) {
        ok &= compare_lines(what + " telemetry file",
                            slurp(ref.config.telemetry.path),
                            slurp(mine.config.telemetry.path));
      }
    }
    std::cout << "fidelity " << name << ": " << (ok ? "ok" : "MISMATCH")
              << '\n';
  }
  return mismatches == 0 ? 0 : 1;
}

int usage() {
  std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --out DIR\n"
               "       perfbench --fidelity --out DIR\n"
               "workloads: wiki-8 fleet-1024 overload-9 observed-1024\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::string out_dir;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  bool check_fidelity = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--fidelity") {
        check_fidelity = true;
        continue;
      }
      if (i + 1 >= argc) return usage();
      const std::string value = argv[++i];
      if (arg == "--workload") {
        workload_name = value;
      } else if (arg == "--seed") {
        seed = std::stoull(value);
      } else if (arg == "--seconds") {
        seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return usage();
        traced = value == "1";
      } else if (arg == "--out") {
        out_dir = value;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (out_dir.empty()) return usage();
  std::filesystem::create_directories(out_dir);
  if (check_fidelity) return fidelity(out_dir);
  const std::optional<Workload> workload =
      make_workload(workload_name, seed, out_dir, false, "run");
  if (!workload || !(seconds > 0.0)) return usage();
  return bench(*workload, seconds, traced, out_dir);
}
