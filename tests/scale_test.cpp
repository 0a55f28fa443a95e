// Tests for the control-plane scale refactor (docs/scale.md): the indexed
// placement's full-scan oracle, sharded gateways, incrementally-maintained
// fleet counters, and the batch object pool.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/gateway.h"
#include "common/json_reader.h"
#include "common/pool.h"
#include "fault/config.h"
#include "harness/experiment.h"
#include "harness/json.h"
#include "sched/registry.h"
#include "trace/driver.h"

namespace protean {
namespace {

using workload::ModelCatalog;

/// The primary 9-node cell over a 10 s horizon: small enough for tier-1,
/// large enough to split into three shards.
harness::ExperimentConfig nine_node_config(sched::Scheme scheme) {
  auto config = harness::primary_config("ResNet 50", 10.0)
                    .with_scheme(scheme)
                    .with_nodes(9);
  config.warmup = 2.0;
  return config;
}

/// Full scalar fingerprint of a report; equality means byte-identity of
/// everything the CLI would print.
std::string fingerprint(const harness::Report& report) {
  return harness::report_to_json(report).dump(2);
}

TEST(ScaleIdentity, SingleShardMatchesUnshardedBaseline) {
  const harness::Report base =
      harness::run_experiment(nine_node_config(sched::Scheme::kProtean));
  const harness::Report sharded = harness::run_experiment(
      nine_node_config(sched::Scheme::kProtean).with_shards(1));
  EXPECT_EQ(fingerprint(base), fingerprint(sharded));
}

TEST(ScaleIdentity, NineNodeCellIsDeterministic) {
  const auto config = nine_node_config(sched::Scheme::kProtean);
  EXPECT_EQ(fingerprint(harness::run_experiment(config)),
            fingerprint(harness::run_experiment(config)));
}

// ---- sharded control plane ------------------------------------------------

struct ShardedDeployment {
  sim::Simulator sim;
  std::unique_ptr<cluster::Scheduler> scheduler;
  std::vector<std::unique_ptr<cluster::Scheduler>> shard_store;
  std::unique_ptr<cluster::Cluster> cluster;
  std::unique_ptr<trace::WorkloadDriver> driver;

  /// `faults` is a `--faults` spec; empty leaves fault injection off.
  ShardedDeployment(std::uint32_t nodes, std::uint32_t shards,
                    double rps = 1200.0, Duration horizon = 20.0,
                    sched::Scheme scheme = sched::Scheme::kProtean,
                    const std::string& faults = "") {
    scheduler = sched::make_scheduler(scheme);
    cluster::ClusterConfig config;
    config.node_count = nodes;
    config.shards = shards;
    if (!faults.empty()) {
      const auto plan = fault::parse_fault_spec(faults);
      EXPECT_TRUE(plan.has_value()) << faults;
      if (plan) config.fault = *plan;
    }
    std::vector<cluster::Scheduler*> shard_ptrs;
    if (shards > 1) {
      for (std::uint32_t s = 0; s < shards; ++s) {
        shard_store.push_back(sched::make_scheduler(scheme));
        shard_ptrs.push_back(shard_store.back().get());
      }
    }
    cluster = std::make_unique<cluster::Cluster>(sim, config, *scheduler,
                                                 shard_ptrs);
    trace::DriverConfig dc;
    dc.trace.kind = trace::TraceKind::kConstant;
    dc.trace.target_rps = rps;
    dc.trace.horizon = horizon;
    dc.strict_model = &ModelCatalog::instance().by_name("ResNet 50");
    dc.seed = 21;
    driver = std::make_unique<trace::WorkloadDriver>(sim, dc,
                                                     cluster->sink());
    for (NodeId id = 0; id < config.node_count; ++id) {
      cluster->node(id).prewarm(*dc.strict_model, 4);
      for (const auto* be : driver->be_models()) {
        cluster->node(id).prewarm(*be, 2);
      }
    }
  }

  void run(Duration horizon, Duration drain = 15.0) {
    cluster->start();
    driver->start();
    sim.run_until(horizon);
    cluster->flush_gateways();
    sim.run_until(horizon + drain);
  }

  /// run(), advanced in 0.25 s slices with the dispatch index cross-checked
  /// against a full node scan, and every settled node against a replay of
  /// its queue, after every slice.
  void run_verified(Duration horizon, Duration drain) {
    constexpr Duration kStep = 0.25;
    cluster->start();
    driver->start();
    bool flushed = false;
    for (int i = 1; i * kStep <= horizon + drain; ++i) {
      const SimTime t = i * kStep;
      sim.run_until(t);
      if (!flushed && t >= horizon) {
        cluster->flush_gateways();
        flushed = true;
      }
      ASSERT_NO_THROW(cluster->verify_dispatch_index()) << "t=" << t;
      for (NodeId id = 0; id < cluster->node_count(); ++id) {
        ASSERT_TRUE(cluster->node(id).verify_settled())
            << "node " << id << " t=" << t;
      }
    }
  }
};

TEST(ShardedCluster, ServesAndConservesRequests) {
  ShardedDeployment d(6, 3);
  d.run(20.0);
  EXPECT_EQ(d.cluster->shard_count(), 3u);
  // Every emitted request hits exactly one gateway shard.
  EXPECT_EQ(d.cluster->gateway_requests_seen(), d.driver->requests_emitted());
  const auto& collector = d.cluster->collector();
  const std::uint64_t served =
      collector.strict_completed() + collector.be_completed();
  EXPECT_GT(collector.strict_completed(), 0u);
  EXPECT_NEAR(static_cast<double>(served),
              static_cast<double>(d.driver->requests_emitted()),
              0.03 * static_cast<double>(d.driver->requests_emitted()));
  // Every shard took a share of the traffic.
  for (std::size_t s = 0; s < d.cluster->shard_count(); ++s) {
    EXPECT_GT(d.cluster->gateway(s).requests_seen(), 0u) << "shard " << s;
  }
}

TEST(ShardedCluster, FanoutRotatesTheRemainderAcrossShards) {
  ShardedDeployment d(3, 3, /*rps=*/100.0, /*horizon=*/1.0);
  d.cluster->start();
  const auto& resnet = ModelCatalog::instance().by_name("ResNet 50");
  // count=4 over K=3 leaves one remainder grain per call; the rotating
  // cursor must hand it to a different shard each time.
  for (int call = 0; call < 3; ++call) {
    d.cluster->sink().on_arrivals(resnet, true, 4, 0.0, 0.01);
  }
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(d.cluster->gateway(s).requests_seen(), 0u) << "shard " << s;
  }
  d.sim.run_until(0.01);  // the window closes: every grain lands
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(d.cluster->gateway(s).requests_seen(), 4u) << "shard " << s;
  }
}

TEST(ShardedCluster, ShardLoadSkewIsOneWhenIdleOrUnsharded) {
  ShardedDeployment sharded(4, 2, /*rps=*/100.0, /*horizon=*/1.0);
  EXPECT_DOUBLE_EQ(sharded.cluster->shard_load_skew(), 1.0);  // idle
  ShardedDeployment single(4, 1, /*rps=*/100.0, /*horizon=*/1.0);
  single.run(5.0, 5.0);
  EXPECT_DOUBLE_EQ(single.cluster->shard_load_skew(), 1.0);  // unsharded
}

TEST(ShardedCluster, BatchIdsAreGloballyUniqueAcrossShards) {
  sim::Simulator sim;
  cluster::ClusterConfig config;
  const auto& resnet = ModelCatalog::instance().by_name("ResNet 50");
  std::vector<BatchId> ids;
  std::vector<std::unique_ptr<cluster::Gateway>> gateways;
  const std::uint64_t stride = 3;
  for (std::uint64_t s = 0; s < stride; ++s) {
    gateways.push_back(std::make_unique<cluster::Gateway>(
        sim, config,
        [&ids, s, stride](workload::Batch&& batch) {
          EXPECT_GE(batch.formed_at, batch.last_arrival);
          ids.push_back(batch.id);
          // Shard s owns the congruence class s+1 (mod stride).
          EXPECT_EQ((batch.id - 1) % stride, s);
        },
        /*first_batch_id=*/s + 1, /*id_stride=*/stride));
  }
  for (int round = 0; round < 4; ++round) {
    for (auto& gateway : gateways) {
      gateway->on_arrivals(resnet, true, 128, 0.0, 0.01);  // full batch
    }
  }
  EXPECT_TRUE(ids.empty());  // sealed only once the window closes
  sim.run_until(0.01);
  const std::set<BatchId> unique(ids.begin(), ids.end());
  EXPECT_EQ(unique.size(), ids.size());
  EXPECT_EQ(ids.size(), 12u);
}

// ---- dispatch index oracle ------------------------------------------------

class DispatchOracle : public ::testing::TestWithParam<sched::Scheme> {};

TEST_P(DispatchOracle, IndexMatchesFullScanThroughoutTheRun) {
  // Crashes on a shard-0 and a shard-2 node take them out of (and, after
  // the reboot, back into) the accepting set mid-run. 30k rps backs every
  // node queue up, so settled nodes meet capacity events under backlog.
  const std::string crashes = "crash@3:n1,crash@5:n7,reboot=2";
  for (const double rps : {3000.0, 30000.0}) {
    for (const std::uint32_t shards : {1u, 3u}) {
      for (const std::string& faults : {std::string(), crashes}) {
        SCOPED_TRACE("rps=" + std::to_string(rps) +
                     " shards=" + std::to_string(shards) +
                     " faults=" + faults);
        ShardedDeployment d(9, shards, rps, /*horizon=*/10.0, GetParam(),
                            faults);
        d.run_verified(10.0, 5.0);
        EXPECT_GT(d.cluster->collector().strict_completed(), 0u);
        if (!faults.empty()) {
          ASSERT_NE(d.cluster->injector(), nullptr);
          EXPECT_EQ(d.cluster->injector()->injected_crashes(), 2);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, DispatchOracle, ::testing::ValuesIn(sched::all_schemes()),
    [](const ::testing::TestParamInfo<sched::Scheme>& info) {
      std::string name = sched::scheme_cli_name(info.param);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// ---- dispatch under backlog (settled nodes) -------------------------------

TEST(SettledDispatch, OverloadedCellPlaceCallsPerBatchStayBounded) {
  // Deterministic work counter (not wall time) on the overloaded 9-node
  // PROTEAN cell (`protean_sim --nodes 9 --rps 100000 --horizon 10
  // --warmup 2`): place() calls per placed batch, read from the final
  // telemetry scrape, where placement_decisions_total counts placements
  // and placement_deferred_total null results. Rescanning the whole
  // backlog on every enqueue and restarting the scan after every placement
  // cost 1184 calls per batch here (2,081,749 for 1758 batches); settled
  // dispatch leaves 460, nearly all from the full pass after each
  // completion.
  auto config = nine_node_config(sched::Scheme::kProtean);
  config.trace.target_rps = 100000.0;
  const std::string path = ::testing::TempDir() + "settled-dispatch.jsonl";
  telemetry::TelemetryOptions telemetry;
  telemetry.path = path;
  telemetry.interval = 5.0;
  config.with_telemetry(telemetry);
  harness::run_experiment(config);

  std::ifstream in(path);
  std::string line;
  std::optional<JsonValue> last_scrape;
  while (std::getline(in, line)) {
    std::string error;
    std::optional<JsonValue> value = parse_json(line, &error);
    ASSERT_TRUE(value.has_value()) << error;
    if (value->find("metrics") != nullptr) last_scrape = std::move(value);
  }
  std::remove(path.c_str());
  std::remove((path + ".om").c_str());
  ASSERT_TRUE(last_scrape.has_value());
  double placed = 0.0;
  double deferred = 0.0;
  for (const auto& [name, value] : last_scrape->find("metrics")->object) {
    if (name.rfind("placement_decisions_total", 0) == 0) placed += value.number;
    if (name.rfind("placement_deferred_total", 0) == 0) deferred += value.number;
  }
  ASSERT_GT(placed, 1000.0);
  const double per_batch = (placed + deferred) / placed;
  RecordProperty("place_calls_per_batch", std::to_string(per_batch));
  EXPECT_LT(per_batch, 600.0);
}

// ---- incrementally-maintained fleet counters ------------------------------

TEST(FleetCounters, AggregatesMatchPerNodeRescan) {
  // No prewarm: the run must pay cold starts, so the counters move.
  sim::Simulator sim;
  auto scheduler = sched::make_scheduler(sched::Scheme::kProtean);
  cluster::ClusterConfig config;
  config.node_count = 3;
  cluster::Cluster deployment(sim, config, *scheduler);
  trace::DriverConfig dc;
  dc.trace.kind = trace::TraceKind::kConstant;
  dc.trace.target_rps = 900.0;
  dc.trace.horizon = 15.0;
  dc.strict_model = &ModelCatalog::instance().by_name("ResNet 50");
  dc.seed = 7;
  trace::WorkloadDriver driver(sim, dc, deployment.sink());
  deployment.start();
  driver.start();
  sim.run_until(15.0);
  deployment.flush_gateways();
  sim.run_until(30.0);

  std::uint64_t cold = 0;
  std::uint64_t dropped = 0;
  std::uint64_t lost = 0;
  int reconfigs = 0;
  int failed = 0;
  for (NodeId id = 0; id < config.node_count; ++id) {
    const cluster::WorkerNode& node = deployment.node(id);
    cold += node.cold_starts();
    dropped += node.dropped_jobs();
    lost += node.lost_batches();
    reconfigs += node.reconfigurations();
    failed += node.failed_reconfigurations();
  }
  EXPECT_GT(cold, 0u);
  EXPECT_EQ(deployment.total_cold_starts(), cold);
  EXPECT_EQ(deployment.total_dropped_jobs(), dropped);
  EXPECT_EQ(deployment.total_lost_batches(), lost);
  EXPECT_EQ(deployment.total_reconfigurations(), reconfigs);
  EXPECT_EQ(deployment.total_failed_reconfigurations(), failed);
}

// ---- batch object pool ----------------------------------------------------

TEST(ObjectPool, RecyclesReleasedStorage) {
  common::ObjectPool<int> pool;
  auto a = pool.make(7);
  EXPECT_EQ(*a, 7);
  EXPECT_EQ(pool.free_count(), 0u);
  int* block = a.get();
  a.reset();
  EXPECT_EQ(pool.free_count(), 1u);
  auto b = pool.make(9);
  EXPECT_EQ(*b, 9);
  EXPECT_EQ(b.get(), block);  // same block, recycled
  EXPECT_EQ(pool.free_count(), 0u);
}

TEST(ObjectPool, BoxOutlivingPoolFallsBackToGlobalDelete) {
  std::shared_ptr<workload::Batch> box;
  {
    common::ObjectPool<workload::Batch> pool;
    box = pool.make();
    box->id = 42;
  }
  // The pool (and its free list) are gone; releasing the box must route
  // to the global allocator, not a dangling free list.
  EXPECT_EQ(box->id, 42u);
  box.reset();
}

}  // namespace
}  // namespace protean
