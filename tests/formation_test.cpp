// Tests for event-driven batch formation (docs/scale.md, "Event-driven
// formation"): the look-ahead driver and the gateways' one sealing event
// must reproduce the polling reference (reference_formation.h) bit for bit,
// and a wiki-shaped run must execute a small, bounded number of events per
// batch.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/gateway.h"
#include "reference_formation.h"
#include "sched/registry.h"
#include "trace/driver.h"

namespace protean {
namespace {

using workload::ModelCatalog;
using workload::ModelProfile;

/// Splits bursts across shard gateways like the cluster's fan-out: count / K
/// to each, the remainder rotated.
class Fanout final : public trace::RequestSink {
 public:
  explicit Fanout(std::vector<trace::RequestSink*> shards)
      : shards_(std::move(shards)) {}

  void on_arrivals(const ModelProfile& model, bool strict, int count,
                   SimTime window_start, SimTime window_end) override {
    const int k = static_cast<int>(shards_.size());
    const int share = count / k;
    const int extra = count % k;
    for (int s = 0; s < k; ++s) {
      const int c = share + ((s - cursor_ + k) % k < extra ? 1 : 0);
      if (c > 0) {
        shards_[static_cast<std::size_t>(s)]->on_arrivals(
            model, strict, c, window_start, window_end);
      }
    }
    cursor_ = (cursor_ + extra) % k;
  }

 private:
  std::vector<trace::RequestSink*> shards_;
  int cursor_ = 0;
};

class CountingSink final : public trace::RequestSink {
 public:
  explicit CountingSink(trace::RequestSink* inner = nullptr) : inner_(inner) {}

  void on_arrivals(const ModelProfile& model, bool strict, int count,
                   SimTime window_start, SimTime window_end) override {
    ++calls;
    requests += static_cast<std::uint64_t>(count);
    if (inner_ != nullptr) {
      inner_->on_arrivals(model, strict, count, window_start, window_end);
    }
  }

  std::uint64_t calls = 0;
  std::uint64_t requests = 0;

 private:
  trace::RequestSink* inner_;
};

struct Sealed {
  std::uint32_t shard;
  BatchId id;
  const ModelProfile* model;
  bool strict;
  int count;
  SimTime first_arrival;
  SimTime last_arrival;
  SimTime formed_at;
  bool operator==(const Sealed&) const = default;
};

struct Sample {
  SimTime t;
  std::uint32_t shard;
  std::uint64_t seen;
  std::size_t pending;
  Duration oldest_age;
  bool operator==(const Sample&) const = default;
};

struct Outcome {
  std::vector<Sealed> sealed;
  std::vector<Sample> samples;
  std::uint64_t emitted = 0;
};

/// One random scenario: 1-4 shards, ALBERT (batch 4) next to ResNet 50
/// (batch 128), rates from mostly-empty windows to tens of thousands of
/// requests per second, and a horizon that falls between two ticks.
struct Scenario {
  trace::DriverConfig driver;
  cluster::ClusterConfig cluster;
  std::uint32_t shards = 1;
  Duration drain = 2.0;
};

Scenario random_scenario(std::uint64_t seed) {
  Rng rng(0xf0a3 + seed);
  Scenario s;
  const ModelProfile* resnet = &ModelCatalog::instance().by_name("ResNet 50");
  const ModelProfile* albert = &ModelCatalog::instance().by_name("ALBERT");
  const bool albert_strict = rng.bernoulli(0.5);
  s.driver.strict_model = albert_strict ? albert : resnet;
  s.driver.be_pool = {albert_strict ? resnet : albert};
  const double fractions[] = {0.5, 0.2, 0.9, 1.0, 0.0};
  s.driver.strict_fraction = fractions[rng.index(5)];
  const trace::TraceKind kinds[] = {trace::TraceKind::kConstant,
                                    trace::TraceKind::kWiki,
                                    trace::TraceKind::kTwitter};
  s.driver.trace.kind = kinds[rng.index(3)];
  s.driver.trace.target_rps = std::exp(rng.uniform(std::log(20.0),
                                                   std::log(20000.0)));
  s.driver.trace.horizon = rng.uniform(1.0, 6.0);
  s.driver.trace.seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1000));
  s.driver.seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1000));
  const double multipliers[] = {1.2, 3.0, 8.0};
  s.cluster.slo_multiplier = multipliers[rng.index(3)];
  s.shards = 1 + static_cast<std::uint32_t>(rng.index(4));
  return s;
}

std::string describe(const Scenario& s) {
  std::ostringstream os;
  os << "strict=" << s.driver.strict_model->name
     << " frac=" << s.driver.strict_fraction
     << " trace=" << trace::to_string(s.driver.trace.kind)
     << " rps=" << s.driver.trace.target_rps
     << " horizon=" << s.driver.trace.horizon
     << " slo_mult=" << s.cluster.slo_multiplier << " shards=" << s.shards;
  return os.str();
}

/// Runs the scenario the way the harness does: drive to the horizon, drain
/// every gateway, run the drain window. Readers are sampled off the 5 ms
/// grid throughout.
template <typename GatewayT, typename DriverT>
Outcome run_scenario(const Scenario& s) {
  sim::Simulator sim;
  Outcome out;
  std::optional<cluster::FormationClock> clock;
  std::vector<std::unique_ptr<GatewayT>> gateways;
  for (std::uint32_t k = 0; k < s.shards; ++k) {
    auto dispatch = [&out, k](workload::Batch&& b) {
      out.sealed.push_back(Sealed{k, b.id, b.model, b.strict, b.count,
                                  b.first_arrival, b.last_arrival,
                                  b.formed_at});
    };
    if constexpr (std::is_same_v<GatewayT, cluster::Gateway>) {
      if (!clock) clock.emplace(sim, s.cluster.batch_flush_check);
      gateways.push_back(std::make_unique<GatewayT>(
          sim, s.cluster, dispatch, k + 1, s.shards, &*clock));
    } else {
      gateways.push_back(std::make_unique<GatewayT>(sim, s.cluster, dispatch,
                                                    k + 1, s.shards));
    }
  }
  std::vector<trace::RequestSink*> shards;
  for (auto& g : gateways) shards.push_back(g.get());
  Fanout fanout(shards);
  trace::RequestSink& sink =
      s.shards == 1 ? static_cast<trace::RequestSink&>(*gateways.front())
                    : fanout;
  DriverT driver(sim, s.driver, sink);
  const SimTime horizon = s.driver.trace.horizon;
  for (SimTime t = 0.0123; t < horizon + s.drain; t += 0.0371) {
    sim.schedule_at(t, [&out, &gateways, &sim] {
      for (std::uint32_t k = 0; k < gateways.size(); ++k) {
        const GatewayT& g = *gateways[k];
        out.samples.push_back(Sample{sim.now(), k, g.requests_seen(),
                                     g.pending_requests(),
                                     g.oldest_pending_age()});
      }
    });
  }
  driver.start();
  sim.run_until(horizon);
  for (auto& g : gateways) g->flush_all();
  sim.run_until(horizon + s.drain);
  out.emitted = driver.requests_emitted();
  return out;
}

TEST(FormationOracle, EventDrivenMatchesPollingReferenceBitForBit) {
  std::uint64_t partial = 0;
  std::uint64_t full = 0;
  std::uint64_t samples_with_backlog = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const Scenario s = random_scenario(seed);
    SCOPED_TRACE("seed " + std::to_string(seed) + ": " + describe(s));
    const Outcome want =
        run_scenario<reference::PollingGateway, reference::PollingDriver>(s);
    const Outcome got =
        run_scenario<cluster::Gateway, trace::WorkloadDriver>(s);
    ASSERT_FALSE(want.sealed.empty());
    EXPECT_EQ(got.emitted, want.emitted);
    ASSERT_EQ(got.sealed.size(), want.sealed.size());
    for (std::size_t i = 0; i < want.sealed.size(); ++i) {
      ASSERT_EQ(got.sealed[i], want.sealed[i])
          << "batch #" << i << ": id " << want.sealed[i].id << " sealed at "
          << want.sealed[i].formed_at << " (shard " << want.sealed[i].shard
          << "), event-driven id " << got.sealed[i].id << " at "
          << got.sealed[i].formed_at << " (shard " << got.sealed[i].shard
          << ")";
      EXPECT_GE(got.sealed[i].formed_at, got.sealed[i].last_arrival);
    }
    ASSERT_EQ(got.samples.size(), want.samples.size());
    for (std::size_t i = 0; i < want.samples.size(); ++i) {
      ASSERT_EQ(got.samples[i], want.samples[i])
          << "sample at t=" << want.samples[i].t << " shard "
          << want.samples[i].shard;
    }
    for (const Sealed& b : want.sealed) {
      (b.count < b.model->batch_size ? partial : full) += 1;
    }
    for (const Sample& x : want.samples) {
      if (x.pending > 0) ++samples_with_backlog;
    }
  }
  // The scenarios exercise both ways a batch seals, and the readers see
  // requests waiting.
  EXPECT_GT(partial, 100u);
  EXPECT_GT(full, 100u);
  EXPECT_GT(samples_with_backlog, 100u);
}

TEST(FormationWork, EventsPerBatchStayBoundedOnAWikiShapedRun) {
  // wiki-8's shape over 120 s: 8 nodes, ResNet 50, the wiki trace at 5k rps.
  // Polling executed two events per 5 ms tick on top of the real work (about
  // 11 events per batch); one sealing event per tick that seals leaves
  // fewer than 3.
  const Duration horizon = 120.0;
  trace::DriverConfig dc;
  dc.trace.kind = trace::TraceKind::kWiki;
  dc.trace.target_rps = 5000.0;
  dc.trace.horizon = horizon;
  dc.trace.seed = 1;
  dc.strict_model = &ModelCatalog::instance().by_name("ResNet 50");
  dc.seed = 1 ^ 0xD417E5ULL;

  sim::Simulator sim;
  auto scheduler = sched::make_scheduler(sched::Scheme::kProtean);
  cluster::ClusterConfig config;
  config.node_count = 8;
  cluster::Cluster cluster(sim, config, *scheduler);
  CountingSink counting(&cluster.sink());
  trace::WorkloadDriver driver(sim, dc, counting);
  for (NodeId id = 0; id < config.node_count; ++id) {
    cluster.node(id).prewarm(*dc.strict_model, 4);
    for (const auto* be : driver.be_models()) cluster.node(id).prewarm(*be, 2);
  }
  cluster.start();
  driver.start();
  sim.run_until(horizon);
  cluster.flush_gateways();
  sim.run_until(horizon + 15.0);

  const std::uint64_t batches = cluster.gateway().batches_formed();
  ASSERT_GT(batches, 4000u);
  EXPECT_LT(static_cast<double>(sim.executed()) / static_cast<double>(batches),
            3.0)
      << sim.executed() << " events for " << batches << " batches";

  // The sink sees exactly the window-at-a-time driver's calls: one per
  // window per class with requests, nothing split or merged.
  sim::Simulator ref_sim;
  CountingSink ref_counting;
  reference::PollingDriver ref(ref_sim, dc, ref_counting);
  ref.start();
  ref_sim.run_until(horizon + 15.0);
  EXPECT_EQ(counting.calls, ref_counting.calls);
  EXPECT_EQ(counting.requests, ref_counting.requests);
  EXPECT_EQ(cluster.gateway_requests_seen(), counting.requests);
  EXPECT_LE(counting.calls, 2 * static_cast<std::uint64_t>(
                                    std::ceil(horizon / dc.tick) + 1));
}

}  // namespace
}  // namespace protean
