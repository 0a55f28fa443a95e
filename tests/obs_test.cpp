// Tests for the tracing subsystem: option parsing, event emission, JSON
// round-tripping through the replay parser, determinism, and the invariant
// checker's failure modes.
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <climits>

#include "obs/check.h"
#include "sim/simulator.h"

namespace protean::obs {
namespace {

TEST(TraceOptions, ParsePlainPath) {
  const auto opts = TraceOptions::parse("out/run.json");
  ASSERT_TRUE(opts.has_value());
  EXPECT_EQ(opts->path, "out/run.json");
  EXPECT_EQ(opts->categories, kAllCategories);
  EXPECT_TRUE(opts->enabled());
  EXPECT_EQ(opts->filter_string(), "");
}

TEST(TraceOptions, ParseFilterSubset) {
  const auto opts = TraceOptions::parse("t.json:sched,spans");
  ASSERT_TRUE(opts.has_value());
  EXPECT_EQ(opts->path, "t.json");
  EXPECT_EQ(opts->categories, kSpans | kSched);
  // Canonical order, independent of the spec's order.
  EXPECT_EQ(opts->filter_string(), "spans,sched");
}

TEST(TraceOptions, ParseRejectsBadSpecs) {
  EXPECT_FALSE(TraceOptions::parse("").has_value());
  EXPECT_FALSE(TraceOptions::parse("t.json:").has_value());
  EXPECT_FALSE(TraceOptions::parse("t.json:bogus").has_value());
  EXPECT_FALSE(TraceOptions::parse("t.json:spans,").has_value());
  EXPECT_FALSE(TraceOptions::parse(":spans").has_value());
}

TEST(TraceOptions, WithIndexInsertsBeforeExtension) {
  TraceOptions opts;
  opts.path = "out/run.json";
  EXPECT_EQ(opts.with_index(3).path, "out/run-3.json");
  opts.path = "noext";
  EXPECT_EQ(opts.with_index(0).path, "noext-0");
  // A dot in a directory name is not an extension.
  opts.path = "v1.2/trace";
  EXPECT_EQ(opts.with_index(7).path, "v1.2/trace-7");
}

TEST(Tracer, EventsRoundTripThroughParser) {
  sim::Simulator sim;
  Tracer tracer(sim);
  tracer.process_name(0, "gateway");
  tracer.thread_name(1, 2, "slice 2");
  tracer.complete(kSpans, "busy", 1, 2, 0.5, 1.25, {{"jobs", 3.0}});
  tracer.async_begin(kSpans, "queue", 42, 1, 0.1, {{"model", "ResNet 50"}});
  tracer.async_end(kSpans, "queue", 42, 1, 0.4);
  tracer.instant(kSpans, "cold_start", 1, {{"spare", 0.0}});
  tracer.counter(kCounters, "s2", 1, {{"pressure", 0.7}, {"mem_gb", 4.5}});
  tracer.set_summary("busy_seconds", 0.75);

  std::string error;
  const auto parsed = parse_trace_json(tracer.to_json(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->categories, kAllCategories);
  ASSERT_EQ(parsed->events.size(), tracer.event_count());
  EXPECT_DOUBLE_EQ(parsed->collector.at("busy_seconds"), 0.75);

  const auto stats = compute_stats(*parsed);
  EXPECT_EQ(stats.complete_spans, 1u);
  EXPECT_EQ(stats.counter_samples, 1u);
  EXPECT_EQ(stats.instants.at("cold_start"), 1u);
  EXPECT_EQ(stats.async_begins.at("queue"), 1u);
  EXPECT_NEAR(stats.busy_union_seconds, 0.75, 1e-9);

  // Span fields survive the round trip in microseconds.
  bool found_busy = false;
  for (const auto& e : parsed->events) {
    if (e.ph == "X" && e.name == "busy") {
      found_busy = true;
      EXPECT_EQ(e.pid, 1);
      EXPECT_EQ(e.tid, 2);
      EXPECT_NEAR(e.ts_us, 0.5e6, 1e-3);
      EXPECT_NEAR(e.dur_us, 0.75e6, 1e-3);
      EXPECT_DOUBLE_EQ(e.num_args.at("jobs"), 3.0);
    }
    if (e.ph == "b") {
      EXPECT_EQ(e.str_args.at("model"), "ResNet 50");
      EXPECT_FALSE(e.id.empty());
    }
  }
  EXPECT_TRUE(found_busy);
}

TEST(Tracer, CategoryFilterSuppressesEvents) {
  sim::Simulator sim;
  Tracer tracer(sim, kSched);
  tracer.complete(kSpans, "busy", 1, 0, 0.0, 1.0);
  tracer.counter(kCounters, "s0", 1, {{"pressure", 1.0}});
  EXPECT_EQ(tracer.event_count(), 0u);
  tracer.instant(kSched, "sched", 1, {{"chosen", 2.0}});
  EXPECT_EQ(tracer.event_count(), 1u);
  EXPECT_TRUE(tracer.wants(kSched));
  EXPECT_FALSE(tracer.wants(kSpans));
}

TEST(Tracer, IdenticalEmissionIsByteIdentical) {
  const auto emit = [] {
    sim::Simulator sim;
    Tracer tracer(sim);
    tracer.process_name(0, "gateway");
    tracer.async_begin(kSpans, "queue", 7, 1, 0.125);
    tracer.async_end(kSpans, "queue", 7, 1, 0.375);
    tracer.complete(kSpans, "busy", 1, 0, 0.125, 0.375);
    tracer.instant(kSpans, "retry", 0, {{"batch", 7.0}});
    tracer.set_summary("retries", 1.0);
    return tracer.to_json();
  };
  EXPECT_EQ(emit(), emit());
}

TEST(Tracer, MetadataIsEmittedOncePerKey) {
  sim::Simulator sim;
  Tracer tracer(sim);
  tracer.process_name(3, "node 2");
  tracer.process_name(3, "node 2");
  tracer.thread_name(3, 1, "slice 1");
  tracer.thread_name(3, 1, "slice 1");
  EXPECT_EQ(tracer.event_count(), 2u);
}

TEST(Checker, PassesOnConsistentTrace) {
  sim::Simulator sim;
  Tracer tracer(sim);
  tracer.complete(kSpans, "busy", 1, 0, 0.0, 1.0);
  tracer.complete(kSpans, "busy", 1, 1, 0.5, 2.0);  // overlap: union 2.0
  tracer.instant(kSpans, "cold_start", 1);
  tracer.set_summary("busy_seconds", 2.0);
  tracer.set_summary("cold_starts", 1.0);
  tracer.set_summary("retries", 0.0);

  const auto parsed = parse_trace_json(tracer.to_json());
  ASSERT_TRUE(parsed.has_value());
  const auto result = check_invariants(*parsed);
  EXPECT_TRUE(result.ok) << (result.failures.empty()
                                 ? ""
                                 : result.failures.front());
  EXPECT_GE(result.checked.size(), 3u);
}

TEST(Checker, FlagsBusySecondsDrift) {
  sim::Simulator sim;
  Tracer tracer(sim);
  tracer.complete(kSpans, "busy", 1, 0, 0.0, 1.0);
  tracer.set_summary("busy_seconds", 5.0);  // collector disagrees
  const auto parsed = parse_trace_json(tracer.to_json());
  ASSERT_TRUE(parsed.has_value());
  const auto result = check_invariants(*parsed);
  EXPECT_FALSE(result.ok);
  ASSERT_FALSE(result.failures.empty());
  EXPECT_NE(result.failures.front().find("busy_seconds"), std::string::npos);
}

TEST(Checker, FlagsInstantCountMismatch) {
  sim::Simulator sim;
  Tracer tracer(sim);
  tracer.instant(kSpans, "retry", 0);
  tracer.set_summary("retries", 2.0);
  const auto parsed = parse_trace_json(tracer.to_json());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(check_invariants(*parsed).ok);
}

TEST(Checker, SkipsChecksForFilteredCategories) {
  sim::Simulator sim;
  Tracer tracer(sim, kCounters);  // spans filtered out at record time
  tracer.set_summary("busy_seconds", 5.0);
  tracer.set_summary("cold_starts", 3.0);
  const auto parsed = parse_trace_json(tracer.to_json());
  ASSERT_TRUE(parsed.has_value());
  const auto result = check_invariants(*parsed);
  EXPECT_TRUE(result.ok);  // skipped, not failed
  EXPECT_TRUE(result.checked.empty());
}

TEST(Checker, FlagsStructuralDamage) {
  // Hand-built trace with an async end that never began.
  const std::string text = R"({"traceEvents":[
    {"ph":"e","name":"queue","cat":"spans","id":"0x1","pid":0,"ts":5.0}
  ],"categories":"spans,counters,sched","collector":{}})";
  const auto parsed = parse_trace_json(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(check_invariants(*parsed).ok);
}

TEST(Parser, PidAndTidReadBackUpToTheIntLimits) {
  std::string error;
  const auto parsed = parse_trace_json(
      R"({"traceEvents":[{"ph":"i","pid":2147483647,"tid":-2147483648},)"
      R"({"ph":"i","pid":7.9,"tid":"x"}]})",
      &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_EQ(parsed->events.size(), 2u);
  EXPECT_EQ(parsed->events[0].pid, INT_MAX);
  EXPECT_EQ(parsed->events[0].tid, INT_MIN);
  EXPECT_EQ(parsed->events[1].pid, 7);  // truncates like the cast it guards
  EXPECT_EQ(parsed->events[1].tid, 0);  // not a number: the default
  EXPECT_FALSE(parse_trace_json(
                   R"({"traceEvents":[{"ph":"i","pid":2147483648}]})", &error)
                   .has_value());
  EXPECT_EQ(error, "traceEvents[0]: pid/tid out of range");
  EXPECT_FALSE(parse_trace_json(
                   R"({"traceEvents":[{},{"ph":"i","tid":-2147483649}]})",
                   &error)
                   .has_value());
  EXPECT_EQ(error, "traceEvents[1]: pid/tid out of range");
}

TEST(Parser, RejectsMalformedJson) {
  std::string error;
  EXPECT_FALSE(parse_trace_json("{", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(parse_trace_json("[]", &error).has_value());
  EXPECT_FALSE(parse_trace_json("{\"no_events\":1}", &error).has_value());
  EXPECT_FALSE(parse_trace_json("{\"traceEvents\":[]} trailing", &error)
                   .has_value());
  // Hostile inputs fail with a message instead of a crash or a cast of a
  // number no int holds.
  EXPECT_FALSE(parse_trace_json("{\"traceEvents\":" +
                                    std::string(2'000'000, '['),
                                &error)
                   .has_value());
  EXPECT_NE(error.find("nesting too deep at offset"), std::string::npos);
  EXPECT_FALSE(
      parse_trace_json(R"({"traceEvents":[{"ph":"i","ts":nan}]})", &error)
          .has_value());
  EXPECT_NE(error.find("bad literal at offset"), std::string::npos);
  EXPECT_FALSE(
      parse_trace_json(R"({"traceEvents":[{"ph":"i","pid":1e300}]})", &error)
          .has_value());
  EXPECT_EQ(error, "traceEvents[0]: pid/tid out of range");
  EXPECT_FALSE(
      parse_trace_json(R"({"traceEvents":[{"ph":"i","tid":-3e9}]})", &error)
          .has_value());
}

}  // namespace
}  // namespace protean::obs
