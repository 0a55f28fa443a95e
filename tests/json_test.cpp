// Tests for the JSON writer, report serialization, and the shared reader
// (common/json_reader.h) that reads the writer's output back.
#include "harness/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/json_reader.h"

namespace protean::harness {
namespace {

TEST(Json, Scalars) {
  EXPECT_EQ(Json(nullptr).dump(), "null");
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(false).dump(), "false");
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json(3.5).dump(), "3.5");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");
}

TEST(Json, IntegersStayIntegers) {
  EXPECT_EQ(Json(1000000.0).dump(), "1000000");
  EXPECT_EQ(Json(std::uint64_t{123456789}).dump(), "123456789");
}

TEST(Json, NonFiniteNumbersBecomeNull) {
  EXPECT_EQ(Json(std::nan("")).dump(), "null");
  EXPECT_EQ(Json(1.0 / 0.0).dump(), "null");
}

TEST(Json, EscapesStrings) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(json_escape("tab\there"), "tab\\there");
  EXPECT_EQ(json_escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(Json, ArraysAndObjectsCompact) {
  Json::Array arr{Json(1), Json("two"), Json(nullptr)};
  EXPECT_EQ(Json(arr).dump(), "[1,\"two\",null]");

  Json::Object obj;
  obj.emplace_back("a", Json(1));
  obj.emplace_back("b", Json(Json::Array{Json(2)}));
  EXPECT_EQ(Json(std::move(obj)).dump(), "{\"a\":1,\"b\":[2]}");
}

TEST(Json, IndentedOutputIsStable) {
  Json::Object obj;
  obj.emplace_back("x", Json(1));
  const std::string out = Json(std::move(obj)).dump(2);
  EXPECT_EQ(out, "{\n  \"x\": 1\n}");
}

TEST(Json, EmptyContainers) {
  EXPECT_EQ(Json(Json::Array{}).dump(), "[]");
  EXPECT_EQ(Json(Json::Object{}).dump(), "{}");
  EXPECT_EQ(Json(Json::Array{}).dump(2), "[]");
}

TEST(Json, ObjectPreservesInsertionOrder) {
  Json::Object obj;
  obj.emplace_back("z", Json(1));
  obj.emplace_back("a", Json(2));
  EXPECT_EQ(Json(std::move(obj)).dump(), "{\"z\":1,\"a\":2}");
}

TEST(ReportJson, ContainsKeyFields) {
  Report report;
  report.scheme = "PROTEAN";
  report.strict_model = "ResNet 50";
  report.slo_compliance_pct = 99.5;
  report.strict_p99_ms = 289.0;
  const std::string out = report_to_json(report).dump();
  EXPECT_NE(out.find("\"scheme\":\"PROTEAN\""), std::string::npos);
  EXPECT_NE(out.find("\"slo_compliance_pct\":99.5"), std::string::npos);
  EXPECT_NE(out.find("\"strict_p99_ms\":289"), std::string::npos);
  EXPECT_NE(out.find("tail_breakdown"), std::string::npos);
}

TEST(ReportJson, PercentilesOnlyWithSamples) {
  Report report;
  EXPECT_EQ(report_to_json(report).dump().find("latency_percentiles"),
            std::string::npos);
  report.strict_latencies = {0.1f, 0.2f, 0.3f};
  EXPECT_NE(report_to_json(report).dump().find("latency_percentiles"),
            std::string::npos);
}

TEST(ReportJson, BatchSerializationIncludesConfig) {
  ExperimentConfig config = primary_config("ResNet 50", 30.0);
  std::vector<Report> reports(2);
  reports[0].scheme = "A";
  reports[1].scheme = "B";
  const std::string out = reports_to_json(config, reports).dump();
  EXPECT_NE(out.find("\"config\""), std::string::npos);
  EXPECT_NE(out.find("\"results\""), std::string::npos);
  EXPECT_NE(out.find("\"target_rps\":5000"), std::string::npos);
  EXPECT_NE(out.find("\"scheme\":\"A\""), std::string::npos);
  EXPECT_NE(out.find("\"scheme\":\"B\""), std::string::npos);
}

// --- reader ---------------------------------------------------------------

/// Rebuilds a writer value from a parsed one so a parse can be re-dumped.
Json rewrite(const JsonValue& v) {
  switch (v.kind) {
    case JsonValue::Kind::kNull: return Json(nullptr);
    case JsonValue::Kind::kBool: return Json(v.boolean);
    case JsonValue::Kind::kNumber: return Json(v.number);
    case JsonValue::Kind::kString: return Json(v.string);
    case JsonValue::Kind::kArray: {
      Json::Array a;
      for (const JsonValue& e : v.array) a.push_back(rewrite(e));
      return Json(std::move(a));
    }
    case JsonValue::Kind::kObject: {
      Json::Object o;
      for (const auto& [k, e] : v.object) o.emplace_back(k, rewrite(e));
      return Json(std::move(o));
    }
  }
  return Json();
}

/// Parsing `text` and dumping the result again reproduces `text`.
void expect_round_trip(const std::string& text, int indent) {
  std::string error;
  const std::optional<JsonValue> parsed = parse_json(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(rewrite(*parsed).dump(indent), text);
}

Report attributed_report() {
  Report report;
  report.scheme = "PROTEAN";
  report.strict_model = "ResNet \"50\"\n\x01";
  report.slo_compliance_pct = 97.123456789;
  report.strict_p99_ms = 1.0 / 3.0;
  report.cost_usd = 1e-7;
  report.strict_latencies = {0.1f, 0.25f, 0.3f};
  auto& attr = report.attribution;
  attr.enabled = true;
  attr.requests = 123456789012ULL;
  attr.violations = 42;
  attr.dominant_cause = "queue";
  attr.causes.push_back({"queue", 40, 12.5, 0.003, 2.5e3});
  attr.causes.push_back({"cold_boot", 2, 1e20, -0.0, 0.1});
  attr.groups.push_back({"ResNet 50", 3, true, 1000, 42, "queue"});
  attr.groups.push_back({"BERT", 0, false, 7, 0, ""});
  return report;
}

TEST(JsonReader, ReportRoundTripsThroughWriter) {
  const Json json = report_to_json(attributed_report());
  ASSERT_NE(json.dump().find("\"attribution\""), std::string::npos);
  expect_round_trip(json.dump(), 0);
  expect_round_trip(json.dump(2), 2);
}

TEST(JsonReader, SweepRoundTripsThroughWriter) {
  SweepConfig sweep;
  sweep.base = primary_config("ResNet 50", 30.0);
  sweep.schemes = {sched::Scheme::kProtean};
  sweep.replications = 2;
  sweep.axis.param = SweepAxis::Param::kRps;
  sweep.axis.lo = 1000.0;
  sweep.axis.hi = 1500.0;
  sweep.axis.step = 500.0;
  std::vector<Report> per_seed = {attributed_report(), attributed_report()};
  per_seed[1].slo_compliance_pct = 88.8;
  const std::vector<AggregateReport> cells = {
      aggregate_reports(per_seed, {1, 2})};
  const Json json = aggregates_to_json(sweep, cells);
  expect_round_trip(json.dump(), 0);
  expect_round_trip(json.dump(2), 2);
}

TEST(JsonReader, EveryEscapedStringReadsBack) {
  std::string all_bytes;
  for (int c = 0; c < 256; ++c) all_bytes += static_cast<char>(c);
  EXPECT_NE(json_escape(all_bytes).find("\\u001f"), std::string::npos);
  for (const std::string& text :
       {all_bytes, std::string("a\"b\\c\nd\re\tf"), std::string()}) {
    std::string error;
    const auto parsed = parse_json("\"" + json_escape(text) + "\"", &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(parsed->string, text);
  }
}

TEST(JsonReader, DecodesUnicodeEscapesToUtf8) {
  EXPECT_EQ(parse_json(R"("\u00e9\u20ac")")->string, "\xc3\xa9\xe2\x82\xac");
  EXPECT_EQ(parse_json(R"("\ud83d\ude00")")->string, "\xf0\x9f\x98\x80");
  EXPECT_FALSE(parse_json(R"("\udc00")").has_value());
  EXPECT_FALSE(parse_json(R"("\ud83dx")").has_value());
}

TEST(JsonReader, NumbersKeepStrtodBits) {
  for (const char* text : {"0", "-0", "0.1", "1e-7", "-12.5e+3",
                           "2.2250738585072014e-308", "1e300"}) {
    const auto parsed = parse_json(text);
    ASSERT_TRUE(parsed.has_value()) << text;
    const double expected = std::strtod(text, nullptr);
    EXPECT_EQ(std::memcmp(&parsed->number, &expected, sizeof(double)), 0)
        << text;
  }
}

TEST(JsonReader, MalformedInputFailsWithOffset) {
  const std::pair<std::string, std::string> cases[] = {
      {R"({"a":[1,2)", "expected ',' or ']' in array at offset 9"},
      {R"({"a":"x)", "unterminated string at offset 7"},
      {"", "unexpected end of input at offset 0"},
      {R"({"a":1} x)", "trailing characters after document at offset 8"},
      {R"(["\q"])", "bad escape at offset 2"},
      {R"(["\u12g4"])", "bad \\u escape at offset 2"},
      {"[tru]", "bad literal at offset 1"},
      {"nan", "bad literal at offset 0"},
      {"inf", "expected value at offset 0"},
      {"+1", "expected value at offset 0"},
      {"0x1", "bad number at offset 1"},
      {"01", "bad number at offset 1"},
      {"1.", "bad number at offset 2"},
      {"1e", "bad number at offset 2"},
      {"[1e400]", "number out of range at offset 1"},
      {"\"a\tb\"", "control character in string at offset 2"},
      {std::string(2'000'000, '['), "nesting too deep at offset 256"},
  };
  for (const auto& [text, message] : cases) {
    std::string error;
    EXPECT_FALSE(parse_json(text, &error).has_value()) << text;
    EXPECT_EQ(error, message) << text.substr(0, 20);
  }
}

TEST(JsonReader, ParsesLiteralsEmptyContainersAndWhitespace) {
  const auto parsed =
      parse_json(" \r\n\t{ \"t\" : true ,\"f\":false,\"n\" :null,"
                 "\"a\":[ ],\"o\":{ } ,\"s\":\"\"}\n");
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->kind, JsonValue::Kind::kObject);
  ASSERT_EQ(parsed->object.size(), 6u);
  EXPECT_EQ(parsed->find("t")->kind, JsonValue::Kind::kBool);
  EXPECT_TRUE(parsed->find("t")->boolean);
  EXPECT_EQ(parsed->find("f")->kind, JsonValue::Kind::kBool);
  EXPECT_FALSE(parsed->find("f")->boolean);
  EXPECT_EQ(parsed->find("n")->kind, JsonValue::Kind::kNull);
  EXPECT_EQ(parsed->find("a")->kind, JsonValue::Kind::kArray);
  EXPECT_TRUE(parsed->find("a")->array.empty());
  EXPECT_EQ(parsed->find("o")->kind, JsonValue::Kind::kObject);
  EXPECT_TRUE(parsed->find("o")->object.empty());
  EXPECT_EQ(parsed->find("s")->kind, JsonValue::Kind::kString);
  EXPECT_TRUE(parsed->find("s")->string.empty());
}

TEST(JsonReader, MalformedObjectsAndArraysFailWithOffset) {
  const std::pair<std::string, std::string> cases[] = {
      {"{1:2}", "expected string at offset 1"},
      {R"({"a" 1})", "expected ':' in object at offset 5"},
      {R"({"a":1 "b":2})", "expected ',' or '}' in object at offset 7"},
      {R"({"a":1,})", "expected string at offset 7"},
      {"[1,]", "expected value at offset 3"},
      {"[1 2]", "expected ',' or ']' in array at offset 3"},
      {"{", "expected string at offset 1"},
  };
  for (const auto& [text, message] : cases) {
    std::string error;
    EXPECT_FALSE(parse_json(text, &error).has_value()) << text;
    EXPECT_EQ(error, message) << text;
  }
}

TEST(JsonReader, DepthLimitCountsOpenContainersOnly) {
  // Siblings do not add depth: many containers side by side at one level
  // parse, however many there are.
  std::string wide = "[";
  for (int i = 0; i < 4 * kMaxJsonDepth; ++i) wide += i == 0 ? "[{}]" : ",[{}]";
  wide += "]";
  const auto parsed = parse_json(wide);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->array.size(), static_cast<std::size_t>(4 * kMaxJsonDepth));
  // Objects and arrays count toward the same limit.
  std::string mixed;
  for (int i = 0; i < kMaxJsonDepth / 2; ++i) mixed += "{\"a\":[";
  const std::size_t too_deep_at = mixed.size();
  mixed += "{}";
  std::string error;
  EXPECT_FALSE(parse_json(mixed, &error).has_value());
  EXPECT_EQ(error, "nesting too deep at offset " + std::to_string(too_deep_at));
}

TEST(JsonReader, NestingUpToTheLimitParses) {
  const std::size_t depth = static_cast<std::size_t>(kMaxJsonDepth);
  EXPECT_TRUE(parse_json(std::string(depth, '[') + std::string(depth, ']'))
                  .has_value());
}

TEST(JsonReader, FindReturnsFirstMemberInDocumentOrder) {
  const auto parsed = parse_json(R"({"b":1,"a":2,"b":3})");
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->object.size(), 3u);
  EXPECT_EQ(parsed->object[1].first, "a");
  EXPECT_EQ(parsed->find("b")->number, 1.0);
  EXPECT_EQ(parsed->find("c"), nullptr);
  EXPECT_EQ(parse_json("[1]")->find("b"), nullptr);
}

}  // namespace
}  // namespace protean::harness
