#include "attr/explain.h"

#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <utility>

#include "attr/attribution.h"
#include "common/json_reader.h"

namespace protean::attr {
namespace {

using Kind = JsonValue::Kind;

/// Reads the count fields of one artifact. Missing, non-numeric and
/// negative values count as zero; a number that rounds above `max` clears
/// `ok` instead of reaching the cast, whose result would be undefined.
struct CountReader {
  bool ok = true;

  std::uint64_t operator()(const JsonValue* v,
                           std::uint64_t max = UINT64_MAX) {
    if (v == nullptr || v->kind != Kind::kNumber || v->number < 0.0) {
      return 0;
    }
    const double rounded = v->number + 0.5;
    if (!(rounded < static_cast<double>(max) + 1.0)) {
      ok = false;
      return 0;
    }
    return static_cast<std::uint64_t>(rounded);
  }
};

/// Parses `text` as one JSON document; on failure says in `error` which
/// artifact (`what`) was malformed and where.
std::optional<JsonValue> parse_artifact(const std::string& text,
                                        const char* what, std::string& error) {
  std::string why;
  std::optional<JsonValue> root = parse_json(text, &why);
  if (!root) error = std::string("malformed ") + what + ": " + why;
  return root;
}

constexpr const char* kCountOutOfRange = "a count is out of range";

// --- reductions per artifact kind -----------------------------------------

void finalize(RunExplanation& run) {
  std::stable_sort(run.causes.begin(), run.causes.end(),
                   [](const CauseRow& a, const CauseRow& b) {
                     return a.violations > b.violations;
                   });
  for (CauseRow& row : run.causes) {
    row.share_pct = run.violations > 0
                        ? 100.0 * static_cast<double>(row.violations) /
                              static_cast<double>(run.violations)
                        : 0.0;
  }
  if (run.dominant.empty() || run.dominant == "none") {
    run.dominant = !run.causes.empty() && run.causes.front().violations > 0
                       ? run.causes.front().cause
                       : "none";
  }
}

void reduce_attribution_block(const JsonValue& block, const char* label,
                              CountReader& count, RunExplanation& run) {
  run.label = label;
  run.requests = count(block.find("requests"));
  run.violations = count(block.find("violations"));
  run.identity_violations = count(block.find("identity_violations"));
  run.negative_clamps = count(block.find("negative_component_clamps"));
  if (const JsonValue* d = block.find("dominant_cause");
      d != nullptr && d->kind == Kind::kString) {
    run.dominant = d->string;
  }
  if (const JsonValue* causes = block.find("causes");
      causes != nullptr && causes->kind == Kind::kArray) {
    for (const JsonValue& c : causes->array) {
      CauseRow row;
      if (const JsonValue* name = c.find("cause");
          name != nullptr && name->kind == Kind::kString) {
        row.cause = name->string;
      }
      row.violations = count(c.find("violations"));
      if (const JsonValue* s = c.find("seconds")) {
        row.seconds = s->kind == Kind::kNumber ? s->number : -1.0;
      }
      run.causes.push_back(std::move(row));
    }
  }
  if (const JsonValue* groups = block.find("groups");
      groups != nullptr && groups->kind == Kind::kArray) {
    for (const JsonValue& g : groups->array) {
      ExplainGroup group;
      if (const JsonValue* m = g.find("model");
          m != nullptr && m->kind == Kind::kString) {
        group.model = m->string;
      }
      group.shard = static_cast<int>(count(g.find("shard"), INT_MAX));
      if (const JsonValue* s = g.find("strict")) {
        group.strict = s->kind == Kind::kBool && s->boolean;
      }
      group.requests = count(g.find("requests"));
      group.violations = count(g.find("violations"));
      if (const JsonValue* d = g.find("dominant");
          d != nullptr && d->kind == Kind::kString) {
        group.dominant = d->string;
      }
      run.groups.push_back(std::move(group));
    }
  }
  finalize(run);
}

/// Walks the run/sweep JSON tree collecting every report object that
/// carries an `attribution` block, labelling it with the nearest sibling
/// `scheme` string.
void collect_run_json(const JsonValue& node, const std::string& scheme,
                      CountReader& count, std::vector<RunExplanation>& out) {
  if (node.kind == Kind::kArray) {
    for (const JsonValue& child : node.array) {
      collect_run_json(child, scheme, count, out);
    }
    return;
  }
  if (node.kind != Kind::kObject) return;
  std::string label = scheme;
  if (const JsonValue* s = node.find("scheme");
      s != nullptr && s->kind == Kind::kString) {
    label = s->string;
  }
  if (const JsonValue* block = node.find("attribution");
      block != nullptr && block->kind == Kind::kObject) {
    RunExplanation run;
    reduce_attribution_block(*block, label.empty() ? "run" : label.c_str(),
                             count, run);
    out.push_back(std::move(run));
  }
  for (const auto& [key, child] : node.object) {
    if (key == "attribution") continue;
    collect_run_json(child, label, count, out);
  }
}

bool explain_run_json(const std::string& text,
                      std::vector<RunExplanation>& out, std::string& error) {
  const std::optional<JsonValue> root = parse_artifact(text, "run JSON", error);
  if (!root) return false;
  CountReader count;
  collect_run_json(*root, "", count, out);
  if (!count.ok) {
    error = kCountOutOfRange;
    return false;
  }
  if (out.empty()) {
    error = "run JSON has no attribution blocks (was the run --attr on?)";
    return false;
  }
  return true;
}

bool explain_trace_json(const std::string& text,
                        std::vector<RunExplanation>& out,
                        std::string& error) {
  const std::optional<JsonValue> root =
      parse_artifact(text, "trace JSON", error);
  if (!root) return false;
  const JsonValue* summary = root->find("collector");
  if (summary == nullptr || summary->kind != Kind::kObject) {
    error = "trace file has no collector summary";
    return false;
  }
  RunExplanation run;
  run.label = "trace";
  CountReader count;
  bool any = false;
  for (const auto& [key, value] : summary->object) {
    if (key == "attr_requests") {
      run.requests = count(&value);
      any = true;
    } else if (key == "attr_violations") {
      run.violations = count(&value);
      any = true;
    } else if (key == "attr_identity_violations") {
      run.identity_violations = count(&value);
      any = true;
    } else if (key == "negative_component_clamps") {
      run.negative_clamps = count(&value);
    } else if (key.rfind("attr_cause_", 0) == 0) {
      CauseRow row;
      row.cause = key.substr(std::strlen("attr_cause_"));
      row.violations = count(&value);
      run.causes.push_back(std::move(row));
      any = true;
    }
  }
  if (!count.ok) {
    error = kCountOutOfRange;
    return false;
  }
  if (!any) {
    error = "trace summary has no attr_* keys (was the run --attr on?)";
    return false;
  }
  finalize(run);
  out.push_back(std::move(run));
  return true;
}

bool explain_telemetry_jsonl(const std::string& text,
                             std::vector<RunExplanation>& out,
                             std::string& error) {
  // The counters are monotone, so the *last* sample of each attr series is
  // the finished-run value; the final scrape snapshots them all.
  RunExplanation run;
  run.label = "telemetry";
  std::vector<std::pair<std::string, std::uint64_t>> last;  // cause -> count
  CountReader count;
  bool any = false;
  std::size_t begin = 0;
  while (begin < text.size()) {
    std::size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(begin, end - begin);
    begin = end + 1;
    if (line.empty()) continue;
    const std::optional<JsonValue> obj =
        parse_artifact(line, "JSONL line", error);
    if (!obj) return false;
    const JsonValue* metrics = obj->find("metrics");
    if (metrics == nullptr || metrics->kind != Kind::kObject) continue;
    for (const auto& [name, value] : metrics->object) {
      if (name == "attr_requests_total") {
        run.requests = count(&value);
        any = true;
      } else if (name == "attr_identity_violations_total") {
        run.identity_violations = count(&value);
        any = true;
      } else if (name == "attr_negative_clamps_total") {
        run.negative_clamps = count(&value);
      } else if (name.rfind("attr_violations_total{cause=\"", 0) == 0) {
        const std::size_t open = name.find('"') + 1;
        const std::size_t close = name.find('"', open);
        if (close == std::string::npos) continue;
        const std::string cause = name.substr(open, close - open);
        bool found = false;
        for (auto& [k, v] : last) {
          if (k == cause) {
            v = count(&value);
            found = true;
            break;
          }
        }
        if (!found) last.emplace_back(cause, count(&value));
        any = true;
      }
    }
  }
  if (!count.ok) {
    error = kCountOutOfRange;
    return false;
  }
  if (!any) {
    error = "JSONL has no attr_* series (was the run --attr on?)";
    return false;
  }
  // The per-cause lanes partition the violations exactly, so the total is
  // their sum — this is the count slo_explain cross-checks against the
  // report.
  run.violations = 0;
  for (const auto& [cause, value] : last) {
    CauseRow row;
    row.cause = cause;
    row.violations = value;
    run.violations += row.violations;
    run.causes.push_back(std::move(row));
  }
  finalize(run);
  out.push_back(std::move(run));
  return true;
}

}  // namespace

SourceKind sniff_source(const std::string& text) {
  std::size_t i = 0;
  while (i < text.size() &&
         (text[i] == ' ' || text[i] == '\t' || text[i] == '\n' ||
          text[i] == '\r')) {
    ++i;
  }
  if (i >= text.size() || text[i] != '{') return SourceKind::kUnknown;
  // The JSONL timeline's every line starts {"t": — cheap and unambiguous.
  if (text.compare(i, 5, "{\"t\":") == 0) return SourceKind::kTelemetryJsonl;
  if (text.find("\"traceEvents\"") != std::string::npos) {
    return SourceKind::kTraceJson;
  }
  return SourceKind::kRunJson;
}

bool explain_text(const std::string& text, std::vector<RunExplanation>& out,
                  std::string& error) {
  switch (sniff_source(text)) {
    case SourceKind::kTelemetryJsonl:
      return explain_telemetry_jsonl(text, out, error);
    case SourceKind::kTraceJson:
      return explain_trace_json(text, out, error);
    case SourceKind::kRunJson:
      return explain_run_json(text, out, error);
    case SourceKind::kUnknown:
      break;
  }
  error = "unrecognized artifact (expected run JSON, telemetry JSONL, or "
          "a trace file)";
  return false;
}

std::string render_explanations(const std::vector<RunExplanation>& runs,
                                const ExplainFilter& filter) {
  std::string out;
  char buf[256];
  for (const RunExplanation& run : runs) {
    std::snprintf(buf, sizeof(buf), "run: %s\n", run.label.c_str());
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  "  requests %llu  strict violations %llu  dominant %s\n",
                  static_cast<unsigned long long>(run.requests),
                  static_cast<unsigned long long>(run.violations),
                  run.dominant.c_str());
    out += buf;
    std::snprintf(
        buf, sizeof(buf),
        "  identity violations %llu  negative component clamps %llu\n",
        static_cast<unsigned long long>(run.identity_violations),
        static_cast<unsigned long long>(run.negative_clamps));
    out += buf;
    if (run.violations == 0) {
      out += "  no SLO violations — nothing to attribute\n";
    } else {
      out += "  ranked root causes:\n";
      std::size_t shown = 0;
      for (const CauseRow& row : run.causes) {
        if (row.violations == 0) continue;
        if (filter.top > 0 && shown >= filter.top) {
          out += "    ...\n";
          break;
        }
        ++shown;
        std::snprintf(buf, sizeof(buf), "    %2zu. %-13s %10llu  %5.1f%%",
                      shown, row.cause.c_str(),
                      static_cast<unsigned long long>(row.violations),
                      row.share_pct);
        out += buf;
        if (row.seconds >= 0.0) {
          std::snprintf(buf, sizeof(buf), "  (%.3f s total)", row.seconds);
          out += buf;
        }
        out += '\n';
      }
    }
    bool header = false;
    for (const ExplainGroup& group : run.groups) {
      if (!filter.model.empty() && group.model != filter.model) continue;
      if (filter.shard >= 0 && group.shard != filter.shard) continue;
      if (filter.strict >= 0 && group.strict != (filter.strict != 0)) {
        continue;
      }
      if (!header) {
        out += "  groups (model x shard x class):\n";
        header = true;
      }
      std::snprintf(buf, sizeof(buf),
                    "    %-16s shard %-3d %-6s req %-10llu viol %-8llu",
                    group.model.c_str(), group.shard,
                    group.strict ? "strict" : "be",
                    static_cast<unsigned long long>(group.requests),
                    static_cast<unsigned long long>(group.violations));
      out += buf;
      if (group.violations > 0 && !group.dominant.empty()) {
        out += " dominant ";
        out += group.dominant;
      }
      out += '\n';
    }
  }
  return out;
}

}  // namespace protean::attr
