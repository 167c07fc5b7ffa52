#include "layers.h"

#include <algorithm>
#include <cmath>
#include <string_view>

#include "src/obs/json.h"
#include "src/obs/validate.h"

namespace perfbench {

namespace {

/// Chrome trace timestamps are microseconds with nanosecond decimals.
std::int64_t to_ns(double us) { return std::llround(us * 1000.0); }

double seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Every per-layer metric, so each is reported even where its layer does
/// not run (as 0).
const char* const kLayerMetrics[] = {
    "trace.read_s",       "abstraction.s",          "segmentation.s",
    "compliance.build_s", "ingest.s",               "search.s",
    "search.self_s",      "search.accounted_frac",  "solve.sat_s",
    "solve.unsat_s",      "solve.unsat_last_s",     "solve.unknown_s",
    "solve.calls",        "solve.conflicts",        "solve.propagations",
    "solve.props_per_s",  "encode.s",               "encode.builds",
    "encode.grows",       "encode.peak_arena_mb",   "compliance.check_s",
    "compliance.checks",  "refine.acceptance_s",    "refine.acceptance_blocks",
    "refine.block_frac",  "refine.relaxed",         "refine.forbidden_words",
};

}  // namespace

t2m::Status load_spans(const std::string& json, std::vector<TraceSpan>& out) {
  out.clear();
  t2m::Status status = t2m::obs::validate_trace_json(json);
  if (!status.ok()) return status;
  t2m::obs::JsonValue doc;
  status = t2m::obs::parse_json(json, doc);
  if (!status.ok()) return status;

  for (const t2m::obs::JsonValue& ev : doc.find("traceEvents")->array) {
    const auto* ph = ev.find("ph");
    if (ph == nullptr || ph->string != "X") continue;
    TraceSpan span;
    span.name = ev.find("name")->string;
    span.track = static_cast<std::uint32_t>(ev.find("tid")->number);
    span.start_ns = to_ns(ev.find("ts")->number);
    span.dur_ns = to_ns(ev.find("dur")->number);
    if (const auto* args = ev.find("args"); args != nullptr && args->is_object()) {
      if (const auto* v = args->find("result"); v != nullptr && v->is_string()) {
        span.result = v->string;
      }
      if (const auto* v = args->find("n"); v != nullptr && v->is_number()) {
        span.n = static_cast<std::int64_t>(v->number);
      }
      if (const auto* v = args->find("compliant"); v != nullptr && v->is_number()) {
        span.compliant = static_cast<std::int64_t>(v->number);
      }
    }
    out.push_back(std::move(span));
  }

  // Validation guarantees laminar nesting per track, so a stack walk in
  // (start ascending, duration descending) order finds every parent.
  std::vector<int> order(out.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&out](int a, int b) {
    const TraceSpan& x = out[static_cast<std::size_t>(a)];
    const TraceSpan& y = out[static_cast<std::size_t>(b)];
    if (x.track != y.track) return x.track < y.track;
    if (x.start_ns != y.start_ns) return x.start_ns < y.start_ns;
    return x.dur_ns > y.dur_ns;
  });
  std::vector<int> stack;
  for (const int i : order) {
    TraceSpan& span = out[static_cast<std::size_t>(i)];
    while (!stack.empty()) {
      const TraceSpan& top = out[static_cast<std::size_t>(stack.back())];
      if (top.track == span.track && span.start_ns + span.dur_ns <= top.start_ns + top.dur_ns) {
        break;
      }
      stack.pop_back();
    }
    if (!stack.empty()) {
      span.parent = stack.back();
      out[static_cast<std::size_t>(span.parent)].child_ns += span.dur_ns;
    }
    stack.push_back(i);
  }
  return t2m::Status::Ok();
}

void LayerLedger::add_case(const std::vector<TraceSpan>& spans,
                           const t2m::LearnResult& result) {
  auto& m = sums_;
  const std::int64_t last_unsat_n =
      result.success ? static_cast<std::int64_t>(result.states) - 1 : -2;
  double scan_s = 0.0;
  double drain_s = 0.0;
  double compliance_failures = 0.0;
  for (const TraceSpan& span : spans) {
    const std::string_view name = span.name;
    const double d = seconds(span.dur_ns);
    if (name == kSpanRead) {
      m["trace.read_s"] += d;
      m["ingest.s"] += d;
    } else if (name == kSpanAbstract) {
      m["abstraction.s"] += d;
      m["ingest.s"] += d;
    } else if (name == "segment.sequence") {
      m["segmentation.s"] += d;
      m["ingest.s"] += d;
    } else if (name == kSpanLearnSeq) {
      // What learn_from_sequence does besides segmenting and searching is
      // building the trace window set P_l.
      m["compliance.build_s"] += seconds(span.self_ns());
      m["ingest.s"] += seconds(span.self_ns());
    } else if (name == "ingest.stream_pass") {
      m["ingest.s"] += d;
    } else if (name == kSpanProbeScan) {
      scan_s += d;
    } else if (name == kSpanProbeDrain) {
      drain_s += d;
    } else if (name == kSpanProbeSegment) {
      m["segmentation.s"] += d;
    } else if (name == kSpanProbeWindows) {
      m["compliance.build_s"] += d;
    } else if (name == "learn.run") {
      m["search.s"] += d;
      m["search.self_s"] += seconds(span.self_ns());
    } else if (name == "learn.solve") {
      m["solve.calls"] += 1;
      if (span.result == "sat") {
        m["solve.sat_s"] += d;
        m["solve.sat_calls"] += 1;
      } else if (span.result == "unsat") {
        m["solve.unsat_s"] += d;
        if (span.n == last_unsat_n) m["solve.unsat_last_s"] += d;
      } else {
        m["solve.unknown_s"] += d;
      }
    } else if (name == "learn.build_csp" || name == "learn.grow") {
      m["encode.s"] += d;
    } else if (name == "compliance.check") {
      m["compliance.check_s"] += d;
      m["compliance.checks"] += 1;
      if (span.compliant == 0) compliance_failures += 1;
    } else if (name == "learn.acceptance") {
      m["refine.acceptance_s"] += d;
    }
  }
  if (drain_s > 0.0) {
    // The probes split the stream pass: reading alone, then reading plus
    // the event abstraction.
    m["trace.read_s"] += scan_s;
    m["abstraction.s"] += std::max(0.0, drain_s - scan_s);
  }

  const t2m::LearnStats& stats = result.stats;
  m["solve.conflicts"] += static_cast<double>(stats.sat_conflicts);
  m["solve.propagations"] += static_cast<double>(stats.sat_propagations);
  m["encode.builds"] += static_cast<double>(stats.csp_builds);
  m["encode.grows"] += static_cast<double>(stats.csp_grows);
  m["refine.relaxed"] += stats.acceptance_relaxed ? 1 : 0;
  m["refine.forbidden_words"] += static_cast<double>(stats.forbidden_words);
  // Refinements are compliance failures plus acceptance-blocked candidates.
  m["refine.acceptance_blocks"] +=
      std::max(0.0, static_cast<double>(stats.refinements) - compliance_failures);
  peak_arena_mb_ = std::max(peak_arena_mb_,
                            static_cast<double>(stats.sat_peak_arena_bytes) / (1 << 20));
}

std::map<std::string, double> LayerLedger::metrics() const {
  std::map<std::string, double> out;
  for (const char* name : kLayerMetrics) out[name] = 0.0;
  for (const auto& [name, value] : sums_) {
    if (out.count(name) != 0) out[name] = value;
  }
  const auto get = [this](const char* name) {
    const auto it = sums_.find(name);
    return it == sums_.end() ? 0.0 : it->second;
  };
  const double solve_s = get("solve.sat_s") + get("solve.unsat_s") + get("solve.unknown_s");
  out["solve.props_per_s"] = solve_s > 0 ? get("solve.propagations") / solve_s : 0.0;
  const double sat_calls = get("solve.sat_calls");
  out["refine.block_frac"] = sat_calls > 0 ? get("refine.acceptance_blocks") / sat_calls : 0.0;
  const double search_s = get("search.s");
  out["search.accounted_frac"] = search_s > 0 ? 1.0 - get("search.self_s") / search_s : 0.0;
  out["encode.peak_arena_mb"] = peak_arena_mb_;
  return out;
}

std::string layer_unit(const std::string& metric) {
  const auto ends_with = [&metric](std::string_view suffix) {
    return metric.size() >= suffix.size() &&
           metric.compare(metric.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  if (ends_with("per_s")) return "1/s";
  if (ends_with("_s") || ends_with(".s")) return "s";
  if (ends_with("_mb")) return "MB";
  if (ends_with("_frac")) return "fraction";
  return "count";
}

}  // namespace perfbench
