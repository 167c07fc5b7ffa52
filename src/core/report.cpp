#include "src/core/report.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/automaton/dot.h"
#include "src/util/string_utils.h"

namespace t2m {

namespace {

/// The one-word verdict for a failed run, sharing the flag precedence
/// between the report and the summary so the two never disagree.
const char* failure_verdict(const LearnResult& result) {
  if (result.resource_exhausted) return "out of memory";
  if (result.budget_exceeded) return "hit the clause budget";
  if (result.cancelled) return "was cancelled";
  if (result.timed_out) return "timed out";
  if (!result.status.ok()) return "failed with an error";
  return "failed";
}

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xf];
          out += kHex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

const char* json_bool(bool value) { return value ? "true" : "false"; }

/// Seconds for the human-readable lines: three decimals, but a nonzero
/// duration below a millisecond keeps two significant digits, so a run that
/// fails at once does not read "0 s".
std::string format_seconds(double seconds) {
  int digits = 3;
  if (seconds > 0 && seconds < 1e-3) {
    digits = std::min(9, 1 - static_cast<int>(std::floor(std::log10(seconds))));
  }
  return format_double(seconds, digits);
}

}  // namespace

std::string format_learn_report(const LearnResult& result, const Schema& schema) {
  std::ostringstream os;
  if (!result.success) {
    os << "learning " << failure_verdict(result) << " after "
       << format_seconds(result.stats.total_seconds) << " s\n";
    if (!result.status.ok()) os << "error: " << result.status.to_string() << "\n";
    if (result.salvaged) {
      os << "salvaged best-so-far model: " << result.states << " states, "
         << result.model.num_transitions()
         << " transitions (compliant when captured; not a full verdict)\n";
      os << to_text(result.model);
    }
    return os.str();
  }
  os << "learned model: " << result.states << " states, "
     << result.model.num_transitions() << " transitions\n";
  os << "predicate vocabulary (" << result.preds.vocab.size() << "):\n";
  const auto names = result.preds.names_for(schema);
  for (std::size_t i = 0; i < names.size(); ++i) {
    os << "  p" << i << ": " << names[i] << "\n";
  }
  os << "sequence length |P| = " << result.stats.sequence_length << ", segments = "
     << result.stats.segments << " (" << result.stats.encoded_transitions
     << " encoded transitions)\n";
  os << "SAT calls = " << result.stats.sat_calls << ", refinements = "
     << result.stats.refinements << ", state increments = "
     << result.stats.state_increments << "\n";
  os << "time: abstraction " << format_seconds(result.stats.abstraction_seconds)
     << " s, construction " << format_seconds(result.stats.construction_seconds)
     << " s, total " << format_seconds(result.stats.total_seconds) << " s\n";
  os << to_text(result.model);
  return os.str();
}

std::string format_learn_summary(const LearnResult& result) {
  std::ostringstream os;
  if (!result.success) {
    os << failure_verdict(result);
    if (result.salvaged) os << ", salvaged " << result.states << "-state model";
    os << " (" << format_seconds(result.stats.total_seconds) << " s)";
    return os.str();
  }
  os << result.states << " states, " << result.model.num_transitions()
     << " transitions, " << result.preds.vocab.size() << " predicates, "
     << format_seconds(result.stats.total_seconds) << " s";
  return os.str();
}

std::string to_json(const LearnStats& stats) {
  std::ostringstream os;
  os << "{\"sequence_length\": " << stats.sequence_length
     << ", \"vocabulary_size\": " << stats.vocabulary_size
     << ", \"segments\": " << stats.segments
     << ", \"encoded_transitions\": " << stats.encoded_transitions
     << ", \"sat_calls\": " << stats.sat_calls
     << ", \"refinements\": " << stats.refinements
     << ", \"prefix_refinements\": " << stats.prefix_refinements
     << ", \"prefix_extensions\": " << stats.prefix_extensions
     << ", \"state_increments\": " << stats.state_increments
     << ", \"forbidden_words\": " << stats.forbidden_words
     << ", \"csp_builds\": " << stats.csp_builds
     << ", \"csp_grows\": " << stats.csp_grows
     << ", \"sat_conflicts\": " << stats.sat_conflicts
     << ", \"sat_propagations\": " << stats.sat_propagations
     << ", \"sat_learned_clauses\": " << stats.sat_learned_clauses
     << ", \"sat_peak_arena_bytes\": " << stats.sat_peak_arena_bytes
     << ", \"core_stops\": " << stats.core_stops
     << ", \"encoding_fingerprint\": " << stats.encoding_fingerprint
     << ", \"accounted_peak_bytes\": " << stats.accounted_peak_bytes
     << ", \"acceptance_relaxed\": " << json_bool(stats.acceptance_relaxed)
     << ", \"abstraction_seconds\": " << format_double(stats.abstraction_seconds, 6)
     << ", \"construction_seconds\": " << format_double(stats.construction_seconds, 6)
     << ", \"total_seconds\": " << format_double(stats.total_seconds, 6) << "}";
  return os.str();
}

std::string to_json(const LearnResult& result) {
  std::ostringstream os;
  os << "{\"success\": " << json_bool(result.success)
     << ", \"timed_out\": " << json_bool(result.timed_out)
     << ", \"cancelled\": " << json_bool(result.cancelled)
     << ", \"budget_exceeded\": " << json_bool(result.budget_exceeded)
     << ", \"resource_exhausted\": " << json_bool(result.resource_exhausted)
     << ", \"salvaged\": " << json_bool(result.salvaged)
     << ", \"states\": " << result.states
     << ", \"transitions\": " << result.model.num_transitions()
     << ", \"predicates\": " << result.preds.vocab.size();
  if (!result.status.ok()) {
    os << ", \"error\": \"" << json_escape(result.status.to_string()) << "\"";
  }
  os << ", \"stats\": " << to_json(result.stats) << "}";
  return os.str();
}

void write_bench_stats_fields(std::ostream& os, const LearnStats& stats) {
  os << ", \"sat_calls\": " << stats.sat_calls
     << ", \"sat_conflicts\": " << stats.sat_conflicts
     << ", \"sat_propagations\": " << stats.sat_propagations
     << ", \"peak_clause_arena_bytes\": " << stats.sat_peak_arena_bytes
     << ", \"csp_builds\": " << stats.csp_builds
     << ", \"csp_grows\": " << stats.csp_grows;
}

}  // namespace t2m
