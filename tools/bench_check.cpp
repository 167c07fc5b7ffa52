// Compares BENCH_results.json files against a committed baseline and fails
// (exit 1) on regressions, so CI catches a hot-path slowdown before merge.
//
//   bench_check --baseline bench/BENCH_baseline.json RESULTS.json [MORE.json...]
//       [--max-wall-regress 0.25]   fail when wall_seconds grows by >25%
//       [--max-conflict-factor 2.0] fail when sat_conflicts more than doubles
//       [--min-wall 0.05]           ignore wall checks below this many seconds
//
// A baseline entry carrying "wall_exempt": true opts out of the wall-clock
// gate only (used for IO-bound benches whose absolute time is dominated by
// the recording machine's disk, e.g. stream_ingest); its conflict and
// timeout gates still apply.
//
// When both the baseline entry and the result carry a nonzero "fingerprint"
// (the clause-database hash of the CSP behind the run's verdict,
// LearnStats::encoding_fingerprint), they must match exactly: the
// fingerprint is machine-independent, so any drift means the encoder
// changed the emitted clauses or the search ended on a different database.
//
// A baseline entry carrying a nested "metrics" snapshot (the full-stats
// object BenchResultsJson appends as the last field of each line) requires
// the result entry to carry one too — the presence gate that keeps the
// observability plumbing wired into the bench emitters.
//
// Reads only the fixed one-record-per-line format BenchResultsJson emits;
// this is a tripwire for our own artefacts, not a general JSON parser.
// Wall-clock on shared CI runners is noisy, hence the absolute floor and the
// generous default tolerance; conflict counts are machine-independent and
// catch search-quality regressions the timings hide.

#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/util/cli.h"
#include "src/util/string_utils.h"

namespace {

struct Record {
  double wall_seconds = 0.0;
  std::uint64_t sat_conflicts = 0;
  bool timed_out = false;
  bool budget_exceeded = false;
  bool resource_exhausted = false;
  bool salvaged = false;
  bool wall_exempt = false;
  std::uint64_t fingerprint = 0;  ///< 0 = not recorded; gate needs both sides
  /// Record carries a nested full-stats "metrics" object (the obs-layer
  /// snapshot BenchResultsJson appends last on the line). Presence-gated
  /// like the fingerprint: the gate only fires when the baseline has one.
  bool has_metrics = false;
};

/// A run that was cut short — by the clock, the clause budget, or the memory
/// cap (a salvaged record is by definition one of those). Its wall time and
/// conflict count describe the cutoff, not the workload, so neither is
/// comparable against (or as) a baseline.
bool incomplete(const Record& r) {
  return r.timed_out || r.budget_exceeded || r.resource_exhausted || r.salvaged;
}

/// Checked numeric field parse: a malformed artefact is a tooling bug, not a
/// bench regression — bail with the usage exit code instead of letting
/// std::stod throw (or worse, truncate silently).
double parse_wall(const std::string& text, const std::string& path) {
  double value = 0.0;
  if (!t2m::parse_double(text, value)) {
    std::cerr << "bench_check: malformed wall_seconds '" << text << "' in " << path << "\n";
    std::exit(2);
  }
  return value;
}

std::uint64_t parse_conflicts(const std::string& text, const std::string& path) {
  std::int64_t value = 0;
  if (!t2m::parse_int64(text, value) || value < 0) {
    std::cerr << "bench_check: malformed sat_conflicts '" << text << "' in " << path << "\n";
    std::exit(2);
  }
  return static_cast<std::uint64_t>(value);
}

std::uint64_t parse_fingerprint(const std::string& text, const std::string& path) {
  // Fingerprints use the full uint64 range, so they go through stoull
  // rather than the signed parse_int64 helper.
  try {
    std::size_t consumed = 0;
    const std::uint64_t value = std::stoull(text, &consumed);
    if (consumed == text.size()) return value;
  } catch (const std::exception&) {
  }
  std::cerr << "bench_check: malformed fingerprint '" << text << "' in " << path << "\n";
  std::exit(2);
}

std::optional<std::string> field_text(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return std::nullopt;
  const std::size_t start = at + needle.size();
  std::size_t end = start;
  if (end < line.size() && line[end] == '"') {  // string value
    ++end;
    std::string out;
    while (end < line.size() && line[end] != '"') {
      if (line[end] == '\\' && end + 1 < line.size()) ++end;
      out.push_back(line[end++]);
    }
    return out;
  }
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  return line.substr(start, end - start);
}

std::map<std::string, Record> load(const std::string& path) {
  std::map<std::string, Record> records;
  std::ifstream in(path);
  if (!in) {
    std::cerr << "bench_check: cannot open " << path << "\n";
    std::exit(2);
  }
  std::string line;
  while (std::getline(in, line)) {
    const auto bench = field_text(line, "bench");
    if (!bench) continue;
    Record rec;
    if (const auto wall = field_text(line, "wall_seconds")) {
      rec.wall_seconds = parse_wall(*wall, path);
    }
    if (const auto conflicts = field_text(line, "sat_conflicts")) {
      rec.sat_conflicts = parse_conflicts(*conflicts, path);
    }
    if (const auto timed_out = field_text(line, "timed_out")) rec.timed_out = *timed_out == "true";
    if (const auto budget = field_text(line, "budget_exceeded")) {
      rec.budget_exceeded = *budget == "true";
    }
    if (const auto mem = field_text(line, "resource_exhausted")) {
      rec.resource_exhausted = *mem == "true";
    }
    if (const auto salvaged = field_text(line, "salvaged")) rec.salvaged = *salvaged == "true";
    if (const auto exempt = field_text(line, "wall_exempt")) rec.wall_exempt = *exempt == "true";
    if (const auto fp = field_text(line, "fingerprint")) {
      rec.fingerprint = parse_fingerprint(*fp, path);
    }
    rec.has_metrics = line.find("\"metrics\": {") != std::string::npos;
    records[*bench] = rec;
  }
  return records;
}

}  // namespace

int main(int argc, char** argv) {
  using t2m::CliArgs;
  const CliArgs args(argc, argv);
  const std::string baseline_path = args.get_or("baseline", "bench/BENCH_baseline.json");
  const double max_wall_regress = args.get_double_or("max-wall-regress", 0.25);
  const double max_conflict_factor = args.get_double_or("max-conflict-factor", 2.0);
  const double min_wall = args.get_double_or("min-wall", 0.05);
  if (args.positional().empty()) {
    std::cerr << "usage: bench_check --baseline BASELINE.json RESULTS.json [MORE.json...]\n";
    return 2;
  }

  const std::map<std::string, Record> baseline = load(baseline_path);
  std::map<std::string, Record> results;
  for (const std::string& path : args.positional()) {
    for (const auto& [bench, rec] : load(path)) results[bench] = rec;
  }

  int regressions = 0;
  int checked = 0;
  for (const auto& [bench, base] : baseline) {
    const auto it = results.find(bench);
    if (it == results.end()) {
      std::cerr << "MISSING  " << bench << " (in baseline, absent from results)\n";
      ++regressions;
      continue;
    }
    const Record& got = it->second;
    ++checked;
    // The two cut-short verdicts are distinct regressions: a timeout blames
    // the machine/budgeted clock, a budget overflow blames the encoding size
    // — a bench that newly reports either against a completed baseline fails
    // with the matching tag.
    if (got.budget_exceeded && !incomplete(base)) {
      std::cerr << "BUDGET   " << bench << " (clause budget exceeded; baseline completed)\n";
      ++regressions;
      continue;
    }
    if (got.timed_out && !incomplete(base)) {
      std::cerr << "TIMEOUT  " << bench << " (baseline completed)\n";
      ++regressions;
      continue;
    }
    if ((got.resource_exhausted || got.salvaged) && !incomplete(base)) {
      std::cerr << "MEMORY   " << bench
                << " (resource-exhausted/salvaged; baseline completed)\n";
      ++regressions;
      continue;
    }
    if (base.wall_seconds >= min_wall && !incomplete(base) && !incomplete(got) &&
        !base.wall_exempt &&
        got.wall_seconds > base.wall_seconds * (1.0 + max_wall_regress)) {
      std::cerr << "WALL     " << bench << ": " << got.wall_seconds << "s vs baseline "
                << base.wall_seconds << "s (> +" << max_wall_regress * 100 << "%)\n";
      ++regressions;
    }
    // Fingerprints are exact and machine-independent — no tolerance, no
    // wall exemption. A mismatch means the encoder emits different clauses
    // than the committed baseline did.
    if (base.fingerprint != 0 && got.fingerprint != 0 &&
        got.fingerprint != base.fingerprint) {
      std::cerr << "FINGERPRINT " << bench << ": " << got.fingerprint
                << " vs baseline " << base.fingerprint
                << " (clause database drifted)\n";
      ++regressions;
    }
    // A bench that recorded a metrics snapshot into the baseline must keep
    // recording one: losing it means the observability plumbing silently
    // fell out of the bench emitter.
    if (base.has_metrics && !got.has_metrics) {
      std::cerr << "METRICS  " << bench
                << " (baseline has a metrics snapshot, results do not)\n";
      ++regressions;
    }
    // Conflict counts are only comparable between completed runs: a run cut
    // off by its timeout or clause budget has done as much search as the
    // machine (or the budget) allowed.
    if (!incomplete(base) && !incomplete(got) && base.sat_conflicts >= 100 &&
        static_cast<double>(got.sat_conflicts) >
            static_cast<double>(base.sat_conflicts) * max_conflict_factor) {
      std::cerr << "CONFLICT " << bench << ": " << got.sat_conflicts << " vs baseline "
                << base.sat_conflicts << " (> x" << max_conflict_factor << ")\n";
      ++regressions;
    }
  }

  std::cout << "bench_check: " << checked << " benches checked against " << baseline_path
            << ", " << regressions << " regression(s)\n";
  return regressions == 0 ? 0 : 1;
}
