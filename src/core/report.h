#ifndef T2M_CORE_REPORT_H
#define T2M_CORE_REPORT_H

#include <ostream>
#include <string>

#include "src/base/schema.h"
#include "src/core/learner.h"

namespace t2m {

/// Human-readable summary of a learning run: model shape, vocabulary, and
/// the statistics tracked by LearnStats. Used by the CLI and examples.
std::string format_learn_report(const LearnResult& result, const Schema& schema);

/// One-line summary ("4 states, 6 transitions, 4 predicates, 0.12 s").
std::string format_learn_summary(const LearnResult& result);

/// Single-line JSON object covering every LearnStats field. The one stats
/// serialization — `t2m --stats-out` and the bench emitters' "metrics"
/// snapshots both go through it, so the key names cannot drift between
/// consumers.
std::string to_json(const LearnStats& stats);

/// Verdict envelope for `t2m --stats-out`: run flags + "stats": to_json(...).
std::string to_json(const LearnResult& result);

/// The flat work-counter fields of the one-record-per-line bench JSON
/// format, emitted as `, "sat_calls": N, ...` (leading separator included).
/// Key names are part of the bench_check contract — shared here so the
/// bench emitters cannot diverge from the checker.
void write_bench_stats_fields(std::ostream& os, const LearnStats& stats);

}  // namespace t2m

#endif  // T2M_CORE_REPORT_H
