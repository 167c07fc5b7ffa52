#ifndef T2M_OBS_VALIDATE_H
#define T2M_OBS_VALIDATE_H

#include <cstdint>
#include <map>
#include <set>
#include <string>

#include "src/base/status.h"

namespace t2m::obs {

/// What a validated trace contained — trace_check prints it and asserts
/// required tracks/spans against it.
struct TraceSummary {
  std::size_t events = 0;   ///< all non-metadata events
  std::size_t spans = 0;    ///< 'X' complete events
  std::size_t instants = 0;
  std::size_t counters = 0;
  std::map<std::uint32_t, std::string> tracks;  ///< tid -> thread_name
  std::set<std::string> span_names;
};

/// Structural check of a Tracer-emitted Chrome trace-event document:
/// well-formed JSON, a traceEvents array whose entries carry the fields
/// Perfetto requires for their phase, every event tid covered by a
/// thread_name metadata record, and per-track span intervals that nest
/// properly (a span never half-overlaps another on its track — RAII scopes
/// guarantee laminar nesting, so a violation means buffer corruption).
Status validate_trace_json(const std::string& text, TraceSummary* summary = nullptr);

}  // namespace t2m::obs

#endif  // T2M_OBS_VALIDATE_H
