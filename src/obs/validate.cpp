#include "src/obs/validate.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/obs/json.h"

namespace t2m::obs {

namespace {

Status invalid(const std::string& what) { return Status::ParseError("trace: " + what); }

struct Interval {
  double start = 0.0;
  double end = 0.0;
  std::string name;
};

/// Spans on one track must form a laminar family: RAII scopes on a single
/// thread can nest but never half-overlap. Checked in
/// start order with an enclosing-interval stack; `eps` absorbs the
/// microsecond rounding of the emitted timestamps.
Status check_nesting(std::uint32_t track, std::vector<Interval>& intervals) {
  constexpr double eps = 0.01;  // µs; emission rounds to 0.001
  std::sort(intervals.begin(), intervals.end(), [](const Interval& a, const Interval& b) {
    if (a.start != b.start) return a.start < b.start;
    return a.end > b.end;  // parents before their children at equal starts
  });
  std::vector<Interval> stack;
  for (const Interval& span : intervals) {
    while (!stack.empty() && span.start >= stack.back().end - eps) stack.pop_back();
    if (!stack.empty() && span.end > stack.back().end + eps) {
      return invalid("span '" + span.name + "' on track " + std::to_string(track) +
                     " half-overlaps '" + stack.back().name + "'");
    }
    stack.push_back(span);
  }
  return Status::Ok();
}

const JsonValue* require_member(const JsonValue& object, const char* key,
                                JsonValue::Kind kind, Status& status,
                                const std::string& context) {
  const JsonValue* value = object.find(key);
  if (value == nullptr || value->kind != kind) {
    status = invalid(context + ": missing or mistyped \"" + key + "\"");
    return nullptr;
  }
  return value;
}

}  // namespace

Status validate_trace_json(const std::string& text, TraceSummary* summary) {
  JsonValue doc;
  Status status = parse_json(text, doc);
  if (!status.ok()) return status;
  if (!doc.is_object()) return invalid("document is not an object");
  const JsonValue* events = doc.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return invalid("missing \"traceEvents\" array");
  }

  TraceSummary local;
  std::map<std::uint32_t, std::vector<Interval>> spans_by_track;
  std::set<std::uint32_t> tids_seen;
  for (const JsonValue& ev : events->array) {
    if (!ev.is_object()) return invalid("traceEvents entry is not an object");
    const JsonValue* name = require_member(ev, "name", JsonValue::Kind::String, status, "event");
    if (name == nullptr) return status;
    const JsonValue* ph = require_member(ev, "ph", JsonValue::Kind::String, status,
                                         "event '" + name->string + "'");
    if (ph == nullptr) return status;
    if (ph->string.size() != 1) return invalid("event phase must be one character");
    const JsonValue* tid = require_member(ev, "tid", JsonValue::Kind::Number, status,
                                          "event '" + name->string + "'");
    if (tid == nullptr) return status;
    const JsonValue* pid = require_member(ev, "pid", JsonValue::Kind::Number, status,
                                          "event '" + name->string + "'");
    if (pid == nullptr) return status;
    const auto track = static_cast<std::uint32_t>(tid->number);

    const char phase = ph->string[0];
    if (phase == 'M') {
      if (name->string == "thread_name") {
        const JsonValue* args = require_member(ev, "args", JsonValue::Kind::Object, status,
                                               "thread_name metadata");
        if (args == nullptr) return status;
        const JsonValue* track_name =
            require_member(*args, "name", JsonValue::Kind::String, status,
                           "thread_name metadata args");
        if (track_name == nullptr) return status;
        local.tracks[track] = track_name->string;
      }
      continue;
    }

    const JsonValue* ts = require_member(ev, "ts", JsonValue::Kind::Number, status,
                                         "event '" + name->string + "'");
    if (ts == nullptr) return status;
    if (ts->number < 0 || !std::isfinite(ts->number)) {
      return invalid("event '" + name->string + "' has a negative timestamp");
    }
    ++local.events;
    tids_seen.insert(track);
    switch (phase) {
      case 'X': {
        const JsonValue* dur = require_member(ev, "dur", JsonValue::Kind::Number, status,
                                              "span '" + name->string + "'");
        if (dur == nullptr) return status;
        if (dur->number < 0) return invalid("span '" + name->string + "' has negative dur");
        ++local.spans;
        local.span_names.insert(name->string);
        spans_by_track[track].push_back(
            {ts->number, ts->number + dur->number, name->string});
        break;
      }
      case 'i': ++local.instants; break;
      case 'C': {
        const JsonValue* args = require_member(ev, "args", JsonValue::Kind::Object, status,
                                               "counter '" + name->string + "'");
        if (args == nullptr) return status;
        if (args->object.empty()) {
          return invalid("counter '" + name->string + "' has no series values");
        }
        for (const auto& [key, value] : args->object) {
          if (!value.is_number()) {
            return invalid("counter '" + name->string + "' series '" + key +
                           "' is not numeric");
          }
        }
        ++local.counters;
        break;
      }
      default:
        return invalid("event '" + name->string + "' has unsupported phase '" +
                       std::string(1, phase) + "'");
    }
  }

  for (const std::uint32_t track : tids_seen) {
    if (local.tracks.find(track) == local.tracks.end()) {
      return invalid("track " + std::to_string(track) + " has no thread_name metadata");
    }
  }
  for (auto& [track, intervals] : spans_by_track) {
    status = check_nesting(track, intervals);
    if (!status.ok()) return status;
  }

  if (summary != nullptr) *summary = std::move(local);
  return Status::Ok();
}

}  // namespace t2m::obs
