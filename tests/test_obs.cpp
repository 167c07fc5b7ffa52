// The observability layer: span tracer (nesting, per-thread tracks), the run
// record's JSON (to_json of LearnResult/LearnStats), the progress poll, the
// upgraded logger — and the identity guarantee the design hinges on: the
// learn's artefacts (every LearnStats count, the clause fingerprint) are the
// same with observability on or off.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/csp_encoder.h"
#include "src/core/learner.h"
#include "src/core/report.h"
#include "src/obs/json.h"
#include "src/obs/trace.h"
#include "src/obs/validate.h"
#include "src/sim/basic/counter.h"
#include "src/util/log.h"

namespace t2m {
namespace {

/// Restores global observability state on scope exit so tests cannot leak
/// an enabled tracer or a capture sink into their neighbours.
struct ObsQuiescent {
  ~ObsQuiescent() {
    obs::Tracer::instance().stop();
    Logger::instance().set_sink(nullptr);
    Logger::instance().set_level(LogLevel::Warn);
  }
};

std::string trace_json() {
  std::ostringstream os;
  obs::Tracer::instance().write_json(os);
  return os.str();
}

// --- tracer ----------------------------------------------------------------

TEST(Tracer, DisabledSpansRecordNothing) {
  const ObsQuiescent guard;
  obs::Tracer::instance().stop();
  {
    T2M_SPAN("idle.phase", "n", 1);
    T2M_INSTANT("idle.marker");
    T2M_TRACE_COUNTER("idle.counter", 3);
  }
  obs::Tracer::instance().start();
  obs::Tracer::instance().stop();
  EXPECT_EQ(obs::Tracer::instance().event_count(), 0u);
}

TEST(Tracer, NestedSpansValidateAndParseBack) {
  const ObsQuiescent guard;
  obs::Tracer::instance().start();
  {
    T2M_SPAN("outer", "k", 1);
    {
      T2M_SPAN("middle");
      { T2M_SPAN("inner", "tag", "deep"); }
    }
    T2M_INSTANT("note");
    T2M_TRACE_COUNTER("gaugey", 42);
  }
  obs::Tracer::instance().stop();

  obs::TraceSummary summary;
  const Status status = obs::validate_trace_json(trace_json(), &summary);
  ASSERT_TRUE(status.ok()) << status.to_string();
  EXPECT_EQ(summary.spans, 3u);
  EXPECT_EQ(summary.instants, 1u);
  EXPECT_EQ(summary.counters, 1u);
  EXPECT_TRUE(summary.span_names.count("outer"));
  EXPECT_TRUE(summary.span_names.count("middle"));
  EXPECT_TRUE(summary.span_names.count("inner"));
}

TEST(Tracer, SpansAcrossThreadsNestPerTrack) {
  const ObsQuiescent guard;
  obs::Tracer::instance().start();
  {
    T2M_SPAN("fanout");
    // 16 chunks of 16 items, dealt round-robin to 4 threads.
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < 4; ++t) {
      threads.emplace_back([t] {
        for (std::size_t c = t; c < 16; c += 4) {
          T2M_SPAN("chunk", "c", c);
          for (std::size_t i = c * 16; i < (c + 1) * 16; ++i) {
            T2M_SPAN("item", "i", i);
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  obs::Tracer::instance().stop();

  obs::TraceSummary summary;
  const Status status = obs::validate_trace_json(trace_json(), &summary);
  ASSERT_TRUE(status.ok()) << status.to_string();
  // 1 fanout + 16 chunk + 256 item spans over five thread tracks — the
  // validator has already asserted every track's spans nest laminarly.
  EXPECT_EQ(summary.spans, 1u + 16u + 256u);
  EXPECT_EQ(summary.tracks.size(), 5u);
  EXPECT_TRUE(summary.span_names.count("chunk"));
  EXPECT_TRUE(summary.span_names.count("item"));
}

TEST(Tracer, StartDiscardsPreviousRun) {
  const ObsQuiescent guard;
  obs::Tracer::instance().start();
  { T2M_SPAN("first.run"); }
  obs::Tracer::instance().start();  // restart: first.run must be gone
  { T2M_SPAN("second.run"); }
  obs::Tracer::instance().stop();

  obs::TraceSummary summary;
  ASSERT_TRUE(obs::validate_trace_json(trace_json(), &summary).ok());
  EXPECT_FALSE(summary.span_names.count("first.run"));
  EXPECT_TRUE(summary.span_names.count("second.run"));
}

TEST(TraceValidation, RejectsCorruptedInput) {
  EXPECT_FALSE(obs::validate_trace_json("").ok());
  EXPECT_FALSE(obs::validate_trace_json("not json").ok());
  EXPECT_FALSE(obs::validate_trace_json("{\"traceEvents\": 3}").ok());
  // An 'X' event without a duration is not a Perfetto-loadable span.
  EXPECT_FALSE(
      obs::validate_trace_json(
          R"({"traceEvents": [{"name": "x", "ph": "X", "pid": 1, "tid": 0, "ts": 1}]})")
          .ok());
  // Truncated document (the classic crash-mid-write artefact).
  EXPECT_FALSE(obs::validate_trace_json(R"({"traceEvents": [{"name": "x")").ok());
}

// --- json parser -----------------------------------------------------------

TEST(Json, ParsesStructuresAndRejectsGarbage) {
  obs::JsonValue v;
  ASSERT_TRUE(obs::parse_json(R"({"a": [1, 2.5, "s", true, null], "b": {}})", v).ok());
  ASSERT_TRUE(v.is_object());
  const obs::JsonValue* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  EXPECT_EQ(a->array.size(), 5u);
  EXPECT_EQ(a->array[0].number, 1.0);
  EXPECT_EQ(a->array[2].string, "s");

  EXPECT_FALSE(obs::parse_json("{", v).ok());
  EXPECT_FALSE(obs::parse_json("[1, ]", v).ok());
  EXPECT_FALSE(obs::parse_json("{\"a\": 1} trailing", v).ok());
}

// --- identity guarantees ---------------------------------------------------

LearnResult run_small_learn(double progress_seconds = 0.0) {
  LearnerConfig config;
  config.require_trace_acceptance = false;
  config.progress_seconds = progress_seconds;
  const ModelLearner learner(config);
  return learner.learn(sim::generate_counter_trace({}));
}

/// Every LearnStats field but the timings, in declaration order.
std::vector<std::uint64_t> untimed_stats(const LearnStats& s) {
  return {s.sequence_length,     s.vocabulary_size,      s.segments,
          s.encoded_transitions, s.sat_calls,            s.refinements,
          s.prefix_refinements,  s.prefix_extensions,    s.state_increments,
          s.forbidden_words,     s.csp_builds,           s.csp_grows,
          s.sat_conflicts,       s.sat_propagations,     s.sat_learned_clauses,
          s.sat_peak_arena_bytes, s.core_stops,          s.encoding_fingerprint,
          s.accounted_peak_bytes, s.acceptance_relaxed};
}

TEST(ObsIdentity, LearnArtefactsIdenticalWithObservabilityOnAndOff) {
  const ObsQuiescent guard;
  // Fully dark run.
  obs::Tracer::instance().stop();
  const LearnResult dark = run_small_learn();

  // Fully lit run: tracing and progress live, the progress lines logged.
  obs::Tracer::instance().start();
  Logger::instance().set_level(LogLevel::Info);
  Logger::instance().set_sink([](LogLevel, const std::string&) {});
  const LearnResult lit = run_small_learn(1e-9);
  obs::Tracer::instance().stop();

  ASSERT_TRUE(dark.success);
  ASSERT_TRUE(lit.success);
  EXPECT_EQ(dark.states, lit.states);
  EXPECT_EQ(untimed_stats(dark.stats), untimed_stats(lit.stats));
  EXPECT_GT(lit.stats.sat_calls, 0u);
  EXPECT_NE(lit.stats.encoding_fingerprint, 0u);
}

TEST(RunRecord, StatsJsonMatchesLearnStats) {
  LearnResult result = run_small_learn();
  ASSERT_TRUE(result.success);
  EXPECT_GT(result.stats.accounted_peak_bytes, 0u);

  obs::JsonValue doc;
  ASSERT_TRUE(obs::parse_json(to_json(result), doc).ok()) << to_json(result);
  EXPECT_TRUE(doc.find("success")->boolean);
  EXPECT_EQ(doc.find("states")->number, static_cast<double>(result.states));
  EXPECT_EQ(doc.find("error"), nullptr);
  const obs::JsonValue* stats = doc.find("stats");
  ASSERT_NE(stats, nullptr);
  const LearnStats& s = result.stats;
  const std::pair<const char*, std::uint64_t> counts[] = {
      {"sequence_length", s.sequence_length},
      {"vocabulary_size", s.vocabulary_size},
      {"segments", s.segments},
      {"encoded_transitions", s.encoded_transitions},
      {"sat_calls", s.sat_calls},
      {"refinements", s.refinements},
      {"prefix_refinements", s.prefix_refinements},
      {"prefix_extensions", s.prefix_extensions},
      {"state_increments", s.state_increments},
      {"forbidden_words", s.forbidden_words},
      {"csp_builds", s.csp_builds},
      {"csp_grows", s.csp_grows},
      {"sat_conflicts", s.sat_conflicts},
      {"sat_propagations", s.sat_propagations},
      {"sat_learned_clauses", s.sat_learned_clauses},
      {"sat_peak_arena_bytes", s.sat_peak_arena_bytes},
      {"core_stops", s.core_stops},
      {"accounted_peak_bytes", s.accounted_peak_bytes},
  };
  for (const auto& [key, value] : counts) {
    const obs::JsonValue* field = stats->find(key);
    ASSERT_NE(field, nullptr) << key;
    EXPECT_EQ(field->number, static_cast<double>(value)) << key;
  }
  // The 64-bit fingerprint does not survive a double; its digits must.
  EXPECT_NE(to_json(s).find("\"encoding_fingerprint\": " +
                            std::to_string(s.encoding_fingerprint) + ","),
            std::string::npos);
  EXPECT_FALSE(stats->find("acceptance_relaxed")->boolean);
  const std::pair<const char*, double> seconds[] = {
      {"abstraction_seconds", s.abstraction_seconds},
      {"construction_seconds", s.construction_seconds},
      {"total_seconds", s.total_seconds},
  };
  for (const auto& [key, value] : seconds) {
    ASSERT_NE(stats->find(key), nullptr) << key;
    EXPECT_NEAR(stats->find(key)->number, value, 1e-6) << key;  // six decimals
  }

  // An error message is escaped: a quote and a newline still parse back.
  result.success = false;
  result.status = Status::Internal("bad \"value\"\nsecond line");
  ASSERT_TRUE(obs::parse_json(to_json(result), doc).ok()) << to_json(result);
  EXPECT_FALSE(doc.find("success")->boolean);
  ASSERT_NE(doc.find("error"), nullptr);
  EXPECT_EQ(doc.find("error")->string, result.status.to_string());
}

TEST(RunRecord, FailedRunReportsSubMillisecondTime) {
  // A learn that fails at once (say, on a missing trace file) ends in well
  // under a millisecond; neither human-readable line may call that "0 s".
  LearnResult result;
  result.success = false;
  result.status = Status::IoError("cannot open missing.log");
  result.stats.total_seconds = 0.000113;
  const std::string report = format_learn_report(result, result.schema);
  const std::string summary = format_learn_summary(result);
  EXPECT_EQ(report.find(" 0 s"), std::string::npos) << report;
  EXPECT_EQ(summary.find("(0 s)"), std::string::npos) << summary;
  EXPECT_NE(report.find("after 0.00011 s"), std::string::npos) << report;
  EXPECT_NE(summary.find("(0.00011 s)"), std::string::npos) << summary;
}

TEST(ObsIdentity, EncodingFingerprintUnaffectedByTracing) {
  const ObsQuiescent guard;
  const std::vector<Segment> segments = {{0, 1, 2}, {1, 2, 0}, {2, 0, 1}};
  const auto fingerprint_of = [&segments] {
    const AutomatonCsp csp(segments, 3, 3, {});
    return csp.encoding_fingerprint();
  };
  obs::Tracer::instance().stop();
  const std::uint64_t dark = fingerprint_of();
  obs::Tracer::instance().start();
  const std::uint64_t lit = fingerprint_of();
  obs::Tracer::instance().stop();
  EXPECT_EQ(dark, lit);
  EXPECT_NE(dark, 0u);
}

// --- progress --------------------------------------------------------------

/// The learn's progress lines, captured through a logger sink.
std::vector<std::string> progress_lines(double interval_seconds, LearnResult& result) {
  std::vector<std::string> lines;
  Logger::instance().set_level(LogLevel::Info);
  Logger::instance().set_sink([&lines](LogLevel, const std::string& line) {
    const std::size_t at = line.find("progress: ");
    if (at != std::string::npos) lines.push_back(line.substr(at));
  });
  result = run_small_learn(interval_seconds);
  Logger::instance().set_sink(nullptr);
  return lines;
}

/// "progress: t=0.0s N=2 sat_calls=1 ..." → {"t": "0.0s", "N": "2", ...}.
std::map<std::string, std::string> progress_fields(const std::string& line) {
  std::map<std::string, std::string> fields;
  std::istringstream is(line.substr(std::string("progress: ").size()));
  std::string field;
  while (is >> field) {
    const std::size_t eq = field.find('=');
    if (eq != std::string::npos) fields[field.substr(0, eq)] = field.substr(eq + 1);
  }
  return fields;
}

TEST(ProgressPoll, LinesCountUpToTheFinalStats) {
  // A tiny interval makes every poll due: the lines sample the whole search.
  const ObsQuiescent guard;
  LearnResult result;
  const std::vector<std::string> lines = progress_lines(1e-9, result);
  ASSERT_TRUE(result.success);
  ASSERT_FALSE(lines.empty());
  const LearnStats& s = result.stats;
  // A glance format: conflicts past 10k print as "3.4k"; this learn has far
  // fewer, so every count parses exactly.
  ASSERT_LT(s.sat_conflicts, 10000u);
  const std::pair<const char*, std::uint64_t> finals[] = {
      {"N", result.states},
      {"sat_calls", s.sat_calls},
      {"conflicts", s.sat_conflicts},
      {"refinements", s.refinements},
  };
  std::map<std::string, std::uint64_t> last;
  for (const std::string& line : lines) {
    const std::map<std::string, std::string> fields = progress_fields(line);
    for (const auto& [key, final_value] : finals) {
      ASSERT_TRUE(fields.count(key)) << line;
      const std::uint64_t value = std::stoull(fields.at(key));
      EXPECT_GE(value, last[key]) << key << " decreased: " << line;
      EXPECT_LE(value, final_value) << key << " exceeds the final stats: " << line;
      last[key] = value;
    }
    EXPECT_FALSE(fields.count("deadline")) << "no timeout, no deadline: " << line;
  }
}

TEST(ProgressPoll, FirstLineCountsFromTheLearnEntry) {
  // Regression: lines before the search printed the steady clock's epoch
  // (the machine's uptime) as the run's age. The poll's clock starts in the
  // learn's entry guard, so the first line is due one interval in.
  const ObsQuiescent guard;
  LearnResult result;
  const double interval = 1e-9;
  const std::vector<std::string> lines = progress_lines(interval, result);
  ASSERT_FALSE(lines.empty());
  const std::string t = progress_fields(lines.front()).at("t");
  EXPECT_LT(std::stod(t), interval + 1.0) << lines.front();
}

TEST(ProgressPoll, InfiniteOrHugeIntervalLogsNothing) {
  // Regression: an interval of inf or 1e12 s once wrapped to a negative
  // clock span and fired back to back (about 66,000 lines during a
  // half-second learn).
  const ObsQuiescent guard;
  for (const double interval : {std::numeric_limits<double>::infinity(), 1e12}) {
    LearnResult result;
    EXPECT_TRUE(progress_lines(interval, result).empty()) << interval;
    EXPECT_TRUE(result.success);
  }
}

// --- logger ----------------------------------------------------------------

TEST(Logger, ParseAndNameRoundTrip) {
  EXPECT_EQ(parse_log_level("trace"), LogLevel::Trace);
  EXPECT_EQ(parse_log_level("debug"), LogLevel::Debug);
  EXPECT_EQ(parse_log_level("info"), LogLevel::Info);
  EXPECT_EQ(parse_log_level("warn"), LogLevel::Warn);
  EXPECT_EQ(parse_log_level("error"), LogLevel::Error);
  EXPECT_EQ(parse_log_level("off"), LogLevel::Off);
  EXPECT_FALSE(parse_log_level("verbose").has_value());
  EXPECT_STREQ(log_level_name(LogLevel::Info), "INFO");
}

TEST(Logger, SinkCapturesPrefixedLines) {
  const ObsQuiescent guard;
  std::vector<std::pair<LogLevel, std::string>> captured;
  std::mutex captured_mutex;
  Logger::instance().set_level(LogLevel::Info);
  Logger::instance().set_sink([&](LogLevel level, const std::string& line) {
    const std::lock_guard<std::mutex> lock(captured_mutex);
    captured.emplace_back(level, line);
  });
  log_info() << "observable " << 42;
  log_debug() << "filtered out";
  Logger::instance().set_sink(nullptr);

  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0].first, LogLevel::Info);
  // "[t2m INFO  12.345678 t03] observable 42"
  EXPECT_EQ(captured[0].second.rfind("[t2m INFO ", 0), 0u);
  EXPECT_NE(captured[0].second.find(" t"), std::string::npos);
  EXPECT_NE(captured[0].second.find("] observable 42"), std::string::npos);
}

TEST(Logger, LevelGatesAreDynamic) {
  const ObsQuiescent guard;
  Logger::instance().set_level(LogLevel::Error);
  EXPECT_FALSE(Logger::instance().enabled(LogLevel::Warn));
  EXPECT_TRUE(Logger::instance().enabled(LogLevel::Error));
  Logger::instance().set_level(LogLevel::Trace);
  EXPECT_TRUE(Logger::instance().enabled(LogLevel::Debug));
  Logger::instance().set_level(LogLevel::Off);
  EXPECT_FALSE(Logger::instance().enabled(LogLevel::Error));
}

}  // namespace
}  // namespace t2m
