// bench_stream_ingest: streaming vs in-memory ingest of a synthetic
// million-event trace, end to end through the learner.
//
//   bench_stream_ingest [--events 1000000] [--window 3] [--timeout 120]
//                       [--trace FILE] [--json BENCH_stream.json]
//                       [--min-rss-ratio 0]
//
// Each path runs in a forked child so the parent can read the child's peak
// RSS from wait4() — the honest number, unpolluted by the other path's
// allocations. The streaming child drives LineReader -> FtracePredStream ->
// ModelLearner::learn_from_stream; the in-memory child reads the whole trace
// (read_ftrace) and learns via ModelLearner::learn. Both learn with trace
// acceptance off (the paper's Algorithm 1), which lets the streaming path
// drop the id sequence and hold only the w-event ring plus the dedup set.
// --min-rss-ratio N fails the run unless streaming peak RSS is at least N
// times below the in-memory path's (0 disables the gate).

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>

#if defined(__unix__) || defined(__APPLE__)
#define T2M_BENCH_HAVE_FORK 1
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "src/abstraction/event_stream.h"
#include "src/core/learner.h"
#include "src/core/report.h"
#include "src/sim/synthetic/pattern_events.h"
#include "src/trace/ftrace_io.h"
#include "src/trace/mmap_io.h"
#include "src/util/cli.h"
#include "src/util/csv.h"
#include "src/util/stopwatch.h"
#include "src/util/string_utils.h"

namespace {

using namespace t2m;

struct RunOutcome {
  bool ok = false;
  bool timed_out = false;
  std::size_t states = 0;
  std::size_t segments = 0;
  std::uint64_t conflicts = 0;
  double wall_seconds = 0.0;
  long peak_rss_kb = 0;  ///< child ru_maxrss; 0 when fork is unavailable
};

LearnerConfig make_config(const CliArgs& args, const sim::PatternEventConfig& gen,
                          bool user_trace) {
  LearnerConfig config;
  config.window = static_cast<std::size_t>(args.get_int_or("window", 3));
  config.timeout_seconds = args.get_double_or("timeout", 120.0);
  // Algorithm 1 as published: no trace-acceptance strengthening. This is
  // what makes the streaming path O(w + dedup set) — nothing downstream
  // needs the materialised sequence.
  config.require_trace_acceptance = false;
  // Synthetic workload: start the state search at the generator's own
  // automaton size, as the Table I benches start at the paper's known N —
  // this bench measures ingest, not state-count discovery. A user-supplied
  // trace knows no generator; search from the paper's default unless
  // --initial-states overrides.
  const std::size_t default_n =
      user_trace ? config.initial_states : sim::pattern_generator_states(gen);
  config.initial_states = static_cast<std::size_t>(
      args.get_int_or("initial-states", static_cast<std::int64_t>(default_n)));
  return config;
}

/// Runs `body` and serialises its outcome into `path` (one line, ws-separated).
void run_and_report(const std::function<LearnResult()>& body, const std::string& path) {
  const Stopwatch watch;
  LearnResult result = body();
  const double wall = watch.elapsed_seconds();
  std::ofstream out(path);
  out << (result.success ? 1 : 0) << ' ' << (result.timed_out ? 1 : 0) << ' '
      << result.states << ' ' << result.stats.segments << ' ' << result.stats.sat_conflicts
      << ' ' << format_double(wall, 6) << '\n';
}

RunOutcome read_report(const std::string& path) {
  RunOutcome outcome;
  std::ifstream in(path);
  int ok = 0, timed_out = 0;
  if (in >> ok >> timed_out >> outcome.states >> outcome.segments >> outcome.conflicts >>
      outcome.wall_seconds) {
    outcome.ok = ok != 0;
    outcome.timed_out = timed_out != 0;
  }
  return outcome;
}

/// Executes `body` in a forked child and reads back its outcome plus peak
/// RSS. Falls back to in-process execution (RSS 0) where fork is missing.
RunOutcome run_measured(const std::function<LearnResult()>& body, const std::string& tag) {
  const std::string report_path = "bench_stream_ingest." + tag + ".report";
#ifdef T2M_BENCH_HAVE_FORK
  const pid_t pid = fork();
  if (pid == 0) {
    try {
      run_and_report(body, report_path);
    } catch (const std::exception& e) {
      std::cerr << "bench_stream_ingest[" << tag << "]: " << e.what() << "\n";
      _exit(1);
    }
    _exit(0);
  }
  if (pid > 0) {
    int status = 0;
    struct rusage usage {};
    if (wait4(pid, &status, 0, &usage) == pid && WIFEXITED(status) &&
        WEXITSTATUS(status) == 0) {
      RunOutcome outcome = read_report(report_path);
      outcome.peak_rss_kb = usage.ru_maxrss;  // KB on Linux, bytes on macOS
#ifdef __APPLE__
      outcome.peak_rss_kb /= 1024;
#endif
      std::remove(report_path.c_str());
      return outcome;
    }
    std::remove(report_path.c_str());
    return {};
  }
  // fork failed: fall through to in-process.
#endif
  run_and_report(body, report_path);
  RunOutcome outcome = read_report(report_path);
  std::remove(report_path.c_str());
  return outcome;
}

void emit_json_record(std::ostream& os, const std::string& bench, const RunOutcome& r,
                      bool last) {
  // wall_exempt: these runs are disk-dominated; when their records are
  // copied into bench/BENCH_baseline.json the flag keeps bench_check's
  // wall-clock gate off them (the RSS gate and conflict counts still apply).
  // The flat work-counter fields go through the shared serializer
  // (report.h). The child process reports only states/segments/conflicts, so
  // the LearnStats is sparse and no nested "metrics" snapshot is emitted —
  // bench_check's METRICS gate only fires when both sides carry one.
  LearnStats stats;
  stats.sat_conflicts = r.conflicts;
  os << "  {\"bench\": \"" << bench << "\", \"wall_exempt\": true, \"wall_seconds\": "
     << format_double(r.wall_seconds, 6) << ", \"success\": " << (r.ok ? "true" : "false")
     << ", \"timed_out\": " << (r.timed_out ? "true" : "false")
     << ", \"states\": " << r.states;
  write_bench_stats_fields(os, stats);
  os << ", \"segments\": " << r.segments << ", \"peak_rss_kb\": " << r.peak_rss_kb << "}"
     << (last ? "" : ",") << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);

  sim::PatternEventConfig gen;
  gen.events = static_cast<std::size_t>(args.get_int_or("events", 1'000'000));

  // The trace file under test: user-supplied (--events is then ignored), or
  // generated here (streamed to disk, so generation itself is O(1) memory).
  std::string trace_path = args.get_or("trace", "");
  const LearnerConfig config = make_config(args, gen, !trace_path.empty());
  bool generated = false;
  if (trace_path.empty()) {
    trace_path = "bench_stream_ingest.ftrace";
    std::ofstream os(trace_path);
    if (!os) {
      std::cerr << "bench_stream_ingest: cannot write " << trace_path << "\n";
      return 1;
    }
    sim::write_pattern_event_ftrace(os, gen);
    generated = true;
    std::cout << "generated " << gen.events << " events -> " << trace_path << "\n";
  }

  const RunOutcome streaming = run_measured(
      [&] {
        LineReader lines(trace_path);
        FtracePredStream stream(lines);
        return ModelLearner(config).learn_from_stream(stream);
      },
      "streaming");

  const RunOutcome in_memory = run_measured(
      [&] {
        std::ifstream is(trace_path);
        if (!is) throw std::runtime_error("cannot open " + trace_path);
        const Trace trace = read_ftrace(is);
        return ModelLearner(config).learn(trace);
      },
      "in_memory");

  if (generated && !args.has("keep-trace")) std::remove(trace_path.c_str());

  TableWriter table({"path", "ok", "states", "segments", "wall s", "peak RSS MB"});
  const auto row = [&](const std::string& name, const RunOutcome& r) {
    table.add_row({name, r.ok ? "yes" : (r.timed_out ? "timeout" : "no"),
                   std::to_string(r.states), std::to_string(r.segments),
                   format_double(r.wall_seconds), format_double(r.peak_rss_kb / 1024.0, 1)});
  };
  row("streaming", streaming);
  row("in-memory", in_memory);
  table.write_ascii(std::cout);

  const double ratio = streaming.peak_rss_kb > 0
                           ? static_cast<double>(in_memory.peak_rss_kb) /
                                 static_cast<double>(streaming.peak_rss_kb)
                           : 0.0;
  if (ratio > 0) {
    std::cout << "peak RSS ratio (in-memory / streaming): " << format_double(ratio, 2)
              << "x\n";
  }

  const std::string json_path = args.get_or("json", "");
  if (!json_path.empty()) {
    std::ofstream os(json_path);
    os << "[\n";
    emit_json_record(os, "stream_ingest/streaming", streaming, false);
    emit_json_record(os, "stream_ingest/in_memory", in_memory, true);
    os << "]\n";
    std::cout << "wrote " << json_path << "\n";
  }

  if (!streaming.ok || !in_memory.ok) {
    std::cerr << "bench_stream_ingest: a path failed to learn\n";
    return 1;
  }
  if (streaming.states != in_memory.states || streaming.segments != in_memory.segments) {
    std::cerr << "bench_stream_ingest: paths disagree (states " << streaming.states
              << " vs " << in_memory.states << ", segments " << streaming.segments
              << " vs " << in_memory.segments << ")\n";
    return 1;
  }
  const double min_ratio = args.get_double_or("min-rss-ratio", 0.0);
  if (min_ratio > 0) {
    if (streaming.peak_rss_kb <= 0 || in_memory.peak_rss_kb <= 0) {
      // No RSS measurement (fork unavailable/failed): the comparison cannot
      // be made — warn instead of misreporting a resource blip as a memory
      // regression.
      std::cerr << "bench_stream_ingest: peak RSS not measured, skipping the "
                << format_double(min_ratio, 2) << "x gate\n";
    } else if (ratio < min_ratio) {
      std::cerr << "bench_stream_ingest: peak RSS ratio " << format_double(ratio, 2)
                << "x below required " << format_double(min_ratio, 2) << "x\n";
      return 1;
    }
  }
  return 0;
}
