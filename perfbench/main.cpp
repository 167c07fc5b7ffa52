// t2m_perfbench: the repository benchmark (README.md in this directory).
//
//   t2m_perfbench --workload corpus|stream|paper --seed N --seconds S
//                 --trace 0|1 [--work-dir DIR]
//
// Generates the workload's inputs from the seed, learns every case with
// LearnerConfig{} defaults through the entry points `t2m learn` uses, checks
// each learned model independently, and repeats the pass until S seconds
// have been measured. Prints one verdict line per case, every metric with
// its unit, and as the last line a JSON object with the metrics: the
// end-to-end ones with --trace 0, the per-layer ones with --trace 1 (which
// alternates untraced and traced passes).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <malloc.h>
#include <sys/resource.h>

#include "calibrate.h"
#include "corpus.h"
#include "layers.h"
#include "stats.h"
#include "verify.h"

#include "src/abstraction/abstraction.h"
#include "src/abstraction/event_stream.h"
#include "src/core/compliance.h"
#include "src/core/learner.h"
#include "src/core/segmentation.h"
#include "src/obs/trace.h"
#include "src/sim/basic/counter.h"
#include "src/sim/basic/integrator.h"
#include "src/sim/rtlinux/workloads.h"
#include "src/sim/serial/serial_port.h"
#include "src/sim/synthetic/pattern_events.h"
#include "src/sim/xhci/ring_interface.h"
#include "src/sim/xhci/slot_fsm.h"
#include "src/trace/mmap_io.h"
#include "src/trace/text_io.h"
#include "src/util/cli.h"
#include "src/util/log.h"
#include "src/util/stopwatch.h"

namespace {

using perfbench::hex64;

// Corpus: random-DFA walks, equal shares of 5..8 generator states. The
// automata are fixed and the walks come from --seed, so runs with different
// seeds learn the same problems from fresh traces (drawing the automata from
// the seed too made the corpus's summed time swing by a fifth between seeds).
// Whether a walk's learn ends in the slow acceptance give-up changes with
// the walk, and the give-ups take 10x as long as the rest. With 4-state
// generators (three in four succeed) in the mix, about half the cases gave
// up, so the median case sat in the gap between the two groups and moved by
// a fifth between seeds; without them, 57% give up and the median sits
// inside the slow group.
constexpr std::size_t kCorpusCases = 400;
constexpr std::size_t kCorpusMinStates = 5;
constexpr std::size_t kCorpusMaxStates = 8;
constexpr std::size_t kCorpusWalkLength = 3000;
constexpr std::uint64_t kCorpusAutomataSeed = 1;
// Stream: a 6-event cycle with one 2-event burst (generator N = 8).
constexpr std::size_t kStreamEvents = 4'000'000;
// Per-case search budgets; an expiry counts as a failed case.
constexpr double kCorpusCaseTimeout = 10.0;
constexpr double kLongCaseTimeout = 60.0;
// Keeps a whole run under three minutes: cases that would start past this
// budget are recorded as failed without running.
constexpr double kRunBudgetSeconds = 140.0;

struct Case {
  std::string name;
  std::string path;
  bool ftrace = false;
  t2m::LearnerConfig config;
  std::size_t bound = 0;  ///< upper bound on the learned N
  std::uint64_t fingerprint = 0;
};

struct Workload {
  std::vector<Case> cases;
  std::vector<std::string> files;  ///< inputs written by the set-up
};

/// Writes one input file through the fingerprinting buffer.
std::uint64_t write_input(const std::string& path,
                          const std::function<void(std::ostream&)>& fill) {
  perfbench::FingerprintFileBuf buf(path);
  std::ostream os(&buf);
  fill(os);
  os.flush();
  if (!buf.close() || !os) throw std::runtime_error("cannot write " + path);
  return buf.fingerprint();
}

t2m::LearnerConfig default_config(double timeout_seconds) {
  t2m::LearnerConfig config;  // N from 2, persistent solver, acceptance on, 1 thread
  config.timeout_seconds = timeout_seconds;
  return config;
}

Workload setup_corpus(std::uint64_t seed, const std::string& dir) {
  Workload w;
  for (const auto& spec : perfbench::corpus_specs(kCorpusAutomataSeed, seed, kCorpusCases,
                                                  kCorpusMinStates, kCorpusMaxStates,
                                                  kCorpusWalkLength)) {
    Case c;
    c.name = spec.name;
    c.path = dir + "/" + spec.name + ".trace";
    c.config = default_config(kCorpusCaseTimeout);
    c.bound = spec.generator_states;
    c.fingerprint =
        write_input(c.path, [&spec](std::ostream& os) { perfbench::write_corpus_case(os, spec); });
    w.files.push_back(c.path);
    w.cases.push_back(std::move(c));
  }
  return w;
}

t2m::sim::PatternEventConfig stream_generator(std::uint64_t seed) {
  t2m::sim::PatternEventConfig gen;
  gen.events = kStreamEvents;
  gen.pattern_length = 6;
  gen.bursts = 1;
  gen.burst_length = 2;
  gen.seed = seed;
  return gen;
}

Workload setup_stream(std::uint64_t seed, const std::string& dir) {
  const t2m::sim::PatternEventConfig gen = stream_generator(seed);
  Case c;
  c.name = "pattern-4m";
  c.path = dir + "/pattern.ftrace";
  c.ftrace = true;
  c.config = default_config(kLongCaseTimeout);
  c.bound = t2m::sim::pattern_generator_states(gen);
  c.fingerprint = write_input(
      c.path, [&gen](std::ostream& os) { t2m::sim::write_pattern_event_ftrace(os, gen); });
  Workload w;
  w.files.push_back(c.path);
  w.cases.push_back(std::move(c));
  return w;
}

/// The paper's six traces. `bound_*` is the N the learner found for each
/// (segmented / unsegmented) when this benchmark was created; a later
/// change that needs more states fails the case.
struct PaperTrace {
  const char* name;
  std::function<t2m::Trace()> make;
  std::vector<std::string> input_vars;
  std::size_t bound_segmented;
  std::size_t bound_full;
};

std::vector<PaperTrace> paper_traces() {
  using namespace t2m::sim;
  return {
      {"usb-slot", [] { return generate_slot_trace(); }, {}, 4, 4},
      {"usb-attach", [] { return generate_usb_attach_trace(); }, {}, 8, 8},
      {"counter", [] { return generate_counter_trace({}); }, {}, 4, 4},
      {"serial", [] { return generate_serial_trace({}); }, {}, 5, 5},
      {"rtlinux", [] { return generate_full_coverage_sched_trace(20165); }, {}, 7, 7},
      {"integrator", [] { return generate_integrator_trace({}); }, {integrator_input_var()}, 3,
       3},
  };
}

Workload setup_paper(const std::string& dir) {
  Workload w;
  for (const PaperTrace& p : paper_traces()) {
    const std::string path = dir + "/" + p.name + ".trace";
    const t2m::Trace trace = p.make();
    const std::uint64_t fp =
        write_input(path, [&trace](std::ostream& os) { t2m::write_trace_text(os, trace); });
    w.files.push_back(path);
    for (const bool segmented : {true, false}) {
      Case c;
      c.name = std::string(p.name) + (segmented ? "/seg" : "/full");
      c.path = path;
      c.config = default_config(kLongCaseTimeout);
      c.config.segmented = segmented;
      c.config.abstraction.input_vars = p.input_vars;
      c.bound = segmented ? p.bound_segmented : p.bound_full;
      c.fingerprint = fp;
      w.cases.push_back(std::move(c));
    }
  }
  return w;
}

Workload setup(const std::string& workload, std::uint64_t seed, const std::string& dir) {
  if (workload == "corpus") return setup_corpus(seed, dir);
  if (workload == "stream") return setup_stream(seed, dir);
  return setup_paper(dir);
}

/// One learn of one case.
struct CaseRun {
  double seconds = 0.0;
  t2m::LearnResult result;
  std::string error;  ///< exception text when the learn threw
};

CaseRun run_case(const Case& c, double timeout_cap) {
  t2m::LearnerConfig config = c.config;
  config.timeout_seconds = std::min(config.timeout_seconds, timeout_cap);
  const t2m::ModelLearner learner(config);
  CaseRun run;
  const t2m::Stopwatch watch;
  try {
    if (c.ftrace) {
      run.result = learner.learn_from_ftrace(c.path);
    } else {
      run.result = learner.learn(t2m::read_trace_file(c.path));
    }
  } catch (const std::exception& e) {
    run.error = e.what();
  }
  run.seconds = watch.elapsed_seconds();
  return run;
}

/// What the stream probes saw, for checking against the learn.
struct ProbeCounts {
  std::size_t lines = 0;
  std::size_t steps = 0;  ///< |P|
  std::size_t segments = 0;
};

/// Stream probes: the one-pass ingest split into its layers, each timed by
/// its own span.
ProbeCounts stream_probes(const Case& c) {
  ProbeCounts counts;
  {
    const t2m::obs::Span span(perfbench::kSpanProbeScan);
    t2m::LineReader lines(c.path);
    std::string_view line;
    while (lines.next(line)) ++counts.lines;
  }
  std::vector<t2m::PredId> ids;
  {
    const t2m::obs::Span span(perfbench::kSpanProbeDrain);
    t2m::LineReader lines(c.path);
    t2m::FtracePredStream stream(lines);
    while (const auto id = stream.next()) ids.push_back(*id);
  }
  counts.steps = ids.size();
  {
    const t2m::obs::Span span(perfbench::kSpanProbeSegment);
    t2m::StreamingSegmenter segmenter(c.config.window);
    for (const t2m::PredId id : ids) segmenter.push(id);
    counts.segments = segmenter.take().size();
  }
  {
    const t2m::obs::Span span(perfbench::kSpanProbeWindows);
    t2m::ComplianceWindowBuilder builder(c.config.compliance_length);
    for (const t2m::PredId id : ids) builder.push(id);
    const t2m::ComplianceChecker checker = builder.finish();
    static_cast<void>(checker.trace_sequences());
  }
  return counts;
}

/// The traced learn: the same calls as run_case, with read, abstraction and
/// learn_from_sequence (which together are `learn`) each under a span. The
/// stream probes run first inside the same trace, outside the timed region.
CaseRun run_case_traced(const Case& c, double timeout_cap,
                        std::vector<perfbench::TraceSpan>& spans, std::string& problem) {
  t2m::LearnerConfig config = c.config;
  config.timeout_seconds = std::min(config.timeout_seconds, timeout_cap);
  const t2m::ModelLearner learner(config);
  auto& tracer = t2m::obs::Tracer::instance();
  CaseRun run;
  tracer.start();
  ProbeCounts probe;
  try {
    if (c.ftrace) probe = stream_probes(c);
    const t2m::Stopwatch watch;
    if (c.ftrace) {
      const t2m::obs::Span span(perfbench::kSpanLearnFtrace);
      run.result = learner.learn_from_ftrace(c.path);
    } else {
      t2m::Trace trace;
      {
        const t2m::obs::Span span(perfbench::kSpanRead);
        trace = t2m::read_trace_file(c.path);
      }
      t2m::PredicateSequence preds;
      {
        const t2m::obs::Span span(perfbench::kSpanAbstract);
        t2m::AbstractionConfig abstraction = config.abstraction;
        abstraction.window = config.window;
        preds = t2m::abstract_trace(trace, abstraction);
      }
      const t2m::obs::Span span(perfbench::kSpanLearnSeq);
      run.result = learner.learn_from_sequence(std::move(preds), trace.schema());
    }
    run.seconds = watch.elapsed_seconds();
  } catch (const std::exception& e) {
    run.error = e.what();
  }
  tracer.stop();

  if (tracer.dropped_count() != 0) {
    problem = c.name + ": tracer dropped " + std::to_string(tracer.dropped_count()) + " events";
  }
  std::ostringstream json;
  tracer.write_json(json);
  const t2m::Status status = perfbench::load_spans(json.str(), spans);
  if (!status.ok()) problem = c.name + ": malformed trace: " + status.to_string();
  // One event per line; the first event starts the sequence, so |P| is one
  // less than the line count.
  if (c.ftrace && run.error.empty() && run.result.success &&
      (probe.steps + 1 != probe.lines || probe.steps != run.result.stats.sequence_length ||
       probe.segments != run.result.stats.segments)) {
    problem = c.name + ": stream probes disagree with the learn (lines " +
              std::to_string(probe.lines) + ", |P| " + std::to_string(probe.steps) + " vs " +
              std::to_string(run.result.stats.sequence_length) + ", segments " +
              std::to_string(probe.segments) + " vs " +
              std::to_string(run.result.stats.segments) + ")";
  }
  return run;
}

std::uint64_t model_hash(const t2m::Nfa& model) {
  perfbench::Fnv1a h;
  const auto put = [&h](std::size_t v) {
    h.update({reinterpret_cast<const char*>(&v), sizeof v});
  };
  put(model.num_states());
  put(model.initial());
  for (const auto& t : model.transitions()) {
    put(t.src);
    put(t.pred);
    put(t.dst);
  }
  return h.value();
}

const char* failure_kind(const CaseRun& run) {
  const t2m::LearnResult& r = run.result;
  if (!run.error.empty()) return "error";
  if (r.salvaged) return "salvaged";
  if (r.resource_exhausted) return "out of memory";
  if (r.budget_exceeded) return "clause budget";
  if (r.timed_out) return "timeout";
  return "no model";
}

/// What the benchmark concluded about one case, from its first learn.
struct CaseOutcome {
  bool seen = false;
  bool failed = false;  ///< counts in fail_frac
  std::string verdict;
  std::size_t states = 0;
  std::uint64_t model = 0;
  bool learned = false;
  std::vector<double> ms;      ///< latency of every untraced learn
  std::vector<double> rss_mb;  ///< peak resident set of every untraced learn
};

struct Tally {
  std::size_t attempted = 0;
  std::size_t failed_calls = 0;
  std::vector<std::string> problems;  ///< anything that makes the run incorrect
};

void observe(const Case& c, const CaseRun& run, CaseOutcome& out, Tally& tally) {
  const t2m::LearnResult& r = run.result;
  const bool learned = run.error.empty() && r.success;
  ++tally.attempted;
  if (!learned) ++tally.failed_calls;

  if (out.seen) {
    // Learning is deterministic: a repeat must reproduce the first model
    // unless one of the two ran out of time.
    if (learned && out.learned && (r.states != out.states || model_hash(r.model) != out.model)) {
      tally.problems.push_back(c.name + ": repeated learn gave a different model");
    }
    if (!learned && !out.failed) {
      out.failed = true;
      out.verdict = std::string("FAIL ") + failure_kind(run) + " on a repeat";
    }
    return;
  }
  out.seen = true;
  out.learned = learned;
  if (!learned) {
    out.failed = true;
    out.verdict = std::string("FAIL ") + failure_kind(run);
    if (!run.error.empty()) out.verdict += ": " + run.error;
    return;
  }
  out.states = r.states;
  out.model = model_hash(r.model);
  const perfbench::ModelCheck check =
      perfbench::check_model(r.model, r.preds.seq, c.config.compliance_length, c.bound);
  const bool relaxed = r.stats.acceptance_relaxed;
  if (check.ok()) {
    out.verdict = relaxed ? "ok (acceptance relaxed, still replays)" : "ok";
    return;
  }
  out.failed = true;
  out.verdict = std::string("FAIL ") + (relaxed ? "acceptance relaxed, " : "") + check.describe();
  // A model the learner reports as fully checked must pass the independent
  // check; only the relaxed verdict and the N bound are allowed to miss.
  if (!relaxed && !(check.replays && check.paths_in_trace)) {
    tally.problems.push_back(c.name + ": learner success fails verification: " +
                             check.describe());
  }
}

/// Peak resident set of this process in MB (VmHWM; getrusage as fallback).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Returns freed heap to the system and restarts VmHWM, so the next
/// reading is the peak of what runs in between. Each learn then starts from
/// a trimmed heap, as a fresh `t2m learn` process does.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

std::string format_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

int usage() {
  std::cerr << "usage: t2m_perfbench --workload corpus|stream|paper --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const t2m::CliArgs args(argc, argv);
  const std::string workload = args.get_or("workload", "");
  if (workload != "corpus" && workload != "stream" && workload != "paper") return usage();
  const auto seed = static_cast<std::uint64_t>(args.get_int_or("seed", 1));
  const double seconds = args.get_double_or("seconds", 10.0);
  const bool traced = args.get_int_or("trace", 0) != 0;
  const std::string dir = args.get_or("work-dir", ".bench_build/work") + "/" + workload;
  t2m::Logger::instance().set_level(t2m::LogLevel::Error);
  // Pin glibc's mmap threshold at its 128 KiB default. Left dynamic, it
  // rises after the first learn frees its large buffers, and later learns
  // then carve those buffers from a fragmented heap: repeats of one learn
  // read 43, 58 and 75 MB peak RSS. Pinned, every learn sees the allocator
  // a fresh `t2m learn` process starts with.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  const t2m::Stopwatch run_clock;

  // Kernel samples after each set-up and each learn give the machine's
  // speed relative to the reference; every end-to-end time is reported at
  // reference speed.
  perfbench::SpeedProbe probe;

  // Set-up, repeated so its median is a steady figure.
  std::filesystem::create_directories(dir);
  // Set-up is cheap except on stream, so the cheap ones repeat more.
  const int setup_reps = workload == "stream" ? 7 : workload == "corpus" ? 21 : 101;
  std::vector<double> setup_times;
  Workload w;
  for (int i = 0; i < setup_reps; ++i) {
    const t2m::Stopwatch watch;
    w = setup(workload, seed, dir);
    setup_times.push_back(watch.elapsed_seconds());
    probe.sample_after(setup_times.back());
  }
  const double setup_scale = probe.scale();
  perfbench::Fnv1a inputs;
  for (const Case& c : w.cases) inputs.update(hex64(c.fingerprint));
  std::cout << "perfbench: workload " << workload << ", seed " << seed << ", "
            << w.cases.size() << " cases, inputs " << hex64(inputs.value()) << ", set-up "
            << format_number(perfbench::median(setup_times)) << " s (median of " << setup_reps
            << ")\n";
  if (workload == "paper") std::cout << "perfbench: the paper traces do not depend on the seed\n";

  std::vector<CaseOutcome> outcomes(w.cases.size());
  Tally tally;
  // Raw pass walls plan the passes; scaled ones give wall_s and
  // trace_overhead_frac.
  std::vector<double> untraced_walls;
  std::vector<double> traced_walls;
  std::vector<double> scaled_untraced_walls;
  std::vector<double> scaled_traced_walls;
  std::map<std::string, std::vector<double>> layer_runs;

  reset_peak_rss();
  const t2m::Stopwatch measure;
  for (std::size_t pass = 0;; ++pass) {
    const bool traced_pass = traced && pass % 2 == 1;
    // Passes run until --seconds is used up: one more starts only when a
    // pass of its kind is expected to fit (untraced and, with --trace 1,
    // traced passes alternate; each kind runs at least once).
    const std::vector<double>& same_kind = traced_pass ? traced_walls : untraced_walls;
    if (!same_kind.empty() &&
        (measure.elapsed_seconds() + same_kind.back() > seconds ||
         run_clock.elapsed_seconds() >= kRunBudgetSeconds)) {
      break;
    }
    perfbench::LayerLedger ledger;
    double wall = 0.0;
    const std::size_t first_sample = probe.samples();
    std::vector<std::size_t> timed;  // cases whose latency this pass recorded
    for (std::size_t i = 0; i < w.cases.size(); ++i) {
      const Case& c = w.cases[i];
      const double left = kRunBudgetSeconds - run_clock.elapsed_seconds();
      CaseRun run;
      if (left <= 1.0) {
        run.error = "run budget exhausted before the case started";
      } else if (traced_pass) {
        std::vector<perfbench::TraceSpan> spans;
        std::string problem;
        run = run_case_traced(c, left, spans, problem);
        if (!problem.empty()) tally.problems.push_back(problem);
        ledger.add_case(spans, run.result);
      } else {
        reset_peak_rss();
        run = run_case(c, left);
        outcomes[i].ms.push_back(run.seconds * 1e3);
        timed.push_back(i);
        // The calibration table is resident throughout; a `t2m learn`
        // process would not hold it.
        outcomes[i].rss_mb.push_back(peak_rss_mb() -
                                     static_cast<double>(perfbench::SpeedProbe::table_bytes()) /
                                         (1024.0 * 1024.0));
      }
      wall += run.seconds;
      observe(c, run, outcomes[i], tally);
      probe.sample_after(run.seconds);
    }
    std::cout << "pass " << pass << (traced_pass ? " traced" : "") << " wall "
              << format_number(wall) << " s\n";
    // Each pass is scaled by the samples taken during it, so a slowdown
    // that starts or ends mid-run is matched to the passes it hit.
    const double pass_scale = probe.scale_since(first_sample);
    if (traced_pass) {
      traced_walls.push_back(wall);
      scaled_traced_walls.push_back(wall * pass_scale);
      for (const auto& [name, value] : ledger.metrics()) layer_runs[name].push_back(value);
    } else {
      for (const std::size_t i : timed) outcomes[i].ms.back() *= pass_scale;
      untraced_walls.push_back(wall);
      scaled_untraced_walls.push_back(wall * pass_scale);
    }
  }

  std::size_t failed_cases = 0;
  for (std::size_t i = 0; i < w.cases.size(); ++i) {
    const Case& c = w.cases[i];
    const CaseOutcome& o = outcomes[i];
    if (o.failed) ++failed_cases;
    std::cout << "case " << c.name << " input=" << hex64(c.fingerprint) << " bound=" << c.bound
              << " N=" << o.states << " ms=" << format_number(perfbench::median(o.ms))
              << " rss_mb=" << format_number(perfbench::median(o.rss_mb))
              << " verdict: " << o.verdict << "\n";
  }
  for (const std::string& problem : tally.problems) {
    std::cout << "perfbench: INCORRECT: " << problem << "\n";
  }

  std::vector<Metric> metrics;
  if (traced) {
    const double untraced = perfbench::median(scaled_untraced_walls);
    const double traced_wall = perfbench::median(scaled_traced_walls);
    for (const auto& [name, values] : layer_runs) {
      metrics.push_back({name, perfbench::median(values), perfbench::layer_unit(name)});
    }
    metrics.push_back({"trace_overhead_frac",
                       untraced > 0 ? (traced_wall - untraced) / untraced : 0.0, "fraction"});
    std::cout << "perfbench: " << untraced_walls.size() << " untraced and " << traced_walls.size()
              << " traced passes\n";
  } else {
    // Latency and memory are per case (median over its learns), reported
    // at the same tail quantile.
    std::vector<double> latency_ms;
    std::vector<double> rss_mb;
    for (const CaseOutcome& o : outcomes) {
      if (o.ms.empty()) continue;
      latency_ms.push_back(perfbench::median(o.ms));
      rss_mb.push_back(perfbench::median(o.rss_mb));
    }
    const double scale = probe.scale();
    std::cout << "perfbench: speed scale " << format_number(scale) << " over the run, "
              << format_number(setup_scale) << " over the set-up (calibration kernel median "
              << format_number(perfbench::SpeedProbe::kReferenceSeconds / scale * 1e3)
              << " ms over " << probe.samples() << " samples, reference "
              << format_number(perfbench::SpeedProbe::kReferenceSeconds * 1e3)
              << " ms); raw wall_s " << format_number(perfbench::median(untraced_walls))
              << ", raw setup_s " << format_number(perfbench::median(setup_times)) << "\n";
    const perfbench::TailReport tail = perfbench::reported_tail(latency_ms);
    const perfbench::TailReport rss_tail = perfbench::reported_tail(rss_mb);
    std::cout << "perfbench: " << untraced_walls.size() << " passes over " << latency_ms.size()
              << " cases; case_p90_ms and peak_rss_mb report "
              << (tail.q < 1.0 ? "the p90 over cases"
                               : "the largest case (too few cases for a p90)")
              << "\n";
    std::cout << "perfbench: " << failed_cases << " of " << w.cases.size()
              << " cases failed (raw fraction "
              << format_number(static_cast<double>(failed_cases) /
                               static_cast<double>(w.cases.size()))
              << ")\n";
    metrics = {
        {"wall_s", perfbench::median(scaled_untraced_walls), "s"},
        {"case_p50_ms", perfbench::median(latency_ms), "ms"},
        {"case_p90_ms", tail.value, "ms"},
        // Add-one estimate of the failure rate: never exactly 0, so a bound
        // relative to it stays meaningful on a workload with no failures.
        {"fail_frac",
         static_cast<double>(failed_cases + 1) / static_cast<double>(w.cases.size() + 2),
         "fraction"},
        {"peak_rss_mb", rss_tail.value, "MB"},
        {"setup_s", perfbench::median(setup_times) * setup_scale, "s"},
    };
  }
  for (const Metric& m : metrics) {
    std::cout << "metric " << m.name << " = " << format_number(m.value) << " " << m.unit << "\n";
  }

  for (const std::string& file : w.files) std::remove(file.c_str());

  const bool correct = tally.problems.empty();
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << tally.attempted << ", \"failed\": " << tally.failed_calls
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i == 0 ? "" : ", ") << "\"" << metrics[i].name << "\": {\"value\": "
              << format_number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}
