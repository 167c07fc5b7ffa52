#ifndef T2M_BENCH_BENCH_COMMON_H
#define T2M_BENCH_BENCH_COMMON_H

#include <fstream>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "src/core/learner.h"
#include "src/core/report.h"
#include "src/sim/basic/counter.h"
#include "src/sim/basic/integrator.h"
#include "src/sim/rtlinux/workloads.h"
#include "src/sim/serial/serial_port.h"
#include "src/sim/xhci/ring_interface.h"
#include "src/sim/xhci/slot_fsm.h"
#include "src/util/string_utils.h"

namespace t2m::bench {

/// One of the paper's six benchmarks, with the values Tables I and II report
/// for it (runtimes are the authors' CBMC/MINT numbers on their machine; we
/// reproduce the *shape*, not the absolute figures).
struct BenchCase {
  std::string name;
  std::size_t paper_states;       // N in Table I / "Model Learning" states
  std::size_t paper_trace_len;    // trace length column
  std::string paper_full_s;       // Table I, full-trace runtime
  std::string paper_seg_s;        // Table I, segmented runtime
  std::string paper_merge_s;      // Table II, state-merge runtime
  std::string paper_merge_states; // Table II, state-merge state count
  std::string paper_learn_s;      // Table II, model-learning runtime
  std::function<Trace()> make_trace;
  std::vector<std::string> input_vars;
};

inline std::vector<BenchCase> paper_benchmarks() {
  return {
      {"USB Slot", 4, 39, "14.1", "9", "8.7", "6", "14.5",
       [] { return sim::generate_slot_trace(); }, {}},
      {"USB Attach", 7, 259, "2249.5", "915.4", "35.1", "91", "3615.1",
       [] { return sim::generate_usb_attach_trace(); }, {}},
      {"Counter", 4, 447, "249.1", "95.9", "12.1", "377", "98.6",
       [] { return sim::generate_counter_trace({}); }, {}},
      {"Serial I/O Port", 6, 2076, "23590.5", "60.2", "28.6", "28", "137.4",
       [] { return sim::generate_serial_trace({}); }, {}},
      {"Linux Kernel", 8, 20165, ">16 hours", "516.3", "~5 h", "no model", "4173.6",
       [] { return sim::generate_full_coverage_sched_trace(20165); }, {}},
      {"Integrator", 3, 32768, ">16 hours", "3495.6", "~5 h", "no model", "3497.2",
       [] { return sim::generate_integrator_trace({}); },
       {sim::integrator_input_var()}},
  };
}

/// Learner configuration for a case. As in Table I, the search starts at the
/// known N for a fair comparison, and Algorithm 1 runs as published: no
/// trace-acceptance strengthening, a fresh CSP per N (the search starts at
/// the known N anyway, so there is nothing for a persistent solver to
/// reuse). The fresh-vs-persistent comparison lives in bench_micro,
/// bench_fig6_rtlinux and bench_fig7_scaling.
inline LearnerConfig table_config(const BenchCase& c, bool segmented,
                                  double timeout_seconds) {
  LearnerConfig config;
  config.segmented = segmented;
  config.initial_states = c.paper_states;
  config.timeout_seconds = timeout_seconds;
  config.abstraction.input_vars = c.input_vars;
  config.require_trace_acceptance = false;
  config.persistent_solver = false;
  if (segmented) {
    // Paper-faithful: pairwise determinism, direct forbidden-word binaries —
    // this column measures the constraint system whose cost the
    // segmentation study reports.
    config.encoding = DeterminismEncoding::Pairwise;
    config.compress_forbidden = false;
  } else {
    // The full-trace column runs the default encoding: the successor
    // determinism encoding and star-compressed forbidden pairs are what
    // keep the paper's ">16 hours" rows tractable. (The paper-faithful
    // pairwise full-trace baseline lives in fig7.)
    config.encoding = DeterminismEncoding::Successor;
    config.compress_forbidden = true;
  }
  return config;
}

/// "0.123", ">30 (timeout)" or "intractable (clause budget)".
inline std::string runtime_cell(const LearnResult& r, double timeout_seconds) {
  if (r.success) return format_double(r.stats.total_seconds);
  if (r.resource_exhausted) return "out of memory";
  if (r.budget_exceeded) return "intractable (clause budget)";
  if (r.timed_out) {
    // += form: GCC 12's -Wrestrict false-fires on the concatenation
    // temporaries at -O2 (PR105651).
    std::string cell = ">";
    cell += format_double(timeout_seconds);
    cell += " (timeout)";
    return cell;
  }
  return "no model";
}

/// One measured run for the perf-trajectory log.
struct BenchRecord {
  std::string bench;          ///< benchmark id, e.g. "table1/USB Slot/segmented"
  double wall_seconds = 0.0;
  bool success = false;
  bool timed_out = false;
  /// Encoding overran the clause budget: "intractable at this budget" is a
  /// property of the instance + configuration, not of the machine's speed —
  /// bench_check treats it as its own verdict, distinct from a timeout.
  bool budget_exceeded = false;
  /// The run hit the memory cap or an allocation failed — the memory
  /// sibling of budget_exceeded; bench_check treats it as incomplete.
  bool resource_exhausted = false;
  /// The reported model is the best-so-far from an aborted run, not a full
  /// verdict (LearnResult::salvaged).
  bool salvaged = false;
  /// Excuse this record from the wall-clock regression gate (loaded-machine
  /// benchmarks whose wall time is advisory, e.g. thread-scaling entries).
  bool wall_exempt = false;
  std::size_t states = 0;
  /// Full per-run statistics. The flat work-counter fields of the record
  /// (sat_calls, sat_conflicts, ..., csp_grows — the bench_check contract)
  /// and the nested "metrics" snapshot are both derived from it, via
  /// report.h's write_bench_stats_fields / to_json, so the bench emitters
  /// cannot drift from the stats serialization everything else uses.
  LearnStats stats;
};

/// Collects per-benchmark results and emits them as JSON (default:
/// BENCH_results.json in the working directory), so successive PRs can
/// track wall time, SAT effort and arena footprint per paper benchmark.
class BenchResultsJson {
public:
  void add(std::string bench, const LearnResult& r, bool wall_exempt = false) {
    BenchRecord rec;
    rec.bench = std::move(bench);
    rec.wall_seconds = r.stats.total_seconds;
    rec.success = r.success;
    rec.timed_out = r.timed_out;
    rec.budget_exceeded = r.budget_exceeded;
    rec.resource_exhausted = r.resource_exhausted;
    rec.salvaged = r.salvaged;
    rec.wall_exempt = wall_exempt;
    rec.states = r.states;
    rec.stats = r.stats;
    records_.push_back(std::move(rec));
  }

  void write(std::ostream& os) const {
    os << "[\n";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const BenchRecord& r = records_[i];
      os << "  {\"bench\": \"" << escape(r.bench) << "\""
         << ", \"wall_seconds\": " << format_double(r.wall_seconds, 6)
         << ", \"success\": " << (r.success ? "true" : "false")
         << ", \"timed_out\": " << (r.timed_out ? "true" : "false")
         << ", \"budget_exceeded\": " << (r.budget_exceeded ? "true" : "false")
         << ", \"resource_exhausted\": " << (r.resource_exhausted ? "true" : "false")
         << ", \"salvaged\": " << (r.salvaged ? "true" : "false")
         << ", \"wall_exempt\": " << (r.wall_exempt ? "true" : "false")
         << ", \"states\": " << r.states;
      write_bench_stats_fields(os, r.stats);
      // The full-stats snapshot stays the LAST field on the line:
      // bench_check reads flat fields by their first occurrence, so every
      // key the gates consume must appear before the nested object repeats
      // any of them. "fingerprint" pins the verdict's clause database:
      // bench_check fails on any drift from a nonzero baseline value.
      os << ", \"fingerprint\": " << r.stats.encoding_fingerprint
         << ", \"metrics\": " << to_json(r.stats) << "}"
         << (i + 1 < records_.size() ? "," : "") << "\n";
    }
    os << "]\n";
  }

  bool write_file(const std::string& path = "BENCH_results.json") const {
    std::ofstream out(path);
    if (!out) return false;
    write(out);
    return bool(out);
  }

private:
  static std::string escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  std::vector<BenchRecord> records_;
};

}  // namespace t2m::bench

#endif  // T2M_BENCH_BENCH_COMMON_H
