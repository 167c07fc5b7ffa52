#ifndef T2M_CORE_LEARNER_H
#define T2M_CORE_LEARNER_H

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/abstraction/abstraction.h"
#include "src/abstraction/pred_stream.h"
#include "src/automaton/nfa.h"
#include "src/base/status.h"
#include "src/core/compliance.h"
#include "src/core/csp_encoder.h"
#include "src/core/segmentation.h"
#include "src/obs/progress.h"
#include "src/trace/trace.h"
#include "src/util/stopwatch.h"

namespace t2m {

/// Configuration of the end-to-end learner (the paper's tunables).
struct LearnerConfig {
  /// Segmentation window w over the predicate sequence (paper: w = 3).
  std::size_t window = 3;
  /// Compliance-check transition-sequence length l (paper: l = 2).
  std::size_t compliance_length = 2;
  /// Starting number of automaton states N (paper: 2; Table I starts at the
  /// known N for a fair segmented/non-segmented comparison).
  std::size_t initial_states = 2;
  /// Give up beyond this many states.
  std::size_t max_states = 64;
  /// Unique-window segmentation on/off (off = feed P as one chain; the
  /// Table I / Fig. 7 baseline).
  bool segmented = true;
  /// Determinism encoding (see csp_encoder.h).
  DeterminismEncoding encoding = DeterminismEncoding::Successor;
  /// Wall-clock budget in seconds; 0 = unlimited.
  double timeout_seconds = 0.0;
  /// Additionally require the model to accept the whole predicate sequence
  /// P from its initial state (our strengthening over Algorithm 1: segment
  /// embedding plus compliance do not by themselves pin down a wiring that
  /// replays the trace). A compliant candidate that dead-ends at step i of P
  /// triggers a prefix refinement: the leading segment is extended to
  /// P[0..i] in place and the search re-solves at the same N (see
  /// ModelLearner). A successful learn then always returns a model that
  /// replays P.
  bool require_trace_acceptance = true;
  /// Keep ONE SAT solver alive across the whole N-increment loop (guarded
  /// one-hot encoding + per-solve assumptions, see AutomatonCsp): learned
  /// clauses, VSIDS activity and saved phases survive state-count growth,
  /// and segments/forbidden words are encoded once instead of per N. Off =
  /// the fresh-CSP-per-N reference path (differential-tested against).
  bool persistent_solver = true;
  /// Persistent mode: one-hot columns allocated beyond the starting N, so
  /// the first `state_headroom` increments are assumption flips. Growing
  /// past the headroom rebuilds the CSP from scratch with a larger
  /// capacity; the old solver's learned clauses are not carried over.
  std::size_t state_headroom = 6;
  /// Assumption-core-driven early stop: when a persistent-mode Unsat core
  /// names no inactive-column guard (AutomatonCsp::unsat_for_all_states),
  /// the instance is Unsat for every state count — stop instead of growing
  /// to max_states blindly.
  bool core_driven_stop = true;
  /// Solver settings (proof log, original-clause retention) applied to
  /// every CSP this learner builds.
  sat::SolverConfig solver;
  /// Star-compress length-2 forbidden words (CspOptions::compress_forbidden):
  /// shared per-(predicate, side) flag variables instead of the quadratic
  /// per-transition-pair binaries. The lever that keeps unsegmented long
  /// traces inside the clause budget.
  bool compress_forbidden = true;
  /// Clause budget per CSP; 0 keeps the CspOptions default. Overrunning it
  /// ends the learn with LearnResult::budget_exceeded.
  std::size_t max_clauses = 0;
  /// Cooperative cancellation (non-owning; may be null): polled between
  /// solver calls and inside Solver::solve at every conflict. A learn
  /// aborted this way returns with `cancelled` (and timed_out) set.
  const std::atomic<bool>* stop = nullptr;
  /// Global memory cap in bytes applied (via MemoryAccountant) for the
  /// duration of each public learn call; 0 = unlimited. Overrunning it ends
  /// the learn with LearnResult::resource_exhausted — allocation pressure
  /// becomes a verdict, not a crash. The accountant is process-global, so
  /// concurrent learners share the cap.
  std::size_t max_memory_bytes = 0;
  /// Seconds between progress lines (`t2m --progress`); 0 = off. While the
  /// search runs, its deadline checks poll the clock on the learn's own
  /// thread and log an Info line once this interval has passed (see
  /// obs::ProgressPoll). The lines' `t=` counts from the learn call's entry.
  double progress_seconds = 0.0;
  /// Trace-abstraction settings (window is taken from `window`).
  AbstractionConfig abstraction;
};

/// Counters describing one learning run.
struct LearnStats {
  std::size_t sequence_length = 0;   ///< |P|
  std::size_t vocabulary_size = 0;   ///< distinct predicates
  std::size_t segments = 0;          ///< unique windows encoded
  std::size_t encoded_transitions = 0;
  std::size_t sat_calls = 0;
  /// Refinement iterations: failed compliance checks plus prefix refinements.
  std::size_t refinements = 0;
  /// Acceptance refinements: times the leading segment was extended to a
  /// longer trace prefix (each also counts in `refinements`).
  std::size_t prefix_refinements = 0;
  /// Prefix refinements served in place by AutomatonCsp::extend_prefix on
  /// the live CSP, without a rebuild.
  std::size_t prefix_extensions = 0;
  std::size_t state_increments = 0;  ///< times N had to grow
  std::size_t forbidden_words = 0;   ///< distinct forbidden sequences learned
  // Solver-reuse trajectory: how often the run could flip assumptions on a
  // live solver versus paying for a fresh encoding.
  /// CSP constructions: one per N on the fresh path; one plus one per
  /// capacity rebuild on the persistent path.
  std::size_t csp_builds = 0;
  std::size_t csp_grows = 0;   ///< in-place state-count growths (persistent path)
  // Aggregated over every CSP solver the run constructed (the perf
  // trajectory counters the bench JSON emitter records).
  std::uint64_t sat_conflicts = 0;
  std::uint64_t sat_propagations = 0;
  std::uint64_t sat_learned_clauses = 0;
  std::size_t sat_peak_arena_bytes = 0;  ///< max clause-arena bytes of any CSP
  /// Times the assumption-core early stop fired (0 or 1 per run): the
  /// persistent solver proved the instance Unsat for every state count.
  std::size_t core_stops = 0;
  /// Solver::clause_fingerprint() of the CSP that produced the verdict (the
  /// model's, or the Unsat proof's that ended the search); 0 when the run
  /// ended without one (timeout, clause budget, memory). Pins the emitted
  /// encoding: bench_check compares it with the baseline.
  std::uint64_t encoding_fingerprint = 0;
  /// MemoryAccountant peak in bytes over the public learn call: the
  /// accountant's peak is restarted from its current usage as the call
  /// begins. The accountant is process-wide, so bytes other live structures
  /// hold at the start count too (and so do those of concurrent learns).
  std::size_t accounted_peak_bytes = 0;
  /// Always false: prefix refinement never abandons trace acceptance. Kept
  /// so stats readers that consult it still compile and read "not relaxed".
  bool acceptance_relaxed = false;
  double abstraction_seconds = 0.0;
  double construction_seconds = 0.0;
  double total_seconds = 0.0;
};

// [[nodiscard]]: a learn verdict carries success/salvage flags the caller
// must consult; discarding one hides failed or salvaged runs.
struct [[nodiscard]] LearnResult {
  bool success = false;
  bool timed_out = false;
  /// The run was aborted by the caller's cooperative stop flag
  /// (LearnerConfig::stop); timed_out is also set for compatibility.
  bool cancelled = false;
  /// The CSP encoding overran its clause budget: the instance is intractable
  /// at this budget, which is a verdict about the encoding size — distinct
  /// from timed_out (a wall-clock accident of the machine).
  bool budget_exceeded = false;
  /// The run hit the configured memory cap (LearnerConfig::max_memory_bytes)
  /// or an allocation failed: the budget_exceeded sibling for memory.
  bool resource_exhausted = false;
  /// `model` is the best model accepted so far (it passed compliance when it
  /// was captured), salvaged from a run that timed out, overran its clause
  /// budget, or exhausted memory before reaching a full verdict. Always
  /// paired with one of those three flags; success stays false.
  bool salvaged = false;
  /// Structured detail for failed runs (taxonomy + diagnostic); ok() for
  /// clean verdicts. Entry points return this instead of throwing.
  Status status;
  Nfa model;                 ///< names attached; valid when success or salvaged
  std::size_t states = 0;    ///< the paper's N
  PredicateSequence preds;   ///< the abstraction output (vocabulary + P)
  /// The schema `preds` was interned against. Callers of the trace/sequence
  /// entry points already hold it; the streaming and ftrace paths build it
  /// internally, and reporting needs it back (tools/t2m --ftrace).
  Schema schema;
  LearnStats stats;
};

/// The paper's model-learning algorithm end to end: trace abstraction,
/// segmentation, iterative SAT search for the smallest N-state automaton,
/// and the compliance-driven refinement loop.
///
/// With require_trace_acceptance on, the loop also refines on acceptance.
/// The leading segment of the encoded layout is a prefix of P whose first
/// state variable the encoding fixes to state 0, which is q0 (value
/// precedence, see AutomatonCsp): first the window P[0..w), later a longer
/// prefix.
/// A candidate that passes compliance is replayed on P. If it dead-ends at
/// step i, the leading segment is extended to P[0..i] (i + 1 steps) in
/// place: AutomatonCsp::extend_prefix appends the tail's state variables
/// and clauses to the live CSP at the same N, which keeps its learned
/// clauses, activities and phases. The other segments stay encoded; those
/// that are windows of the prefix are tied to their first occurrence in it
/// (see AutomatonCsp). Every later build (the next N on the fresh path, a
/// capacity rebuild on the persistent one) encodes the original segments
/// and replays the recorded tails in order, so its layout is the live
/// CSP's.
///  - Sound: a model that replays P runs through P[0..i] from q0, so it
///    embeds the extended leading segment.
///  - Progress: the candidate is deterministic and embeds the old leading
///    segment from q0, so i is at least that segment's length and the
///    prefix strictly grows. The candidate violates the new prefix, so it
///    is excluded. There are at most |P| refinements in a whole run, and
///    there is no give-up path.
///  - Exact: every constraint the loop adds holds for every compliant model
///    that replays P. So an Unsat at N proves no such N-state model exists.
///    Since N grows from initial_states, the fresh and the persistent path
///    both return the smallest such N (their models may differ).
class ModelLearner {
public:
  explicit ModelLearner(LearnerConfig config = {});

  /// Learns from a concrete trace (abstraction mode selected automatically
  /// unless `mode` says otherwise).
  LearnResult learn(const Trace& trace, AbstractionMode mode = AbstractionMode::Auto) const;

  /// Learns from a pre-abstracted predicate sequence.
  LearnResult learn_from_sequence(PredicateSequence preds, const Schema& schema) const;

  /// Streaming path for traces too long to materialise: one pass over
  /// `stream` feeds the unique-window segmenter directly, and the
  /// compliance window set P_l is built from the segments it keeps, so peak
  /// memory is O(window + dedup set) instead of O(trace). The compact id
  /// sequence is additionally retained only when the configuration needs it
  /// (trace acceptance on, non-segmented encoding, or a compliance length
  /// above the window, whose windows the segments do not hold). The CEGIS
  /// search then runs on byte-identical artefacts to
  /// the in-memory path, so both produce the same model
  /// (differential-tested in tests/test_stream_pipeline.cpp).
  LearnResult learn_from_stream(PredStream& stream) const;

  /// Learns from an on-disk ftrace log through the streaming one-pass
  /// pipeline (learn_from_stream over an FtracePredStream).
  LearnResult learn_from_ftrace(const std::string& path,
                                const std::string& task_filter = "") const;

  const LearnerConfig& config() const { return config_; }

private:
  /// learn_from_sequence and learn_from_stream without the entry guard, so
  /// a public call that delegates applies the guard once. `total` is the
  /// guard's clock and `progress` its progress poll, both started when the
  /// public call was entered.
  LearnResult search_sequence(PredicateSequence preds, const Schema& schema,
                              obs::ProgressPoll& progress) const;
  LearnResult search_stream(PredStream& stream, const Stopwatch& total,
                            obs::ProgressPoll& progress) const;

  /// The iterative SAT search and refinement loop (Algorithm 1 plus the
  /// acceptance refinement) shared by the in-memory and streaming entry
  /// points. `sequence_length` is |P|; preds.seq may be empty in streaming
  /// mode (acceptance is then skipped). The timeout starts here, after
  /// ingest, so both paths give the search the same budget. `progress`
  /// reads the run's counters while the search runs.
  LearnResult run_cegis(PredicateSequence preds, std::size_t sequence_length,
                        const std::vector<Segment>& segments,
                        const ComplianceChecker& compliance_checker,
                        const Schema& schema, obs::ProgressPoll& progress) const;

  LearnerConfig config_;
};

}  // namespace t2m

#endif  // T2M_CORE_LEARNER_H
