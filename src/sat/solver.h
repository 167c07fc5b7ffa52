#ifndef T2M_SAT_SOLVER_H
#define T2M_SAT_SOLVER_H

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "src/base/status.h"
#include "src/sat/clause_arena.h"
#include "src/sat/cnf.h"
#include "src/sat/watcher_list.h"
#include "src/util/stopwatch.h"

namespace t2m::sat {

class ProofLog;

/// Outcome of a solve() call. Unknown is returned when the deadline or
/// conflict budget ran out before a decision was reached.
enum class SolveResult : std::uint8_t { Sat, Unsat, Unknown };

/// Runtime statistics, exposed for the bench harnesses.
struct SolverStats {
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t restarts = 0;
  std::uint64_t learned_clauses = 0;
  std::uint64_t learned_literals = 0;
  std::uint64_t reduces = 0;        ///< learned-clause reduction rounds
  std::uint64_t gc_runs = 0;        ///< arena compactions
  std::uint64_t solves = 0;             ///< solve() calls on this instance
  std::uint64_t assumption_unsats = 0;  ///< Unsat verdicts from a failed assumption
  std::uint64_t simplify_rounds = 0;    ///< root-level simplification passes
  std::uint64_t simplify_removed = 0;   ///< clauses removed as root-satisfied
  std::size_t arena_bytes = 0;      ///< clause arena size after last solve
  std::size_t peak_arena_bytes = 0; ///< lifetime arena high-water mark
};

/// Output-side solver settings: neither changes the search. Apply via
/// Solver::set_config() before encoding.
struct SolverConfig {
  /// When set, the solver writes an extended-DRAT trace of every clause it
  /// is handed, learns, strengthens or deletes to this sink, making UNSAT
  /// verdicts independently checkable (see docs/proof_checking.md). Not
  /// owned. Attach via set_config() before adding clauses; logging is pure
  /// output and never changes solver behaviour.
  ProofLog* proof_log = nullptr;
  /// Retain a copy of every problem clause exactly as handed to add_*().
  /// verify_model() then audits SAT verdicts against the original formula
  /// (pre-normalisation) instead of the live database.
  bool keep_originals = false;
};

/// Conflict-driven clause-learning SAT solver in the MiniSat lineage:
/// two-watched-literal propagation, first-UIP conflict analysis with
/// recursive clause minimisation, VSIDS branching with phase saving, Luby
/// restarts, LBD/activity-based learned-clause deletion and amortised
/// root-level simplification.
///
/// Clauses live in a flat `ClauseArena` (contiguous uint32 buffer addressed
/// by 32-bit offsets) rather than one heap vector per clause; deletion marks
/// clauses dead in place and a compacting garbage collector reclaims the
/// space, rewriting watcher lists and reason references and purging stale
/// watchers of deleted clauses.
///
/// The solver is incremental: clauses may be added between solve() calls
/// (the learner's refinement loop adds forbidden-sequence constraints this
/// way) and solve() accepts assumption literals.
class Solver {
public:
  Solver();

  /// Creates a fresh variable and returns it.
  Var new_var();
  /// Creates `count` fresh variables in one batch (one resize of the
  /// per-variable arrays instead of `count` incremental grows; the encoders
  /// allocate one-hot blocks this way). Returns the first of the block.
  Var new_vars(std::size_t count);
  std::size_t num_vars() const { return assign_.size(); }
  std::size_t num_clauses() const { return num_problem_clauses_; }
  std::size_t num_learned() const { return learnts_.size(); }

  /// Adds a clause; returns false if the instance is already unsatisfiable
  /// at the root level (e.g. conflicting unit clauses).
  bool add_clause(std::span<const Lit> lits);
  bool add_clause(std::initializer_list<Lit> lits) {
    return add_clause(std::span<const Lit>(lits.begin(), lits.size()));
  }

  /// add_clause for callers that already sorted the literals (the CSP
  /// encoder's clause emission): skips the sort, duplicate and tautology
  /// handling but still filters against the live root-level assignment.
  /// Inside a batch, a clause of two or more literals none of which is
  /// assigned, with no proof log or original-clause copy to feed, goes
  /// straight to the arena: that is what the general path would store, so
  /// the database is the same either way.
  bool add_clause_presorted(std::span<const Lit> lits) {
    if (!batch_open_ || !plain_axioms_ || !ok_ || lits.size() < 2 || decision_level() > 0) {
      return add_clause_filtered(lits);
    }
    for (const Lit l : lits) {
      const auto v = static_cast<std::size_t>(l.var());
      if (v >= assign_.size() || assign_[v] != LBool::Undef) return add_clause_filtered(lits);
    }
    problem_clauses_.push_back(arena_.alloc(lits, /*learned=*/false));
    ++num_problem_clauses_;
    problem_literals_ += lits.size();
    return true;
  }

  /// Convenience helpers for the encoders.
  bool add_unit(Lit a) { return add_clause({a}); }
  bool add_binary(Lit a, Lit b) { return add_clause({a, b}); }
  bool add_ternary(Lit a, Lit b, Lit c) { return add_clause({a, b, c}); }

  /// `exactly one of lits` via pairwise at-most-one plus at-least-one.
  bool add_exactly_one(std::span<const Lit> lits);

  /// Batched problem-clause emission; use ClauseBatch rather than calling
  /// these directly. The contract:
  /// - Deferred attach. Inside a batch every add_*() call stores its clause
  ///   in the arena and the problem-clause list as usual. Only attaching its
  ///   two watchers waits.
  /// - A unit flushes. A clause that reduces to a unit first attaches every
  ///   pending clause, then enqueues and propagates the unit. Root filtering
  ///   and propagation therefore see exactly the state of clause-by-clause
  ///   adding.
  /// - One attach pass. end_batch() attaches the pending clauses in the
  ///   order they were added, in one loop over the batch. The watch lists
  ///   receive the same push_backs in the same order as clause-by-clause
  ///   adding, so they grow by the same doubling and end with the same
  ///   watchers at the same capacity. The clause database and the proof log
  ///   are identical too.
  /// - Bulk path. add_clause_presorted() stores a clause with no assigned
  ///   literal without the general path's call chain, and end_batch()
  ///   brings the arena statistics in stats() up to date.
  /// Attaching apart from emission keeps the emission loop's cache working
  /// set small: on the rtlinux unsegmented chain, growing from N = 2 to 7
  /// then costs per clause what a direct build at N = 7 does. If end_batch()
  /// fails to allocate, it removes the clauses it had not attached, closes
  /// the batch and rethrows. Batches do not nest. solve(), simplify(),
  /// garbage_collect() and check_invariants() expect no open batch.
  void begin_batch();
  void end_batch();

  /// Solves under the given assumptions. An Unsat verdict under assumptions
  /// leaves the solver usable (only a root-level contradiction is terminal);
  /// final_conflict() then names the assumptions responsible.
  SolveResult solve(std::span<const Lit> assumptions = {});

  /// After an assumption-caused Unsat: the subset of the assumptions that is
  /// jointly inconsistent with the clause database (MiniSat's analyzeFinal).
  /// Empty when the last Unsat was unconditional (root-level).
  const std::vector<Lit>& final_conflict() const { return final_conflict_; }

  /// Root-level simplification: removes every problem and learned clause
  /// satisfied at decision level zero (and releases their antecedent locks).
  /// A direct call always sweeps both lists when root facts arrived since the
  /// last sweep. solve() sweeps the learned clauses at every new root fact
  /// but calls simplify() only once the propagations since the last problem
  /// sweep reach the problem clauses' literal count, so until then
  /// root-satisfied problem clauses stay in the database and in
  /// num_clauses() (and in clause_fingerprint()). The search is the same
  /// either way (see solve()). Unwinds to decision level zero first; call
  /// outside a batch.
  void simplify();

  /// Resets the branching heuristics — saved phases to the all-false default
  /// and VSIDS activities to zero — while keeping the clause database and
  /// every learned clause. The incremental encoders call this at structural
  /// growth points: the saved assignment shape and conflict activity of the
  /// old (now unsatisfiable) problem are a misleading prior there, steering
  /// the wider search towards degenerate sibling models, whereas the learned
  /// clauses remain sound and keep their pruning power. Unwinds to decision
  /// level zero and leaves the branching heap holding the variables
  /// backtracking to zero would leave there, in ascending order: the layout
  /// a fresh solver starts from. Linear in the variable count.
  void reset_branching_heuristics();

  /// Cooperative limits; checked between conflicts.
  void set_deadline(Deadline deadline) { deadline_ = deadline; }
  void set_conflict_budget(std::uint64_t budget) { conflict_budget_ = budget; }

  /// Cooperative cancellation: a non-owning flag polled at every conflict
  /// (and at solve() entry). When it reads true, solve() returns Unknown at
  /// the next poll, leaving the solver reusable — the learner threads its
  /// caller's LearnerConfig::stop through here. nullptr disables.
  void set_stop_flag(const std::atomic<bool>* stop) { stop_ = stop; }

  /// Applies the output-side settings (see SolverConfig). Call before
  /// encoding.
  void set_config(const SolverConfig& config);
  const SolverConfig& config() const { return config_; }

  /// Model access after SolveResult::Sat.
  bool model_value(Var v) const;

  /// SAT-verdict audit: replays the model against the formula. With
  /// SolverConfig::keep_originals the audit runs over every clause exactly
  /// as handed to add_*(); otherwise over the live database. Returns
  /// internal error naming the first falsified clause. Call only after
  /// solve() returned Sat.
  Status verify_model() const;

  /// Debug auditor: cross-checks the watcher lists against the arena, the
  /// trail/reason invariants and the branching heap, which must hold every
  /// unassigned variable.
  /// O(database); intended for tests and the T2M_CHECK_INVARIANTS env
  /// toggle (checked at solve() boundaries), not for production loops.
  Status check_invariants() const;

  /// The live learned clauses in database order (for tests).
  std::vector<Clause> learned_clauses() const;

  /// A cheap structural fingerprint of the clause database (order-sensitive
  /// hash over every live clause's literals plus the root trail). Used by
  /// tests and bench_check to prove the encoding is unchanged.
  std::uint64_t clause_fingerprint() const;

  const SolverStats& stats() const { return stats_; }

  /// The watchers propagation visits when `p` becomes true (for tests).
  const WatcherList& watchers(Lit p) const {
    return watches_[static_cast<std::size_t>(p.code())];
  }

  /// True if the solver is known unsatisfiable regardless of assumptions.
  bool in_unsat_state() const { return !ok_; }

  /// Compacts the clause arena now (normally triggered automatically when
  /// at least `kGcWasteFraction` of it is dead). Exposed for tests.
  void garbage_collect();

private:
  static constexpr ClauseRef kNoReason = kClauseRefUndef;
  /// Watcher refs of binary clauses carry this tag: propagation then runs
  /// entirely on the watcher (blocker = the other literal) without touching
  /// clause memory. Arena offsets stay well below 2^31, so the bit is free.
  static constexpr ClauseRef kBinaryTag = 0x80000000u;

  // --- core operations ---
  LBool value(Lit l) const {
    const LBool v = assign_[static_cast<std::size_t>(l.var())];
    return l.negated() ? lbool_not(v) : v;
  }
  LBool value(Var v) const { return assign_[static_cast<std::size_t>(v)]; }

  ClauseRef alloc_clause(std::span<const Lit> lits, bool learned);
  /// Copies the arena's size and high-water mark into stats_.
  void sync_arena_stats();
  void attach_clause(ClauseRef cref);
  /// Attaches the open batch's pending clauses, advancing batch_begin_ past
  /// each one (see begin_batch()).
  void attach_pending();
  /// add_clause_presorted()'s general path: proof log, original copy,
  /// unwinding to the root and the root-assignment filter.
  bool add_clause_filtered(std::span<const Lit> lits);
  bool finish_add_clause(std::span<const Lit> lits);
  void enqueue(Lit l, ClauseRef reason);
  ClauseRef propagate();
  void analyze(ClauseRef conflict, std::vector<Lit>& learnt, int& backtrack_level);
  /// Collects into final_conflict_ the assumptions that propagated `failed`
  /// to false (plus `failed` itself) by walking reasons down the trail.
  void analyze_final(Lit failed);
  bool literal_redundant(Lit l, std::uint32_t abstract_levels);
  void backtrack(int level);
  Lit pick_branch_literal();
  void reduce_learned();
  /// The two halves of simplify(). simplify_learned() clears the reasons of
  /// the root facts that arrived since its last call and sweeps learnts_.
  /// simplify_problem() sweeps problem_clauses_ against the root facts
  /// trail_[0, root_end) and restarts the propagation count that pays for
  /// the next one.
  void simplify_learned();
  void simplify_problem(std::size_t root_end);
  /// Removes the clauses of `list` satisfied by a root fact in
  /// trail_[0, root_end); later root facts are ignored, so the search can
  /// catch up on a sweep deferred at its start. Returns the literal count
  /// removed.
  std::size_t drop_root_satisfied(std::vector<ClauseRef>& list, std::size_t root_end);
  void maybe_garbage_collect();
  /// True when the clause is the antecedent of its first literal.
  bool locked(ClauseRef cref) const;
  std::uint32_t compute_lbd(std::span<const Lit> lits);
  void bump_var(Var v);
  void bump_clause(ClauseRef cref);
  void decay_activities();

  int decision_level() const { return static_cast<int>(trail_lim_.size()); }
  int level_of(Var v) const { return level_[static_cast<std::size_t>(v)]; }

  // Heap helpers (max-heap on activity).
  void heap_insert(Var v);
  void heap_update(Var v);
  Var heap_pop();
  void heap_sift_up(std::size_t i);
  void heap_sift_down(std::size_t i);
  bool heap_contains(Var v) const {
    return heap_index_[static_cast<std::size_t>(v)] >= 0;
  }

  static std::uint64_t luby(std::uint64_t i);

  // --- state ---
  bool ok_ = true;
  ClauseArena arena_;
  std::vector<ClauseRef> problem_clauses_;
  std::vector<ClauseRef> learnts_;
  std::size_t num_problem_clauses_ = 0;
  std::size_t problem_literals_ = 0;  // literal count of problem_clauses_
  // Open batch: problem_clauses_[batch_begin_..] are stored but unwatched.
  bool batch_open_ = false;
  std::size_t batch_begin_ = 0;
  std::vector<WatcherList> watches_;           // indexed by literal code
  std::vector<LBool> assign_;                  // indexed by var
  std::vector<LBool> saved_phase_;             // phase saving
  std::vector<int> level_;                     // decision level per var
  std::vector<ClauseRef> reason_;              // antecedent per var
  std::vector<Lit> trail_;
  std::vector<std::size_t> trail_lim_;
  std::size_t propagate_head_ = 0;

  std::vector<double> activity_;
  double var_inc_ = 1.0;
  double clause_inc_ = 1.0;
  std::vector<Var> heap_;
  std::vector<std::int32_t> heap_index_;

  // scratch buffers for add_clause() and analyze()
  Clause add_scratch_;
  Clause add_norm_scratch_;
  std::vector<char> seen_;
  std::vector<Lit> analyze_stack_;
  std::vector<std::uint32_t> lbd_stamp_;  // per-level stamp for LBD counting
  std::uint32_t lbd_stamp_gen_ = 0;

  Deadline deadline_;
  std::uint64_t conflict_budget_ = 0;  // 0 = unlimited
  /// Cooperative cancellation: polled with relaxed loads at solve entry and
  /// every conflict. The flag carries no data — result visibility comes from
  /// the caller's own synchronisation (joining the thread that ran the solve).
  const std::atomic<bool>* stop_ = nullptr;
  SolverConfig config_;

  // --- proof logging / model auditing ---
  ProofLog* plog_ = nullptr;            // = config_.proof_log (hot-path copy)
  // No proof log and no original copies: record_axiom() is a no-op.
  bool plain_axioms_ = true;
  std::vector<Clause> originals_;       // as handed to add_*(); keep_originals
  std::vector<Lit> log_scratch_;        // literal buffer for log_remove()
  /// Retains/logs a problem clause exactly as the caller handed it.
  void record_axiom(std::span<const Lit> lits);
  /// Emits a deletion line for a live arena clause.
  void log_remove(ClauseRef cref);
  /// The single gateway to ok_ = false: logs the empty clause first, so a
  /// checker replaying the proof reaches its own root conflict in lockstep.
  void set_unsat();
  std::vector<Lit> final_conflict_;    // assumption core of the last Unsat
  // Root trail sizes at the last learned and problem sweeps, and the
  // propagation count at the last problem sweep.
  std::size_t simplified_up_to_ = 0;
  std::size_t problem_simplified_up_to_ = 0;
  std::uint64_t simplified_at_props_ = 0;

  SolverStats stats_;
};

/// Scope of one clause batch (Solver::begin_batch()). close() ends the
/// batch and lets an allocation failure propagate. A batch that close() did
/// not reach, because an exception is unwinding through the scope, ends in
/// the destructor, which attaches the clauses added so far; an allocation
/// failure there is dropped in favour of the exception already in flight
/// (end_batch() has then removed the clauses it did not attach).
class ClauseBatch {
public:
  explicit ClauseBatch(Solver& solver) : solver_(&solver) { solver.begin_batch(); }
  ClauseBatch(const ClauseBatch&) = delete;
  ClauseBatch& operator=(const ClauseBatch&) = delete;
  ~ClauseBatch() {
    if (solver_ == nullptr) return;
    try {
      solver_->end_batch();
    } catch (...) {  // NOLINT(bugprone-empty-catch): end_batch leaves the solver consistent
    }
  }

  void close() {
    Solver* solver = solver_;
    solver_ = nullptr;
    solver->end_batch();
  }

private:
  Solver* solver_;
};

}  // namespace t2m::sat

#endif  // T2M_SAT_SOLVER_H
