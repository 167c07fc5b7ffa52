#include "src/sat/solver.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <unordered_map>

#include "src/obs/progress.h"
#include "src/obs/trace.h"
#include "src/sat/proof_log.h"

namespace t2m::sat {

namespace {

constexpr double kVarDecay = 0.95;
// Luby restart multiplier: conflicts before the first restart.
constexpr std::uint64_t kRestartBase = 100;
// Saved phase of fresh variables and after a heuristics reset: negative.
constexpr LBool kDefaultPhase = LBool::False;
constexpr double kClauseDecay = 0.999;
constexpr double kVarRescaleLimit = 1e100;
// Clause activities are stored as 32-bit floats in the arena header, so the
// rescale threshold must sit well inside float range.
constexpr float kClauseRescaleLimit = 1e20f;
// Learned clauses kept before the first reduction, on top of half the
// problem clauses.
constexpr std::size_t kMinLearnedLimit = 4000;
// GC triggers when at least this fraction of the arena is dead words.
constexpr std::size_t kGcWasteDenominator = 5;  // 1/5 = 20%

// Failpoint-style toggle: with T2M_CHECK_INVARIANTS set in the environment,
// every solve() boundary runs the full invariant audit and throws on a
// violation. Read once — the audit is for test/debug processes.
bool invariant_audit_enabled() {
  static const bool enabled = std::getenv("T2M_CHECK_INVARIANTS") != nullptr;
  return enabled;
}

}  // namespace

Solver::Solver() = default;

void Solver::set_config(const SolverConfig& config) {
  config_ = config;
  plog_ = config.proof_log;
  plain_axioms_ = plog_ == nullptr && !config.keep_originals;
  // A fresh instance taking over the log stream: tell the checker to drop
  // the previous instance's clause database (capacity rebuilds reuse one
  // stream across solver generations).
  if (plog_ != nullptr) plog_->restart();
}

void Solver::record_axiom(std::span<const Lit> lits) {
  if (config_.keep_originals) originals_.emplace_back(lits.begin(), lits.end());
  if (plog_ != nullptr) plog_->axiom(lits);
}

void Solver::log_remove(ClauseRef cref) {
  if (plog_ == nullptr) return;
  log_scratch_.clear();
  const std::size_t size = arena_.size(cref);
  for (std::size_t i = 0; i < size; ++i) log_scratch_.push_back(arena_.lit(cref, i));
  plog_->remove(log_scratch_);
}

void Solver::set_unsat() {
  ok_ = false;
  if (plog_ != nullptr) plog_->add_empty();
}

Var Solver::new_var() { return new_vars(1); }

Var Solver::new_vars(std::size_t count) {
  const Var first = static_cast<Var>(assign_.size());
  const std::size_t n = assign_.size() + count;
  if (n > assign_.capacity()) {
    // Grow every per-variable array once, with headroom: an encoder's big
    // batch is followed by a few small ones (guards, aux variables), and
    // letting each array double on its own copies it and leaves the old
    // block resident, which showed in the learner's peak RSS.
    const std::size_t cap = n + std::max(count, assign_.size()) / 2;
    assign_.reserve(cap);
    saved_phase_.reserve(cap);
    level_.reserve(cap);
    reason_.reserve(cap);
    activity_.reserve(cap);
    heap_index_.reserve(cap);
    seen_.reserve(cap);
    watches_.reserve(2 * cap);
    heap_.reserve(cap);
  }
  assign_.resize(n, LBool::Undef);
  saved_phase_.resize(n, kDefaultPhase);
  level_.resize(n, 0);
  reason_.resize(n, kNoReason);
  activity_.resize(n, 0.0);
  heap_index_.resize(n, -1);
  seen_.resize(n, 0);
  watches_.resize(2 * n);
  for (Var v = first; v < static_cast<Var>(n); ++v) {
    heap_index_[static_cast<std::size_t>(v)] = static_cast<std::int32_t>(heap_.size());
    heap_.push_back(v);
    heap_sift_up(heap_.size() - 1);  // O(1): fresh activity 0 never rises
  }
  return first;
}

ClauseRef Solver::alloc_clause(std::span<const Lit> lits, bool learned) {
  const ClauseRef cref = arena_.alloc(lits, learned);
  sync_arena_stats();
  return cref;
}

void Solver::sync_arena_stats() {
  stats_.arena_bytes = arena_.size_bytes();
  stats_.peak_arena_bytes = arena_.peak_bytes();
}

bool Solver::add_clause(std::span<const Lit> lits) {
  if (!ok_) return false;
  record_axiom(lits);
  // Incremental use: always add at the root level.
  if (decision_level() > 0) backtrack(0);

  // Normalise: sort, drop duplicates and root-false literals, detect
  // tautologies and root-satisfied clauses. Scratch buffers are members so
  // the encoder's bulk clause feeding does no per-call allocation.
  add_scratch_.assign(lits.begin(), lits.end());
  std::sort(add_scratch_.begin(), add_scratch_.end());
  Clause& norm = add_norm_scratch_;
  norm.clear();
  Lit prev = Lit::undef();
  for (const Lit l : add_scratch_) {
    if (l.is_undef() || static_cast<std::size_t>(l.var()) >= assign_.size()) {
      throw std::invalid_argument("Solver::add_clause: literal over unknown variable");
    }
    if (l == prev) continue;
    if (!prev.is_undef() && l == ~prev) return true;  // tautology
    const LBool v = value(l);
    if (v == LBool::True) return true;  // already satisfied at root
    if (v == LBool::False) {
      prev = l;
      continue;
    }
    norm.push_back(l);
    prev = l;
  }
  return finish_add_clause(norm);
}

bool Solver::add_clause_filtered(std::span<const Lit> lits) {
  if (!ok_) return false;
  record_axiom(lits);
  if (decision_level() > 0) backtrack(0);
  // The caller guarantees sorted input (the CSP encoder's emission sorts
  // every clause), so only the root-assignment filter from add_clause()
  // remains.
  Clause& norm = add_norm_scratch_;
  norm.clear();
  for (const Lit l : lits) {
    if (l.is_undef() || static_cast<std::size_t>(l.var()) >= assign_.size()) {
      throw std::invalid_argument("Solver::add_clause_presorted: unknown variable");
    }
    const LBool v = value(l);
    if (v == LBool::True) return true;
    if (v == LBool::False) continue;
    norm.push_back(l);
  }
  return finish_add_clause(norm);
}

bool Solver::finish_add_clause(std::span<const Lit> lits) {
  if (lits.empty()) {
    set_unsat();
    return false;
  }
  if (lits.size() == 1) {
    // Propagation must see every clause added before the unit.
    if (batch_open_) attach_pending();
    enqueue(lits[0], kNoReason);
    if (propagate() != kNoReason) set_unsat();
    return ok_;
  }
  const ClauseRef cref = alloc_clause(lits, /*learned=*/false);
  problem_clauses_.push_back(cref);
  ++num_problem_clauses_;
  problem_literals_ += lits.size();
  if (!batch_open_) attach_clause(cref);
  return true;
}

void Solver::begin_batch() {
  assert(!batch_open_);
  batch_open_ = true;
  batch_begin_ = problem_clauses_.size();
}

void Solver::end_batch() {
  assert(batch_open_);
  // The batch's clauses bypassed alloc_clause(), which keeps these current.
  sync_arena_stats();
  try {
    attach_pending();
  } catch (...) {
    // Keep the database consistent with its watch lists: drop the clauses
    // attach_pending() did not reach.
    for (std::size_t i = batch_begin_; i < problem_clauses_.size(); ++i) {
      log_remove(problem_clauses_[i]);
      problem_literals_ -= arena_.size(problem_clauses_[i]);
      arena_.mark_deleted(problem_clauses_[i]);
    }
    num_problem_clauses_ -= problem_clauses_.size() - batch_begin_;
    problem_clauses_.resize(batch_begin_);
    batch_open_ = false;
    throw;
  }
  batch_open_ = false;
}

void Solver::attach_pending() {
  // The two watch lists a clause is pushed onto are a random pick among all
  // of them, so nearly every push misses the cache twice: once on the list
  // object and once on its tail slot. The loop prefetches both a few
  // clauses ahead: the list objects kHeadAhead clauses early, and the tail
  // slots, whose address needs the list object, kTailAhead clauses early.
  constexpr std::size_t kHeadAhead = 16;
  constexpr std::size_t kTailAhead = 8;
  const auto watched = [this](ClauseRef cref, std::size_t i) -> WatcherList& {
    return watches_[static_cast<std::size_t>((~arena_.lit(cref, i)).code())];
  };
  const std::size_t end = problem_clauses_.size();
  for (; batch_begin_ < end; ++batch_begin_) {
    if (batch_begin_ + kHeadAhead < end) {
      const ClauseRef ahead = problem_clauses_[batch_begin_ + kHeadAhead];
      __builtin_prefetch(&watched(ahead, 0), 1);
      __builtin_prefetch(&watched(ahead, 1), 1);
    }
    if (batch_begin_ + kTailAhead < end) {
      const ClauseRef ahead = problem_clauses_[batch_begin_ + kTailAhead];
      watched(ahead, 0).prefetch_tail();
      watched(ahead, 1).prefetch_tail();
    }
    attach_clause(problem_clauses_[batch_begin_]);
  }
}

bool Solver::add_exactly_one(std::span<const Lit> lits) {
  if (lits.empty()) {
    // "Exactly one of nothing" is an unsatisfiable constraint: record it as
    // an (empty) axiom so the logged empty clause below stays checkable.
    record_axiom({});
    set_unsat();
    return false;
  }
  bool ok = add_clause(lits);
  for (std::size_t i = 0; i < lits.size() && ok; ++i) {
    for (std::size_t j = i + 1; j < lits.size() && ok; ++j) {
      ok = add_binary(~lits[i], ~lits[j]);
    }
  }
  return ok;
}

void Solver::attach_clause(ClauseRef cref) {
  assert(arena_.size(cref) >= 2);
  const Lit l0 = arena_.lit(cref, 0);
  const Lit l1 = arena_.lit(cref, 1);
  const ClauseRef ref = arena_.size(cref) == 2 ? (cref | kBinaryTag) : cref;
  WatcherList& first = watches_[static_cast<std::size_t>((~l0).code())];
  first.push_back(Watcher{ref, l1});
  try {
    watches_[static_cast<std::size_t>((~l1).code())].push_back(Watcher{ref, l0});
  } catch (...) {
    first.resize(first.size() - 1);  // all or nothing
    throw;
  }
}

void Solver::enqueue(Lit l, ClauseRef reason) {
  assert(value(l) == LBool::Undef);
  const auto v = static_cast<std::size_t>(l.var());
  assign_[v] = lbool_of(!l.negated());
  level_[v] = decision_level();
  reason_[v] = reason;
  trail_.push_back(l);
}

ClauseRef Solver::propagate() {
  while (propagate_head_ < trail_.size()) {
    const Lit p = trail_[propagate_head_++];
    ++stats_.propagations;
    auto& ws = watches_[static_cast<std::size_t>(p.code())];
    std::size_t keep = 0;
    for (std::size_t i = 0; i < ws.size(); ++i) {
      const Watcher w = ws[i];
      // Blocker check avoids touching the clause when already satisfied.
      if (value(w.blocker) == LBool::True) {
        ws[keep++] = w;
        continue;
      }
      // Binary fast path: the whole clause is (blocker | ~p); no clause
      // memory is touched. Binary clauses are never deleted (reduce_learned
      // skips size <= 2), so no deleted check is needed here.
      if ((w.clause & kBinaryTag) != 0) {
        const ClauseRef cref = w.clause & ~kBinaryTag;
        if (value(w.blocker) == LBool::False) {
          // Conflict: restore remaining watchers and report.
          for (std::size_t j = i; j < ws.size(); ++j) ws[keep++] = ws[j];
          ws.resize(keep);
          propagate_head_ = trail_.size();
          return cref;
        }
        // Implied: make the blocker the clause's first literal, as conflict
        // analysis expects the asserting literal at position 0.
        std::uint32_t* blits = arena_.lit_codes(cref);
        if (blits[0] != static_cast<std::uint32_t>(w.blocker.code())) {
          std::swap(blits[0], blits[1]);
        }
        ws[keep++] = w;
        enqueue(w.blocker, cref);
        continue;
      }
      if (arena_.deleted(w.clause)) continue;  // stale watcher, purged at GC
      const std::size_t size = arena_.size(w.clause);
      std::uint32_t* lits = arena_.lit_codes(w.clause);
      // Ensure the false literal (~p) sits at position 1.
      const auto false_code = static_cast<std::uint32_t>((~p).code());
      if (lits[0] == false_code) std::swap(lits[0], lits[1]);
      assert(lits[1] == false_code);
      // First literal satisfied?
      const Lit first = Lit::from_code(static_cast<std::int32_t>(lits[0]));
      if (value(first) == LBool::True) {
        ws[keep++] = Watcher{w.clause, first};
        continue;
      }
      // Look for a replacement watch.
      bool moved = false;
      for (std::size_t k = 2; k < size; ++k) {
        const Lit lk = Lit::from_code(static_cast<std::int32_t>(lits[k]));
        if (value(lk) != LBool::False) {
          std::swap(lits[1], lits[k]);
          watches_[static_cast<std::size_t>((~lk).code())].push_back(
              Watcher{w.clause, first});
          moved = true;
          break;
        }
      }
      if (moved) continue;
      // Unit or conflicting.
      if (value(first) == LBool::False) {
        // Conflict: restore remaining watchers and report.
        for (std::size_t j = i; j < ws.size(); ++j) ws[keep++] = ws[j];
        ws.resize(keep);
        propagate_head_ = trail_.size();
        return w.clause;
      }
      ws[keep++] = w;
      enqueue(first, w.clause);
    }
    ws.resize(keep);
  }
  return kNoReason;
}

void Solver::bump_var(Var v) {
  auto& a = activity_[static_cast<std::size_t>(v)];
  a += var_inc_;
  if (a > kVarRescaleLimit) {
    for (auto& act : activity_) act *= 1e-100;
    var_inc_ *= 1e-100;
  }
  if (heap_contains(v)) heap_update(v);
}

void Solver::bump_clause(ClauseRef cref) {
  const float bumped = arena_.activity(cref) + static_cast<float>(clause_inc_);
  arena_.set_activity(cref, bumped);
  if (bumped > kClauseRescaleLimit) {
    for (const ClauseRef c : learnts_) {
      if (arena_.deleted(c)) continue;
      arena_.set_activity(c, arena_.activity(c) * 1e-20f);
    }
    clause_inc_ *= 1e-20;
  }
}

void Solver::decay_activities() {
  var_inc_ /= kVarDecay;
  clause_inc_ /= kClauseDecay;
}

std::uint32_t Solver::compute_lbd(std::span<const Lit> lits) {
  // Called after backtracking, so stale per-var levels may exceed the
  // current decision level; grow the stamp array as needed.
  ++lbd_stamp_gen_;
  std::uint32_t count = 0;
  for (const Lit l : lits) {
    const auto lev = static_cast<std::size_t>(level_of(l.var()));
    if (lev >= lbd_stamp_.size()) lbd_stamp_.resize(lev + 1, 0);
    if (lbd_stamp_[lev] != lbd_stamp_gen_) {
      lbd_stamp_[lev] = lbd_stamp_gen_;
      ++count;
    }
  }
  return count;
}

void Solver::analyze(ClauseRef conflict, std::vector<Lit>& learnt, int& backtrack_level) {
  learnt.clear();
  learnt.push_back(Lit::undef());  // slot for the asserting literal

  int counter = 0;
  Lit p = Lit::undef();
  std::size_t trail_index = trail_.size();
  ClauseRef reason = conflict;

  do {
    assert(reason != kNoReason);
    if (arena_.learned(reason)) bump_clause(reason);
    const std::size_t size = arena_.size(reason);
    const std::size_t start = p.is_undef() ? 0 : 1;
    for (std::size_t i = start; i < size; ++i) {
      const Lit q = arena_.lit(reason, i);
      const auto qv = static_cast<std::size_t>(q.var());
      if (seen_[qv] || level_of(q.var()) == 0) continue;
      seen_[qv] = 1;
      bump_var(q.var());
      if (level_of(q.var()) >= decision_level()) {
        ++counter;
      } else {
        learnt.push_back(q);
      }
    }
    // Walk the trail backwards to the next marked literal.
    while (!seen_[static_cast<std::size_t>(trail_[trail_index - 1].var())]) {
      --trail_index;
    }
    --trail_index;
    p = trail_[trail_index];
    seen_[static_cast<std::size_t>(p.var())] = 0;
    reason = reason_[static_cast<std::size_t>(p.var())];
    --counter;
  } while (counter > 0);
  learnt[0] = ~p;

  // Conflict-clause minimisation: drop literals implied by the rest.
  std::uint32_t abstract_levels = 0;
  for (std::size_t i = 1; i < learnt.size(); ++i) {
    abstract_levels |= 1u << (static_cast<std::uint32_t>(level_of(learnt[i].var())) & 31u);
  }
  std::vector<Lit> all_marked(learnt.begin(), learnt.end());
  std::size_t keep = 1;
  for (std::size_t i = 1; i < learnt.size(); ++i) {
    const Lit l = learnt[i];
    if (reason_[static_cast<std::size_t>(l.var())] == kNoReason ||
        !literal_redundant(l, abstract_levels)) {
      learnt[keep++] = l;
    }
  }
  learnt.resize(keep);

  // Clear seen flags for every literal marked above, dropped ones included.
  for (const Lit l : all_marked) {
    if (!l.is_undef()) seen_[static_cast<std::size_t>(l.var())] = 0;
  }

  // Compute the backtrack level: highest level below the current one.
  if (learnt.size() == 1) {
    backtrack_level = 0;
  } else {
    std::size_t max_i = 1;
    for (std::size_t i = 2; i < learnt.size(); ++i) {
      if (level_of(learnt[i].var()) > level_of(learnt[max_i].var())) max_i = i;
    }
    std::swap(learnt[1], learnt[max_i]);
    backtrack_level = level_of(learnt[1].var());
  }
}

void Solver::analyze_final(Lit failed) {
  final_conflict_.clear();
  final_conflict_.push_back(failed);
  // `failed` is an assumption whose negation holds on the trail. If it was
  // falsified at the root there is no assumption core beyond itself; else
  // walk the reasons backwards, collecting the assumption decisions that
  // seeded the propagation. Every decision level below the failure is an
  // assumption level, so decisions found on the walk are assumptions.
  if (decision_level() == 0 || level_of(failed.var()) == 0) return;
  seen_[static_cast<std::size_t>(failed.var())] = 1;
  for (std::size_t i = trail_.size(); i > trail_lim_[0]; --i) {
    const Lit l = trail_[i - 1];
    const auto v = static_cast<std::size_t>(l.var());
    if (!seen_[v]) continue;
    seen_[v] = 0;
    const ClauseRef r = reason_[v];
    if (r == kNoReason) {
      final_conflict_.push_back(l);
      continue;
    }
    // Position 0 of a reason clause is the propagated literal itself.
    const std::size_t size = arena_.size(r);
    for (std::size_t j = 1; j < size; ++j) {
      const Lit q = arena_.lit(r, j);
      if (level_of(q.var()) > 0) seen_[static_cast<std::size_t>(q.var())] = 1;
    }
  }
}

bool Solver::literal_redundant(Lit l, std::uint32_t abstract_levels) {
  analyze_stack_.clear();
  analyze_stack_.push_back(l);
  std::vector<Var> cleared;
  while (!analyze_stack_.empty()) {
    const Lit cur = analyze_stack_.back();
    analyze_stack_.pop_back();
    const ClauseRef r = reason_[static_cast<std::size_t>(cur.var())];
    if (r == kNoReason) {
      for (const Var v : cleared) seen_[static_cast<std::size_t>(v)] = 0;
      return false;
    }
    const std::size_t size = arena_.size(r);
    for (std::size_t i = 1; i < size; ++i) {
      const Lit q = arena_.lit(r, i);
      const auto qv = static_cast<std::size_t>(q.var());
      if (seen_[qv] || level_of(q.var()) == 0) continue;
      const bool level_plausible =
          (abstract_levels & (1u << (static_cast<std::uint32_t>(level_of(q.var())) & 31u))) != 0;
      if (reason_[qv] != kNoReason && level_plausible) {
        seen_[qv] = 1;
        cleared.push_back(q.var());
        analyze_stack_.push_back(q);
      } else {
        for (const Var v : cleared) seen_[static_cast<std::size_t>(v)] = 0;
        return false;
      }
    }
  }
  // Keep the transient marks: they are cleared by the caller's loop only for
  // kept literals, so clear them here for safety.
  for (const Var v : cleared) seen_[static_cast<std::size_t>(v)] = 0;
  return true;
}

void Solver::backtrack(int target_level) {
  if (decision_level() <= target_level) return;
  const std::size_t lim = trail_lim_[static_cast<std::size_t>(target_level)];
  for (std::size_t i = trail_.size(); i > lim; --i) {
    const Lit l = trail_[i - 1];
    const auto v = static_cast<std::size_t>(l.var());
    saved_phase_[v] = assign_[v];
    assign_[v] = LBool::Undef;
    reason_[v] = kNoReason;
    if (!heap_contains(l.var())) heap_insert(l.var());
  }
  trail_.resize(lim);
  trail_lim_.resize(static_cast<std::size_t>(target_level));
  propagate_head_ = trail_.size();
}

Lit Solver::pick_branch_literal() {
  while (!heap_.empty()) {
    const Var v = heap_pop();
    if (value(v) == LBool::Undef) {
      const bool negate = saved_phase_[static_cast<std::size_t>(v)] != LBool::True;
      return Lit(v, negate);
    }
  }
  return Lit::undef();
}

bool Solver::locked(ClauseRef cref) const {
  const Lit l0 = arena_.lit(cref, 0);
  return value(l0) == LBool::True &&
         reason_[static_cast<std::size_t>(l0.var())] == cref;
}

void Solver::reduce_learned() {
  ++stats_.reduces;
  T2M_SPAN_SCOPE(reduce_span, "solver.reduce", "learned", learnts_.size());
  const std::size_t learned_before = learnts_.size();
  // Deletion candidates: learned, not glue (LBD <= 2 is kept forever), not
  // binary, not currently the antecedent of an assignment.
  std::vector<ClauseRef> cands;
  cands.reserve(learnts_.size());
  for (const ClauseRef c : learnts_) {
    if (arena_.deleted(c) || arena_.size(c) <= 2) continue;
    if (arena_.lbd(c) <= 2) continue;
    if (locked(c)) continue;
    cands.push_back(c);
  }
  // Worst first: high LBD, then low activity.
  std::sort(cands.begin(), cands.end(), [this](ClauseRef a, ClauseRef b) {
    const std::uint32_t la = arena_.lbd(a);
    const std::uint32_t lb = arena_.lbd(b);
    if (la != lb) return la > lb;
    return arena_.activity(a) < arena_.activity(b);
  });
  for (std::size_t i = 0; i < cands.size() / 2; ++i) {
    log_remove(cands[i]);
    arena_.mark_deleted(cands[i]);
  }
  // Compact the learned list; dead watchers linger until the next GC.
  std::erase_if(learnts_, [this](ClauseRef c) { return arena_.deleted(c); });
  reduce_span.arg("removed", learned_before - learnts_.size());
}

void Solver::reset_branching_heuristics() {
  // Unwind to the root without backtrack(): its phase saving and heap
  // re-insertions would be overwritten below. Unwinding first still matters,
  // as solve() can return Unsat under assumptions at the failing level.
  if (!trail_lim_.empty()) {
    const std::size_t root_end = trail_lim_[0];
    for (std::size_t i = root_end; i < trail_.size(); ++i) {
      const auto v = static_cast<std::size_t>(trail_[i].var());
      assign_[v] = LBool::Undef;
      reason_[v] = kNoReason;
    }
    trail_.resize(root_end);
    trail_lim_.clear();
    propagate_head_ = root_end;
  }
  std::fill(saved_phase_.begin(), saved_phase_.end(), kDefaultPhase);
  std::fill(activity_.begin(), activity_.end(), 0.0);
  var_inc_ = 1.0;
  // With all activities equal any permutation is a valid heap. Rebuild it in
  // ascending variable order, the layout a fresh solver starts from, over
  // the same set backtrack(0) leaves: every unassigned variable plus the
  // root-assigned ones not yet popped.
  heap_.clear();
  for (std::size_t v = 0; v < assign_.size(); ++v) {
    if (heap_index_[v] < 0 && assign_[v] != LBool::Undef) continue;
    heap_index_[v] = static_cast<std::int32_t>(heap_.size());
    heap_.push_back(static_cast<Var>(v));
  }
}

void Solver::simplify() {
  assert(!batch_open_);
  backtrack(0);
  if (trail_.size() == problem_simplified_up_to_) return;  // no new root facts
  T2M_SPAN("solver.simplify", "root_facts", trail_.size());
  simplify_learned();
  simplify_problem(trail_.size());
  maybe_garbage_collect();
}

void Solver::simplify_learned() {
  // Root assignments are permanent, so their antecedents are never walked
  // again; clearing the reasons unlocks those clauses for removal.
  for (std::size_t i = simplified_up_to_; i < trail_.size(); ++i) {
    reason_[static_cast<std::size_t>(trail_[i].var())] = kNoReason;
  }
  simplified_up_to_ = trail_.size();
  (void)drop_root_satisfied(learnts_, trail_.size());
}

void Solver::simplify_problem(std::size_t root_end) {
  ++stats_.simplify_rounds;
  const std::size_t before = problem_clauses_.size();
  problem_literals_ -= drop_root_satisfied(problem_clauses_, root_end);
  num_problem_clauses_ -= before - problem_clauses_.size();
  problem_simplified_up_to_ = root_end;
  simplified_at_props_ = stats_.propagations;
}

std::size_t Solver::drop_root_satisfied(std::vector<ClauseRef>& list, std::size_t root_end) {
  // Root facts past root_end, units learned by the running search, are
  // masked: the sweep sees the root trail as it stood at root_end.
  const std::size_t root_level_end = trail_lim_.empty() ? trail_.size() : trail_lim_[0];
  for (std::size_t i = root_end; i < root_level_end; ++i) {
    seen_[static_cast<std::size_t>(trail_[i].var())] = 1;
  }
  const auto root_satisfied = [this](ClauseRef c) {
    const std::size_t size = arena_.size(c);
    for (std::size_t i = 0; i < size; ++i) {
      const Lit l = arena_.lit(c, i);
      if (value(l) == LBool::True && level_of(l.var()) == 0 &&
          seen_[static_cast<std::size_t>(l.var())] == 0) {
        return true;
      }
    }
    return false;
  };
  std::size_t removed_literals = 0;
  std::erase_if(list, [&](ClauseRef c) {
    if (arena_.deleted(c) || !root_satisfied(c)) return false;
    // Watchers of deleted clauses are purged lazily: the non-binary
    // propagation path checks the deleted bit, and a root-satisfied binary
    // can never fire again (its blocker stays true), so both kinds are
    // safe to drop in place until the next GC sweeps the watcher lists.
    removed_literals += arena_.size(c);
    log_remove(c);
    arena_.mark_deleted(c);
    ++stats_.simplify_removed;
    return true;
  });
  for (std::size_t i = root_end; i < root_level_end; ++i) {
    seen_[static_cast<std::size_t>(trail_[i].var())] = 0;
  }
  return removed_literals;
}

void Solver::maybe_garbage_collect() {
  if (arena_.wasted_words() * kGcWasteDenominator >= arena_.size_words() &&
      arena_.wasted_words() > 0) {
    garbage_collect();
  }
}

void Solver::garbage_collect() {
  assert(!batch_open_);
  T2M_SPAN("solver.gc", "wasted_words", arena_.wasted_words());
  ClauseArena to;
  to.reserve_words(arena_.size_words() - arena_.wasted_words());
  to.inherit_peak(arena_);

  // Watcher lists: purge watchers of deleted clauses, forward the rest.
  for (auto& ws : watches_) {
    std::size_t keep = 0;
    for (const Watcher& w : ws) {
      const ClauseRef tag = w.clause & kBinaryTag;
      const ClauseRef cref = w.clause & ~kBinaryTag;
      if (arena_.deleted(cref)) continue;
      ws[keep++] = Watcher{arena_.relocate(cref, to) | tag, w.blocker};
    }
    ws.resize(keep);
  }
  // Reason references of assigned variables.
  for (const Lit l : trail_) {
    auto& r = reason_[static_cast<std::size_t>(l.var())];
    if (r == kNoReason) continue;
    assert(!arena_.deleted(r));
    r = arena_.relocate(r, to);
  }
  // Clause lists.
  for (auto& c : problem_clauses_) c = arena_.relocate(c, to);
  std::size_t keep = 0;
  for (const ClauseRef c : learnts_) {
    if (arena_.deleted(c)) continue;
    learnts_[keep++] = arena_.relocate(c, to);
  }
  learnts_.resize(keep);

  arena_ = std::move(to);
  ++stats_.gc_runs;
  sync_arena_stats();
}

std::uint64_t Solver::luby(std::uint64_t i) {
  // Knuth's formulation of the Luby sequence.
  std::uint64_t k = 1;
  while ((1ULL << (k + 1)) <= i + 1) ++k;
  while ((1ULL << k) - 1 != i + 1) {
    i -= (1ULL << k) - 1;
    k = 1;
    while ((1ULL << (k + 1)) <= i + 1) ++k;
  }
  return 1ULL << (k - 1);
}

SolveResult Solver::solve(std::span<const Lit> assumptions) {
  assert(!batch_open_);
  ++stats_.solves;
  T2M_SPAN_SCOPE(solve_span, "solver.solve", "epoch", stats_.solves, "clauses",
                 num_problem_clauses_);
  final_conflict_.clear();
  if (invariant_audit_enabled()) {
    if (const Status audit = check_invariants(); !audit.ok()) {
      throw StatusError(audit);
    }
  }
  if (plog_ != nullptr) plog_->begin_solve(stats_.solves, assumptions);
  if (!ok_) {
    if (plog_ != nullptr) plog_->conclude_unsat({});
    return SolveResult::Unsat;
  }
  // order: relaxed — the stop flag is a pure signal with no payload: the
  // caller that raised it synchronises with this solver's results through
  // its own join of the solving thread, never through the flag itself
  // (docs/observability.md).
  if (stop_ != nullptr && stop_->load(std::memory_order_relaxed)) {
    if (plog_ != nullptr) plog_->conclude_unknown();
    return SolveResult::Unknown;
  }
  backtrack(0);
  if (propagate() != kNoReason) {
    set_unsat();
    if (plog_ != nullptr) plog_->conclude_unsat({});
    return SolveResult::Unsat;
  }
  // Amortised root simplification (MiniSat's simpDB_props rule): the
  // problem clauses are swept once the propagations since their last sweep
  // reach their literal count, so a few new root facts do not rescan a
  // database of millions of clauses. The learned list is short and swept at
  // every new root fact, which keeps reduce_learned() and learned_clauses()
  // seeing the same list as an eager sweep would. Leaving root-satisfied
  // problem clauses attached changes no search decision: such a clause can
  // never become a reason or a conflict, and the watchers it moves are
  // appended, so no other watcher changes its relative order.
  const std::size_t root_end = trail_.size();
  if (stats_.propagations - simplified_at_props_ >= problem_literals_) {
    simplify();
  } else if (root_end != simplified_up_to_) {
    T2M_SPAN("solver.simplify", "root_facts", root_end);
    simplify_learned();
    maybe_garbage_collect();
  }
  // No heap rebuild: new_var() inserts every variable and backtrack()
  // re-inserts unassigned ones, so the heap always contains all unassigned
  // variables (check_invariants() audits this); pick_branch_literal() skips
  // stale assigned entries lazily.

  std::uint64_t conflicts_total = 0;
  std::uint64_t restart_number = 0;
  std::uint64_t restart_limit = kRestartBase * luby(restart_number);
  std::uint64_t conflicts_since_restart = 0;
  // The learned-clause limit counts the problem clauses as a sweep at this
  // solve's start leaves them. While that sweep is deferred the limit is
  // unknown but at least kMinLearnedLimit; reaching that runs the sweep
  // (against the root facts as they stood at the start) before deciding.
  const auto learned_limit = [this] { return kMinLearnedLimit + num_problem_clauses_ / 2; };
  std::size_t max_learned =
      problem_simplified_up_to_ == root_end ? learned_limit() : kMinLearnedLimit;
  std::vector<Lit> learnt;

  // Runs on every exit path of the search loop: stamps the epoch span with
  // its totals. Declared after the span so it is destroyed first, while the
  // span is still open for arg().
  struct EpochObs {
    decltype(solve_span)& span;
    const std::uint64_t& total;
    const std::uint64_t& restarts;
    const std::uint64_t restarts_before;
    ~EpochObs() {
      span.arg("conflicts", total);
      span.arg("restarts", restarts - restarts_before);
    }
  } epoch_obs{solve_span, conflicts_total, stats_.restarts, stats_.restarts};

  while (true) {
    const ClauseRef conflict = propagate();
    if (conflict != kNoReason) {
      ++stats_.conflicts;
      ++conflicts_total;
      ++conflicts_since_restart;
      if (decision_level() == 0) {
        set_unsat();
        if (plog_ != nullptr) plog_->conclude_unsat({});
        return SolveResult::Unsat;
      }
      int backtrack_level = 0;
      analyze(conflict, learnt, backtrack_level);
      // Learned clauses are logged before being acted on: each is RUP with
      // respect to the database the checker has replayed up to this point.
      if (plog_ != nullptr) plog_->add(learnt);
      backtrack(backtrack_level);
      if (learnt.size() == 1) {
        enqueue(learnt[0], kNoReason);
      } else {
        const ClauseRef cref = alloc_clause(learnt, /*learned=*/true);
        arena_.set_activity(cref, static_cast<float>(clause_inc_));
        arena_.set_lbd(cref, compute_lbd(learnt));
        learnts_.push_back(cref);
        attach_clause(cref);
        enqueue(learnt[0], cref);
        ++stats_.learned_clauses;
        stats_.learned_literals += learnt.size();
      }
      decay_activities();

      // The stop flag is a relaxed load, cheap enough to poll every conflict,
      // so a caller's cancellation lands within one conflict.
      // order: relaxed — pure signal; see the solve-entry check above.
      if (stop_ != nullptr && stop_->load(std::memory_order_relaxed)) {
        if (plog_ != nullptr) plog_->conclude_unknown();
        return SolveResult::Unknown;
      }
      if ((conflicts_total & 255) == 0) {
        obs::ProgressPoll::tick();
        if (deadline_.expired()) {
          if (plog_ != nullptr) plog_->conclude_unknown();
          return SolveResult::Unknown;
        }
      }
      if (conflict_budget_ != 0 && conflicts_total >= conflict_budget_) {
        if (plog_ != nullptr) plog_->conclude_unknown();
        return SolveResult::Unknown;
      }
      if (learnts_.size() > max_learned && problem_simplified_up_to_ != root_end) {
        simplify_problem(root_end);
        max_learned = learned_limit();
      }
      if (learnts_.size() > max_learned) {
        reduce_learned();
        maybe_garbage_collect();
        max_learned += max_learned / 10;
      }
      continue;
    }

    if (conflicts_since_restart >= restart_limit) {
      ++stats_.restarts;
      ++restart_number;
      restart_limit = kRestartBase * luby(restart_number);
      conflicts_since_restart = 0;
      T2M_TRACE_COUNTER("solver.conflicts",
                        static_cast<std::int64_t>(stats_.conflicts));
      backtrack(0);
      continue;
    }

    // Assumption handling: honour pending assumptions as forced decisions.
    Lit next = Lit::undef();
    while (static_cast<std::size_t>(decision_level()) < assumptions.size()) {
      const Lit a = assumptions[static_cast<std::size_t>(decision_level())];
      if (value(a) == LBool::True) {
        trail_lim_.push_back(trail_.size());  // dummy level, already satisfied
        continue;
      }
      if (value(a) == LBool::False) {
        analyze_final(a);
        ++stats_.assumption_unsats;
        if (plog_ != nullptr) {
          // The epoch's certificate: the negation of the failed assumption
          // core is implied by the database (the reason walk in
          // analyze_final() is a unit-propagation derivation), so it is
          // logged as a checked lemma and then cited by the conclusion.
          log_scratch_.clear();
          for (const Lit l : final_conflict_) log_scratch_.push_back(~l);
          plog_->add(log_scratch_);
          plog_->conclude_unsat(log_scratch_);
        }
        return SolveResult::Unsat;
      }
      next = a;
      break;
    }

    if (next.is_undef()) {
      // Every assigned variable sits on the trail exactly once, so a full
      // trail means a total assignment — skip draining the order heap.
      if (trail_.size() == num_vars()) {
        if (plog_ != nullptr) plog_->conclude_sat();
        return SolveResult::Sat;
      }
      ++stats_.decisions;
      next = pick_branch_literal();
      if (next.is_undef()) {
        if (plog_ != nullptr) plog_->conclude_sat();
        return SolveResult::Sat;  // all variables assigned
      }
    }

    trail_lim_.push_back(trail_.size());
    enqueue(next, kNoReason);
  }
}

bool Solver::model_value(Var v) const {
  const LBool val = assign_.at(static_cast<std::size_t>(v));
  if (val == LBool::Undef) {
    throw std::logic_error("Solver::model_value: unassigned var");
  }
  return val == LBool::True;
}

Status Solver::verify_model() const {
  const auto lit_true = [this](Lit l) {
    return static_cast<std::size_t>(l.var()) < assign_.size() && value(l) == LBool::True;
  };
  const auto audit = [&](std::span<const Lit> lits, const char* what) {
    for (const Lit l : lits) {
      if (lit_true(l)) return Status::Ok();
    }
    // Built with += throughout: GCC 12's -Wrestrict false-fires on the
    // temporary-concatenation forms at -O2 (PR105651).
    std::string msg = "verify_model: ";
    msg += what;
    msg += " clause unsatisfied:";
    for (const Lit l : lits) {
      msg.push_back(' ');
      msg += l.debug_string();
    }
    return Status::Internal(std::move(msg));
  };
  if (config_.keep_originals) {
    // Every clause as handed in, including those later removed as
    // root-satisfied.
    for (const Clause& c : originals_) {
      if (Status s = audit(c, "original"); !s.ok()) return s;
    }
    return Status::Ok();
  }
  // Fallback: the live database.
  std::vector<Lit> lits;
  for (const ClauseRef c : problem_clauses_) {
    if (arena_.deleted(c)) continue;
    lits.clear();
    const std::size_t size = arena_.size(c);
    for (std::size_t i = 0; i < size; ++i) lits.push_back(arena_.lit(c, i));
    if (Status s = audit(lits, "problem"); !s.ok()) return s;
  }
  return Status::Ok();
}

Status Solver::check_invariants() const {
  const auto fail = [](std::string msg) {
    return Status::Internal("check_invariants: " + std::move(msg));
  };
  if (batch_open_) return fail("clause batch still open");
  const std::size_t n = assign_.size();
  if (level_.size() != n || reason_.size() != n || saved_phase_.size() != n ||
      seen_.size() != n || activity_.size() != n ||
      heap_index_.size() != n || watches_.size() != 2 * n) {
    return fail("per-variable array sizes disagree");
  }
  if (problem_clauses_.size() != num_problem_clauses_) {
    return fail("problem clause count drifted from its list");
  }
  if (propagate_head_ > trail_.size()) return fail("propagate head past trail end");
  for (std::size_t i = 0; i < trail_lim_.size(); ++i) {
    if (trail_lim_[i] > trail_.size() ||
        (i > 0 && trail_lim_[i] < trail_lim_[i - 1])) {
      return fail("decision-level marks not monotone within the trail");
    }
  }

  // Trail: each literal assigned true exactly once, its recorded level
  // matching its trail position, its reason (if any) live and asserting it.
  std::vector<char> on_trail(n, 0);
  std::size_t next_lim = 0;
  int cur_level = 0;
  for (std::size_t i = 0; i < trail_.size(); ++i) {
    while (next_lim < trail_lim_.size() && trail_lim_[next_lim] == i) {
      ++cur_level;
      ++next_lim;
    }
    const Lit l = trail_[i];
    const auto v = static_cast<std::size_t>(l.var());
    if (l.is_undef() || v >= n) return fail("trail literal over unknown variable");
    if (value(l) != LBool::True) {
      return fail("trail literal not assigned true: " + l.debug_string());
    }
    if (on_trail[v] != 0) {
      return fail("variable on trail twice: " + std::to_string(l.var()));
    }
    on_trail[v] = 1;
    if (level_of(l.var()) != cur_level) {
      return fail("recorded level disagrees with trail position for " +
                  l.debug_string());
    }
    const ClauseRef r = reason_[v];
    if (r != kNoReason) {
      if (arena_.deleted(r)) return fail("reason clause is deleted");
      if (arena_.size(r) < 2) return fail("reason clause shorter than 2");
      if (arena_.lit(r, 0) != l) {
        return fail("reason clause does not assert its trail literal " +
                    l.debug_string());
      }
    }
  }
  for (std::size_t v = 0; v < n; ++v) {
    if (assign_[v] != LBool::Undef && on_trail[v] == 0) {
      return fail("assigned variable missing from trail: " + std::to_string(v));
    }
  }

  // Watchers <-> arena: every watcher either points at a deleted clause
  // (stale, purged at GC) or watches one of the clause's first two literals
  // with a blocker from the clause; the binary tag must match the size.
  std::unordered_map<ClauseRef, int> watch_count;
  for (std::size_t code = 0; code < watches_.size(); ++code) {
    const Lit watched = ~Lit::from_code(static_cast<std::int32_t>(code));
    for (const Watcher& w : watches_[code]) {
      const ClauseRef cref = w.clause & ~kBinaryTag;
      const bool tagged = (w.clause & kBinaryTag) != 0;
      if (cref >= arena_.size_words()) return fail("watcher ref outside arena");
      if (arena_.deleted(cref)) continue;  // stale watcher awaiting GC
      const std::size_t size = arena_.size(cref);
      if (size < 2) return fail("watched clause shorter than 2");
      if (tagged != (size == 2)) return fail("binary tag disagrees with size");
      if (arena_.lit(cref, 0) != watched && arena_.lit(cref, 1) != watched) {
        return fail("watcher not on the clause's first two literals");
      }
      bool blocker_in_clause = false;
      for (std::size_t i = 0; i < size && !blocker_in_clause; ++i) {
        blocker_in_clause = arena_.lit(cref, i) == w.blocker;
      }
      if (!blocker_in_clause) return fail("watcher blocker not in clause");
      ++watch_count[cref];
    }
  }
  const auto check_list = [&](const std::vector<ClauseRef>& list, bool learned,
                              const char* what) {
    for (const ClauseRef c : list) {
      if (arena_.learned(c) != learned) {
        return fail(std::string(what) + " list holds a clause with the wrong "
                                        "learned flag");
      }
      if (arena_.deleted(c)) continue;
      if (arena_.size(c) >= 2 && watch_count[c] != 2) {
        return fail(std::string(what) + " clause not watched exactly twice");
      }
    }
    return Status::Ok();
  };
  if (Status s = check_list(problem_clauses_, false, "problem"); !s.ok()) return s;
  if (Status s = check_list(learnts_, true, "learned"); !s.ok()) return s;

  // Branching heap: index array and heap agree; activity max-heap property.
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    const Var v = heap_[i];
    if (v < 0 || static_cast<std::size_t>(v) >= n ||
        heap_index_[static_cast<std::size_t>(v)] != static_cast<std::int32_t>(i)) {
      return fail("heap index array out of sync");
    }
    if (i > 0) {
      const Var parent = heap_[(i - 1) / 2];
      if (activity_[static_cast<std::size_t>(parent)] <
          activity_[static_cast<std::size_t>(v)]) {
        return fail("heap order violated");
      }
    }
  }
  for (std::size_t v = 0; v < n; ++v) {
    const std::int32_t idx = heap_index_[v];
    if (idx >= 0 && (static_cast<std::size_t>(idx) >= heap_.size() ||
                     heap_[static_cast<std::size_t>(idx)] != static_cast<Var>(v))) {
      return fail("heap index points at the wrong slot");
    }
    // solve() starts without a heap rebuild: an unassigned variable missing
    // here could never be decided.
    if (idx < 0 && assign_[v] == LBool::Undef) {
      return fail("unassigned variable missing from the heap: " + std::to_string(v));
    }
  }
  return Status::Ok();
}

std::vector<Clause> Solver::learned_clauses() const {
  std::vector<Clause> out;
  for (const ClauseRef c : learnts_) {
    if (arena_.deleted(c)) continue;
    Clause lits;
    const std::size_t size = arena_.size(c);
    lits.reserve(size);
    for (std::size_t i = 0; i < size; ++i) lits.push_back(arena_.lit(c, i));
    out.push_back(std::move(lits));
  }
  return out;
}

std::uint64_t Solver::clause_fingerprint() const {
  // FNV-1a over the structural content: variable count, the root trail in
  // assignment order, and every live problem clause's size + literals in
  // database order. Order-sensitive by design — byte-identical emission is
  // the property under test.
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t x) {
    h ^= x;
    h *= 1099511628211ULL;
  };
  mix(num_vars());
  for (const Lit l : trail_) {
    if (level_of(l.var()) != 0) break;
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(l.code())));
  }
  for (const ClauseRef c : problem_clauses_) {
    if (arena_.deleted(c)) continue;
    const std::size_t size = arena_.size(c);
    mix(size);
    for (std::size_t i = 0; i < size; ++i) {
      mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(arena_.lit(c, i).code())));
    }
  }
  return h;
}

// --- activity-ordered max-heap ------------------------------------------

void Solver::heap_insert(Var v) {
  if (heap_contains(v)) return;
  heap_index_[static_cast<std::size_t>(v)] = static_cast<std::int32_t>(heap_.size());
  heap_.push_back(v);
  heap_sift_up(heap_.size() - 1);
}

void Solver::heap_update(Var v) {
  const std::int32_t i = heap_index_[static_cast<std::size_t>(v)];
  if (i < 0) return;
  heap_sift_up(static_cast<std::size_t>(i));
}

Var Solver::heap_pop() {
  const Var top = heap_.front();
  heap_index_[static_cast<std::size_t>(top)] = -1;
  if (heap_.size() > 1) {
    heap_.front() = heap_.back();
    heap_index_[static_cast<std::size_t>(heap_.front())] = 0;
    heap_.pop_back();
    heap_sift_down(0);
  } else {
    heap_.pop_back();
  }
  return top;
}

void Solver::heap_sift_up(std::size_t i) {
  const Var v = heap_[i];
  const double act = activity_[static_cast<std::size_t>(v)];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (activity_[static_cast<std::size_t>(heap_[parent])] >= act) break;
    heap_[i] = heap_[parent];
    heap_index_[static_cast<std::size_t>(heap_[i])] = static_cast<std::int32_t>(i);
    i = parent;
  }
  heap_[i] = v;
  heap_index_[static_cast<std::size_t>(v)] = static_cast<std::int32_t>(i);
}

void Solver::heap_sift_down(std::size_t i) {
  const Var v = heap_[i];
  const double act = activity_[static_cast<std::size_t>(v)];
  while (true) {
    const std::size_t left = 2 * i + 1;
    if (left >= heap_.size()) break;
    std::size_t best = left;
    const std::size_t right = left + 1;
    if (right < heap_.size() &&
        activity_[static_cast<std::size_t>(heap_[right])] >
            activity_[static_cast<std::size_t>(heap_[left])]) {
      best = right;
    }
    if (activity_[static_cast<std::size_t>(heap_[best])] <= act) break;
    heap_[i] = heap_[best];
    heap_index_[static_cast<std::size_t>(heap_[i])] = static_cast<std::int32_t>(i);
    i = best;
  }
  heap_[i] = v;
  heap_index_[static_cast<std::size_t>(v)] = static_cast<std::int32_t>(i);
}

}  // namespace t2m::sat
