#ifndef T2M_SAT_PROOF_LOG_H
#define T2M_SAT_PROOF_LOG_H

#include <cstdint>
#include <iosfwd>
#include <span>

#include "src/sat/cnf.h"

namespace t2m::sat {

/// Sink for an extended-DRAT proof trace, the artifact that makes the
/// solver's UNSAT verdicts independently checkable (see
/// docs/proof_checking.md). Plain text, one event per line, literals in
/// DIMACS numbering (var+1, negative = negated):
///
///   <lits> 0        lemma addition — must be RUP (or RAT on its first
///                   literal) with respect to the formula so far; the
///                   checker verifies this before admitting it
///   d <lits> 0      clause deletion — advisory; the checker drops a
///                   matching clause and skips silently when none matches
///   i <lits> 0      incremental axiom — extends the formula unchecked
///                   (the solver logs every problem clause it is handed
///                   this way, so a proof is self-contained and covers
///                   clauses added between solve() calls)
///   c restart 0     a fresh solver instance took over the log: the
///                   checker resets its clause database
///   c solve <n> 0             epoch begin (n = solve() ordinal)
///   c assume <lits> 0         the epoch's assumption literals
///   c conclude unsat <lits> 0 the epoch ended Unsat with this (possibly
///                             empty) assumption-closed conflict clause;
///                             the checker requires the clause to be in
///                             its database and every literal to negate a
///                             declared assumption
///   c conclude sat 0          epoch ended Sat (model checked separately
///                             by Solver::verify_model)
///   c conclude unknown 0      epoch gave up (deadline/budget/cancel)
///
/// The writer is sequential: one solver owns the log at a time (capacity
/// rebuilds hand it to the next solver generation). Logging is pure output —
/// attaching a log never changes solver behaviour (clause fingerprints are
/// byte-identical with and without it; asserted by bench_check).
class ProofLog {
public:
  explicit ProofLog(std::ostream& os) : os_(os) {}
  ProofLog(const ProofLog&) = delete;
  ProofLog& operator=(const ProofLog&) = delete;

  /// Lemma addition ("a" line; the empty span derives the empty clause).
  void add(std::span<const Lit> lits);
  void add_empty() { add({}); }
  /// Clause deletion ("d" line).
  void remove(std::span<const Lit> lits);
  /// Incremental axiom ("i" line).
  void axiom(std::span<const Lit> lits);

  /// Instance boundary: the next lines describe a fresh solver.
  void restart();
  void begin_solve(std::uint64_t ordinal, std::span<const Lit> assumptions);
  /// `conflict` holds the negations of the failed assumption core; empty
  /// for an unconditional (root-level) Unsat.
  void conclude_unsat(std::span<const Lit> conflict);
  void conclude_sat();
  void conclude_unknown();

  std::uint64_t events() const { return events_; }

private:
  void write_clause_line(const char* prefix, std::span<const Lit> lits);

  std::ostream& os_;
  std::uint64_t events_ = 0;
};

}  // namespace t2m::sat

#endif  // T2M_SAT_PROOF_LOG_H
