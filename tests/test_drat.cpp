// Unit tests of the forward DRAT checker (src/sat/drat_check.h) against
// handcrafted proofs — the semantics of every line kind in the extended
// format (lemma, deletion, "i" axiom, restart, solve/assume/conclude
// markers) — plus solver round trips: every proof the solver emits must
// verify, and verification must be meaningful (tampered proofs rejected) —
// and end-to-end learn runs whose whole proof stream must verify.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/core/learner.h"
#include "src/sat/dimacs.h"
#include "src/sat/drat_check.h"
#include "src/sat/proof_log.h"
#include "src/sat/solver.h"
#include "src/sim/rtlinux/workloads.h"
#include "src/sim/synthetic/random_dfa.h"
#include "src/sim/xhci/ring_interface.h"
#include "src/util/rng.h"

namespace t2m::sat {
namespace {

DratCheckResult check(const std::string& proof_text,
                      const CnfFormula& cnf = CnfFormula{},
                      const DratCheckOptions& options = {}) {
  std::istringstream proof(proof_text);
  return check_drat(cnf, proof, options);
}

CnfFormula cnf_of(std::size_t num_vars, std::vector<Clause> clauses) {
  CnfFormula f;
  f.num_vars = num_vars;
  f.clauses = std::move(clauses);
  return f;
}

TEST(DratCheck, AcceptsRupDerivationToEmptyClause) {
  // x1 xor-like square: {2} is RUP, and adding it propagates to a root
  // conflict, so the empty clause is then trivially accepted.
  const CnfFormula f = cnf_of(2, {{pos(0), pos(1)},
                                  {neg(0), pos(1)},
                                  {pos(0), neg(1)},
                                  {neg(0), neg(1)}});
  DratCheckOptions options;
  options.require_empty_clause = true;
  const DratCheckResult r = check("2 0\n0\n", f, options);
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.lemmas_checked, 2u);
  EXPECT_EQ(r.rat_lemmas, 0u);
  EXPECT_EQ(r.axioms, 4u);
  EXPECT_TRUE(r.empty_clause_derived);
}

TEST(DratCheck, RejectsLemmaThatIsNeitherRupNorRat) {
  const CnfFormula f = cnf_of(2, {{pos(0), pos(1)}, {neg(0), neg(1)}});
  const DratCheckResult r = check("1 0\n", f);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error_line, 1u);
  EXPECT_NE(r.error.find("neither RUP nor RAT"), std::string::npos) << r.error;
}

TEST(DratCheck, RatFallbackAcceptsNonRupLemma) {
  // Against {-1 2}, the lemma {1 -2} is not RUP (assuming -1, 2 satisfies
  // the only clause) but is RAT on pivot 1: the sole resolvent {-2, 2} is a
  // tautology.
  const CnfFormula f = cnf_of(2, {{neg(0), pos(1)}});
  const DratCheckResult r = check("1 -2 0\n", f);
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.lemmas_checked, 1u);
  EXPECT_EQ(r.rat_lemmas, 1u);
}

TEST(DratCheck, RequireEmptyClauseRejectsIncompleteProof) {
  const CnfFormula f = cnf_of(2, {{pos(0), pos(1)}, {neg(0), pos(1)}});
  DratCheckOptions options;
  options.require_empty_clause = true;
  const DratCheckResult r = check("2 0\n", f, options);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("empty clause"), std::string::npos) << r.error;
}

TEST(DratCheck, DeletionsMatchedSkippedAndUnitPreserving) {
  // A matched deletion retires the clause; unit and unmatched deletions are
  // advisory no-ops (drat-trim convention).
  const CnfFormula f = cnf_of(3, {{pos(0), pos(1)}, {pos(2)}});
  const DratCheckResult r = check("d 1 2 0\nd 3 0\nd 1 9 0\n", f);
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.deletions, 1u);
  EXPECT_EQ(r.skipped_deletions, 2u);
}

TEST(DratCheck, DeletedClauseNoLongerSupportsLemmas) {
  // {2} is RUP via {1 2} + {-1 2}. After deleting {1 2} it is not RUP, and
  // the {-2 ...} clauses keep the RAT check non-vacuous: the resolvent {3}
  // fails RUP against the remaining database, so the lemma is rejected.
  const CnfFormula f = cnf_of(3, {{pos(0), pos(1)},
                                  {neg(0), pos(1)},
                                  {neg(1), pos(2)},
                                  {neg(1), neg(2)}});
  EXPECT_TRUE(check("2 0\n", f).ok);
  const DratCheckResult r = check("d 1 2 0\n2 0\n", f);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error_line, 2u);
}

TEST(DratCheck, IncrementalAxiomsMakeProofSelfContained) {
  // The same refutation as AcceptsRupDerivation, but the formula arrives via
  // "i" lines in the proof stream instead of a DIMACS file.
  const std::string proof =
      "i 1 2 0\ni -1 2 0\ni 1 -2 0\ni -1 -2 0\n2 0\n0\n";
  DratCheckOptions options;
  options.require_empty_clause = true;
  const DratCheckResult r = check(proof, CnfFormula{}, options);
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.axioms, 4u);
  EXPECT_TRUE(r.empty_clause_derived);
}

TEST(DratCheck, RestartClearsTheDatabase) {
  // Before the restart the units 1, -1 conflict, so the empty clause is
  // derivable; after the restart the database is empty and it must not be.
  EXPECT_TRUE(check("i 1 0\ni -1 0\n0\n").ok);
  const DratCheckResult r = check("i 1 0\ni -1 0\n0\nc restart 0\n0\n");
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error_line, 5u);
  EXPECT_EQ(r.restarts, 1u);
}

TEST(DratCheck, EpochMarkersValidateAssumptionCores) {
  // Under assumption 1 the formula {-1 2, -2 -1} is UNSAT with core {-1};
  // without assumptions it is SAT. The conclusion lines must check against
  // the declared assumptions and the verified database.
  const std::string proof =
      "i -1 2 0\n"
      "i -2 -1 0\n"
      "c solve 0 0\n"
      "c assume 1 0\n"
      "-1 0\n"
      "c conclude unsat -1 0\n"
      "c solve 1 0\n"
      "c conclude sat 0\n";
  const DratCheckResult r = check(proof);
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.epochs_concluded_unsat, 1u);
  EXPECT_EQ(r.epochs_concluded_sat, 1u);
  EXPECT_EQ(r.lemmas_checked, 1u);
}

TEST(DratCheck, RejectsCoreNotNegatingAssumptions) {
  // {-2} is a perfectly valid lemma here, but concluding unsat with it is
  // wrong: -2 does not negate the declared assumption 1.
  const std::string proof =
      "i -1 2 0\n"
      "i -2 0\n"
      "c assume 1 0\n"
      "c conclude unsat -2 0\n";
  const DratCheckResult r = check(proof);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("does not negate"), std::string::npos) << r.error;
}

TEST(DratCheck, RejectsUnsatConclusionClauseOutsideDatabase) {
  const std::string proof =
      "i -1 2 0\n"
      "c assume 1 0\n"
      "c conclude unsat -1 0\n";
  const DratCheckResult r = check(proof);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("not in the verified database"), std::string::npos)
      << r.error;
}

TEST(DratCheck, RejectsSatConclusionAfterRootConflict) {
  const DratCheckResult r = check("i 1 0\ni -1 0\nc conclude sat 0\n");
  EXPECT_FALSE(r.ok);
}

TEST(DratCheck, UnknownConclusionAndCommentsAreBenign) {
  const DratCheckResult r =
      check("c just a comment\nc conclude unknown 0\ni 1 0\n");
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.epochs_concluded_unknown, 1u);
}

TEST(DratCheck, RejectsUnterminatedProofLine) {
  const DratCheckResult r = check("1 2\n");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("missing 0 terminator"), std::string::npos) << r.error;
}

// ---------------------------------------------------------------------------
// Solver round trips: randomized CNFs near the satisfiability threshold,
// solved with proof logging on — every emitted proof must verify, UNSAT
// runs must certify unconditionally, and SAT runs must pass the model audit
// against the original clauses.

TEST(DratCheckSolverRoundTrip, RandomCnfs) {
  std::size_t unsat_seen = 0;
  std::size_t sat_seen = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const std::size_t num_vars = 5 + rng.below(16);
    // Around the satisfiability threshold half the time, well under it
    // otherwise, so both verdicts occur (asserted below).
    const std::size_t num_clauses =
        rng.chance(0.5) ? num_vars * 4 + rng.below(num_vars)
                        : 2 + rng.below(num_vars * 2);
    std::ostringstream trace;
    ProofLog log(trace);
    Solver s;
    SolverConfig config;
    config.proof_log = &log;
    config.keep_originals = true;
    s.set_config(config);
    s.new_vars(static_cast<Var>(num_vars));
    for (std::size_t i = 0; i < num_clauses; ++i) {
      Clause c;
      const std::size_t len = 1 + rng.below(4);
      for (std::size_t j = 0; j < len; ++j) {
        const auto v = static_cast<Var>(rng.below(num_vars));
        c.push_back(rng.chance(0.5) ? pos(v) : neg(v));
      }
      s.add_clause(c);
    }
    const SolveResult res = s.solve();
    std::istringstream proof(trace.str());
    DratCheckOptions options;
    options.require_empty_clause = (res == SolveResult::Unsat);
    const DratCheckResult r = check_drat(CnfFormula{}, proof, options);
    ASSERT_TRUE(r.ok) << "seed=" << seed << ": " << r.error;
    if (res == SolveResult::Unsat) {
      ++unsat_seen;
      EXPECT_TRUE(r.empty_clause_derived) << "seed=" << seed;
    } else {
      ++sat_seen;
      const Status audit = s.verify_model();
      EXPECT_TRUE(audit.ok()) << "seed=" << seed << ": " << audit.message();
    }
    EXPECT_TRUE(s.check_invariants().ok()) << "seed=" << seed;
  }
  // The threshold mix must actually exercise both verdicts.
  EXPECT_GT(unsat_seen, 0u);
  EXPECT_GT(sat_seen, 0u);
}

TEST(DratCheckSolverRoundTrip, IncrementalEpochsOverSharedClauses) {
  // One solver, several assumption epochs: chain x0 -> x1 -> ... -> x7 plus
  // ~x0 | ~x7. Assuming x0 is UNSAT; assuming ~x0 or nothing is SAT. Learned
  // clause reduction and restarts happen naturally across epochs.
  std::ostringstream trace;
  ProofLog log(trace);
  Solver s;
  SolverConfig config;
  config.proof_log = &log;
  config.keep_originals = true;
  s.set_config(config);
  const Var base = s.new_vars(8);
  for (Var v = 0; v + 1 < 8; ++v) {
    s.add_clause({neg(base + v), pos(base + v + 1)});
  }
  s.add_clause({neg(base), neg(base + 7)});
  EXPECT_EQ(s.solve(std::vector<Lit>{pos(base)}), SolveResult::Unsat);
  EXPECT_EQ(s.solve(std::vector<Lit>{neg(base)}), SolveResult::Sat);
  EXPECT_TRUE(s.verify_model().ok());
  EXPECT_EQ(s.solve(), SolveResult::Sat);
  const DratCheckResult r = check(trace.str());
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.epochs_concluded_unsat, 1u);
  EXPECT_EQ(r.epochs_concluded_sat, 2u);
}

TEST(DratCheckSolverRoundTrip, TamperedProofIsRejected) {
  // Truncate a genuine UNSAT proof before its conclusion and splice in a
  // foreign lemma: verification must fail rather than wave it through.
  std::ostringstream trace;
  ProofLog log(trace);
  Solver s;
  SolverConfig config;
  config.proof_log = &log;
  s.set_config(config);
  const Var base = s.new_vars(2);
  s.add_clause({pos(base), pos(base + 1)});
  s.add_clause({neg(base), neg(base + 1)});
  EXPECT_EQ(s.solve(), SolveResult::Sat);
  // {1} fails RUP against {1 2, -1 -2}, and its sole RAT resolvent {-2}
  // fails RUP too (a merely satisfiability-preserving lemma would NOT be
  // rejected — DRAT admits any RAT addition).
  const DratCheckResult r = check(trace.str() + "1 0\n");
  EXPECT_FALSE(r.ok);
}

// ---------------------------------------------------------------------------
// End-to-end proof-carrying learn runs: every solver verdict the CEGIS loop
// consumes is independently re-derived by the forward DRAT checker from the
// emitted trace — "i" axioms for the encoding, checked lemmas for every
// conflict, `c restart` across CSP rebuilds (per N on the fresh path, at a
// capacity overflow on the persistent one), `i` axioms for the clauses a
// prefix refinement appends to the live solver, and per-epoch conclusions
// for the guarded incremental grow_to path.

void expect_checked_learn_run(const Trace& trace, bool persistent, const char* what,
                              std::size_t min_prefix_refinements = 0,
                              LearnStats* stats = nullptr) {
  std::ostringstream proof_stream;
  ProofLog log(proof_stream);
  LearnerConfig config;
  config.persistent_solver = persistent;
  config.solver.proof_log = &log;
  const LearnResult result = ModelLearner(config).learn(trace);
  ASSERT_TRUE(result.success) << what;
  EXPECT_GE(result.stats.prefix_refinements, min_prefix_refinements) << what;
  if (stats != nullptr) *stats = result.stats;
  std::istringstream proof(proof_stream.str());
  const DratCheckResult check = check_drat(CnfFormula{}, proof, {});
  ASSERT_TRUE(check.ok) << what << ": line " << check.error_line << ": "
                        << check.error;
  // Every learn ends by accepting a model, so at least one epoch concluded
  // SAT; growing past the initial state count concludes UNSAT epochs first.
  EXPECT_GE(check.epochs_concluded_sat, 1u) << what;
  if (result.states > config.initial_states) {
    EXPECT_GE(check.epochs_concluded_unsat, 1u) << what;
  }
}

TEST(ProofCarryingLearnRun, RtlinuxSchedulerPersistent) {
  expect_checked_learn_run(sim::generate_full_coverage_sched_trace(4000), true,
                           "rtlinux-persistent");
}

TEST(ProofCarryingLearnRun, UsbAttachFreshPerN) {
  expect_checked_learn_run(sim::generate_usb_attach_trace(), false,
                           "usb-attach-fresh");
}

TEST(ProofCarryingLearnRun, RandomDfaWalkPrefixRefinement) {
  // On this 6-state random-DFA walk, compliant candidates that do not replay
  // P make both paths extend their live CSP's leading prefix mid-run; the
  // persistent path's one solver carries the whole proof.
  const Trace trace = sim::random_dfa_walk_trace(6, 600, 3);
  for (const bool persistent : {true, false}) {
    LearnStats stats;
    expect_checked_learn_run(trace, persistent,
                             persistent ? "walk-persistent" : "walk-fresh",
                             /*min_prefix_refinements=*/1, &stats);
    if (persistent) {
      EXPECT_EQ(stats.csp_builds, 1u);
    }
  }
}

}  // namespace
}  // namespace t2m::sat
