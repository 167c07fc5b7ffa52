// Differential tests of the SatELite-style preprocessor: preprocessing may
// reshape the clause database arbitrarily, but the solver's verdict and any
// model's validity against the ORIGINAL clauses are invariants — checked on
// hundreds of random CNFs and on real learn runs (rtlinux scheduler and USB
// attach traces), plus the clause-count reduction the star compression and
// preprocessing are responsible for on the rtlinux encoding.

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <vector>

#include "src/abstraction/abstraction.h"
#include "src/core/compliance.h"
#include "src/core/csp_encoder.h"
#include "src/core/learner.h"
#include "src/core/segmentation.h"
#include "src/sat/drat_check.h"
#include "src/sat/preprocessor.h"
#include "src/sat/proof_log.h"
#include "src/sat/solver.h"
#include "src/sim/rtlinux/workloads.h"
#include "src/sim/synthetic/random_dfa.h"
#include "src/sim/xhci/ring_interface.h"
#include "src/util/rng.h"

namespace t2m {
namespace {

using sat::Lit;
using sat::SolveResult;

struct RandomCnf {
  std::size_t num_vars = 0;
  std::vector<sat::Clause> clauses;
};

RandomCnf random_cnf(std::uint64_t seed) {
  Rng rng(seed);
  RandomCnf cnf;
  cnf.num_vars = 5 + rng.below(21);  // 5..25
  // Around the ~4.3 clause/var satisfiability threshold half the time, well
  // under it otherwise, so both verdicts occur frequently.
  const std::size_t num_clauses =
      rng.chance(0.5) ? cnf.num_vars * 4 + rng.below(cnf.num_vars)
                      : 2 + rng.below(cnf.num_vars * 2);
  for (std::size_t i = 0; i < num_clauses; ++i) {
    sat::Clause c;
    const std::size_t len = 1 + rng.below(4);  // 1..4, units included
    for (std::size_t j = 0; j < len; ++j) {
      const auto v = static_cast<sat::Var>(rng.below(cnf.num_vars));
      c.push_back(rng.chance(0.5) ? sat::pos(v) : sat::neg(v));
    }
    cnf.clauses.push_back(std::move(c));
  }
  return cnf;
}

/// Solves `cnf`, optionally preprocessing first (freezing the given vars),
/// with DRAT proof logging on. Returns the verdict; on Unsat the emitted
/// proof must pass the independent forward checker (empty clause included);
/// on Sat the model must satisfy every ORIGINAL clause — via the solver's
/// own verify_model() audit (exercising the BVE stash replay) and a direct
/// walk over the input clauses.
SolveResult solve_cnf(const RandomCnf& cnf, bool preprocess,
                      const std::vector<sat::Var>& frozen,
                      std::uint64_t seed) {
  std::ostringstream trace;
  sat::ProofLog log(trace);
  sat::Solver s;
  sat::SolverConfig config;
  config.proof_log = &log;
  config.keep_originals = true;
  s.set_config(config);
  s.new_vars(static_cast<sat::Var>(cnf.num_vars));
  for (const sat::Clause& c : cnf.clauses) s.add_clause(c);
  for (const sat::Var v : frozen) s.freeze(v);
  bool pre_ok = true;
  if (preprocess) pre_ok = s.preprocess(sat::PreprocessOptions{});
  const SolveResult r = pre_ok ? s.solve() : SolveResult::Unsat;
  if (r == SolveResult::Sat) {
    const Status audit = s.verify_model();
    EXPECT_TRUE(audit.ok()) << "seed=" << seed << ": " << audit.message();
    for (const sat::Clause& c : cnf.clauses) {
      bool satisfied = false;
      for (const Lit l : c) {
        if (s.model_value(l.var()) != l.negated()) {
          satisfied = true;
          break;
        }
      }
      EXPECT_TRUE(satisfied) << "model violates an original clause";
    }
  } else {
    std::istringstream proof(trace.str());
    sat::DratCheckOptions options;
    options.require_empty_clause = true;
    const sat::DratCheckResult check = sat::check_drat(sat::CnfFormula{}, proof, options);
    EXPECT_TRUE(check.ok) << "seed=" << seed << " preprocess=" << preprocess
                          << ": " << check.error;
  }
  EXPECT_TRUE(s.check_invariants().ok()) << "seed=" << seed;
  return r;
}

class PreprocessorDifferential : public ::testing::TestWithParam<int> {};

TEST_P(PreprocessorDifferential, VerdictAndModelValidityPreserved) {
  // 130 CNFs per shard x 4 shards = 520 random instances.
  const std::uint64_t base = static_cast<std::uint64_t>(GetParam()) * 1000;
  for (std::uint64_t i = 0; i < 130; ++i) {
    const RandomCnf cnf = random_cnf(base + i);
    // Freeze a few variables — the learner freezes everything it reads back,
    // so the differential must hold with and without frozen vars present.
    std::vector<sat::Var> frozen;
    if (i % 3 == 0) {
      for (sat::Var v = 0; v < static_cast<sat::Var>(cnf.num_vars); v += 4) {
        frozen.push_back(v);
      }
    }
    const SolveResult plain = solve_cnf(cnf, false, frozen, base + i);
    const SolveResult preprocessed = solve_cnf(cnf, true, frozen, base + i);
    ASSERT_EQ(plain, preprocessed) << "seed=" << base + i;
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, PreprocessorDifferential, ::testing::Range(0, 4));

TEST(Preprocessor, EliminatesVariablesOnEasyStructure) {
  // A variable chain a -> b -> c -> ... with nothing frozen: BVE must
  // actually fire (this guards against the pass silently doing nothing).
  sat::Solver s;
  const sat::Var base = s.new_vars(16);
  for (sat::Var v = 0; v + 1 < 16; ++v) {
    s.add_clause(std::vector<Lit>{sat::neg(base + v), sat::pos(base + v + 1)});
  }
  s.freeze(base);
  s.freeze(base + 15);
  ASSERT_TRUE(s.preprocess(sat::PreprocessOptions{}));
  EXPECT_GT(s.num_eliminated(), 0u);
  EXPECT_EQ(s.solve(), SolveResult::Sat);
  // Reconstructed values must respect the chain when the endpoints force it.
  EXPECT_EQ(s.stats().eliminated_vars, s.num_eliminated());
}

TEST(Preprocessor, FrozenVariablesSurvive) {
  sat::Solver s;
  const sat::Var base = s.new_vars(8);
  for (sat::Var v = 0; v + 1 < 8; ++v) {
    s.add_clause(std::vector<Lit>{sat::neg(base + v), sat::pos(base + v + 1)});
  }
  for (sat::Var v = 0; v < 8; ++v) s.freeze(base + v);
  ASSERT_TRUE(s.preprocess(sat::PreprocessOptions{}));
  EXPECT_EQ(s.num_eliminated(), 0u);
  for (sat::Var v = 0; v < 8; ++v) EXPECT_FALSE(s.is_eliminated(base + v));
}

TEST(Preprocessor, SubsumptionRemovesImpliedClauses) {
  sat::Solver s;
  const sat::Var v = s.new_vars(4);
  for (sat::Var x = 0; x < 4; ++x) s.freeze(v + x);  // isolate subsumption
  s.add_clause(std::vector<Lit>{sat::pos(v), sat::pos(v + 1)});
  s.add_clause(std::vector<Lit>{sat::pos(v), sat::pos(v + 1), sat::pos(v + 2)});
  s.add_clause(std::vector<Lit>{sat::pos(v), sat::pos(v + 1), sat::neg(v + 3)});
  const std::size_t before = s.num_clauses();
  ASSERT_TRUE(s.preprocess(sat::PreprocessOptions{}));
  EXPECT_LT(s.num_clauses(), before);
  EXPECT_GT(s.stats().subsumed_clauses, 0u);
  EXPECT_EQ(s.solve(), SolveResult::Sat);
}

TEST(Preprocessor, DetectsRootUnsat) {
  sat::Solver s;
  const sat::Var v = s.new_vars(2);
  s.add_clause(std::vector<Lit>{sat::pos(v), sat::pos(v + 1)});
  s.add_clause(std::vector<Lit>{sat::pos(v), sat::neg(v + 1)});
  s.add_clause(std::vector<Lit>{sat::neg(v), sat::pos(v + 1)});
  s.add_clause(std::vector<Lit>{sat::neg(v), sat::neg(v + 1)});
  s.preprocess(sat::PreprocessOptions{});
  EXPECT_EQ(s.solve(), SolveResult::Unsat);
}

// ---------------------------------------------------------------------------
// Real learn runs: preprocessing must not change the learner-visible outcome.
// Different (equally valid) sibling models are permitted — what is invariant
// is the verdict and the minimal compliant state count (the philosophy of
// tests/test_persistent_diff.cpp).

void expect_same_learn_outcome(const Trace& trace, const char* what) {
  LearnerConfig config;
  config.persistent_solver = false;  // preprocessing runs per fresh CSP
  LearnerConfig with = config;
  with.preprocess = true;
  const LearnResult plain = ModelLearner(config).learn(trace);
  const LearnResult preprocessed = ModelLearner(with).learn(trace);
  ASSERT_EQ(plain.success, preprocessed.success) << what;
  ASSERT_TRUE(plain.success) << what;
  EXPECT_EQ(plain.states, preprocessed.states) << what;
  EXPECT_TRUE(preprocessed.model.deterministic_per_predicate()) << what;
  // Both models must satisfy the same compliance window set.
  ComplianceChecker checker(plain.preds.seq, config.compliance_length);
  EXPECT_TRUE(checker.check(plain.model).compliant) << what;
  EXPECT_TRUE(checker.check(preprocessed.model).compliant) << what;
  EXPECT_TRUE(preprocessed.model.accepts(preprocessed.preds.seq)) << what;
}

TEST(PreprocessorLearnDifferential, RtlinuxScheduler) {
  expect_same_learn_outcome(sim::generate_full_coverage_sched_trace(4000), "rtlinux");
}

TEST(PreprocessorLearnDifferential, UsbAttach) {
  expect_same_learn_outcome(sim::generate_usb_attach_trace(), "usb-attach");
}

// ---------------------------------------------------------------------------
// End-to-end proof-carrying learn runs: every solver verdict the CEGIS loop
// consumes is independently re-derived by the forward DRAT checker from the
// emitted trace — "i" axioms for the encoding, checked lemmas for every
// conflict, `c restart` across CSP rebuilds (capacity and prefix-refinement
// rebuilds alike), and per-epoch conclusions for the guarded incremental
// grow_to path.

void expect_checked_learn_run(const Trace& trace, bool persistent, const char* what,
                              std::size_t min_prefix_refinements = 0) {
  std::ostringstream proof_stream;
  sat::ProofLog log(proof_stream);
  LearnerConfig config;
  config.persistent_solver = persistent;
  config.preprocess = true;  // preprocessor derivations must be in the proof
  config.solver.proof_log = &log;
  const LearnResult result = ModelLearner(config).learn(trace);
  ASSERT_TRUE(result.success) << what;
  EXPECT_GE(result.stats.prefix_refinements, min_prefix_refinements) << what;
  std::istringstream proof(proof_stream.str());
  const sat::DratCheckResult check =
      sat::check_drat(sat::CnfFormula{}, proof, {});
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
  // P make both paths rebuild their CSP over a longer leading prefix mid-run.
  const Trace trace = sim::random_dfa_walk_trace(6, 600, 3);
  for (const bool persistent : {true, false}) {
    expect_checked_learn_run(trace, persistent,
                             persistent ? "walk-persistent" : "walk-fresh",
                             /*min_prefix_refinements=*/1);
  }
}

// ---------------------------------------------------------------------------
// The Table-1 lever, measured: on the rtlinux (Linux scheduler) encoding
// with its CEGIS-discovered forbidden words, star compression plus
// preprocessing must shrink the clause count by >= 30% relative to the
// direct encoding — with the verdict unchanged.

/// The CEGIS refinement loop on one CSP: solve, check compliance, forbid
/// every new invalid sequence (recording it in `forbidden`), until the model
/// is compliant; the compliant model lands in `model`.
void drive_to_compliance(AutomatonCsp& csp, const ComplianceChecker& checker,
                         std::set<std::vector<PredId>>& forbidden, Nfa& model) {
  for (;;) {
    ASSERT_EQ(csp.solve(), SolveResult::Sat);
    model = csp.extract_model();
    const ComplianceResult compliance = checker.check(model);
    if (compliance.compliant) return;
    std::size_t added = 0;
    for (const auto& word : compliance.invalid_sequences) {
      if (forbidden.insert(word).second) {
        csp.add_forbidden_sequence(word);
        ++added;
      }
    }
    ASSERT_GT(added, 0u) << "refinement stalled";
    ASSERT_LT(forbidden.size(), 4096u) << "runaway refinement";
  }
}

TEST(PreprocessorReduction, RtlinuxEncodingShrinksAtLeast30Percent) {
  const Trace trace = sim::generate_full_coverage_sched_trace(20165);
  AbstractionConfig abs_config;
  const PredicateSequence preds = abstract_trace(trace, abs_config);
  const std::vector<Segment> segments = segment_sequence(preds.seq, 3);
  const ComplianceChecker checker(preds.seq, 2);

  // Collect the forbidden words a CEGIS run discovers, using the compressed
  // configuration to drive the loop.
  std::set<std::vector<PredId>> forbidden;
  Nfa model(1, 0);
  {
    CspOptions options;
    AutomatonCsp csp(segments, preds.vocab.size(), 8, options);
    drive_to_compliance(csp, checker, forbidden, model);
    if (HasFatalFailure()) return;
  }
  ASSERT_GT(forbidden.size(), 0u) << "no forbidden words: reduction unmeasurable";

  // Direct reference: no star compression, no preprocessing.
  CspOptions direct_options;
  direct_options.compress_forbidden = false;
  AutomatonCsp direct(segments, preds.vocab.size(), 8, direct_options);
  for (const auto& word : forbidden) direct.add_forbidden_sequence(word);
  ASSERT_EQ(direct.solve(), SolveResult::Sat);
  const std::size_t direct_clauses = direct.num_clauses();

  // Production: star compression + preprocessing (solve() triggers it).
  CspOptions production_options;
  production_options.preprocess = true;
  AutomatonCsp production(segments, preds.vocab.size(), 8, production_options);
  for (const auto& word : forbidden) production.add_forbidden_sequence(word);
  ASSERT_EQ(production.solve(), SolveResult::Sat);
  const std::size_t production_clauses = production.num_clauses();

  EXPECT_LE(production_clauses, direct_clauses - direct_clauses * 3 / 10)
      << "direct=" << direct_clauses << " production=" << production_clauses;

  // Both encodings reach a valid model for the same instance. The words
  // that made the first CSP compliant need not make the others' first
  // models compliant, so each CSP finishes its own refinement loop.
  Nfa direct_model(1, 0);
  std::set<std::vector<PredId>> direct_forbidden = forbidden;
  drive_to_compliance(direct, checker, direct_forbidden, direct_model);
  if (HasFatalFailure()) return;
  Nfa production_model(1, 0);
  std::set<std::vector<PredId>> production_forbidden = forbidden;
  drive_to_compliance(production, checker, production_forbidden, production_model);
  if (HasFatalFailure()) return;
  EXPECT_TRUE(direct_model.deterministic_per_predicate());
  EXPECT_TRUE(production_model.deterministic_per_predicate());
  EXPECT_TRUE(checker.check(direct_model).compliant);
  EXPECT_TRUE(checker.check(production_model).compliant);
}

}  // namespace
}  // namespace t2m
