#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/sat/dimacs.h"
#include "src/sat/solver.h"
#include "src/util/failpoint.h"
#include "src/util/rng.h"

namespace t2m::sat {
namespace {

TEST(SatSolver, EmptyIsSat) {
  Solver s;
  EXPECT_EQ(s.solve(), SolveResult::Sat);
}

TEST(SatSolver, UnitPropagation) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  ASSERT_TRUE(s.add_unit(pos(a)));
  ASSERT_TRUE(s.add_binary(neg(a), pos(b)));
  ASSERT_EQ(s.solve(), SolveResult::Sat);
  EXPECT_TRUE(s.model_value(a));
  EXPECT_TRUE(s.model_value(b));
}

TEST(SatSolver, ContradictoryUnits) {
  Solver s;
  const Var a = s.new_var();
  EXPECT_TRUE(s.add_unit(pos(a)));
  EXPECT_FALSE(s.add_unit(neg(a)));
  EXPECT_EQ(s.solve(), SolveResult::Unsat);
}

TEST(SatSolver, TautologyAndDuplicatesIgnored) {
  Solver s;
  const Var a = s.new_var();
  EXPECT_TRUE(s.add_clause({pos(a), neg(a)}));  // tautology dropped
  EXPECT_TRUE(s.add_clause({pos(a), pos(a), pos(a)}));
  EXPECT_EQ(s.solve(), SolveResult::Sat);
  EXPECT_TRUE(s.model_value(a));
}

TEST(SatSolver, SimpleUnsatCore) {
  // (a | b) & (a | ~b) & (~a | b) & (~a | ~b) is unsatisfiable.
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  s.add_binary(pos(a), pos(b));
  s.add_binary(pos(a), neg(b));
  s.add_binary(neg(a), pos(b));
  s.add_binary(neg(a), neg(b));
  EXPECT_EQ(s.solve(), SolveResult::Unsat);
}

/// Pigeonhole principle PHP(n+1, n): classic hard UNSAT family.
void add_pigeonhole(Solver& s, int holes) {
  const int pigeons = holes + 1;
  std::vector<std::vector<Var>> at(pigeons, std::vector<Var>(holes));
  for (auto& row : at) {
    for (auto& v : row) v = s.new_var();
  }
  for (int p = 0; p < pigeons; ++p) {
    Clause c;
    for (int h = 0; h < holes; ++h) c.push_back(pos(at[p][h]));
    s.add_clause(c);
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        s.add_binary(neg(at[p1][h]), neg(at[p2][h]));
      }
    }
  }
}

TEST(SatSolver, PigeonholeUnsat) {
  for (int holes = 2; holes <= 6; ++holes) {
    Solver s;
    add_pigeonhole(s, holes);
    EXPECT_EQ(s.solve(), SolveResult::Unsat) << "holes=" << holes;
  }
}

TEST(SatSolver, ExactlyOne) {
  Solver s;
  std::vector<Lit> lits;
  for (int i = 0; i < 5; ++i) lits.push_back(pos(s.new_var()));
  ASSERT_TRUE(s.add_exactly_one(lits));
  ASSERT_EQ(s.solve(), SolveResult::Sat);
  int set = 0;
  for (const Lit l : lits) set += s.model_value(l.var()) ? 1 : 0;
  EXPECT_EQ(set, 1);
}

TEST(SatSolver, IncrementalClauseAddition) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  s.add_binary(pos(a), pos(b));
  ASSERT_EQ(s.solve(), SolveResult::Sat);
  // Forbid the found model repeatedly until UNSAT; must take <= 4 models.
  int models = 0;
  while (s.solve() == SolveResult::Sat) {
    ++models;
    ASSERT_LE(models, 3);
    Clause block;
    block.push_back(s.model_value(a) ? neg(a) : pos(a));
    block.push_back(s.model_value(b) ? neg(b) : pos(b));
    s.add_clause(block);
  }
  EXPECT_EQ(models, 3);  // (T,T), (T,F), (F,T)
}

TEST(SatSolver, Assumptions) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  s.add_binary(neg(a), pos(b));
  const Lit assume_a[] = {pos(a)};
  ASSERT_EQ(s.solve(assume_a), SolveResult::Sat);
  EXPECT_TRUE(s.model_value(b));
  // Assumptions do not persist.
  const Lit assume_not_b[] = {neg(b), pos(a)};
  EXPECT_EQ(s.solve(assume_not_b), SolveResult::Unsat);
  EXPECT_EQ(s.solve(), SolveResult::Sat);
}

TEST(SatSolver, FinalConflictNamesFailingAssumptions) {
  // x & (~x | y) & (~y | ~z): assuming {w, z, x} is inconsistent through the
  // chain x -> y -> ~z; the core must contain z and x but not the unrelated w.
  Solver s;
  const Var x = s.new_var();
  const Var y = s.new_var();
  const Var z = s.new_var();
  const Var w = s.new_var();
  s.add_binary(neg(x), pos(y));
  s.add_binary(neg(y), neg(z));
  const Lit assumptions[] = {pos(w), pos(z), pos(x)};
  ASSERT_EQ(s.solve(assumptions), SolveResult::Unsat);
  const std::vector<Lit>& core = s.final_conflict();
  const auto has = [&core](Lit l) {
    return std::find(core.begin(), core.end(), l) != core.end();
  };
  EXPECT_TRUE(has(pos(x)));
  EXPECT_TRUE(has(pos(z)));
  EXPECT_FALSE(has(pos(w)));
  EXPECT_FALSE(s.in_unsat_state());  // assumption Unsat is not root Unsat
  EXPECT_EQ(s.solve(), SolveResult::Sat);
  EXPECT_TRUE(s.final_conflict().empty());
}

TEST(SatSolver, FinalConflictOnDirectlyContradictoryAssumptions) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  s.add_binary(pos(a), pos(b));  // keep the instance nontrivial
  const Lit assumptions[] = {pos(a), neg(a)};
  ASSERT_EQ(s.solve(assumptions), SolveResult::Unsat);
  const std::vector<Lit>& core = s.final_conflict();
  EXPECT_EQ(core.size(), 2u);
  EXPECT_NE(std::find(core.begin(), core.end(), pos(a)), core.end());
  EXPECT_NE(std::find(core.begin(), core.end(), neg(a)), core.end());
}

TEST(SatSolver, FinalConflictEmptyOnRootUnsat) {
  Solver s;
  const Var a = s.new_var();
  s.add_unit(pos(a));
  s.add_unit(neg(a));
  const Lit assumptions[] = {pos(s.new_var())};
  EXPECT_EQ(s.solve(assumptions), SolveResult::Unsat);
  EXPECT_TRUE(s.final_conflict().empty());
  EXPECT_TRUE(s.in_unsat_state());
}

TEST(SatSolver, SimplifyRemovesRootSatisfiedClauses) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  const Var c = s.new_var();
  s.add_ternary(pos(a), pos(b), pos(c));
  s.add_ternary(neg(a), pos(b), pos(c));
  ASSERT_EQ(s.num_clauses(), 2u);
  s.add_unit(pos(b));  // satisfies both at the root
  s.simplify();
  EXPECT_EQ(s.num_clauses(), 0u);
  EXPECT_GE(s.stats().simplify_removed, 2u);
  // Verdicts are unchanged by the removal.
  const Lit assumptions[] = {neg(a), neg(c)};
  EXPECT_EQ(s.solve(assumptions), SolveResult::Sat);
}

TEST(SatSolver, SimplifyKeepsUnresolvedClauses) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  const Var c = s.new_var();
  s.add_ternary(pos(a), pos(b), pos(c));
  s.add_unit(neg(a));  // falsifies a literal but does not satisfy the clause
  s.simplify();
  EXPECT_EQ(s.num_clauses(), 1u);
  const Lit assumptions[] = {neg(b)};
  ASSERT_EQ(s.solve(assumptions), SolveResult::Sat);
  EXPECT_TRUE(s.model_value(c));
}

TEST(SatSolver, ReusedSolverAgreesWithFreshOnAssumptionSlices) {
  // One persistent instance solved under many assumption sets must agree
  // with a fresh instance per set — across interleaved clause additions,
  // exactly the learner's usage pattern.
  Rng rng(99);
  Solver persistent;
  CnfFormula base;
  base.num_vars = 8;
  for (std::size_t i = 0; i < 8; ++i) persistent.new_var();
  for (int round = 0; round < 60; ++round) {
    // Occasionally grow the clause set.
    Clause clause;
    for (int k = 0; k < 3; ++k) {
      clause.push_back(Lit(static_cast<Var>(rng.below(8)), rng.chance(0.5)));
    }
    base.clauses.push_back(clause);
    persistent.add_clause(clause);
    // Random assumption slice.
    std::vector<Lit> assumptions;
    for (Var v = 0; v < 3; ++v) {
      if (rng.chance(0.5)) assumptions.push_back(Lit(v, rng.chance(0.5)));
    }
    Solver fresh;
    for (std::size_t i = 0; i < 8; ++i) fresh.new_var();
    bool fresh_ok = true;
    for (const Clause& cl : base.clauses) fresh_ok = fresh.add_clause(cl) && fresh_ok;
    const SolveResult want = fresh_ok ? fresh.solve(assumptions) : SolveResult::Unsat;
    const SolveResult got = persistent.solve(assumptions);
    EXPECT_EQ(got, want) << "round=" << round;
    if (persistent.in_unsat_state()) break;  // both root-unsat from here on
  }
  EXPECT_GE(persistent.stats().solves, 1u);
}

TEST(SatSolver, ResetBranchingHeuristicsKeepsVerdicts) {
  Solver s;
  add_pigeonhole(s, 5);
  EXPECT_EQ(s.solve(), SolveResult::Unsat);
  Solver sat_instance;
  const Var a = sat_instance.new_var();
  const Var b = sat_instance.new_var();
  sat_instance.add_binary(pos(a), pos(b));
  ASSERT_EQ(sat_instance.solve(), SolveResult::Sat);
  sat_instance.reset_branching_heuristics();
  EXPECT_EQ(sat_instance.solve(), SolveResult::Sat);
}

TEST(SatSolver, ConflictBudgetReturnsUnknown) {
  Solver s;
  add_pigeonhole(s, 8);
  s.set_conflict_budget(5);
  EXPECT_EQ(s.solve(), SolveResult::Unknown);
}

// --- batched clause emission ------------------------------------------------

/// Random clauses over `vars` variables, each satisfied by one hidden
/// assignment (so root propagation never conflicts): mostly ternaries and
/// quaternaries, a few units so that root propagation runs between
/// additions, and a hub literal whose watch list spills to the heap and
/// doubles several times within one batch.
std::vector<Clause> random_clause_list(Rng& rng, std::size_t vars) {
  std::vector<bool> hidden(vars);
  for (std::size_t v = 1; v < vars; ++v) hidden[v] = rng.chance(0.5);
  std::vector<Clause> clauses;
  while (clauses.size() < 1500) {
    Clause clause;
    if (clauses.size() % 2 == 0) clause.push_back(neg(0));  // the hub; hidden[0] is false
    const std::size_t width = rng.chance(0.004) ? 1 : rng.chance(0.1) ? 2 : 3 + rng.below(2);
    bool satisfied = !clause.empty();
    while (clause.size() < width) {
      const auto v = static_cast<Var>(1 + rng.below(vars - 1));
      const bool negated = rng.chance(0.5);
      satisfied = satisfied || hidden[static_cast<std::size_t>(v)] != negated;
      clause.push_back(Lit(v, negated));
    }
    if (satisfied) clauses.push_back(std::move(clause));
  }
  return clauses;
}

/// Adds `clauses` to a fresh solver. With `batched`, random runs of clauses
/// go through a ClauseBatch; the rest are added one by one.
void fill_solver(Solver& s, std::size_t vars, const std::vector<Clause>& clauses,
                 bool batched, std::uint64_t seed) {
  s.new_vars(vars);
  Rng rng(seed);
  std::size_t i = 0;
  while (i < clauses.size()) {
    const std::size_t run = std::min(clauses.size() - i, 1 + rng.below(800));
    const bool in_batch = batched && rng.chance(0.8);
    if (in_batch) {
      ClauseBatch batch(s);
      for (std::size_t end = i + run; i < end; ++i) s.add_clause(clauses[i]);
      batch.close();
    } else {
      for (std::size_t end = i + run; i < end; ++i) s.add_clause(clauses[i]);
    }
  }
}

/// Same clause database (fingerprint) and the same watchers at the same
/// capacity on every watch list.
void expect_same_database(const Solver& got, const Solver& want, std::size_t vars,
                          std::uint64_t seed) {
  EXPECT_EQ(got.clause_fingerprint(), want.clause_fingerprint()) << "seed " << seed;
  for (Var v = 0; v < static_cast<Var>(vars); ++v) {
    for (const Lit p : {pos(v), neg(v)}) {
      const WatcherList& want_list = want.watchers(p);
      const WatcherList& got_list = got.watchers(p);
      ASSERT_EQ(got_list.size(), want_list.size())
          << "seed " << seed << " lit " << p.debug_string();
      // Same pushes, same doubling: deferring adds no memory.
      EXPECT_EQ(got_list.capacity(), want_list.capacity()) << "seed " << seed;
      for (std::size_t w = 0; w < want_list.size(); ++w) {
        EXPECT_EQ(got_list[w].clause, want_list[w].clause);
        EXPECT_EQ(got_list[w].blocker, want_list[w].blocker);
      }
    }
  }
}

TEST(ClauseBatch, MatchesOneByOneAdding) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const std::size_t vars = 60 + rng.below(60);
    const std::vector<Clause> clauses = random_clause_list(rng, vars);
    Solver one_by_one;
    Solver batched;
    fill_solver(one_by_one, vars, clauses, /*batched=*/false, seed);
    fill_solver(batched, vars, clauses, /*batched=*/true, seed);
    ASSERT_TRUE(batched.check_invariants().ok()) << batched.check_invariants().to_string();
    ASSERT_FALSE(one_by_one.in_unsat_state()) << "seed " << seed;
    EXPECT_FALSE(batched.in_unsat_state()) << "seed " << seed;
    expect_same_database(batched, one_by_one, vars, seed);
    EXPECT_EQ(one_by_one.solve(), SolveResult::Sat) << "seed " << seed;
    EXPECT_EQ(batched.solve(), SolveResult::Sat) << "seed " << seed;
    EXPECT_EQ(batched.stats().conflicts, one_by_one.stats().conflicts) << "seed " << seed;
  }
}

/// Sorted, duplicate-free clauses (the CSP encoder's presorted shapes: mostly
/// 2 to 6 literals, some wide ones) over `vars` variables, each satisfied by
/// one hidden assignment. About one in fifty is a unit, so later clauses
/// hold root-true and root-false literals.
std::vector<Clause> random_presorted_clauses(Rng& rng, std::size_t vars) {
  std::vector<bool> hidden(vars);
  for (std::size_t v = 0; v < vars; ++v) hidden[v] = rng.chance(0.5);
  std::vector<Clause> clauses(2000);
  for (Clause& clause : clauses) {
    const std::size_t width = rng.chance(0.02)   ? 1
                              : rng.chance(0.05) ? 7 + rng.below(6)
                                                 : 2 + rng.below(5);
    while (clause.size() < width) {
      const auto v = static_cast<Var>(rng.below(vars));
      if (std::any_of(clause.begin(), clause.end(), [v](Lit l) { return l.var() == v; })) continue;
      clause.push_back(Lit(v, rng.chance(0.5)));
    }
    const auto satisfied = [&](Lit l) {
      return hidden[static_cast<std::size_t>(l.var())] != l.negated();
    };
    if (std::none_of(clause.begin(), clause.end(), satisfied)) clause[0] = ~clause[0];
    std::sort(clause.begin(), clause.end());
  }
  return clauses;
}

/// Feeds `clauses` to a fresh solver the way the encoder's emission does,
/// stopping at `max_clauses` problem clauses: with `bulk`, inside one batch
/// through add_clause_presorted(); otherwise one add_clause() at a time.
/// A clause whose arena allocation fails ends the stream.
void feed_stream(Solver& s, std::size_t vars, const std::vector<Clause>& clauses,
                 std::size_t max_clauses, bool bulk) {
  s.new_vars(vars);
  const auto add_all = [&] {
    for (const Clause& clause : clauses) {
      if (s.num_clauses() >= max_clauses) return;
      if (bulk) {
        s.add_clause_presorted(clause);
      } else {
        s.add_clause(clause);
      }
    }
  };
  try {
    if (!bulk) {
      add_all();
      return;
    }
    ClauseBatch batch(s);
    add_all();
    batch.close();
  } catch (const StatusError& e) {
    ASSERT_EQ(e.code(), ErrorCode::resource_exhausted);
  }
}

TEST(ClauseBatch, BulkPathMatchesOneByOneAdding) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const std::size_t vars = 80 + rng.below(80);
    const std::vector<Clause> clauses = random_presorted_clauses(rng, vars);
    // Half the streams overflow the clause budget mid-pass; every third has
    // an arena allocation fail mid-batch.
    const std::size_t max_clauses = rng.chance(0.5) ? 500 + rng.below(1000) : clauses.size();
    failpoint::FailSpec fail;
    const bool alloc_fails = seed % 3 == 0;
    if (alloc_fails) {
      fail.skip = 50 + rng.below(400);
      fail.count = 1;
    }
    Solver one_by_one;
    Solver bulk;
    failpoint::arm("arena.alloc", fail);
    feed_stream(one_by_one, vars, clauses, max_clauses, /*bulk=*/false);
    const std::uint64_t one_by_one_allocs = failpoint::evaluations("arena.alloc");
    EXPECT_EQ(failpoint::fires("arena.alloc"), alloc_fails ? 1u : 0u) << "seed " << seed;
    failpoint::arm("arena.alloc", fail);
    feed_stream(bulk, vars, clauses, max_clauses, /*bulk=*/true);
    EXPECT_EQ(failpoint::evaluations("arena.alloc"), one_by_one_allocs) << "seed " << seed;
    EXPECT_EQ(failpoint::fires("arena.alloc"), alloc_fails ? 1u : 0u) << "seed " << seed;
    failpoint::disarm_all();

    const Status audit = bulk.check_invariants();
    ASSERT_TRUE(audit.ok()) << "seed " << seed << ": " << audit.to_string();
    ASSERT_FALSE(one_by_one.in_unsat_state()) << "seed " << seed;
    EXPECT_FALSE(bulk.in_unsat_state()) << "seed " << seed;
    EXPECT_EQ(bulk.num_clauses(), one_by_one.num_clauses()) << "seed " << seed;
    expect_same_database(bulk, one_by_one, vars, seed);
    EXPECT_EQ(one_by_one.solve(), SolveResult::Sat) << "seed " << seed;
    EXPECT_EQ(bulk.solve(), SolveResult::Sat) << "seed " << seed;
    EXPECT_EQ(bulk.stats().conflicts, one_by_one.stats().conflicts) << "seed " << seed;
    EXPECT_EQ(bulk.stats().propagations, one_by_one.stats().propagations) << "seed " << seed;
  }
}

TEST(ClauseBatch, UnitPropagatesThroughClausesOfItsOwnBatch) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  const Var c = s.new_var();
  const Var d = s.new_var();
  ClauseBatch batch(s);
  ASSERT_TRUE(s.add_binary(neg(a), pos(b)));
  ASSERT_TRUE(s.add_binary(neg(b), pos(c)));
  ASSERT_TRUE(s.add_unit(pos(a)));  // propagates a -> b -> c
  // Root filtering sees c true, so this clause is satisfied and dropped, and
  // the next one reduces to the unit d.
  const std::size_t clauses = s.num_clauses();
  ASSERT_TRUE(s.add_binary(pos(c), pos(d)));
  EXPECT_EQ(s.num_clauses(), clauses);
  ASSERT_TRUE(s.add_binary(neg(c), pos(d)));
  EXPECT_FALSE(s.add_unit(neg(d)));  // contradicts the propagated d
  batch.close();
  EXPECT_TRUE(s.in_unsat_state());
  EXPECT_TRUE(s.check_invariants().ok());
  EXPECT_EQ(s.solve(), SolveResult::Unsat);
}

TEST(ClauseBatch, ClosesWhenAnExceptionUnwindsThroughIt) {
  // (a | b), (~a | b), (a | ~b) leave only a = b = true; the clause added
  // after the throw never arrives.
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  try {
    ClauseBatch batch(s);
    s.add_binary(pos(a), pos(b));
    s.add_binary(neg(a), pos(b));
    s.add_binary(pos(a), neg(b));
    throw std::runtime_error("emission cut short");
  } catch (const std::runtime_error&) {
  }
  const Status audit = s.check_invariants();
  EXPECT_TRUE(audit.ok()) << audit.to_string();
  ASSERT_EQ(s.solve(), SolveResult::Sat);
  EXPECT_TRUE(s.model_value(a));
  EXPECT_TRUE(s.model_value(b));
  // The solver stays usable: a later clause makes it Unsat.
  s.add_binary(neg(a), neg(b));
  EXPECT_EQ(s.solve(), SolveResult::Unsat);
}

TEST(ClauseBatch, InvariantAuditReportsAnOpenBatch) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  ClauseBatch batch(s);
  s.add_binary(pos(a), pos(b));
  EXPECT_FALSE(s.check_invariants().ok());
  batch.close();
  EXPECT_TRUE(s.check_invariants().ok());
}

// --- randomised cross-check against brute force ---------------------------

CnfFormula random_formula(Rng& rng, std::size_t vars, std::size_t clauses) {
  CnfFormula f;
  f.num_vars = vars;
  for (std::size_t c = 0; c < clauses; ++c) {
    Clause clause;
    for (int k = 0; k < 3; ++k) {
      const Var v = static_cast<Var>(rng.below(vars));
      clause.push_back(Lit(v, rng.chance(0.5)));
    }
    f.clauses.push_back(clause);
  }
  return f;
}

bool brute_force_sat(const CnfFormula& f) {
  const std::size_t n = f.num_vars;
  for (std::uint64_t mask = 0; mask < (1ULL << n); ++mask) {
    bool all = true;
    for (const Clause& c : f.clauses) {
      bool any = false;
      for (const Lit l : c) {
        const bool val = ((mask >> l.var()) & 1) != 0;
        if (val != l.negated()) {
          any = true;
          break;
        }
      }
      if (!any) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

class RandomCnf : public ::testing::TestWithParam<int> {};

TEST_P(RandomCnf, AgreesWithBruteForce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  for (int round = 0; round < 25; ++round) {
    // Around the 3-SAT phase transition (ratio ~4.3) for small n.
    const std::size_t vars = 6 + rng.below(5);
    const std::size_t clauses = vars * 4 + rng.below(vars);
    const CnfFormula f = random_formula(rng, vars, clauses);
    Solver s;
    const bool loaded = load_into_solver(f, s);
    const bool expected = brute_force_sat(f);
    if (!loaded) {
      EXPECT_FALSE(expected);
      continue;
    }
    const SolveResult got = s.solve();
    EXPECT_EQ(got == SolveResult::Sat, expected)
        << "seed=" << GetParam() << " round=" << round;
    // When SAT, the model must actually satisfy the formula.
    if (got == SolveResult::Sat) {
      for (const Clause& c : f.clauses) {
        bool any = false;
        for (const Lit l : c) {
          if (s.model_value(l.var()) != l.negated()) any = true;
        }
        EXPECT_TRUE(any);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCnf, ::testing::Range(1, 9));

TEST(Dimacs, RoundTrip) {
  CnfFormula f;
  f.num_vars = 3;
  f.clauses = {{pos(0), neg(1)}, {pos(2)}, {neg(0), pos(1), neg(2)}};
  std::stringstream ss;
  write_dimacs(ss, f);
  const CnfFormula back = read_dimacs(ss);
  EXPECT_EQ(back.num_vars, f.num_vars);
  ASSERT_EQ(back.clauses.size(), f.clauses.size());
  for (std::size_t i = 0; i < f.clauses.size(); ++i) {
    EXPECT_EQ(back.clauses[i], f.clauses[i]);
  }
}

TEST(Dimacs, RejectsGarbage) {
  std::stringstream ss("this is not dimacs\n1 2 0\n");
  EXPECT_THROW(read_dimacs(ss), StatusError);
}

TEST(Dimacs, RejectsMalformedHeaderAndTruncation) {
  const auto expect_parse_error = [](const std::string& text) {
    std::stringstream ss(text);
    try {
      read_dimacs(ss);
      FAIL() << "accepted: " << text;
    } catch (const StatusError& e) {
      EXPECT_EQ(e.code(), ErrorCode::parse_error) << text;
    }
  };
  expect_parse_error("p cnf 2 1 junk\n1 2 0\n");      // extra header field
  expect_parse_error("p cnf 2\n1 2 0\n");             // missing clause count
  expect_parse_error("1 2 0\n");                      // no header at all
  expect_parse_error("p cnf 2 1\np cnf 2 1\n1 2 0\n");  // duplicate header
  expect_parse_error("p cnf 2 1\n1 2\n");             // unterminated clause
  expect_parse_error("p cnf 2 2\n1 2 0\n");           // count mismatch (short)
  expect_parse_error("p cnf 2 1\n1 2 0\n-1 0\n");     // count mismatch (long)
}

TEST(Dimacs, UnitAndEmptyClausesRoundTrip) {
  CnfFormula f;
  f.num_vars = 2;
  f.clauses = {{pos(1)}, {}, {neg(0)}};
  std::stringstream ss;
  write_dimacs(ss, f);
  const CnfFormula back = read_dimacs(ss);
  EXPECT_EQ(back.num_vars, f.num_vars);
  ASSERT_EQ(back.clauses.size(), f.clauses.size());
  for (std::size_t i = 0; i < f.clauses.size(); ++i) {
    EXPECT_EQ(back.clauses[i], f.clauses[i]);
  }
}

// --- amortised root simplification and the heuristics reset ----------------

/// A random clause of 3 literals over the variables of `hidden` that agrees
/// with `hidden` on at least one literal, so root units drawn from `hidden`
/// never contradict it.
Clause planted_clause(Rng& rng, const std::vector<bool>& hidden) {
  Clause clause;
  for (int k = 0; k < 3; ++k) {
    const Var v = static_cast<Var>(rng.below(hidden.size()));
    clause.push_back(Lit(v, rng.chance(0.5)));
  }
  const Var v = clause[0].var();
  clause[0] = Lit(v, !hidden[static_cast<std::size_t>(v)]);
  return clause;
}

/// One solve on both twins: `eager` sweeps every root-satisfied clause
/// first, `amortised` is left to solve()'s own schedule. Both must search
/// identically: same verdict, model or core, and counters.
void expect_same_solve(Solver& amortised, Solver& eager, std::span<const Lit> assumptions,
                       const std::string& what) {
  eager.simplify();
  const SolveResult got = amortised.solve(assumptions);
  ASSERT_EQ(got, eager.solve(assumptions)) << what;
  EXPECT_EQ(amortised.stats().conflicts, eager.stats().conflicts) << what;
  EXPECT_EQ(amortised.stats().decisions, eager.stats().decisions) << what;
  EXPECT_EQ(amortised.stats().propagations, eager.stats().propagations) << what;
  EXPECT_EQ(amortised.stats().reduces, eager.stats().reduces) << what;
  // The learned clauses are swept at every new root fact on both.
  EXPECT_EQ(amortised.num_learned(), eager.num_learned()) << what;
  EXPECT_EQ(amortised.learned_clauses(), eager.learned_clauses()) << what;
  if (got == SolveResult::Sat) {
    for (Var v = 0; v < static_cast<Var>(amortised.num_vars()); ++v) {
      ASSERT_EQ(amortised.model_value(v), eager.model_value(v)) << what << " var " << v;
    }
  } else {
    EXPECT_EQ(amortised.final_conflict(), eager.final_conflict()) << what;
  }
  const Status audit = amortised.check_invariants();
  EXPECT_TRUE(audit.ok()) << what << ": " << audit.to_string();
}

TEST(SatSolver, AmortisedSimplifyLeavesTheSearchUnchanged) {
  // The learner's incremental pattern on two twins: clauses and root units
  // between solves, assumption solves, learned root units and heuristics
  // resets. Sweeping root-satisfied clauses late must not move the search.
  Rng rng(0x51a9);
  bool deferred = false;
  for (int trial = 0; trial < 12; ++trial) {
    constexpr std::size_t kVars = 70;
    std::vector<bool> hidden(kVars);
    for (std::size_t v = 0; v < kVars; ++v) hidden[v] = rng.chance(0.5);
    Solver amortised;
    Solver eager;
    amortised.new_vars(kVars);
    eager.new_vars(kVars);
    for (int round = 0; round < 40; ++round) {
      const std::string what = "trial " + std::to_string(trial) + " round " +
                               std::to_string(round);
      for (int i = 0; i < 12; ++i) {
        const Clause clause = planted_clause(rng, hidden);
        amortised.add_clause(clause);
        eager.add_clause(clause);
      }
      if (rng.chance(0.3)) {
        const auto v = static_cast<Var>(rng.below(kVars));
        const Lit unit(v, !hidden[static_cast<std::size_t>(v)]);
        amortised.add_unit(unit);
        eager.add_unit(unit);
      }
      if (rng.chance(0.15)) {
        amortised.reset_branching_heuristics();
        eager.reset_branching_heuristics();
      }
      std::vector<Lit> assumptions;
      for (std::size_t k = rng.below(5); k > 0; --k) {
        assumptions.push_back(Lit(static_cast<Var>(rng.below(kVars)), rng.chance(0.5)));
      }
      expect_same_solve(amortised, eager, assumptions, what);
      if (amortised.num_clauses() > eager.num_clauses()) deferred = true;
    }
  }
  EXPECT_TRUE(deferred) << "no sweep was ever deferred";
}

TEST(SatSolver, AmortisedSimplifySweepsOnceThePropagationsPayForIt) {
  // 50 clauses of 3 literals (150) all satisfied by the root fact b. A solve
  // costs about one propagation per variable, so solve() leaves them in
  // place until the propagations since the last sweep (none yet) reach 150,
  // then removes all 50 at the start of that solve.
  Solver s;
  const Var b = s.new_var();
  const Var x = s.new_vars(51);
  for (Var i = 0; i < 50; ++i) s.add_ternary(pos(b), pos(x + i), pos(x + i + 1));
  s.add_unit(pos(b));
  ASSERT_EQ(s.solve(), SolveResult::Sat);
  EXPECT_EQ(s.num_clauses(), 50u) << "a sweep ran before the propagations paid for it";
  EXPECT_EQ(s.stats().simplify_rounds, 0u);
  for (int i = 0; i < 10 && s.num_clauses() > 0; ++i) {
    const std::uint64_t before = s.stats().propagations;
    ASSERT_EQ(s.solve(), SolveResult::Sat);
    if (s.num_clauses() == 0) {
      EXPECT_GE(before, 150u) << "swept early";
    } else {
      EXPECT_LT(before, 150u) << "paid for but not swept";
    }
  }
  EXPECT_EQ(s.num_clauses(), 0u) << "the deferred sweep never ran";
  EXPECT_EQ(s.stats().simplify_rounds, 1u);
  EXPECT_GE(s.stats().simplify_removed, 50u);
  // simplify() itself never defers.
  const Var c = s.new_var();
  s.add_binary(pos(c), pos(x));
  s.add_unit(pos(c));
  s.simplify();
  EXPECT_EQ(s.num_clauses(), 0u);
}

TEST(SatSolver, DeferredSweepRunsBeforeTheLearnedClauseLimit) {
  // The learned-clause limit is 4000 plus half the problem clauses as a
  // sweep at the solve's start leaves them. Here that sweep is deferred (no
  // propagation has paid for it yet), and the search learns past 4000
  // clauses and reduces: the amortised twin must catch up on the sweep
  // first and reduce exactly when the eager one does.
  Rng rng(0x4e7);
  constexpr std::size_t kVars = 185;
  const CnfFormula f = random_formula(rng, kVars, 788);
  Solver amortised;
  Solver eager;
  ASSERT_TRUE(load_into_solver(f, amortised));
  ASSERT_TRUE(load_into_solver(f, eager));
  const Lit unit = f.clauses.front().front();  // satisfies at least one clause
  amortised.add_unit(unit);
  eager.add_unit(unit);
  eager.simplify();
  ASSERT_GT(amortised.num_clauses(), eager.num_clauses());
  expect_same_solve(amortised, eager, {}, "hard solve");
  EXPECT_GT(amortised.stats().learned_clauses, 4000u);
  EXPECT_GT(amortised.stats().reduces, 0u);
  EXPECT_EQ(amortised.num_clauses(), eager.num_clauses()) << "the sweep was not caught up";
}

TEST(SatSolver, InvariantAuditCoversTheHeapAfterSatResetAndBackjumps) {
  // check_invariants() requires every unassigned variable in the branching
  // heap, which solve() and reset_branching_heuristics() rely on. Audit it
  // at the states the learner leaves a solver in.
  Rng rng(0x4ea9);
  constexpr std::size_t kVars = 120;
  std::vector<bool> hidden(kVars);
  for (std::size_t v = 0; v < kVars; ++v) hidden[v] = rng.chance(0.5);
  Solver s;
  s.new_vars(kVars);
  for (int i = 0; i < 480; ++i) s.add_clause(planted_clause(rng, hidden));
  const auto audit = [&s](const char* what) {
    const Status status = s.check_invariants();
    EXPECT_TRUE(status.ok()) << what << ": " << status.to_string();
  };
  ASSERT_EQ(s.solve(), SolveResult::Sat);
  audit("after Sat");
  s.reset_branching_heuristics();
  audit("after Sat and reset");
  // Unsat under assumptions returns at the failing decision level.
  const Lit failing[] = {Lit(0, hidden[0]), Lit(1, hidden[1]), Lit(0, !hidden[0])};
  ASSERT_EQ(s.solve(failing), SolveResult::Unsat);
  audit("after an assumption Unsat");
  s.reset_branching_heuristics();
  audit("after an assumption Unsat and reset");
  // A budget-stopped search leaves the solver mid-search after backjumps.
  Solver hard;
  add_pigeonhole(hard, 7);
  hard.set_conflict_budget(300);
  ASSERT_EQ(hard.solve(), SolveResult::Unknown);
  EXPECT_GE(hard.stats().conflicts, 300u);
  Status status = hard.check_invariants();
  EXPECT_TRUE(status.ok()) << "after backjumps: " << status.to_string();
  hard.reset_branching_heuristics();
  status = hard.check_invariants();
  EXPECT_TRUE(status.ok()) << "after backjumps and reset: " << status.to_string();
  hard.set_conflict_budget(0);
  EXPECT_EQ(hard.solve(), SolveResult::Unsat);
}

}  // namespace
}  // namespace t2m::sat
