// drat_check: forward checker for the solver's extended-DRAT proof traces
// (see docs/proof_checking.md and src/sat/proof_log.h for the format).
//
//   drat_check [--cnf formula.cnf] [--require-empty] proof.drat
//   drat_check --self-test
//
// The CNF is optional: proofs written by this repo's solver are
// self-contained ("i" axiom lines carry every problem clause), so the
// common invocation is just the proof file ("-" = stdin). --require-empty
// additionally demands an unconditional UNSAT certificate (the derived
// empty clause) — the classic drat-trim contract for single-shot solving.
// --self-test runs an embedded solve → log → check round trip (including a
// tamper-rejection case) and is wired into ctest/CI.
//
// Exit status: 0 = proof accepted, 1 = proof rejected (first failing lemma
// printed), 2 = usage or IO error.

#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "src/sat/dimacs.h"
#include "src/sat/drat_check.h"
#include "src/sat/proof_log.h"
#include "src/sat/solver.h"
#include "src/util/cli.h"

namespace {

using namespace t2m;
using namespace t2m::sat;

void print_stats(const DratCheckResult& r) {
  std::cerr << "drat_check: " << r.lemmas_checked << " lemmas ("
            << r.rat_lemmas << " RAT), " << r.axioms << " axioms, "
            << r.deletions << " deletions (" << r.skipped_deletions
            << " skipped), " << r.restarts << " restarts; epochs: "
            << r.epochs_concluded_unsat << " unsat / "
            << r.epochs_concluded_sat << " sat / "
            << r.epochs_concluded_unknown << " unknown"
            << (r.empty_clause_derived ? "; empty clause derived" : "")
            << "\n";
}

int run_check(const CnfFormula& cnf, std::istream& proof,
              const DratCheckOptions& options) {
  const DratCheckResult result = check_drat(cnf, proof, options);
  print_stats(result);
  if (!result.ok) {
    std::cerr << "drat_check: REJECTED at line " << result.error_line << ": "
              << result.error << "\n";
    return 1;
  }
  std::cerr << "drat_check: VERIFIED\n";
  return 0;
}

/// Embedded round trip: solve small hand-built instances with proof logging
/// on, feed the trace back through the checker, and make sure a tampered
/// trace is rejected. A smoke test for the whole proof pipeline in one
/// binary, callable from ctest and CI without fixture files.
int self_test() {
  int failures = 0;
  const auto expect = [&failures](bool cond, const char* what) {
    if (!cond) {
      ++failures;
      std::cerr << "drat_check --self-test: FAILED: " << what << "\n";
    }
  };

  // 1. UNSAT instance (PHP-2-into-1 flavoured): the proof must verify and
  //    carry the unconditional empty clause.
  std::ostringstream trace;
  {
    Solver solver;
    ProofLog log(trace);
    SolverConfig config;
    config.proof_log = &log;
    solver.set_config(config);
    const Var base = solver.new_vars(4);
    const auto x = [base](Var i, bool n) { return Lit(base + i, n); };
    solver.add_clause({x(0, false), x(1, false)});
    solver.add_clause({x(2, false), x(3, false)});
    solver.add_clause({x(0, true), x(2, true)});
    solver.add_clause({x(0, true), x(3, true)});
    solver.add_clause({x(1, true), x(2, true)});
    solver.add_clause({x(1, true), x(3, true)});
    expect(solver.solve() == SolveResult::Unsat, "embedded instance must be UNSAT");
  }
  {
    std::istringstream proof(trace.str());
    DratCheckOptions options;
    options.require_empty_clause = true;
    const DratCheckResult r = check_drat(CnfFormula{}, proof, options);
    expect(r.ok, "UNSAT proof must verify");
    expect(r.empty_clause_derived, "UNSAT proof must derive the empty clause");
  }

  // 2. Tampering: a lemma that is neither RUP nor RAT must be rejected.
  //    (Appending to the finished UNSAT trace would not do: once the empty
  //    clause is derived, every lemma is trivially RUP.) Here {1} fails RUP
  //    against {1 2, -1 -2} and its only RAT resolvent {-2} fails RUP too.
  {
    std::istringstream proof("i 1 2 0\ni -1 -2 0\n1 0\n");
    const DratCheckResult r = check_drat(CnfFormula{}, proof, {});
    expect(!r.ok, "non-implied lemma must be rejected");
    expect(r.error_line == 3, "rejection must point at the tampered line");
  }

  // 3. Assumption epochs: an incremental run whose per-epoch conclusions
  //    must validate against the declared assumptions.
  {
    std::ostringstream inc_trace;
    Solver solver;
    ProofLog log(inc_trace);
    SolverConfig config;
    config.proof_log = &log;
    solver.set_config(config);
    const Var base = solver.new_vars(3);
    solver.add_clause({Lit(base, true), Lit(base + 1, false)});
    solver.add_clause({Lit(base + 1, true), Lit(base + 2, false)});
    solver.add_clause({Lit(base, true), Lit(base + 2, true)});
    const std::vector<Lit> assume = {Lit(base, false)};
    expect(solver.solve(assume) == SolveResult::Unsat,
           "guarded instance must be UNSAT under the assumption");
    expect(solver.solve() == SolveResult::Sat,
           "guarded instance must stay SAT without assumptions");
    expect(solver.verify_model().ok(), "model must pass verify_model");
    std::istringstream proof(inc_trace.str());
    const DratCheckResult r = check_drat(CnfFormula{}, proof, {});
    expect(r.ok, "incremental proof must verify");
    expect(r.epochs_concluded_unsat == 1 && r.epochs_concluded_sat == 1,
           "incremental proof must conclude one unsat and one sat epoch");
  }

  // 4. Invariant auditor on a live solver.
  {
    Solver solver;
    const Var base = solver.new_vars(3);
    solver.add_clause({Lit(base, false), Lit(base + 1, false), Lit(base + 2, false)});
    solver.add_clause({Lit(base, true), Lit(base + 1, false)});
    expect(solver.solve() == SolveResult::Sat, "audit instance must be SAT");
    expect(solver.check_invariants().ok(), "check_invariants must pass");
  }

  if (failures == 0) std::cerr << "drat_check --self-test: PASSED\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliArgs args(argc, argv);
    if (args.has("self-test")) return self_test();
    // CliArgs greedily binds "--switch value": a trailing
    // "--require-empty proof.drat" parks the proof path as the switch's
    // value, so reclaim it as the positional.
    std::vector<std::string> positional = args.positional();
    if (const auto swallowed = args.get("require-empty");
        swallowed && !swallowed->empty()) {
      positional.push_back(*swallowed);
    }
    if (positional.size() != 1) {
      std::cerr << "usage: drat_check [--cnf formula.cnf] [--require-empty] "
                   "proof.drat | drat_check --self-test\n";
      return 2;
    }
    CnfFormula cnf;
    if (const auto cnf_path = args.get("cnf"); cnf_path && !cnf_path->empty()) {
      std::ifstream in(*cnf_path);
      if (!in) {
        std::cerr << "drat_check: cannot open " << *cnf_path << "\n";
        return 2;
      }
      cnf = read_dimacs(in);
    }
    DratCheckOptions options;
    options.require_empty_clause = args.has("require-empty");
    const std::string& proof_path = positional.front();
    if (proof_path == "-") return run_check(cnf, std::cin, options);
    std::ifstream proof(proof_path);
    if (!proof) {
      std::cerr << "drat_check: cannot open " << proof_path << "\n";
      return 2;
    }
    return run_check(cnf, proof, options);
  } catch (const std::exception& e) {
    std::cerr << "drat_check: " << e.what() << "\n";
    return 2;
  }
}
