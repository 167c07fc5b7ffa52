// google-benchmark microbenchmarks for the substrates: the CDCL solver, the
// enumerative synthesiser, trace abstraction and segmentation.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <set>
#include <sstream>

#include "src/abstraction/abstraction.h"
#include "src/automaton/ops.h"
#include "src/core/compliance.h"
#include "src/core/csp_encoder.h"
#include "src/core/learner.h"
#include "src/core/segmentation.h"
#include "src/sat/proof_log.h"
#include "src/sat/solver.h"
#include "src/sim/basic/counter.h"
#include "src/sim/basic/integrator.h"
#include "src/sim/rtlinux/workloads.h"
#include "src/sim/xhci/ring_interface.h"
#include "src/synth/enumerative.h"
#include "src/util/rng.h"

namespace {

using namespace t2m;

void BM_SatPigeonhole(benchmark::State& state) {
  const int holes = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sat::Solver solver;
    const int pigeons = holes + 1;
    std::vector<std::vector<sat::Var>> at(pigeons, std::vector<sat::Var>(holes));
    for (auto& row : at) {
      for (auto& v : row) v = solver.new_var();
    }
    for (int p = 0; p < pigeons; ++p) {
      sat::Clause c;
      for (int h = 0; h < holes; ++h) c.push_back(sat::pos(at[p][h]));
      solver.add_clause(c);
    }
    for (int h = 0; h < holes; ++h) {
      for (int p1 = 0; p1 < pigeons; ++p1) {
        for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
          solver.add_binary(sat::neg(at[p1][h]), sat::neg(at[p2][h]));
        }
      }
    }
    benchmark::DoNotOptimize(solver.solve());
  }
}
BENCHMARK(BM_SatPigeonhole)->Arg(5)->Arg(7)->Arg(8);

void BM_SatRandom3Sat(benchmark::State& state) {
  const std::size_t vars = static_cast<std::size_t>(state.range(0));
  const std::size_t clauses = vars * 4;
  for (auto _ : state) {
    Rng rng(7);
    sat::Solver solver;
    for (std::size_t i = 0; i < vars; ++i) solver.new_var();
    for (std::size_t c = 0; c < clauses; ++c) {
      sat::Clause clause;
      for (int k = 0; k < 3; ++k) {
        clause.push_back(
            sat::Lit(static_cast<sat::Var>(rng.below(vars)), rng.chance(0.5)));
      }
      solver.add_clause(clause);
    }
    benchmark::DoNotOptimize(solver.solve());
  }
}
BENCHMARK(BM_SatRandom3Sat)->Arg(50)->Arg(100)->Arg(200);

// Propagate-heavy: 64 parallel implication chains of binary clauses, solved
// repeatedly under chain-head assumptions. Each solve() is one long unit
// propagation (no conflicts), so this isolates watcher/arena throughput.
void BM_SatPropagateChains(benchmark::State& state) {
  const std::size_t vars = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kChains = 64;
  const std::size_t len = vars / kChains;
  sat::Solver solver;
  std::vector<sat::Lit> heads;
  for (std::size_t c = 0; c < kChains; ++c) {
    sat::Var prev = solver.new_var();
    heads.push_back(sat::pos(prev));
    for (std::size_t i = 1; i < len; ++i) {
      const sat::Var next = solver.new_var();
      solver.add_binary(sat::neg(prev), sat::pos(next));  // prev -> next
      prev = next;
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(heads));
  }
  state.counters["propagations"] = static_cast<double>(solver.stats().propagations);
}
BENCHMARK(BM_SatPropagateChains)->Arg(1 << 14)->Arg(1 << 17);

namespace compliance_bench {

/// A fixture shared by the compliance microbenchmarks: the rtlinux
/// scheduler predicate sequence (the paper's longest discrete trace) and a
/// compliant model learned from it.
struct Fixture {
  PredicateSequence preds;
  Nfa model;

  Fixture() {
    const Trace trace = sim::generate_full_coverage_sched_trace(20165);
    preds = abstract_trace(trace);
    LearnerConfig config;
    config.require_trace_acceptance = false;
    const LearnResult r =
        ModelLearner(config).learn_from_sequence(preds, trace.schema());
    model = r.model;
  }
};

const Fixture& fixture() {
  static const Fixture f;
  return f;
}

}  // namespace compliance_bench

// Compliance-heavy, seed pipeline: materialise S_l and P_l as ordered sets
// and run set_difference — P_l rebuilt from the 20k-step sequence on every
// check, exactly as the seed's refinement loop did.
void BM_ComplianceLegacy(benchmark::State& state) {
  const auto& f = compliance_bench::fixture();
  const std::size_t l = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const auto model_seqs = transition_sequences(f.model, l);
    const auto trace_seqs = subsequences(f.preds.seq, l);
    std::set<std::vector<PredId>> invalid;
    std::set_difference(model_seqs.begin(), model_seqs.end(), trace_seqs.begin(),
                        trace_seqs.end(), std::inserter(invalid, invalid.begin()));
    benchmark::DoNotOptimize(invalid);
  }
}
BENCHMARK(BM_ComplianceLegacy)->Arg(2)->Arg(3);

// Compliance-heavy, cached engine: P_l hashed once at construction (as the
// learner holds it across all refinement iterations), model paths streamed.
void BM_ComplianceCached(benchmark::State& state) {
  const auto& f = compliance_bench::fixture();
  const std::size_t l = static_cast<std::size_t>(state.range(0));
  const ComplianceChecker checker(f.preds.seq, l);
  for (auto _ : state) {
    benchmark::DoNotOptimize(checker.check(f.model));
  }
}
BENCHMARK(BM_ComplianceCached)->Arg(2)->Arg(3);

namespace learn_bench {

/// Pre-abstracted predicate sequences for the end-to-end learn benchmarks:
/// the growth-heavy USB attach trace (N grows 2..8) and the rtlinux
/// scheduler trace (the paper's longest discrete benchmark, N grows 2..7).
struct Fixture {
  PredicateSequence usb_preds;
  Schema usb_schema;
  PredicateSequence sched_preds;
  Schema sched_schema;

  Fixture() {
    const Trace usb = sim::generate_usb_attach_trace();
    usb_preds = abstract_trace(usb);
    usb_schema = usb.schema();
    const Trace sched = sim::generate_full_coverage_sched_trace(20165);
    sched_preds = abstract_trace(sched);
    sched_schema = sched.schema();
  }
};

const Fixture& fixture() {
  static const Fixture f;
  return f;
}

void run_learn(benchmark::State& state, const PredicateSequence& preds,
               const Schema& schema, bool persistent) {
  LearnerConfig config;
  config.persistent_solver = persistent;
  const ModelLearner learner(config);
  std::uint64_t conflicts = 0;
  for (auto _ : state) {
    const LearnResult r = learner.learn_from_sequence(preds, schema);
    conflicts = r.stats.sat_conflicts;
    benchmark::DoNotOptimize(r.states);
  }
  state.counters["sat_conflicts"] = static_cast<double>(conflicts);
}

}  // namespace learn_bench

// The tentpole comparison: the whole N-increment learn loop against one
// persistent guarded solver versus a fresh CSP per state count. Same final
// model either way; the counters show the reuse (conflicts drop, one build).
void BM_LearnUsbAttachFreshPerN(benchmark::State& state) {
  const auto& f = learn_bench::fixture();
  learn_bench::run_learn(state, f.usb_preds, f.usb_schema, /*persistent=*/false);
}
BENCHMARK(BM_LearnUsbAttachFreshPerN);

void BM_LearnUsbAttachPersistent(benchmark::State& state) {
  const auto& f = learn_bench::fixture();
  learn_bench::run_learn(state, f.usb_preds, f.usb_schema, /*persistent=*/true);
}
BENCHMARK(BM_LearnUsbAttachPersistent);

void BM_LearnSchedTraceFreshPerN(benchmark::State& state) {
  const auto& f = learn_bench::fixture();
  learn_bench::run_learn(state, f.sched_preds, f.sched_schema, /*persistent=*/false);
}
BENCHMARK(BM_LearnSchedTraceFreshPerN);

void BM_LearnSchedTracePersistent(benchmark::State& state) {
  const auto& f = learn_bench::fixture();
  learn_bench::run_learn(state, f.sched_preds, f.sched_schema, /*persistent=*/true);
}
BENCHMARK(BM_LearnSchedTracePersistent);

// Clause emission on the paper's longest unsegmented chain (the rtlinux
// trace as one segment, capacity 8 as the learner allocates it at N = 2):
// build at N = range(0), then grow to N = 7. Arg 2 is the learner's
// build-and-grow path, Arg 7 the direct build of the same final encoding;
// both emit the same clause shapes, so they should cost about the same per
// clause.
void BM_EncodeGrowLongChain(benchmark::State& state) {
  const auto& preds = learn_bench::fixture().sched_preds;
  const std::vector<Segment> chain = whole_sequence(preds.seq);
  const auto start = static_cast<std::size_t>(state.range(0));
  CspOptions options;
  options.state_capacity = 8;
  std::size_t clauses = 0;
  for (auto _ : state) {
    AutomatonCsp csp(chain, preds.vocab.size(), start, options);
    for (std::size_t n = start + 1; n <= 7; ++n) csp.grow_to(n);
    clauses = csp.num_clauses();
    benchmark::DoNotOptimize(clauses);
  }
  state.counters["clauses"] = static_cast<double>(clauses);
  state.counters["per_clause"] = benchmark::Counter(
      static_cast<double>(clauses),
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_EncodeGrowLongChain)->Arg(2)->Arg(7)->Unit(benchmark::kMillisecond);

// The attach share of clause emission. The rtlinux/full clause database
// (the chain of BM_EncodeGrowLongChain built at N = 2 and grown to 7, as the
// learner ends it) is replayed into a fresh solver one step at a time, the
// build and each grow in its own clause batch, and only the batch closes
// are timed: they push every clause's two watchers. Spreading the pushes
// over the steps scatters the watch lists' heap blocks as the learner does.
// Each step's units go in before its batch opens, so that none of them
// attaches the batch early.
struct ClauseStream {
  std::size_t vars = 0;
  std::vector<sat::Lit> lits;
  std::vector<std::size_t> ends;        // one past each clause's last literal
  std::vector<std::size_t> step_ends;   // one past each step's last clause
};

/// The problem clauses the encoder hands the solver, read back from the
/// axiom lines of its proof log.
const ClauseStream& rtlinux_full_clauses() {
  static const ClauseStream stream = [] {
    const auto& preds = learn_bench::fixture().sched_preds;
    std::ostringstream log;
    sat::ProofLog proof(log);
    CspOptions options;
    options.state_capacity = 8;
    options.solver.proof_log = &proof;
    std::vector<std::uint64_t> step_events;  // log lines written by each step's end
    AutomatonCsp csp(whole_sequence(preds.seq), preds.vocab.size(), 2, options);
    step_events.push_back(proof.events());
    for (std::size_t n = 3; n <= 7; ++n) {
      csp.grow_to(n);
      step_events.push_back(proof.events());
    }
    ClauseStream out;
    out.vars = csp.num_vars();
    const std::string text = log.str();
    const char* p = text.c_str();
    std::uint64_t line = 0;
    for (const std::uint64_t step_end : step_events) {
      for (; line < step_end; ++line) {
        const bool axiom = p[0] == 'i' && p[1] == ' ';
        if (axiom) {
          p += 2;
          while (true) {
            char* next = nullptr;
            const long dimacs = std::strtol(p, &next, 10);
            p = next;
            if (dimacs == 0) break;
            out.lits.emplace_back(static_cast<sat::Var>(std::labs(dimacs) - 1), dimacs < 0);
          }
          out.ends.push_back(out.lits.size());
        }
        while (*p != '\0' && *p++ != '\n') {
        }
      }
      out.step_ends.push_back(out.ends.size());
    }
    return out;
  }();
  return stream;
}

void BM_SolverBatchAttach(benchmark::State& state) {
  const ClauseStream& stream = rtlinux_full_clauses();
  std::unique_ptr<sat::Solver> solver;
  const auto add_clauses = [&](std::size_t first, std::size_t last, bool units) {
    for (std::size_t c = first; c < last; ++c) {
      const std::size_t begin = c == 0 ? 0 : stream.ends[c - 1];
      if ((stream.ends[c] - begin == 1) != units) continue;
      solver->add_clause_presorted(
          std::span<const sat::Lit>(stream.lits).subspan(begin, stream.ends[c] - begin));
    }
  };
  for (auto _ : state) {
    state.PauseTiming();
    solver = std::make_unique<sat::Solver>();  // frees the last one untimed
    solver->new_vars(stream.vars);
    std::size_t first = 0;
    for (const std::size_t last : stream.step_ends) {
      add_clauses(first, last, /*units=*/true);
      sat::ClauseBatch batch(*solver);
      add_clauses(first, last, /*units=*/false);
      state.ResumeTiming();
      batch.close();
      benchmark::ClobberMemory();
      state.PauseTiming();
      first = last;
    }
    state.ResumeTiming();
  }
  const auto clauses = static_cast<double>(solver->num_clauses());
  state.counters["clauses"] = clauses;
  state.counters["per_clause"] = benchmark::Counter(
      clauses, benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_SolverBatchAttach)->Unit(benchmark::kMillisecond);

void BM_SynthIncrement(benchmark::State& state) {
  Schema schema;
  schema.add_int("x");
  std::vector<UpdateExample> examples;
  for (std::int64_t x = 0; x < state.range(0); ++x) {
    examples.push_back({{Value::of_int(x)}, Value::of_int(x + 1)});
  }
  const Grammar grammar = Grammar::for_updates(schema, 0, examples);
  for (auto _ : state) {
    const EnumerativeSynth engine(schema, grammar);
    benchmark::DoNotOptimize(engine.synthesize(examples));
  }
}
BENCHMARK(BM_SynthIncrement)->Arg(4)->Arg(16)->Arg(64);

void BM_AbstractCounter(benchmark::State& state) {
  const Trace trace =
      sim::generate_counter_trace({128, static_cast<std::size_t>(state.range(0)), 1});
  for (auto _ : state) {
    benchmark::DoNotOptimize(abstract_trace(trace));
  }
}
BENCHMARK(BM_AbstractCounter)->Arg(447)->Arg(4470);

void BM_AbstractIntegrator(benchmark::State& state) {
  sim::IntegratorConfig config;
  config.length = static_cast<std::size_t>(state.range(0));
  const Trace trace = sim::generate_integrator_trace(config);
  AbstractionConfig abs;
  abs.input_vars = {sim::integrator_input_var()};
  for (auto _ : state) {
    benchmark::DoNotOptimize(abstract_trace(trace, abs));
  }
}
BENCHMARK(BM_AbstractIntegrator)->Arg(4096)->Arg(32768);

void BM_SegmentSchedTrace(benchmark::State& state) {
  const Trace trace = sim::generate_full_coverage_sched_trace(20165);
  const PredicateSequence preds = abstract_trace(trace);
  for (auto _ : state) {
    benchmark::DoNotOptimize(segment_sequence(preds.seq, 3));
  }
}
BENCHMARK(BM_SegmentSchedTrace);


// Propagate-heavy with clause-memory traffic: ternary implication chains
// (the third literal is an assumption-falsified dummy, so every step scans
// the clause for a replacement watch before propagating the unit).
void BM_SatPropagateTernaryChains(benchmark::State& state) {
  const std::size_t vars = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kChains = 64;
  const std::size_t len = vars / kChains;
  sat::Solver solver;
  const sat::Var junk = solver.new_var();
  std::vector<sat::Lit> assumptions = {sat::neg(junk)};
  for (std::size_t c = 0; c < kChains; ++c) {
    sat::Var prev = solver.new_var();
    assumptions.push_back(sat::pos(prev));
    for (std::size_t i = 1; i < len; ++i) {
      const sat::Var next = solver.new_var();
      solver.add_ternary(sat::neg(prev), sat::pos(next), sat::pos(junk));
      prev = next;
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(assumptions));
  }
}
BENCHMARK(BM_SatPropagateTernaryChains)->Arg(1 << 14)->Arg(1 << 17);


// The CEGIS inner loop in miniature: build a fresh clause database (one
// ternary clause per variable, as a fresh CSP encoding does at every state
// count N) and run one propagation-only solve over it. Clause allocation
// and watcher attachment dominate, which is exactly the seed's per-clause
// heap-vector cost versus the flat arena.
void BM_SatEncodeAndPropagate(benchmark::State& state) {
  const std::size_t vars = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kChains = 64;
  const std::size_t len = vars / kChains;
  for (auto _ : state) {
    sat::Solver solver;
    const sat::Var junk = solver.new_var();
    std::vector<sat::Lit> assumptions = {sat::neg(junk)};
    for (std::size_t c = 0; c < kChains; ++c) {
      const sat::Var base = solver.new_vars(len);  // batch, as the encoders do
      assumptions.push_back(sat::pos(base));
      for (std::size_t i = 1; i < len; ++i) {
        solver.add_ternary(sat::neg(base + static_cast<sat::Var>(i - 1)),
                           sat::pos(base + static_cast<sat::Var>(i)), sat::pos(junk));
      }
    }
    benchmark::DoNotOptimize(solver.solve(assumptions));
  }
}
BENCHMARK(BM_SatEncodeAndPropagate)->Arg(1 << 14)->Arg(1 << 17);

}  // namespace

BENCHMARK_MAIN();


