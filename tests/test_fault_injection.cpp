// Deterministic fault-injection tests: every failpoint in the catalogue
// (docs/robustness.md) is armed and must surface as a structured Status —
// no abort, no leak (the suite runs under ASan in CI), no torn process.
// Also covers the failpoint spec grammar, the memory accountant, raw IO
// error paths (EINTR retries, zero-length and unterminated files), deadline
// and memory-cap learn verdicts, and best-so-far salvage (the TSan job
// re-runs this suite for the race coverage).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/base/memory_accountant.h"
#include "src/base/status.h"
#include "src/core/compliance.h"
#include "src/core/csp_encoder.h"
#include "src/core/learner.h"
#include "src/sat/solver.h"
#include "src/sim/basic/counter.h"
#include "src/sim/rtlinux/workloads.h"
#include "src/sim/synthetic/random_dfa.h"
#include "src/trace/mmap_io.h"
#include "src/trace/recorder.h"
#include "src/util/failpoint.h"
#include "src/util/stopwatch.h"

namespace t2m {
namespace {

/// Every test arms through this guard so a failing assertion can never leak
/// an armed failpoint or a memory cap into the rest of the binary.
class FailpointGuard {
public:
  FailpointGuard() { failpoint::disarm_all(); }
  ~FailpointGuard() {
    failpoint::disarm_all();
    MemoryAccountant::global().set_limit(0);
  }
};

/// RAII temp file seeded with `content`.
class TempFile {
public:
  explicit TempFile(const std::string& content) {
    path_ = "/tmp/t2m_fault_test_" + std::to_string(counter_++) + ".txt";
    std::ofstream os(path_, std::ios::binary);
    os << content;
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

private:
  static inline int counter_ = 0;
  std::string path_;
};

Trace event_trace(const std::vector<std::string>& events,
                  const std::vector<std::string>& alphabet) {
  TraceRecorder rec;
  std::vector<std::string> symbols = alphabet;
  symbols.insert(symbols.begin(), "__start");
  const VarIndex ev = rec.declare_cat("ev", std::move(symbols), "__start");
  rec.commit();
  for (const auto& e : events) {
    rec.set_sym(ev, e);
    rec.commit();
  }
  return rec.take();
}

ErrorCode thrown_code(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const StatusError& e) {
    return e.code();
  }
  return ErrorCode::ok;
}

// --- spec grammar ----------------------------------------------------------

TEST(FailpointSpec, ParsesEveryTerm) {
  EXPECT_TRUE(failpoint::parse_spec("always").always);
  const failpoint::FailSpec once = failpoint::parse_spec("once");
  EXPECT_EQ(once.count, 1u);
  const failpoint::FailSpec off = failpoint::parse_spec("off");
  EXPECT_FALSE(off.always);
  EXPECT_EQ(off.count, 0u);
  const failpoint::FailSpec combo = failpoint::parse_spec("skip=5,count=2");
  EXPECT_EQ(combo.skip, 5u);
  EXPECT_EQ(combo.count, 2u);
  const failpoint::FailSpec perm = failpoint::parse_spec("permille=250,seed=7");
  EXPECT_EQ(perm.permille, 250u);
  EXPECT_EQ(perm.seed, 7u);
}

TEST(FailpointSpec, MalformedTermIsParseError) {
  EXPECT_EQ(thrown_code([] { failpoint::parse_spec("banana"); }),
            ErrorCode::parse_error);
  EXPECT_EQ(thrown_code([] { failpoint::parse_spec("skip=notanumber"); }),
            ErrorCode::parse_error);
}

TEST(Failpoint, CountSkipAndCountersBehave) {
  const FailpointGuard guard;
  failpoint::arm("test.site", "skip=2,count=1");
  int fired = 0;
  for (int i = 0; i < 5; ++i) {
    if (T2M_FAILPOINT("test.site")) ++fired;
  }
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(failpoint::evaluations("test.site"), 5u);
  EXPECT_EQ(failpoint::fires("test.site"), 1u);
  failpoint::disarm("test.site");
  EXPECT_FALSE(T2M_FAILPOINT("test.site"));
}

TEST(Failpoint, PermilleStreamIsDeterministic) {
  const FailpointGuard guard;
  const auto pattern = [] {
    std::vector<bool> fires;
    for (int i = 0; i < 64; ++i) fires.push_back(T2M_FAILPOINT("test.permille"));
    return fires;
  };
  failpoint::arm("test.permille", "permille=400,seed=42");
  const std::vector<bool> first = pattern();
  failpoint::disarm("test.permille");
  failpoint::arm("test.permille", "permille=400,seed=42");
  const std::vector<bool> second = pattern();
  EXPECT_EQ(first, second);
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
}

TEST(Failpoint, DisarmedSitesAreFree) {
  const FailpointGuard guard;
  EXPECT_FALSE(failpoint::any_armed());
  EXPECT_FALSE(T2M_FAILPOINT("never.armed"));
  EXPECT_EQ(failpoint::evaluations("never.armed"), 0u);
}

// --- memory accountant -----------------------------------------------------

TEST(MemoryAccountant, ChargesReleasesAndCaps) {
  const FailpointGuard guard;
  MemoryAccountant& mem = MemoryAccountant::global();
  const std::size_t before = mem.used();
  mem.charge(1024);
  EXPECT_EQ(mem.used(), before + 1024);
  EXPECT_GE(mem.peak(), before + 1024);
  mem.release(1024);
  EXPECT_EQ(mem.used(), before);

  mem.set_limit(before + 100);
  EXPECT_FALSE(mem.try_charge(200));
  EXPECT_EQ(mem.used(), before);  // failed charge rolled back
  EXPECT_EQ(thrown_code([&] { mem.charge(200); }), ErrorCode::resource_exhausted);
  EXPECT_EQ(mem.used(), before);
  EXPECT_TRUE(mem.try_charge(50));
  mem.release(50);
  mem.set_limit(0);
}

TEST(MemoryAccountant, MemChargeFailpointForcesFailure) {
  const FailpointGuard guard;
  MemoryAccountant& mem = MemoryAccountant::global();
  failpoint::arm("mem.charge", "always");
  EXPECT_FALSE(mem.try_charge(1));
  EXPECT_EQ(thrown_code([&] { mem.charge(1); }), ErrorCode::resource_exhausted);
  failpoint::disarm_all();
  EXPECT_TRUE(mem.try_charge(1));
  mem.release(1);
}

// --- trace IO failpoints and raw error paths -------------------------------

TEST(TraceIoFaults, MmapOpenFailureIsIoError) {
  const FailpointGuard guard;
  const TempFile file("line one\nline two\n");
  failpoint::arm("mmap.open", "always");
  EXPECT_EQ(thrown_code([&] { LineReader reader(file.path()); }), ErrorCode::io_error);
}

TEST(TraceIoFaults, MmapOpenRetriesEintr) {
  const FailpointGuard guard;
  const TempFile file("alpha\nbeta\n");
  failpoint::arm("mmap.open_eintr", "count=3");
  LineReader reader(file.path());  // must succeed: EINTR is retried
  EXPECT_EQ(failpoint::fires("mmap.open_eintr"), 3u);
  std::string_view line;
  ASSERT_TRUE(reader.next(line));
  EXPECT_EQ(line, "alpha");
}

TEST(TraceIoFaults, MapFailureFallsBackToReads) {
  const FailpointGuard guard;
  const TempFile file("alpha\nbeta");
  failpoint::arm("mmap.map", "always");
  LineReader reader(file.path());
  EXPECT_FALSE(reader.mapped());
  std::string_view line;
  ASSERT_TRUE(reader.next(line));
  EXPECT_EQ(line, "alpha");
  ASSERT_TRUE(reader.next(line));
  EXPECT_EQ(line, "beta");  // unterminated last line survives the fallback
  EXPECT_FALSE(reader.next(line));
}

TEST(TraceIoFaults, ZeroLengthFileHasNoLines) {
  const FailpointGuard guard;
  const TempFile file("");
  for (const char* mode : {"mapped", "fallback"}) {
    failpoint::disarm_all();
    if (std::string(mode) == "fallback") failpoint::arm("mmap.map", "always");
    LineReader reader(file.path());
    std::string_view line;
    EXPECT_FALSE(reader.next(line)) << mode;
  }
}

TEST(TraceIoFaults, MissingFileDiagnosticsNamePathAndErrno) {
  const FailpointGuard guard;
  try {
    LineReader reader("/tmp/definitely_missing_t2m_fault_file.txt");
    FAIL() << "expected StatusError";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.code(), ErrorCode::io_error);
    EXPECT_NE(std::string(e.what()).find("definitely_missing_t2m_fault_file"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("No such file"), std::string::npos);
  }
}

// --- solver failpoints -----------------------------------------------------

TEST(SolverFaults, ArenaAllocationFailureIsResourceExhausted) {
  const FailpointGuard guard;
  sat::Solver s;
  const sat::Var base = s.new_vars(4);
  failpoint::arm("arena.alloc", "always");
  EXPECT_EQ(thrown_code([&] {
              s.add_clause(std::vector<sat::Lit>{sat::pos(base), sat::pos(base + 1)});
            }),
            ErrorCode::resource_exhausted);
}

// --- deadlines -------------------------------------------------------------

TEST(DeadlineFaults, ComplianceCheckHonoursExpiredDeadline) {
  const FailpointGuard guard;
  Nfa model(2, 0);
  model.add_transition(0, 0, 1);
  model.add_transition(1, 1, 0);
  const std::vector<PredId> seq = {0, 1, 0, 1};
  ComplianceChecker checker(seq, 2);
  checker.set_deadline(Deadline::after_seconds(-1.0));
  EXPECT_EQ(thrown_code([&] { checker.check(model); }), ErrorCode::deadline_exceeded);
  // A fresh checker without the deadline still completes.
  ComplianceChecker healthy(seq, 2);
  EXPECT_TRUE(healthy.check(model).compliant);
}

TEST(DeadlineFaults, LearnWithExpiredDeadlineReturnsTimeoutVerdict) {
  const FailpointGuard guard;
  const Trace t = event_trace({"a", "b", "a", "b"}, {"a", "b"});
  LearnerConfig config;
  config.timeout_seconds = 1e-9;
  const LearnResult r = ModelLearner(config).learn(t);
  EXPECT_FALSE(r.success);
  EXPECT_TRUE(r.timed_out);
}

// --- memory-cap verdicts and best-so-far salvage ---------------------------

TEST(MemoryCap, LearnUnderTinyCapReturnsResourceExhaustedVerdict) {
  const FailpointGuard guard;
  const Trace t = sim::generate_full_coverage_sched_trace(2000);
  LearnerConfig config;
  config.max_memory_bytes = 4096;  // far below what the run needs
  const LearnResult r = ModelLearner(config).learn(t);
  EXPECT_FALSE(r.success);
  EXPECT_TRUE(r.resource_exhausted);
  EXPECT_EQ(r.status.code(), ErrorCode::resource_exhausted);
  // The learner scopes the cap to the call: the global limit is restored.
  EXPECT_EQ(MemoryAccountant::global().limit(), 0u);
}

TEST(Salvage, RandomDfaWalkKilledByAllocationFailureSalvagesCompliantModel) {
  const FailpointGuard guard;
  // The search over this 6-state random-DFA walk passes through compliant
  // candidates that cannot replay the trace (deterministically; each
  // triggers a prefix refinement), so a late failure has a best-so-far model
  // to salvage. First count the run's arena allocations with the site armed
  // but never firing, then rerun with the failure injected near the end —
  // inside the final solve, after such a candidate was captured.
  const Trace t = sim::random_dfa_walk_trace(6, 600, 3);
  LearnerConfig config;

  failpoint::arm("arena.alloc", "off");
  const LearnResult clean = ModelLearner(config).learn(t);
  ASSERT_TRUE(clean.success);
  ASSERT_GE(clean.stats.prefix_refinements, 1u);
  const std::uint64_t allocs = failpoint::evaluations("arena.alloc");
  ASSERT_GT(allocs, 100u);
  failpoint::disarm_all();

  failpoint::FailSpec late;
  late.skip = allocs - 20;
  late.count = ~0ULL;
  failpoint::arm("arena.alloc", late);
  const LearnResult r = ModelLearner(config).learn(t);
  EXPECT_FALSE(r.success);
  EXPECT_TRUE(r.resource_exhausted);
  ASSERT_TRUE(r.salvaged);
  EXPECT_EQ(r.states, clean.states);
  // The salvaged model passed compliance when it was captured — and still
  // does against the trace's window set.
  const ComplianceResult compliance =
      check_compliance(r.model, r.preds.seq, config.compliance_length);
  EXPECT_TRUE(compliance.compliant);
}

TEST(Salvage, CancelledLaneDoesNotSalvage) {
  const FailpointGuard guard;
  // A run aborted by the caller's stop flag hands back nothing: the caller
  // cancelled it and asked for no verdict, so a partial model would be
  // misleading.
  const Trace t = event_trace({"a", "b", "a", "b"}, {"a", "b"});
  std::atomic<bool> stop{true};
  LearnerConfig config;
  config.stop = &stop;
  const LearnResult r = ModelLearner(config).learn(t);
  EXPECT_FALSE(r.success);
  EXPECT_TRUE(r.cancelled);
  EXPECT_FALSE(r.salvaged);
}

// --- internal errors ---------------------------------------------------------

TEST(SearchFaults, InternalErrorMidSearchKeepsTheRunRecord) {
  const FailpointGuard guard;
  // The search folds an internal error into its own record: the SAT calls
  // and conflicts counted before the throw survive, with no verdict flag and
  // no salvage. The failure fires as the third SAT call starts.
  const Trace t = sim::random_dfa_walk_trace(6, 600, 3);
  failpoint::FailSpec third;
  third.skip = 2;
  third.count = 1;
  failpoint::arm("learn.solve", third);
  const LearnResult r = ModelLearner().learn(t);
  EXPECT_EQ(failpoint::fires("learn.solve"), 1u);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.status.code(), ErrorCode::internal);
  EXPECT_EQ(r.stats.sat_calls, 3u);
  EXPECT_GT(r.stats.sat_conflicts, 0u);
  EXPECT_GT(r.stats.total_seconds, 0.0);
  EXPECT_FALSE(r.timed_out || r.resource_exhausted || r.salvaged);
}

// --- determinism with the harness compiled in ------------------------------

TEST(Determinism, FingerprintUnchangedWithAccountantAndDisarmedFailpoints) {
  const FailpointGuard guard;
  const std::vector<Segment> segments = {{0, 1, 2, 0}, {1, 2, 0, 1}};
  CspOptions options;
  AutomatonCsp reference(segments, 3, 3, options);
  const std::uint64_t want = reference.encoding_fingerprint();

  // Armed-then-disarmed failpoints and an (uncapped) accountant must leave
  // the clause database byte-identical.
  failpoint::arm("arena.alloc", "off");
  failpoint::arm("mem.charge", "off");
  AutomatonCsp probed(segments, 3, 3, options);
  EXPECT_EQ(probed.encoding_fingerprint(), want);
  failpoint::disarm_all();
  AutomatonCsp clean(segments, 3, 3, options);
  EXPECT_EQ(clean.encoding_fingerprint(), want);
}

}  // namespace
}  // namespace t2m
