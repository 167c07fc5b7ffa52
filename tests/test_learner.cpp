#include <gtest/gtest.h>

#include <atomic>

#include "src/core/compliance.h"
#include "src/core/learner.h"
#include "src/core/report.h"
#include "src/obs/json.h"
#include "src/sim/basic/counter.h"
#include "src/trace/recorder.h"
#include "src/util/stopwatch.h"

namespace t2m {
namespace {

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

TEST(Compliance, DetectsInvalidSequences) {
  Nfa m(2, 0);
  m.add_transition(0, 0, 1);
  m.add_transition(1, 1, 0);
  m.add_transition(1, 0, 1);  // allows (0,0) via 0->1->1
  const std::vector<PredId> seq = {0, 1, 0, 1};
  const ComplianceResult r = check_compliance(m, seq, 2);
  EXPECT_FALSE(r.compliant);
  EXPECT_TRUE(r.invalid_sequences.count({0, 0}));
}

TEST(Compliance, PassesWhenModelMatchesSequence) {
  Nfa m(2, 0);
  m.add_transition(0, 0, 1);
  m.add_transition(1, 1, 0);
  const std::vector<PredId> seq = {0, 1, 0, 1};
  EXPECT_TRUE(check_compliance(m, seq, 2).compliant);
}

TEST(Learner, SimpleCycle) {
  const Trace t = event_trace({"a", "b", "c", "a", "b", "c", "a", "b", "c"},
                              {"a", "b", "c"});
  const ModelLearner learner;
  const LearnResult r = learner.learn(t);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.states, 3u);
  EXPECT_EQ(r.model.num_transitions(), 3u);
}

TEST(Learner, SelfLoopCollapsesToOneState) {
  const Trace t = event_trace({"a", "a", "a", "a", "a", "a"}, {"a"});
  const ModelLearner learner;
  const LearnResult r = learner.learn(t);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.states, 2u);  // search starts at N=2; a self-loop fits
}

TEST(Learner, RefinementForcesLargerModel) {
  // a-b alternation with a distinguished prefix: aab ab ab ... A 2-state
  // model allowing (a,a) everywhere fails compliance against tails.
  const Trace t = event_trace({"a", "b", "a", "b", "c", "a", "b", "c"},
                              {"a", "b", "c"});
  const ModelLearner learner;
  const LearnResult r = learner.learn(t);
  ASSERT_TRUE(r.success);
  // Whatever N, the result must pass its own compliance check.
  const ComplianceResult c =
      check_compliance(r.model, r.preds.seq, learner.config().compliance_length);
  EXPECT_TRUE(c.compliant);
  EXPECT_TRUE(r.model.deterministic_per_predicate());
}

TEST(Learner, ModelEmbedsEverySegment) {
  const Trace t = event_trace({"a", "b", "a", "c", "a", "b", "a", "c"},
                              {"a", "b", "c"});
  const ModelLearner learner;
  const LearnResult r = learner.learn(t);
  ASSERT_TRUE(r.success);
  // The full predicate sequence must be accepted from the initial state:
  // the chained windows pin the run through the whole trace.
  EXPECT_TRUE(r.model.accepts(r.preds.seq));
}

TEST(Learner, NonSegmentedAgreesOnSmallInput) {
  const Trace t = event_trace({"a", "b", "c", "a", "b", "c", "a", "b", "c"},
                              {"a", "b", "c"});
  LearnerConfig seg_config;
  seg_config.segmented = true;
  LearnerConfig full_config;
  full_config.segmented = false;
  const LearnResult seg = ModelLearner(seg_config).learn(t);
  const LearnResult full = ModelLearner(full_config).learn(t);
  ASSERT_TRUE(seg.success);
  ASSERT_TRUE(full.success);
  EXPECT_EQ(seg.states, full.states);
}

TEST(Learner, WindowSweepLearnsSameCycle) {
  // The paper reports identical automata across window choices for their
  // benchmarks; verify on the simple cycle for several w.
  const std::vector<std::string> events = {"a", "b", "c", "a", "b", "c",
                                           "a", "b", "c", "a", "b", "c"};
  for (const std::size_t w : {2u, 3u, 4u, 5u}) {
    LearnerConfig config;
    config.window = w;
    const LearnResult r = ModelLearner(config).learn(event_trace(events, {"a", "b", "c"}));
    ASSERT_TRUE(r.success) << "w=" << w;
    EXPECT_EQ(r.states, 3u) << "w=" << w;
  }
}

TEST(Learner, InitialStatesRespected) {
  const Trace t = event_trace({"a", "b", "a", "b"}, {"a", "b"});
  LearnerConfig config;
  config.initial_states = 4;  // start searching above the minimum
  const LearnResult r = ModelLearner(config).learn(t);
  ASSERT_TRUE(r.success);
  EXPECT_GE(r.states, 4u);
}

TEST(Learner, TimeoutReported) {
  // An effectively-zero budget must time out, not crash.
  std::vector<std::string> events;
  const char* alphabet[] = {"a", "b", "c", "d", "e"};
  for (int i = 0; i < 2000; ++i) {
    events.push_back(alphabet[(i * i + i / 7) % 5]);
  }
  LearnerConfig config;
  config.timeout_seconds = 1e-9;
  const LearnResult r =
      ModelLearner(config).learn(event_trace(events, {"a", "b", "c", "d", "e"}));
  EXPECT_FALSE(r.success);
  EXPECT_TRUE(r.timed_out);
}

TEST(Learner, MaxStatesBoundsSearch) {
  const Trace t = event_trace({"a", "b", "c", "d", "a", "b", "c", "d"},
                              {"a", "b", "c", "d"});
  LearnerConfig config;
  config.max_states = 1;
  const LearnResult r = ModelLearner(config).learn(t);
  EXPECT_FALSE(r.success);
  EXPECT_FALSE(r.timed_out);
}

TEST(Learner, StatsAreConsistent) {
  const Trace t = event_trace({"a", "b", "a", "b", "a", "b"}, {"a", "b"});
  const LearnResult r = ModelLearner().learn(t);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.stats.sequence_length, 6u);
  EXPECT_GT(r.stats.segments, 0u);
  EXPECT_GE(r.stats.sat_calls, 1u);
  EXPECT_GE(r.stats.total_seconds, 0.0);
}

TEST(Learner, PredNamesAttachedToModel) {
  const Trace t = event_trace({"a", "b", "a", "b"}, {"a", "b"});
  const LearnResult r = ModelLearner().learn(t);
  ASSERT_TRUE(r.success);
  std::set<std::string> labels;
  for (const Transition& tr : r.model.transitions()) {
    labels.insert(r.model.pred_name(tr.pred));
  }
  EXPECT_TRUE(labels.count("a"));
  EXPECT_TRUE(labels.count("b"));
}

TEST(Learner, ZeroComplianceLengthIsAParseErrorVerdict) {
  // l = 0 has no trace windows: every candidate would fail compliance on the
  // empty word and the refinement loop would never converge. The learn
  // returns a parse_error verdict before the search starts instead.
  const Trace t = event_trace({"a", "b", "a", "b"}, {"a", "b"});
  LearnerConfig config;
  config.compliance_length = 0;
  const Stopwatch watch;
  const LearnResult r = ModelLearner(config).learn(t);
  EXPECT_LT(watch.elapsed_seconds(), 5.0);
  EXPECT_FALSE(r.success);
  EXPECT_FALSE(r.timed_out);
  EXPECT_EQ(r.status.code(), ErrorCode::parse_error);
  EXPECT_EQ(r.stats.sat_calls, 0u);
}

TEST(Learner, FailedRunRecordsItsTotalTime) {
  // The entry guard owns the run's clock, so a failure that reaches it
  // still reports how long the call took: here the ftrace file cannot be
  // opened, before any ingest or search.
  const LearnResult r =
      ModelLearner().learn_from_ftrace("/tmp/definitely_missing_t2m_learner_file.log");
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.status.code(), ErrorCode::io_error);
  obs::JsonValue doc;
  ASSERT_TRUE(obs::parse_json(to_json(r), doc).ok());
  const obs::JsonValue* stats = doc.find("stats");
  ASSERT_NE(stats, nullptr);
  const obs::JsonValue* total = stats->find("total_seconds");
  ASSERT_NE(total, nullptr);
  EXPECT_GT(total->number, 0.0);
}

TEST(Learner, AccountedPeakIsThePeakOfEachLearn) {
  // The memory accountant is process-wide; each learn restarts its peak, so
  // a small learn after a large one reports its own, smaller peak.
  LearnerConfig unsegmented;
  unsegmented.segmented = false;
  const LearnResult large = ModelLearner(unsegmented).learn(sim::generate_counter_trace({}));
  const LearnResult small =
      ModelLearner().learn(event_trace({"a", "b", "a", "b", "a", "b"}, {"a", "b"}));
  ASSERT_TRUE(large.success);
  ASSERT_TRUE(small.success);
  EXPECT_GT(small.stats.accounted_peak_bytes, 0u);
  EXPECT_LT(small.stats.accounted_peak_bytes, large.stats.accounted_peak_bytes);
}

TEST(Learner, StopFlagCancelsLearn) {
  // A pre-raised stop flag cancels the run before any real work.
  std::atomic<bool> stop{true};
  LearnerConfig config;
  config.stop = &stop;
  const LearnResult result =
      ModelLearner(config).learn(sim::generate_counter_trace({}));
  EXPECT_FALSE(result.success);
  EXPECT_TRUE(result.cancelled);
  EXPECT_TRUE(result.timed_out);
}

// --- learner-level early stop ---------------------------------------------

TEST(CoreDrivenStop, NormalRunsNeverFireAndStaySuccessful) {
  LearnerConfig config;
  ASSERT_TRUE(config.core_driven_stop);  // default on
  const LearnResult result = ModelLearner(config).learn(sim::generate_counter_trace({}));
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.stats.core_stops, 0u);
}

}  // namespace
}  // namespace t2m
