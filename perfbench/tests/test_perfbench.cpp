// Tests of the benchmark's own machinery: the independent model check, the
// seeded generator, the percentile rule and the speed calibration.

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "calibrate.h"
#include "corpus.h"
#include "stats.h"
#include "verify.h"

#include "src/automaton/nfa.h"
#include "src/core/learner.h"
#include "src/trace/text_io.h"

namespace {

using t2m::Nfa;
using t2m::PredId;

// q0 -a-> q1 -b-> q0: replays "abab...", and its 2-paths are ab and ba.
Nfa two_cycle() {
  Nfa model(2);
  model.add_transition(0, 0, 1);
  model.add_transition(1, 1, 0);
  return model;
}

TEST(CheckModel, AcceptsAModelThatReplaysAndComplies) {
  const std::vector<PredId> seq = {0, 1, 0, 1, 0};
  const auto check = perfbench::check_model(two_cycle(), seq, 2, 2);
  EXPECT_TRUE(check.ok()) << check.describe();
}

TEST(CheckModel, RejectsAMutatedTarget) {
  Nfa mutated(2);
  mutated.add_transition(0, 0, 1);
  mutated.add_transition(1, 1, 1);  // was 1 -b-> 0
  const std::vector<PredId> seq = {0, 1, 0, 1, 0};
  const auto check = perfbench::check_model(mutated, seq, 2, 2);
  EXPECT_FALSE(check.ok());
  EXPECT_FALSE(check.replays);
  EXPECT_EQ(check.replay_stuck_at, 2u);
}

TEST(CheckModel, RejectsAMutatedLabel) {
  Nfa mutated(2);
  mutated.add_transition(0, 0, 1);
  mutated.add_transition(1, 0, 0);  // was 1 -b-> 0
  const std::vector<PredId> seq = {0, 1, 0, 1, 0};
  const auto check = perfbench::check_model(mutated, seq, 2, 2);
  EXPECT_FALSE(check.replays);
  EXPECT_FALSE(check.paths_in_trace);  // "aa" never occurs
  EXPECT_EQ(check.bad_word, (std::vector<PredId>{0, 0}));
}

TEST(CheckModel, RejectsAnExtraPathEvenWhenTheTraceReplays) {
  Nfa model = two_cycle();
  model.add_transition(1, 2, 1);  // a self-loop on c: "cc" is not in the trace
  const std::vector<PredId> seq = {0, 1, 0, 2, 1};
  const auto check = perfbench::check_model(model, seq, 2, 2);
  EXPECT_TRUE(check.replays);
  EXPECT_FALSE(check.paths_in_trace);
}

TEST(CheckModel, EnforcesTheStateBound) {
  const std::vector<PredId> seq = {0, 1, 0, 1};
  EXPECT_FALSE(perfbench::check_model(two_cycle(), seq, 2, 1).within_bound);
  EXPECT_TRUE(perfbench::check_model(two_cycle(), seq, 2, 2).within_bound);
}

TEST(CheckModel, AgreesWithTheLearnerOnAGeneratedCase) {
  const auto specs = perfbench::corpus_specs(7, 7, 5, 4, 8, 600);
  std::stringstream text;
  perfbench::write_corpus_case(text, specs[0]);
  const t2m::Trace trace = t2m::read_trace_text(text);
  const t2m::LearnResult result = t2m::ModelLearner().learn(trace);
  ASSERT_TRUE(result.success);
  if (!result.stats.acceptance_relaxed) {
    EXPECT_TRUE(perfbench::check_model(result.model, result.preds.seq, 2,
                                       specs[0].generator_states)
                    .ok());
  }
}

std::string corpus_bytes(std::uint64_t seed) {
  std::ostringstream os;
  for (const auto& spec : perfbench::corpus_specs(seed, seed, 10, 4, 8, 500)) {
    perfbench::write_corpus_case(os, spec);
  }
  return os.str();
}

TEST(Generator, IsByteStableForAFixedSeed) {
  const std::string a = corpus_bytes(42);
  EXPECT_EQ(a, corpus_bytes(42));
  EXPECT_NE(a, corpus_bytes(43));
  perfbench::Fnv1a h;
  h.update(a);
  // Pinned: a change here changes every corpus input and every baseline.
  EXPECT_EQ(perfbench::hex64(h.value()), "3100e739674aa38f");
}

TEST(Generator, StratifiesGeneratorSizes) {
  const auto specs = perfbench::corpus_specs(1, 1, 120, 4, 8, 3000);
  ASSERT_EQ(specs.size(), 120u);
  std::vector<int> per_size(9, 0);
  for (const auto& spec : specs) ++per_size[spec.generator_states];
  for (std::size_t n = 4; n <= 8; ++n) EXPECT_EQ(per_size[n], 24);
}

TEST(Generator, WalksFollowTheAutomaton) {
  const auto dfa = perfbench::random_dfa(6, 6, 99);
  ASSERT_EQ(dfa.out.size(), 6u);
  for (const auto& edges : dfa.out) {
    ASSERT_EQ(edges.size(), 2u);
    EXPECT_NE(edges[0].first, edges[1].first);
  }
  const auto walk = perfbench::random_walk(dfa, 1000, 5);
  std::size_t q = dfa.initial;
  for (const std::size_t symbol : walk) {
    bool moved = false;
    for (const auto& [s, dst] : dfa.out[q]) {
      if (s == symbol) {
        q = dst;
        moved = true;
        break;
      }
    }
    ASSERT_TRUE(moved);
  }
}

TEST(Percentile, NeedsTenSamplesBeyond) {
  std::vector<double> values;
  for (int i = 1; i <= 100; ++i) values.push_back(i);
  EXPECT_EQ(perfbench::samples_beyond(100, 0.9), 10u);
  EXPECT_EQ(perfbench::samples_beyond(120, 0.9), 12u);
  EXPECT_TRUE(perfbench::tail_quantile(values, 0.9).has_value());
  values.pop_back();
  EXPECT_EQ(perfbench::samples_beyond(99, 0.9), 9u);
  EXPECT_FALSE(perfbench::tail_quantile(values, 0.9).has_value());
  EXPECT_TRUE(perfbench::tail_quantile(values, 0.5).has_value());
}

TEST(Percentile, ReportedTailFallsBackToTheMaximumOnFewCases) {
  std::vector<double> values;
  for (int i = 0; i < 120; ++i) values.push_back(i);
  EXPECT_DOUBLE_EQ(perfbench::reported_tail(values).q, 0.9);
  EXPECT_DOUBLE_EQ(perfbench::reported_tail(values).value, perfbench::quantile(values, 0.9));
  values.resize(12);
  EXPECT_DOUBLE_EQ(perfbench::reported_tail(values).q, 1.0);
  EXPECT_DOUBLE_EQ(perfbench::reported_tail(values).value, 11.0);
  values.resize(1);
  EXPECT_DOUBLE_EQ(perfbench::reported_tail(values).value, 0.0);
}

TEST(Percentile, InterpolatesLikeTheUsualDefinition) {
  EXPECT_DOUBLE_EQ(perfbench::quantile({1, 2, 3, 4}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(perfbench::quantile({5}, 0.9), 5.0);
  EXPECT_DOUBLE_EQ(perfbench::median({}), 0.0);
}

TEST(SpeedProbe, ScaleIsReferenceOverMedianKernelTime) {
  perfbench::SpeedProbe probe;
  EXPECT_DOUBLE_EQ(probe.scale(), 1.0);
  probe.sample_after(0.0);
  EXPECT_EQ(probe.samples(), 1u);
  // The kernel takes milliseconds on any machine this runs on, so the
  // scale is a plain speed ratio, not a degenerate value.
  EXPECT_GT(probe.scale(), 0.01);
  EXPECT_LT(probe.scale(), 100.0);
  probe.sample_after(0.25);  // one sample plus one per 0.1 s
  EXPECT_EQ(probe.samples(), 4u);
  EXPECT_GT(probe.scale_since(1), 0.01);
  EXPECT_DOUBLE_EQ(probe.scale_since(4), 1.0);
  EXPECT_EQ(perfbench::SpeedProbe::table_bytes(), std::size_t{16} << 20);
}

}  // namespace
