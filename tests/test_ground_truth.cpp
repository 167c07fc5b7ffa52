// Ground-truth oracle: learn from random walks over random DFAs whose size
// is known. The generator, restricted to the transitions the walk uses, is a
// deterministic model that replays the walk; it is also compliant, so it
// bounds the minimal N from above. With trace acceptance on (the default),
// every learned model must replay its trace.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/compliance.h"
#include "src/core/learner.h"
#include "src/sim/synthetic/random_dfa.h"
#include "src/util/rng.h"

namespace t2m {
namespace {

TEST(GroundTruth, RandomDfaWalksReplayWithinGeneratorSize) {
  Rng rng(0x5eed);
  for (int c = 0; c < 30; ++c) {
    const std::size_t states = 4 + static_cast<std::size_t>(c % 3);
    const sim::RandomDfa dfa = sim::random_dfa(rng, states);
    const auto walk = sim::random_walk(rng, dfa, 600);
    const std::string what = "case " + std::to_string(c) + " (" +
                             std::to_string(states) + " states)";

    LearnerConfig config;
    config.timeout_seconds = 60;
    const LearnResult r = ModelLearner(config).learn(sim::walk_trace(dfa, walk));
    ASSERT_TRUE(r.success) << what;
    // The first row is the initial valuation; every later row is one event.
    ASSERT_EQ(r.preds.seq.size() + 1, walk.size()) << what;
    EXPECT_TRUE(r.model.accepts(r.preds.seq)) << what << ": model does not replay P";
    EXPECT_FALSE(r.stats.acceptance_relaxed) << what;

    // The generator in the learner's predicate space, restricted to the
    // walk's transitions, started where the first row left it.
    std::size_t q = walk[0].second;
    Nfa generator(states, q);
    for (std::size_t i = 0; i < r.preds.seq.size(); ++i) {
      generator.add_transition(q, r.preds.seq[i], walk[i + 1].second);
      q = walk[i + 1].second;
    }
    // It replays P and is compliant, so it is a valid model of `states`
    // states, and the minimal N cannot exceed that.
    ASSERT_TRUE(generator.accepts(r.preds.seq)) << what;
    const ComplianceChecker checker(r.preds.seq, config.compliance_length);
    ASSERT_TRUE(checker.check(generator).compliant) << what;
    EXPECT_LE(r.states, states) << what;
  }
}

TEST(GroundTruth, TwelveStateWalkLearnsWithinTimeout) {
  // A 5000-event walk over a 12-state, 12-symbol DFA. Without symmetry
  // breaking over the state labels, its minimality proofs at N-1 re-refute
  // every relabeling of the states and run past 40 s.
  const Trace trace = sim::random_dfa_walk_trace(12, 5000, 1);
  LearnerConfig config;
  config.timeout_seconds = 30;
  const LearnResult r = ModelLearner(config).learn(trace);
  ASSERT_TRUE(r.success) << "timed out: " << r.timed_out;
  EXPECT_LE(r.states, 12u);
  EXPECT_TRUE(r.model.accepts(r.preds.seq));
}

}  // namespace
}  // namespace t2m
