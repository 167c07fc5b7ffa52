// Ground-truth oracle: learn from random walks over random DFAs whose size
// is known. The generator, restricted to the transitions the walk uses, is a
// deterministic model that replays the walk; it is also compliant, so it
// bounds the minimal N from above. With trace acceptance on (the default),
// every learned model must replay its trace.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/core/compliance.h"
#include "src/core/learner.h"
#include "src/trace/text_io.h"
#include "src/util/rng.h"

namespace t2m {
namespace {

/// A random DFA with as many symbols as states and out-degree 2. A random
/// Hamiltonian cycle keeps it strongly connected, so a long walk visits every
/// state; the second edge of each state carries a different symbol to a
/// random target.
struct RandomDfa {
  std::size_t states = 0;
  std::size_t initial = 0;
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> out;  // (symbol, dst)
};

RandomDfa random_dfa(Rng& rng, std::size_t states) {
  RandomDfa dfa;
  dfa.states = states;
  dfa.out.resize(states);
  std::vector<std::size_t> cycle(states);
  for (std::size_t i = 0; i < states; ++i) cycle[i] = i;
  for (std::size_t i = states; i > 1; --i) std::swap(cycle[i - 1], cycle[rng.below(i)]);
  dfa.initial = cycle[0];
  for (std::size_t i = 0; i < states; ++i) {
    const std::size_t s1 = rng.below(states);
    std::size_t s2 = rng.below(states - 1);
    if (s2 >= s1) ++s2;
    dfa.out[cycle[i]] = {{s1, cycle[(i + 1) % states]}, {s2, rng.below(states)}};
  }
  return dfa;
}

/// The walk as (symbol, state reached) steps from the initial state.
std::vector<std::pair<std::size_t, std::size_t>> random_walk(Rng& rng, const RandomDfa& dfa,
                                                             std::size_t length) {
  std::vector<std::pair<std::size_t, std::size_t>> walk;
  std::size_t q = dfa.initial;
  for (std::size_t i = 0; i < length; ++i) {
    const auto& [symbol, dst] = dfa.out[q][rng.below(2)];
    walk.emplace_back(symbol, dst);
    q = dst;
  }
  return walk;
}

Trace walk_trace(const RandomDfa& dfa,
                 const std::vector<std::pair<std::size_t, std::size_t>>& walk) {
  std::ostringstream text;
  text << "# t2m-trace v1\n# var ev cat";
  for (std::size_t s = 0; s < dfa.states; ++s) text << " a" << s;
  text << '\n';
  for (const auto& step : walk) text << 'a' << step.first << '\n';
  std::istringstream in(text.str());
  return read_trace_text(in);
}

TEST(GroundTruth, RandomDfaWalksReplayWithinGeneratorSize) {
  Rng rng(0x5eed);
  for (int c = 0; c < 30; ++c) {
    const std::size_t states = 4 + static_cast<std::size_t>(c % 3);
    const RandomDfa dfa = random_dfa(rng, states);
    const auto walk = random_walk(rng, dfa, 600);
    const std::string what = "case " + std::to_string(c) + " (" +
                             std::to_string(states) + " states)";

    LearnerConfig config;
    config.timeout_seconds = 60;
    const LearnResult r = ModelLearner(config).learn(walk_trace(dfa, walk));
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

}  // namespace
}  // namespace t2m
