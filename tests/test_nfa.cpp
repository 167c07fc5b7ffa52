#include <gtest/gtest.h>

#include "src/automaton/dot.h"
#include "src/automaton/isomorphism.h"
#include "src/automaton/nfa.h"
#include "src/automaton/ops.h"
#include "src/util/rng.h"

namespace t2m {
namespace {

/// The counter-shaped 4-state model used across these tests:
/// 0 -p0-> 0, 0 -p1-> 1, 1 -p2-> 2, 2 -p2-> 2, 2 -p3-> 3, 3 -p0-> 0.
Nfa counter_like() {
  Nfa m(4, 0);
  m.add_transition(0, 0, 0);
  m.add_transition(0, 1, 1);
  m.add_transition(1, 2, 2);
  m.add_transition(2, 2, 2);
  m.add_transition(2, 3, 3);
  m.add_transition(3, 0, 0);
  m.set_pred_names({"up", "peak", "down", "trough"});
  return m;
}

TEST(Nfa, BasicShape) {
  const Nfa m = counter_like();
  EXPECT_EQ(m.num_states(), 4u);
  EXPECT_EQ(m.num_transitions(), 6u);
  EXPECT_EQ(m.successors(0, 0), std::vector<StateId>{0});
  EXPECT_EQ(m.successors(0, 1), std::vector<StateId>{1});
  EXPECT_TRUE(m.successors(1, 0).empty());
  EXPECT_EQ(m.transitions_from(2).size(), 2u);
}

TEST(Nfa, DuplicateTransitionsIgnored) {
  Nfa m(2, 0);
  m.add_transition(0, 0, 1);
  m.add_transition(0, 0, 1);
  EXPECT_EQ(m.num_transitions(), 1u);
}

TEST(Nfa, GrowsStatesOnDemand) {
  Nfa m(1, 0);
  m.add_transition(0, 0, 5);
  EXPECT_EQ(m.num_states(), 6u);
}

TEST(Nfa, DeterminismCheck) {
  Nfa m = counter_like();
  EXPECT_TRUE(m.deterministic_per_predicate());
  m.add_transition(0, 0, 2);  // second target for (0, up)
  EXPECT_FALSE(m.deterministic_per_predicate());
}

TEST(Nfa, AcceptsByDeadEndSemantics) {
  const Nfa m = counter_like();
  const PredId word_ok[] = {0, 0, 1, 2, 2, 3, 0};
  EXPECT_TRUE(m.accepts(word_ok));
  const PredId word_bad[] = {0, 2};  // down directly after up
  EXPECT_FALSE(m.accepts(word_bad));
  EXPECT_TRUE(m.accepts({}));  // empty word: all states accepting
}

TEST(Nfa, AcceptsFromAnyState) {
  const Nfa m = counter_like();
  const PredId word[] = {2, 3};
  EXPECT_FALSE(m.accepts(word));  // not from the initial state
  std::set<StateId> everywhere = {0, 1, 2, 3};
  EXPECT_TRUE(m.accepts_from(everywhere, word));
}

/// Reference replay: the set simulation, written out independently of Nfa.
std::size_t reference_replay_length(const Nfa& m, const std::vector<PredId>& word) {
  std::set<StateId> frontier = {m.initial()};
  for (std::size_t i = 0; i < word.size(); ++i) {
    std::set<StateId> next;
    for (const Transition& t : m.transitions()) {
      if (t.pred == word[i] && frontier.count(t.src) > 0) next.insert(t.dst);
    }
    if (next.empty()) return i;
    frontier = std::move(next);
  }
  return word.size();
}

TEST(Nfa, ReplayLengthMatchesSetSimulation) {
  // Random deterministic and nondeterministic automata, random words: the
  // table walk (deterministic) and the set fallback (nondeterministic) must
  // both agree with the reference, and accepts() must agree with both.
  Rng rng(2026);
  std::size_t deterministic = 0;
  std::size_t dead_ends = 0;
  for (int round = 0; round < 400; ++round) {
    const std::size_t states = 1 + rng.below(6);
    const std::size_t preds = 1 + rng.below(4);
    const bool make_deterministic = round % 2 == 0;
    Nfa m(states, rng.below(states));
    const std::size_t edges = rng.below(states * preds * 2 + 1);
    for (std::size_t e = 0; e < edges; ++e) {
      const StateId src = rng.below(states);
      const PredId pred = rng.below(preds);
      if (make_deterministic && !m.successors(src, pred).empty()) continue;
      m.add_transition(src, pred, rng.below(states));
    }
    if (m.deterministic_per_predicate()) ++deterministic;
    for (int w = 0; w < 8; ++w) {
      std::vector<PredId> word(rng.below(40));
      // One symbol beyond the vocabulary now and then: an unknown predicate
      // is a dead end.
      for (PredId& p : word) p = rng.below(preds + (rng.chance(0.05) ? 1 : 0));
      const std::size_t expected = reference_replay_length(m, word);
      EXPECT_EQ(m.replay_length(word), expected) << "round=" << round;
      EXPECT_EQ(m.accepts(word), expected == word.size()) << "round=" << round;
      if (expected < word.size()) ++dead_ends;
    }
  }
  EXPECT_GT(deterministic, 200u);
  EXPECT_LT(deterministic, 400u);
  EXPECT_GT(dead_ends, 0u);
}

TEST(Nfa, ReplayLengthStopsAtFirstDeadEnd) {
  const Nfa m = counter_like();
  const std::vector<PredId> word = {0, 0, 1, 2, 2, 0, 3};  // "up" after "down" fails
  EXPECT_EQ(m.replay_length(word), 5u);
  EXPECT_EQ(m.replay_length(std::vector<PredId>{}), 0u);
  const std::vector<PredId> full = {0, 1, 2, 3, 0};
  EXPECT_EQ(m.replay_length(full), full.size());
}

TEST(Nfa, Reachability) {
  Nfa m(4, 0);
  m.add_transition(0, 0, 1);
  m.add_transition(1, 1, 0);
  m.add_transition(3, 0, 2);  // island
  const auto reach = m.reachable_states();
  EXPECT_EQ(reach, (std::set<StateId>{0, 1}));
}

TEST(Ops, TransitionSequences) {
  const Nfa m = counter_like();
  const auto paths = transition_sequences(m, 2);
  EXPECT_TRUE(paths.count({0, 0}));
  EXPECT_TRUE(paths.count({0, 1}));
  EXPECT_TRUE(paths.count({1, 2}));
  EXPECT_TRUE(paths.count({3, 0}));
  EXPECT_FALSE(paths.count({0, 2}));
  EXPECT_FALSE(paths.count({1, 1}));
  // Length-1 sequences are just the used predicates on edges.
  EXPECT_EQ(transition_sequences(m, 1).size(), 4u);
}

TEST(Ops, Subsequences) {
  const std::vector<PredId> seq = {0, 0, 1, 2, 2, 3};
  const auto subs = subsequences(seq, 2);
  EXPECT_EQ(subs.size(), 5u);  // {(0,0), (0,1), (1,2), (2,2), (2,3)}
  EXPECT_TRUE(subs.count({0, 0}));
  EXPECT_TRUE(subs.count({2, 3}));
  EXPECT_TRUE(subsequences(seq, 7).empty());
  EXPECT_TRUE(subsequences(seq, 0).empty());
}

TEST(Ops, CanonicalizeDropsUnreachableAndRenumbers) {
  Nfa m(5, 3);
  m.add_transition(3, 0, 4);
  m.add_transition(4, 1, 3);
  m.add_transition(1, 0, 2);  // unreachable island
  m.set_pred_names({"a", "b"});
  const Nfa canon = canonicalize(m);
  EXPECT_EQ(canon.num_states(), 2u);
  EXPECT_EQ(canon.initial(), 0u);
  EXPECT_EQ(canon.num_transitions(), 2u);
}

TEST(Isomorphism, DetectsRenaming) {
  const Nfa a = counter_like();
  // Same structure, states permuted.
  Nfa b(4, 2);
  b.add_transition(2, 0, 2);
  b.add_transition(2, 1, 0);
  b.add_transition(0, 2, 3);
  b.add_transition(3, 2, 3);
  b.add_transition(3, 3, 1);
  b.add_transition(1, 0, 2);
  b.set_pred_names({"up", "peak", "down", "trough"});
  EXPECT_TRUE(isomorphic(a, b));
  EXPECT_TRUE(isomorphic_by_pred_id(a, b));
}

TEST(Isomorphism, RejectsDifferentStructure) {
  const Nfa a = counter_like();
  Nfa c = counter_like();
  c.add_transition(1, 3, 0);  // extra edge
  EXPECT_FALSE(isomorphic(a, c));

  Nfa d(4, 0);  // same sizes, different wiring
  d.add_transition(0, 0, 1);
  d.add_transition(1, 1, 2);
  d.add_transition(2, 2, 3);
  d.add_transition(3, 3, 0);
  d.add_transition(0, 2, 0);
  d.add_transition(2, 0, 2);
  d.set_pred_names({"up", "peak", "down", "trough"});
  EXPECT_FALSE(isomorphic(a, d));
}

TEST(Isomorphism, MatchesByNameAcrossVocabularies) {
  Nfa a(2, 0);
  a.add_transition(0, 0, 1);
  a.set_pred_names({"go"});
  Nfa b(2, 0);
  b.add_transition(0, 5, 1);
  std::vector<std::string> names(6);
  names[5] = "go";
  b.set_pred_names(names);
  EXPECT_TRUE(isomorphic(a, b));
  EXPECT_FALSE(isomorphic_by_pred_id(a, b));
}

TEST(Dot, ContainsStatesAndMergedLabels) {
  Nfa m(2, 0);
  m.add_transition(0, 0, 1);
  m.add_transition(0, 1, 1);
  m.set_pred_names({"a", "b"});
  const std::string dot = to_dot(m, "g");
  EXPECT_NE(dot.find("digraph g"), std::string::npos);
  EXPECT_NE(dot.find("q1 -> q2"), std::string::npos);
  EXPECT_NE(dot.find("a\\nb"), std::string::npos);  // parallel edges merged
  EXPECT_NE(dot.find("__start -> q1"), std::string::npos);
}

TEST(Dot, TextRendering) {
  const std::string text = to_text(counter_like());
  EXPECT_NE(text.find("states: 4"), std::string::npos);
  EXPECT_NE(text.find("q1 --[up]--> q1"), std::string::npos);
}

}  // namespace
}  // namespace t2m
