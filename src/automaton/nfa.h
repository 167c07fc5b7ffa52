#ifndef T2M_AUTOMATON_NFA_H
#define T2M_AUTOMATON_NFA_H

#include <cstddef>
#include <set>
#include <span>
#include <string>
#include <vector>

namespace t2m {

/// State index within an automaton (0-based; the paper's q1..qN map to 0..N-1).
using StateId = std::size_t;
/// Index into the predicate vocabulary labelling the transitions.
using PredId = std::size_t;

struct Transition {
  StateId src = 0;
  PredId pred = 0;
  StateId dst = 0;

  friend bool operator==(const Transition& a, const Transition& b) {
    return a.src == b.src && a.pred == b.pred && a.dst == b.dst;
  }
  friend bool operator<(const Transition& a, const Transition& b) {
    if (a.src != b.src) return a.src < b.src;
    if (a.pred != b.pred) return a.pred < b.pred;
    return a.dst < b.dst;
  }
};

/// Non-deterministic finite automaton in the paper's sense: every state is
/// accepting and a word is rejected only by running into a dead end
/// (Definition 1). Transitions carry predicate-vocabulary indices; the
/// automaton itself is purely symbolic and evaluation against concrete trace
/// steps lives in automaton/ops and automaton/monitor.
class Nfa {
public:
  Nfa() = default;
  explicit Nfa(std::size_t num_states, StateId initial = 0);

  std::size_t num_states() const { return num_states_; }
  StateId initial() const { return initial_; }
  void set_initial(StateId s);

  /// Adds a transition (deduplicated). Grows the state count if needed.
  void add_transition(StateId src, PredId pred, StateId dst);
  const std::vector<Transition>& transitions() const { return transitions_; }
  std::size_t num_transitions() const { return transitions_.size(); }

  /// Optional human-readable predicate names, indexed by PredId; used by the
  /// DOT/ASCII exporters and the coverage comparison.
  void set_pred_names(std::vector<std::string> names) { pred_names_ = std::move(names); }
  const std::vector<std::string>& pred_names() const { return pred_names_; }
  std::string pred_name(PredId p) const;

  /// All successor states of `src` under predicate `pred`.
  std::vector<StateId> successors(StateId src, PredId pred) const;
  /// All transitions leaving `src` (indices into transitions()).
  std::vector<std::size_t> transitions_from(StateId src) const;

  /// True when no state has two transitions with the same predicate and
  /// different targets (the paper's "no wrong transition" condition).
  bool deterministic_per_predicate() const;

  /// NFA acceptance of a predicate word: some run from the initial state
  /// consumes every symbol. All states accept, so this is just "no dead end".
  bool accepts(std::span<const PredId> word) const;
  /// Acceptance starting from an arbitrary state set.
  bool accepts_from(const std::set<StateId>& start, std::span<const PredId> word) const;
  /// Length of the longest prefix of `word` some run from the initial state
  /// consumes: word.size() exactly when accepts(word), otherwise the index
  /// of the first step every run dead-ends on. A deterministic automaton is
  /// walked through a dense (state x predicate) successor table in O(|word|);
  /// a nondeterministic one falls back to the set simulation of
  /// accepts_from.
  std::size_t replay_length(std::span<const PredId> word) const;

  /// States reachable from the initial state.
  std::set<StateId> reachable_states() const;

  /// Distinct predicates used on transitions.
  std::set<PredId> used_predicates() const;

private:
  /// Set simulation: steps of `word` consumed before the frontier empties.
  std::size_t replay_length_from(const std::set<StateId>& start,
                                 std::span<const PredId> word) const;

  std::size_t num_states_ = 0;
  StateId initial_ = 0;
  std::vector<Transition> transitions_;
  std::vector<std::string> pred_names_;
};

}  // namespace t2m

#endif  // T2M_AUTOMATON_NFA_H
