#include "src/automaton/nfa.h"

#include <algorithm>
#include <stdexcept>

namespace t2m {

Nfa::Nfa(std::size_t num_states, StateId initial)
    : num_states_(num_states), initial_(initial) {
  if (num_states_ == 0) throw std::invalid_argument("Nfa: need at least one state");
  if (initial_ >= num_states_) throw std::invalid_argument("Nfa: initial state out of range");
}

void Nfa::set_initial(StateId s) {
  if (s >= num_states_) throw std::invalid_argument("Nfa::set_initial: out of range");
  initial_ = s;
}

void Nfa::add_transition(StateId src, PredId pred, StateId dst) {
  num_states_ = std::max(num_states_, std::max(src, dst) + 1);
  const Transition t{src, pred, dst};
  if (std::find(transitions_.begin(), transitions_.end(), t) == transitions_.end()) {
    transitions_.push_back(t);
  }
}

std::string Nfa::pred_name(PredId p) const {
  if (p < pred_names_.size()) return pred_names_[p];
  // Built via += rather than "p" + to_string(p): GCC 12's -Wrestrict
  // false-fires on the temporary-concatenation form at -O2 (PR105651).
  std::string name = "p";
  name += std::to_string(p);
  return name;
}

std::vector<StateId> Nfa::successors(StateId src, PredId pred) const {
  std::vector<StateId> out;
  for (const Transition& t : transitions_) {
    if (t.src == src && t.pred == pred) out.push_back(t.dst);
  }
  return out;
}

std::vector<std::size_t> Nfa::transitions_from(StateId src) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < transitions_.size(); ++i) {
    if (transitions_[i].src == src) out.push_back(i);
  }
  return out;
}

bool Nfa::deterministic_per_predicate() const {
  for (std::size_t i = 0; i < transitions_.size(); ++i) {
    for (std::size_t j = i + 1; j < transitions_.size(); ++j) {
      if (transitions_[i].src == transitions_[j].src &&
          transitions_[i].pred == transitions_[j].pred &&
          transitions_[i].dst != transitions_[j].dst) {
        return false;
      }
    }
  }
  return true;
}

bool Nfa::accepts(std::span<const PredId> word) const {
  return replay_length(word) == word.size();
}

bool Nfa::accepts_from(const std::set<StateId>& start, std::span<const PredId> word) const {
  return replay_length_from(start, word) == word.size();
}

std::size_t Nfa::replay_length(std::span<const PredId> word) const {
  std::size_t num_preds = 0;
  for (const Transition& t : transitions_) num_preds = std::max(num_preds, t.pred + 1);
  // succ[state * num_preds + pred]; kNone marks a dead end.
  constexpr StateId kNone = static_cast<StateId>(-1);
  std::vector<StateId> succ(num_states_ * num_preds, kNone);
  for (const Transition& t : transitions_) {
    StateId& slot = succ[t.src * num_preds + t.pred];
    if (slot != kNone && slot != t.dst) return replay_length_from({initial_}, word);
    slot = t.dst;
  }
  StateId state = initial_;
  for (std::size_t i = 0; i < word.size(); ++i) {
    if (word[i] >= num_preds) return i;
    state = succ[state * num_preds + word[i]];
    if (state == kNone) return i;
  }
  return word.size();
}

std::size_t Nfa::replay_length_from(const std::set<StateId>& start,
                                    std::span<const PredId> word) const {
  std::set<StateId> frontier = start;
  for (std::size_t i = 0; i < word.size(); ++i) {
    std::set<StateId> next;
    for (const Transition& t : transitions_) {
      if (t.pred == word[i] && frontier.count(t.src) > 0) next.insert(t.dst);
    }
    if (next.empty()) return i;
    frontier = std::move(next);
  }
  return word.size();
}

std::set<StateId> Nfa::reachable_states() const {
  std::set<StateId> seen = {initial_};
  std::vector<StateId> stack = {initial_};
  while (!stack.empty()) {
    const StateId s = stack.back();
    stack.pop_back();
    for (const Transition& t : transitions_) {
      if (t.src == s && seen.insert(t.dst).second) stack.push_back(t.dst);
    }
  }
  return seen;
}

std::set<PredId> Nfa::used_predicates() const {
  std::set<PredId> out;
  for (const Transition& t : transitions_) out.insert(t.pred);
  return out;
}

}  // namespace t2m
