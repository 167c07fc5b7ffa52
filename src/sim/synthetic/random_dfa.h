#ifndef T2M_SIM_SYNTHETIC_RANDOM_DFA_H
#define T2M_SIM_SYNTHETIC_RANDOM_DFA_H

#include <cstddef>
#include <utility>
#include <vector>

#include "src/trace/trace.h"
#include "src/util/rng.h"

namespace t2m::sim {

/// A random DFA with as many symbols as states and out-degree 2: the
/// ground-truth workload of exact DFA identification. A random Hamiltonian
/// cycle keeps it strongly connected, so a long walk visits every state; the
/// second edge of each state carries a different symbol to a random target.
struct RandomDfa {
  std::size_t states = 0;
  std::size_t initial = 0;
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> out;  // (symbol, dst)
};

/// One step of a walk: the symbol read and the state reached.
using WalkStep = std::pair<std::size_t, std::size_t>;

RandomDfa random_dfa(Rng& rng, std::size_t states);

/// A walk of `length` steps from the initial state, each step taking one of
/// the two out-edges uniformly.
std::vector<WalkStep> random_walk(Rng& rng, const RandomDfa& dfa, std::size_t length);

/// The walk as a trace over one categorical variable `ev` with symbols
/// a0..a{states-1}. The first row is the initial valuation, so the learner's
/// predicate sequence has one step fewer than the walk.
Trace walk_trace(const RandomDfa& dfa, const std::vector<WalkStep>& walk);

/// walk_trace of a `length`-step walk over random_dfa(rng, states), with
/// both drawn from Rng(seed).
Trace random_dfa_walk_trace(std::size_t states, std::size_t length, std::uint64_t seed);

}  // namespace t2m::sim

#endif  // T2M_SIM_SYNTHETIC_RANDOM_DFA_H
