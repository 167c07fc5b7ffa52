#include "src/sim/synthetic/random_dfa.h"

#include <sstream>
#include <utility>

#include "src/trace/text_io.h"

namespace t2m::sim {

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

std::vector<WalkStep> random_walk(Rng& rng, const RandomDfa& dfa, std::size_t length) {
  std::vector<WalkStep> walk;
  std::size_t q = dfa.initial;
  for (std::size_t i = 0; i < length; ++i) {
    const auto& [symbol, dst] = dfa.out[q][rng.below(2)];
    walk.emplace_back(symbol, dst);
    q = dst;
  }
  return walk;
}

Trace walk_trace(const RandomDfa& dfa, const std::vector<WalkStep>& walk) {
  std::ostringstream text;
  text << "# t2m-trace v1\n# var ev cat";
  for (std::size_t s = 0; s < dfa.states; ++s) text << " a" << s;
  text << '\n';
  for (const auto& step : walk) text << 'a' << step.first << '\n';
  std::istringstream in(text.str());
  return read_trace_text(in);
}

Trace random_dfa_walk_trace(std::size_t states, std::size_t length, std::uint64_t seed) {
  Rng rng(seed);
  const RandomDfa dfa = random_dfa(rng, states);
  return walk_trace(dfa, random_walk(rng, dfa, length));
}

}  // namespace t2m::sim
