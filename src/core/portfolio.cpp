#include "src/core/portfolio.h"

#include <algorithm>

namespace t2m {

std::vector<PortfolioVariant> portfolio_configs(const LearnerConfig& base,
                                                std::size_t k) {
  k = std::max<std::size_t>(k, 2);
  std::vector<PortfolioVariant> out;
  out.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    PortfolioVariant v;
    v.config = base;
    v.config.portfolio = 0;  // no recursion: a worker never races again
    // A proof sink is a sequential text stream owned by one solver: racing
    // lanes would interleave it into garbage, so lanes never log.
    v.config.solver.proof_log = nullptr;
    switch (i % 4) {
      case 0:
        // The caller's own configuration, verbatim.
        v.name = base.persistent_solver ? "persistent" : "fresh";
        break;
      case 1:
        // The opposite solving mode: fresh-per-N and persistent meet the
        // candidate models of one N in different orders, so their refinement
        // trajectories (and the models they return) differ.
        v.config.persistent_solver = !base.persistent_solver;
        v.name = v.config.persistent_solver ? "persistent" : "fresh";
        break;
      case 2:
        // Agile restarts + inverted phase default.
        v.config.solver.restart_base = 50;
        v.config.solver.default_phase = !base.solver.default_phase;
        v.name = "agile-restarts";
        break;
      case 3:
        // Conservative restarts + a dash of random polarity.
        v.config.solver.restart_base = 400;
        v.config.solver.random_polarity_permille =
            std::max<std::uint32_t>(base.solver.random_polarity_permille, 20);
        v.name = "slow-restarts-random";
        break;
    }
    if (i >= 4) {
      // Further lanes: reseeded randomised copies of the four archetypes.
      v.config.solver.seed = base.solver.seed + 0x9e3779b97f4a7c15ULL * i;
      v.config.solver.random_polarity_permille =
          std::max<std::uint32_t>(v.config.solver.random_polarity_permille, 10);
      v.name += "-s" + std::to_string(i);
    }
    out.push_back(std::move(v));
  }
  return out;
}

}  // namespace t2m
