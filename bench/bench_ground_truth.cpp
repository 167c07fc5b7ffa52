// Ground-truth hard set: 5000-event walks over random DFAs with 10, 12 and
// 14 states, seeds 1-6 (sim::random_dfa_walk_trace). The generating DFA
// bounds the learned N from above. Each case runs the configuration
// `t2m learn` runs (LearnerConfig{}: search from N = 2, persistent solver,
// trace acceptance) under a 40 s timeout per case. These walks are where the
// solver's heavy tail and the capacity rebuilds show; the perfbench corpus
// stops at 8 states. Takes a few minutes, so it is in neither Tier-1 nor
// the CI bench gate.
//
// Flags: --json FILE (per-case records: N, seconds, conflicts,
//        propagations, csp_builds, csp_grows).

#include <algorithm>
#include <iostream>
#include <string>

#include "bench/bench_common.h"
#include "src/sim/synthetic/random_dfa.h"
#include "src/util/cli.h"
#include "src/util/csv.h"

int main(int argc, char** argv) {
  using namespace t2m;
  const CliArgs args(argc, argv);
  constexpr double kTimeout = 40.0;
  constexpr std::size_t kEvents = 5000;

  bench::BenchResultsJson results;
  TableWriter table({"DFA states", "Seed", "N", "Seconds", "Conflicts", "Propagations",
                     "Builds", "Grows"});
  std::cout << "Ground-truth hard set -- random-DFA walks, " << kEvents << " events, "
            << "timeout " << format_double(kTimeout) << " s\n";
  double total_seconds = 0.0;
  double slowest = 0.0;
  for (const std::size_t states : {10u, 12u, 14u}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      LearnerConfig config;
      config.timeout_seconds = kTimeout;
      const LearnResult r =
          ModelLearner(config).learn(sim::random_dfa_walk_trace(states, kEvents, seed));
      const LearnStats& s = r.stats;
      table.add_row({std::to_string(states), std::to_string(seed),
                     r.success ? std::to_string(r.states) : "-",
                     bench::runtime_cell(r, kTimeout), std::to_string(s.sat_conflicts),
                     std::to_string(s.sat_propagations), std::to_string(s.csp_builds),
                     std::to_string(s.csp_grows)});
      results.add("ground_truth/states=" + std::to_string(states) +
                      "/seed=" + std::to_string(seed),
                  r);
      total_seconds += s.total_seconds;
      slowest = std::max(slowest, s.total_seconds);
    }
  }
  table.write_ascii(std::cout);
  std::cout << "summed " << format_double(total_seconds) << " s, slowest "
            << format_double(slowest) << " s\n";

  if (const auto json_path = args.get("json")) {
    if (!results.write_file(*json_path)) {
      std::cerr << "cannot write " << *json_path << "\n";
      return 1;
    }
    std::cout << "wrote per-case results to " << *json_path << "\n";
  }
  return 0;
}
