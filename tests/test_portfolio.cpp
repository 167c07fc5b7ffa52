// Portfolio CEGIS driver: racing solver configurations must agree on the
// learned state count, record per-configuration stats, cancel losers through
// the stop flag, and leave the winner's artefacts intact. Plus the solver
// knobs the portfolio diversifies.

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>

#include "src/abstraction/abstraction.h"
#include "src/core/learner.h"
#include "src/core/portfolio.h"
#include "src/sim/basic/counter.h"
#include "src/sim/rtlinux/workloads.h"
#include "src/sim/serial/serial_port.h"

namespace t2m {
namespace {

TEST(PortfolioConfigs, GeneratesDistinctNamedLanes) {
  LearnerConfig base;
  const auto variants = portfolio_configs(base, 6);
  ASSERT_EQ(variants.size(), 6u);
  for (const auto& v : variants) {
    EXPECT_FALSE(v.name.empty());
    EXPECT_EQ(v.config.portfolio, 0u) << "workers must not recurse";
  }
  // Lane 0 is the base configuration; lane 1 flips the solving mode.
  EXPECT_EQ(variants[0].config.persistent_solver, base.persistent_solver);
  EXPECT_EQ(variants[1].config.persistent_solver, !base.persistent_solver);
  // Reseeded lanes actually differ in seed.
  EXPECT_NE(variants[4].config.solver.seed, variants[0].config.solver.seed);
}

TEST(PortfolioConfigs, ClampsToARace) {
  EXPECT_EQ(portfolio_configs(LearnerConfig{}, 0).size(), 2u);
  EXPECT_EQ(portfolio_configs(LearnerConfig{}, 1).size(), 2u);
}

TEST(Portfolio, LearnsSameStateCountAsSequential) {
  for (const Trace& trace :
       {sim::generate_counter_trace({}), sim::generate_serial_trace({})}) {
    LearnerConfig config;
    const LearnResult reference = ModelLearner(config).learn(trace);
    ASSERT_TRUE(reference.success);

    LearnerConfig race = config;
    race.portfolio = 4;
    const LearnResult raced = ModelLearner(race).learn(trace);
    ASSERT_TRUE(raced.success);
    // Any winning configuration finds the same (minimal) state count; the
    // wiring may differ between configurations.
    EXPECT_EQ(raced.states, reference.states);

    // Per-configuration stats: exactly one winner, every lane recorded.
    ASSERT_EQ(raced.stats.portfolio.size(), 4u);
    int winners = 0;
    for (const auto& entry : raced.stats.portfolio) {
      if (entry.winner) {
        ++winners;
        EXPECT_TRUE(entry.finished);
        EXPECT_EQ(entry.states, raced.states);
      }
      EXPECT_FALSE(entry.name.empty());
    }
    EXPECT_EQ(winners, 1);
    // Headline counters aggregate the whole race: at least the winner's own
    // SAT calls are in there.
    std::size_t winner_calls = 0;
    for (const auto& entry : raced.stats.portfolio) {
      if (entry.winner) winner_calls = entry.sat_calls;
    }
    EXPECT_GE(raced.stats.sat_calls, winner_calls);
  }
}

TEST(Portfolio, RtlinuxRaceAgreesWithSequential) {
  const Trace trace = sim::generate_full_coverage_sched_trace(20165);
  LearnerConfig config;
  const LearnResult reference = ModelLearner(config).learn(trace);
  LearnerConfig race = config;
  race.portfolio = 3;
  const LearnResult raced = ModelLearner(race).learn(trace);
  ASSERT_TRUE(reference.success);
  ASSERT_TRUE(raced.success);
  EXPECT_EQ(raced.states, reference.states);
}

TEST(Portfolio, CallerStopFlagCancelsTheWholeRace) {
  // LearnerConfig::stop must keep working when the portfolio substitutes
  // its own race flag: the driver relays the caller's flag into the race.
  std::atomic<bool> stop{true};
  LearnerConfig config;
  config.stop = &stop;
  config.portfolio = 3;
  const LearnResult result =
      ModelLearner(config).learn(sim::generate_counter_trace({}));
  EXPECT_FALSE(result.success);
  EXPECT_TRUE(result.cancelled);
  ASSERT_EQ(result.stats.portfolio.size(), 3u);
  for (const auto& entry : result.stats.portfolio) {
    EXPECT_FALSE(entry.winner);
    EXPECT_FALSE(entry.finished);
  }
}

TEST(Portfolio, StopFlagCancelsLearn) {
  // A pre-raised stop flag cancels the run before any real work.
  std::atomic<bool> stop{true};
  LearnerConfig config;
  config.stop = &stop;
  const LearnResult result =
      ModelLearner(config).learn(sim::generate_counter_trace({}));
  EXPECT_FALSE(result.success);
  EXPECT_TRUE(result.cancelled);
  EXPECT_TRUE(result.timed_out);
}

TEST(Portfolio, SolverKnobsKeepVerdictsIdentical) {
  // The diversification axes change the search path, never the verdict or
  // the minimal state count.
  const Trace trace = sim::generate_counter_trace({});
  LearnerConfig base;
  const LearnResult reference = ModelLearner(base).learn(trace);
  ASSERT_TRUE(reference.success);
  for (const auto& variant : portfolio_configs(base, 4)) {
    const LearnResult got = ModelLearner(variant.config).learn(trace);
    ASSERT_TRUE(got.success) << variant.name;
    EXPECT_EQ(got.states, reference.states) << variant.name;
  }
}

// --- learner-level early stop ---------------------------------------------

TEST(CoreDrivenStop, NormalRunsNeverFireAndStaySuccessful) {
  LearnerConfig config;
  ASSERT_TRUE(config.core_driven_stop);  // default on
  const LearnResult result = ModelLearner(config).learn(sim::generate_counter_trace({}));
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.stats.core_stops, 0u);
}

}  // namespace
}  // namespace t2m
