// Differential test of the persistent-solver learn path (one guarded SAT
// instance across the whole N-increment loop) against the fresh-CSP-per-N
// reference, in the style of tests/test_compliance_diff.cpp.
//
// The two paths may find different (equally valid) intermediate models, so
// their refinement trajectories can differ; what is invariant is the final
// verdict: the minimal compliant state count N that replays the trace. Both
// returned models must additionally be deterministic, embed every segment,
// pass the same compliance check, and accept the whole trace.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/core/compliance.h"
#include "src/core/learner.h"
#include "src/core/segmentation.h"
#include "src/sim/basic/integrator.h"
#include "src/trace/recorder.h"
#include "src/util/rng.h"

namespace t2m {
namespace {

Trace event_trace(const std::vector<std::string>& events,
                  const std::vector<std::string>& alphabet) {
  TraceRecorder rec;
  std::vector<std::string> symbols = alphabet;
  symbols.insert(symbols.begin(), "__start");
  const VarIndex ev = rec.declare_cat("ev", std::move(symbols), "__start");
  rec.commit();
  for (const auto& e : events) {
    rec.set_sym(ev, e);
    rec.commit();
  }
  return rec.take();
}

Trace random_trace(Rng& rng, std::size_t min_len, std::size_t max_len,
                   std::size_t alphabet_size) {
  static const std::vector<std::string> kSymbols = {"a", "b", "c", "d", "e"};
  const std::vector<std::string> alphabet(kSymbols.begin(),
                                          kSymbols.begin() + alphabet_size);
  const std::size_t len = min_len + rng.below(max_len - min_len + 1);
  std::vector<std::string> events;
  events.reserve(len);
  // Mix of structured repetition (so small automata exist and refinement has
  // something to converge to) and noise (so compliance counterexamples and
  // state growth actually occur).
  std::vector<std::string> motif;
  const std::size_t motif_len = 2 + rng.below(4);
  for (std::size_t i = 0; i < motif_len; ++i) {
    motif.push_back(alphabet[rng.below(alphabet.size())]);
  }
  std::size_t at = 0;
  while (events.size() < len) {
    if (rng.chance(0.8)) {
      events.push_back(motif[at++ % motif.size()]);
    } else {
      events.push_back(alphabet[rng.below(alphabet.size())]);
    }
  }
  return event_trace(events, alphabet);
}

void expect_equivalent(const LearnResult& persistent, const LearnResult& fresh,
                       const LearnerConfig& config, const std::string& what) {
  ASSERT_EQ(persistent.success, fresh.success) << what;
  ASSERT_EQ(persistent.timed_out, fresh.timed_out) << what;
  if (!persistent.success) return;
  EXPECT_EQ(persistent.states, fresh.states) << what;
  for (const LearnResult* r : {&persistent, &fresh}) {
    EXPECT_TRUE(r->model.deterministic_per_predicate()) << what;
    const ComplianceResult c =
        check_compliance(r->model, r->preds.seq, config.compliance_length);
    EXPECT_TRUE(c.compliant) << what;
    EXPECT_TRUE(r->model.accepts(r->preds.seq)) << what << " model does not replay P";
    const std::vector<Segment> segments =
        segment_sequence(r->preds.seq, config.window);
    for (const Segment& seg : segments) {
      std::set<StateId> all;
      for (StateId s = 0; s < r->model.num_states(); ++s) all.insert(s);
      EXPECT_TRUE(r->model.accepts_from(all, seg)) << what << " segment not embedded";
    }
  }
}

TEST(PersistentDiff, RandomisedAgainstFreshPerN) {
  // >= 500 randomised predicate sequences through both learn paths,
  // including runs that exercise acceptance refinement (on by default) and
  // state growth from N = 2.
  Rng rng(4242);
  int cases = 0;
  for (int round = 0; round < 500; ++round) {
    const std::size_t alphabet_size = 2 + rng.below(3);
    const Trace t = random_trace(rng, 6, 28, alphabet_size);
    LearnerConfig config;
    config.max_states = 12;
    config.window = 2 + rng.below(2);
    LearnerConfig fresh_config = config;
    fresh_config.persistent_solver = false;
    config.persistent_solver = true;
    // Tight headroom on some rounds forces the mid-run capacity rebuild.
    config.state_headroom = rng.chance(0.3) ? 1 : 6;
    const LearnResult persistent = ModelLearner(config).learn(t);
    const LearnResult fresh = ModelLearner(fresh_config).learn(t);
    expect_equivalent(persistent, fresh, config,
                      "round=" + std::to_string(round));
    if (persistent.success) {
      // Every state increment was served by an in-place grow or (beyond the
      // headroom) by one capacity rebuild — never by a per-N reconstruction:
      // builds - 1 = capacity rebuilds. Every prefix refinement extended the
      // live CSP in place.
      EXPECT_EQ(persistent.stats.csp_builds - 1,
                persistent.stats.state_increments - persistent.stats.csp_grows)
          << "round=" << round;
      EXPECT_EQ(persistent.stats.prefix_extensions, persistent.stats.prefix_refinements)
          << "round=" << round;
    }
    if (fresh.success) {
      // The fresh path builds once per state count; its refinements extend
      // the CSP of that state count in place too.
      EXPECT_EQ(fresh.stats.csp_builds, fresh.stats.state_increments + 1) << "round=" << round;
      EXPECT_EQ(fresh.stats.prefix_extensions, fresh.stats.prefix_refinements)
          << "round=" << round;
    }
    ++cases;
  }
  EXPECT_GE(cases, 500);
}

TEST(PersistentDiff, AcceptanceRefinementPathsAgree) {
  // Fresh and persistent reach the same N, and both models replay P, on
  // random traces and on every integrator prefix length Fig. 7 uses
  // (2^6 .. 2^15) in the learner's default configuration.
  Rng rng(77);
  std::size_t refined = 0;
  const auto run_both = [&refined](const Trace& t, const LearnerConfig& config,
                                   const std::string& what) {
    LearnerConfig fresh_config = config;
    fresh_config.persistent_solver = false;
    const LearnResult persistent = ModelLearner(config).learn(t);
    const LearnResult fresh = ModelLearner(fresh_config).learn(t);
    expect_equivalent(persistent, fresh, config, what);
    EXPECT_FALSE(persistent.stats.acceptance_relaxed) << what;
    EXPECT_FALSE(fresh.stats.acceptance_relaxed) << what;
    refined += persistent.stats.prefix_refinements + fresh.stats.prefix_refinements;
    return persistent.success;
  };
  for (int round = 0; round < 40; ++round) {
    LearnerConfig config;
    config.max_states = 10;
    run_both(random_trace(rng, 8, 24, 3), config, "random round=" + std::to_string(round));
  }
  sim::IntegratorConfig sim_config;
  sim_config.length = 1u << 15;
  const Trace integrator = sim::generate_integrator_trace(sim_config);
  for (int e = 6; e <= 15; ++e) {
    LearnerConfig config;
    config.abstraction.input_vars = {sim::integrator_input_var()};
    const std::string what = "fig7 len=" + std::to_string(1u << e);
    EXPECT_TRUE(run_both(integrator.prefix(1u << e), config, what)) << what;
  }
  EXPECT_GT(refined, 0u);
}

TEST(PersistentDiff, TimeoutPathReportsCleanly) {
  // Both paths must degrade to a clean timed_out result under an
  // effectively-zero budget — no crash, no stale model.
  Rng rng(11);
  const Trace t = random_trace(rng, 400, 600, 4);
  for (const bool persistent : {true, false}) {
    LearnerConfig config;
    config.persistent_solver = persistent;
    config.timeout_seconds = 1e-9;
    const LearnResult r = ModelLearner(config).learn(t);
    EXPECT_FALSE(r.success) << "persistent=" << persistent;
    EXPECT_TRUE(r.timed_out) << "persistent=" << persistent;
  }
}

TEST(PersistentDiff, PersistentReusesOneSolver) {
  // A growth-heavy input must report one CSP build and N-1 grows (no
  // capacity rebuilds at default headroom), while the fresh path builds one
  // CSP per state count.
  const Trace t = event_trace({"a", "b", "c", "d", "a", "b", "c", "d"},
                              {"a", "b", "c", "d"});
  LearnerConfig config;
  const LearnResult persistent = ModelLearner(config).learn(t);
  ASSERT_TRUE(persistent.success);
  EXPECT_EQ(persistent.stats.csp_builds, 1u);
  EXPECT_EQ(persistent.stats.csp_grows, persistent.stats.state_increments);
  config.persistent_solver = false;
  const LearnResult fresh = ModelLearner(config).learn(t);
  ASSERT_TRUE(fresh.success);
  EXPECT_EQ(fresh.stats.csp_grows, 0u);
  EXPECT_EQ(fresh.stats.csp_builds, fresh.stats.state_increments + 1);
}

}  // namespace
}  // namespace t2m
