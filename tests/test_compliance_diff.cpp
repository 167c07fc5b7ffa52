// Differential test of the cached one-pass compliance engine against the
// original materialise-and-set_difference pipeline, which is kept in
// automaton/ops as the reference semantics (S_l \ P_l).

#include <gtest/gtest.h>

#include <algorithm>

#include "src/automaton/ops.h"
#include "src/core/compliance.h"
#include "src/util/rng.h"

namespace t2m {
namespace {

/// The seed implementation, verbatim: materialise both sets, subtract.
ComplianceResult reference_check(const Nfa& model, const std::vector<PredId>& seq,
                                 std::size_t l) {
  ComplianceResult result;
  const auto model_seqs = transition_sequences(model, l);
  const auto trace_seqs = subsequences(seq, l);
  result.model_sequences = model_seqs.size();
  result.trace_sequences = trace_seqs.size();
  std::set_difference(model_seqs.begin(), model_seqs.end(), trace_seqs.begin(),
                      trace_seqs.end(),
                      std::inserter(result.invalid_sequences,
                                    result.invalid_sequences.begin()));
  result.compliant = result.invalid_sequences.empty();
  return result;
}

Nfa random_nfa(Rng& rng, std::size_t max_states, std::size_t num_preds,
               PredId pred_offset = 0) {
  const std::size_t states = 1 + rng.below(max_states);
  Nfa m(states, 0);
  const std::size_t transitions = rng.below(states * num_preds + 1);
  for (std::size_t t = 0; t < transitions; ++t) {
    m.add_transition(rng.below(states), pred_offset + rng.below(num_preds),
                     rng.below(states));
  }
  return m;
}

std::vector<PredId> random_seq(Rng& rng, std::size_t max_len, std::size_t num_preds,
                               PredId pred_offset = 0) {
  std::vector<PredId> seq(rng.below(max_len + 1));
  for (auto& p : seq) p = pred_offset + rng.below(num_preds);
  return seq;
}

void expect_identical(const ComplianceResult& got, const ComplianceResult& want,
                      const std::string& what) {
  EXPECT_EQ(got.compliant, want.compliant) << what;
  EXPECT_EQ(got.model_sequences, want.model_sequences) << what;
  EXPECT_EQ(got.trace_sequences, want.trace_sequences) << what;
  EXPECT_EQ(got.invalid_sequences, want.invalid_sequences) << what;
}

TEST(ComplianceDiff, RandomisedAgainstReference) {
  // >= 1000 randomised cases across window lengths, including sequences
  // shorter than l.
  Rng rng(2024);
  int cases = 0;
  for (std::size_t l = 1; l <= 4; ++l) {
    for (int round = 0; round < 250; ++round) {
      const std::size_t num_preds = 1 + rng.below(5);
      const Nfa m = random_nfa(rng, 5, num_preds);
      const std::vector<PredId> seq = random_seq(rng, 12, num_preds);
      const ComplianceResult got = check_compliance(m, seq, l);
      const ComplianceResult want = reference_check(m, seq, l);
      expect_identical(got, want,
                       "l=" + std::to_string(l) + " round=" + std::to_string(round));
      ++cases;
    }
  }
  EXPECT_GE(cases, 1000);
}

TEST(ComplianceDiff, ModelPredicatesOutsideTraceRange) {
  // Model predicates larger than anything in the trace force the packed
  // fast path to bail out per-word; verdicts must still match.
  Rng rng(7);
  for (int round = 0; round < 200; ++round) {
    const Nfa m = random_nfa(rng, 4, 3, /*pred_offset=*/rng.below(2) * 1000);
    const std::vector<PredId> seq = random_seq(rng, 10, 3);
    for (std::size_t l = 1; l <= 3; ++l) {
      expect_identical(check_compliance(m, seq, l), reference_check(m, seq, l),
                       "round=" + std::to_string(round) + " l=" + std::to_string(l));
    }
  }
}

TEST(ComplianceDiff, WideWindowsUseVectorFallback) {
  // Large predicate ids and long windows exceed the 64-bit packed budget;
  // the hashed-vector fallback must agree with the reference too.
  Rng rng(13);
  for (int round = 0; round < 100; ++round) {
    const PredId offset = 1 + (1u << 20);
    const Nfa m = random_nfa(rng, 4, 3, offset);
    const std::vector<PredId> seq = random_seq(rng, 16, 3, offset);
    for (const std::size_t l : {3u, 5u, 8u}) {
      expect_identical(check_compliance(m, seq, l), reference_check(m, seq, l),
                       "round=" + std::to_string(round) + " l=" + std::to_string(l));
    }
  }
}

TEST(ComplianceDiff, CheckerReuseMatchesSingleShot) {
  // One persistent checker (as the learner uses) across many candidate
  // models equals constructing it fresh every time.
  Rng rng(5);
  const std::vector<PredId> seq = random_seq(rng, 40, 4);
  const ComplianceChecker checker(seq, 2);
  for (int round = 0; round < 100; ++round) {
    const Nfa m = random_nfa(rng, 6, 4);
    expect_identical(checker.check(m), reference_check(m, seq, 2),
                     "round=" + std::to_string(round));
  }
}

}  // namespace
}  // namespace t2m
