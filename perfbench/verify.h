#ifndef T2M_PERFBENCH_VERIFY_H
#define T2M_PERFBENCH_VERIFY_H

// Independent check of a learned model against its predicate sequence. It
// re-derives every property from the transitions alone and shares no code
// with the learner's own checks (Nfa::accepts, ComplianceChecker), so a bug
// there cannot hide a bad model here.

#include <cstddef>
#include <string>
#include <vector>

#include "src/automaton/nfa.h"

namespace perfbench {

struct ModelCheck {
  /// Some run of the model from its initial state consumes the whole
  /// sequence; otherwise replay_stuck_at is the first step with no move.
  bool replays = false;
  std::size_t replay_stuck_at = 0;
  /// Every length-l path of the model, from any state, spells a word that
  /// occurs contiguously in the sequence; otherwise bad_word is one that
  /// does not.
  bool paths_in_trace = false;
  std::vector<t2m::PredId> bad_word;
  /// The model has at most `bound` states.
  bool within_bound = false;

  bool ok() const { return replays && paths_in_trace && within_bound; }
  /// "ok", or the first failed property with its witness.
  std::string describe() const;
};

ModelCheck check_model(const t2m::Nfa& model, const std::vector<t2m::PredId>& seq,
                       std::size_t l, std::size_t bound);

}  // namespace perfbench

#endif  // T2M_PERFBENCH_VERIFY_H
