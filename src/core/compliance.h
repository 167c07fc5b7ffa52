#ifndef T2M_CORE_COMPLIANCE_H
#define T2M_CORE_COMPLIANCE_H

#include <cstdint>
#include <set>
#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/automaton/nfa.h"
#include "src/util/hash.h"
#include "src/util/stopwatch.h"
#include "src/util/window_dedup.h"

namespace t2m {

/// Result of the compliance check (Algorithm 1, lines 38-48): the candidate
/// model's transition sequences of length l must all occur as contiguous
/// subsequences of the predicate sequence P. Sequences in S_l \ P_l are
/// invalid and feed the refinement loop as forbidden-sequence constraints.
struct ComplianceResult {
  bool compliant = false;
  std::set<std::vector<PredId>> invalid_sequences;
  std::size_t model_sequences = 0;
  std::size_t trace_sequences = 0;
};

/// One-pass compliance engine. The trace window set P_l is invariant across
/// all refinement iterations of a learn run, so it is computed once at
/// construction — with a rolling packed-key hash when the windows fit in 64
/// bits, a hashed vector set otherwise — and every check() then streams the
/// candidate model's length-l paths by DFS, emitting only the missing words
/// instead of materialising the full S_l set and running set_difference.
/// Produces results identical to the original
/// transition_sequences/subsequences/set_difference pipeline.
class ComplianceChecker {
public:
  /// P_l of `seq`. Throws StatusError(parse_error) for l == 0.
  ComplianceChecker(const std::vector<PredId>& seq, std::size_t l);

  /// P_l as the length-l windows lying inside `windows`; a window shorter
  /// than l holds none. For l <= w the distinct length-w windows of P (the
  /// segment set, or P itself when |P| < w) hold every length-l window of
  /// P, so the learner builds P_l from its segments instead of from P. The
  /// sequence constructor is this over the one window P. Throws
  /// StatusError(parse_error) for l == 0.
  static ComplianceChecker from_windows(const std::vector<std::vector<PredId>>& windows,
                                        std::size_t l);

  ComplianceResult check(const Nfa& model) const;

  /// Cooperative wall-clock bound on check(): the DFS polls it every few
  /// thousand leaf words and throws StatusError(deadline_exceeded) when it
  /// expires. Defaults to never expiring.
  void set_deadline(const Deadline& deadline) { deadline_ = deadline; }

  std::size_t window_length() const { return l_; }
  /// |P_l|: number of distinct trace windows.
  std::size_t trace_sequences() const { return trace_windows_; }

private:
  explicit ComplianceChecker(std::size_t l) : l_(l) {}

  /// The one build routine of P_l: collects the length-l windows inside
  /// each of `windows`, packed when the largest id they hold allows.
  void build_windows(std::span<const std::vector<PredId>> windows);

  bool packed_usable(const Nfa& model) const;

  /// DFS over the model's length-l paths from every start state, counting
  /// the distinct words into result.model_sequences and collecting the words
  /// absent from P_l into result.invalid_sequences.
  void check_packed(const std::vector<std::vector<std::pair<PredId, StateId>>>& adj,
                    ComplianceResult& result) const;
  void check_vec(const std::vector<std::vector<std::pair<PredId, StateId>>>& adj,
                 ComplianceResult& result) const;

  std::size_t l_;
  Deadline deadline_;
  std::size_t trace_windows_ = 0;
  /// Packed representation: each window folds into one 64-bit key, built by
  /// a rolling shift over the sequence. Valid when l_ * bits_ <= 64.
  bool packed_ = false;
  std::uint32_t bits_ = 0;   ///< bits per predicate id
  std::uint64_t mask_ = 0;   ///< low l_*bits_ bits
  std::unordered_set<std::uint64_t> packed_windows_;
  /// Fallback for windows too wide to pack.
  std::unordered_set<std::vector<PredId>, VectorHash> vec_windows_;
};

/// Streaming construction of the trace window set P_l: push one PredId per
/// step and finish() yields a ComplianceChecker identical to constructing
/// one from the materialised sequence. The distinct length-l windows are
/// collected by the same StreamingWindowDedup the segmenter uses (see
/// src/util/window_dedup.h) and handed to ComplianceChecker::from_windows.
/// The learner itself takes P_l from its segment set; this builder serves
/// callers that want P_l alone from a stream.
class ComplianceWindowBuilder {
public:
  /// Throws StatusError(parse_error) for l == 0.
  explicit ComplianceWindowBuilder(std::size_t l);

  void push(PredId p) { dedup_.push(p); }

  /// Finalises and surrenders the checker. The builder is spent afterwards.
  ComplianceChecker finish();

private:
  std::size_t l_;
  StreamingWindowDedup<PredId> dedup_;
};

/// Convenience single-shot wrapper around ComplianceChecker; the learner
/// keeps a persistent checker instead, so P_l is computed once per run.
ComplianceResult check_compliance(const Nfa& model, const std::vector<PredId>& seq,
                                  std::size_t l);

}  // namespace t2m

#endif  // T2M_CORE_COMPLIANCE_H
