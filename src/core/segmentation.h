#ifndef T2M_CORE_SEGMENTATION_H
#define T2M_CORE_SEGMENTATION_H

#include <vector>

#include "src/automaton/nfa.h"
#include "src/util/window_dedup.h"

namespace t2m {

/// A segment: a contiguous window of the predicate sequence that the learned
/// automaton must realise as a transition path (Algorithm 1, line 16).
using Segment = std::vector<PredId>;

/// All unique sliding windows of `seq` of length `w` in first-occurrence
/// order. When seq is shorter than w the whole sequence forms one segment.
/// Uniqueness is the scalability lever evaluated in Table I / Fig. 7:
/// repeating trace patterns are processed once. A loop over
/// StreamingSegmenter, so the batch and the streaming learner share one
/// window dedup.
std::vector<Segment> segment_sequence(const std::vector<PredId>& seq, std::size_t w);

/// The non-segmented encoding: one segment spanning the entire sequence.
std::vector<Segment> whole_sequence(const std::vector<PredId>& seq);

/// The unique-window segmenter, fed one id at a time, for streams too long
/// to materialise: a StreamingWindowDedup (w-slot ring, O(1) rolling-hash
/// updates, in-ring compares, windows materialised only when new — see
/// src/util/window_dedup.h) holds O(w + dedup set) memory independent of
/// stream length. take() finalises and returns the segments in
/// first-occurrence order, including the short-stream case (≤ w events
/// form one whole-sequence segment).
class StreamingSegmenter {
public:
  explicit StreamingSegmenter(std::size_t w);

  void push(PredId p) { dedup_.push(p); }

  /// Finalises the stream and surrenders the segment set. The segmenter is
  /// spent afterwards.
  std::vector<Segment> take();

private:
  std::size_t w_;
  StreamingWindowDedup<PredId> dedup_;
};

/// Total transition count the segments induce (sum of segment lengths).
std::size_t total_transitions(const std::vector<Segment>& segments);

}  // namespace t2m

#endif  // T2M_CORE_SEGMENTATION_H
