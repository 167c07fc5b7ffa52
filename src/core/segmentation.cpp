#include "src/core/segmentation.h"

#include <algorithm>
#include <stdexcept>

#include "src/obs/trace.h"

namespace t2m {

std::vector<Segment> segment_sequence(const std::vector<PredId>& seq, std::size_t w) {
  if (w == 0) throw std::invalid_argument("segment_sequence: window must be positive");
  T2M_SPAN("segment.sequence", "length", seq.size(), "window", w);
  // The batch form of the one window dedup: O(w + distinct windows) memory
  // and allocation-free duplicates, in first-occurrence order.
  StreamingSegmenter segmenter(w);
  for (const PredId p : seq) segmenter.push(p);
  return segmenter.take();
}

std::vector<Segment> whole_sequence(const std::vector<PredId>& seq) {
  if (seq.empty()) return {};
  return {seq};
}

StreamingSegmenter::StreamingSegmenter(std::size_t w) : w_(w), dedup_(std::max<std::size_t>(w, 1)) {
  if (w == 0) throw std::invalid_argument("StreamingSegmenter: window must be positive");
}

std::vector<Segment> StreamingSegmenter::take() {
  if (dedup_.pushed() == 0) return {};
  if (dedup_.pushed() < w_) {
    // Short stream: the whole sequence forms one segment, exactly as
    // segment_sequence returns for seq.size() <= w. (pushed == w already
    // produced that single window via the main path.)
    return {dedup_.short_prefix()};
  }
  return dedup_.take_windows();
}

std::size_t total_transitions(const std::vector<Segment>& segments) {
  std::size_t total = 0;
  for (const Segment& s : segments) total += s.size();
  return total;
}

}  // namespace t2m
