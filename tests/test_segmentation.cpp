#include <gtest/gtest.h>

#include "src/core/segmentation.h"
#include "src/util/rng.h"

namespace t2m {
namespace {

TEST(Segmentation, UniqueWindowsInFirstOccurrenceOrder) {
  const std::vector<PredId> seq = {0, 1, 0, 1, 0, 1, 2};
  const auto segments = segment_sequence(seq, 3);
  ASSERT_EQ(segments.size(), 3u);
  EXPECT_EQ(segments[0], (Segment{0, 1, 0}));
  EXPECT_EQ(segments[1], (Segment{1, 0, 1}));
  EXPECT_EQ(segments[2], (Segment{0, 1, 2}));
}

TEST(Segmentation, RepetitionCollapses) {
  // A long periodic sequence yields a constant number of segments.
  std::vector<PredId> seq;
  for (int i = 0; i < 10000; ++i) seq.push_back(static_cast<PredId>(i % 4));
  const auto segments = segment_sequence(seq, 3);
  EXPECT_EQ(segments.size(), 4u);
}

TEST(Segmentation, ShortSequenceIsOneSegment) {
  const std::vector<PredId> seq = {0, 1};
  const auto segments = segment_sequence(seq, 3);
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0], seq);
}

TEST(Segmentation, ExactWindowLength) {
  const std::vector<PredId> seq = {0, 1, 2};
  const auto segments = segment_sequence(seq, 3);
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0], seq);
}

TEST(Segmentation, EmptyAndInvalid) {
  EXPECT_TRUE(segment_sequence({}, 3).empty());
  EXPECT_THROW(segment_sequence({0, 1}, 0), std::invalid_argument);
}

TEST(Segmentation, WholeSequenceMode) {
  const std::vector<PredId> seq = {0, 1, 0, 1};
  const auto whole = whole_sequence(seq);
  ASSERT_EQ(whole.size(), 1u);
  EXPECT_EQ(whole[0], seq);
  EXPECT_TRUE(whole_sequence({}).empty());
}

TEST(Segmentation, TotalTransitions) {
  const std::vector<PredId> seq = {0, 1, 0, 1, 0};
  EXPECT_EQ(total_transitions(segment_sequence(seq, 3)), 6u);   // 2 segments x 3
  EXPECT_EQ(total_transitions(whole_sequence(seq)), 5u);
}

TEST(Segmentation, WindowOneListsAlphabet) {
  const std::vector<PredId> seq = {2, 0, 1, 0, 2};
  const auto segments = segment_sequence(seq, 1);
  EXPECT_EQ(segments.size(), 3u);  // unique symbols, order of first occurrence
  EXPECT_EQ(segments[0], (Segment{2}));
}

TEST(Segmentation, StreamingMatchesBatchWhileDedupTableGrows) {
  // Thousands of distinct windows force the streaming dedup's hash table
  // through many doublings; repeats interleaved with them must still be
  // recognised after every rehash, for short and long windows alike.
  Rng rng(77);
  for (const std::size_t w : {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{8}}) {
    std::vector<PredId> seq;
    for (int i = 0; i < 20000; ++i) {
      seq.push_back(static_cast<PredId>(rng.below(i % 3 == 0 ? 4 : 60)));
    }
    StreamingSegmenter segmenter(w);
    for (const PredId p : seq) segmenter.push(p);
    const auto streamed = segmenter.take();
    EXPECT_GT(streamed.size(), w == 1 ? 50u : 1000u) << "w=" << w;
    EXPECT_EQ(streamed, segment_sequence(seq, w)) << "w=" << w;
  }
}

}  // namespace
}  // namespace t2m
