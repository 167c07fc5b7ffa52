// Sharded parallel ingest vs the sequential streaming pipeline: for every
// shard count the merged artefacts — vocabulary, display names, segment list
// (content AND first-occurrence order), compliance window set, retained
// sequence — must be byte-identical, and learn_from_ftrace must produce the
// same model transition for transition.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/learner.h"
#include "src/parallel/sharded_ingest.h"
#include "src/sim/rtlinux/workloads.h"
#include "src/sim/synthetic/pattern_events.h"
#include "src/trace/ftrace_io.h"
#include "src/trace/mmap_io.h"
#include "src/util/rng.h"

namespace t2m {
namespace {

class TempFile {
public:
  explicit TempFile(const std::string& content) {
    path_ = "/tmp/t2m_sharded_test_" + std::to_string(counter_++) + ".txt";
    std::ofstream os(path_, std::ios::binary);
    os << content;
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

private:
  static inline int counter_ = 0;
  std::string path_;
};

/// Simplified-shape ftrace content for an event-name sequence.
std::string ftrace_content(const std::vector<std::string>& events) {
  std::ostringstream os;
  for (std::size_t i = 0; i < events.size(); ++i) {
    os << (100 + i) << ".000001 " << events[i] << "\n";
  }
  return os.str();
}

void expect_ingest_identical(const par::ShardedIngestResult& got,
                             const par::ShardedIngestResult& want,
                             const std::string& context) {
  EXPECT_EQ(got.sequence_length, want.sequence_length) << context;
  EXPECT_EQ(got.preds.vocab.size(), want.preds.vocab.size()) << context;
  EXPECT_EQ(got.preds.display_names, want.preds.display_names) << context;
  EXPECT_EQ(got.preds.seq, want.preds.seq) << context;
  // Segment list: content and first-occurrence order.
  EXPECT_EQ(got.segments, want.segments) << context;
  EXPECT_EQ(got.compliance.trace_sequences(), want.compliance.trace_sequences())
      << context;
  EXPECT_EQ(got.schema.var(0).symbols, want.schema.var(0).symbols) << context;
}

void check_all_shard_counts(const std::string& content,
                            par::ShardedIngestOptions options,
                            std::size_t max_shards = 8) {
  options.shards = 1;
  const par::ShardedIngestResult reference =
      par::sharded_ftrace_ingest(content, options);
  for (std::size_t shards = 2; shards <= max_shards; ++shards) {
    options.shards = shards;
    options.threads = 3;
    const par::ShardedIngestResult got = par::sharded_ftrace_ingest(content, options);
    expect_ingest_identical(got, reference,
                            "shards=" + std::to_string(shards) +
                                " w=" + std::to_string(options.window) +
                                " l=" + std::to_string(options.compliance_length));
  }
}

TEST(ShardedIngest, BoundaryWindowAppearsExactlyOnce) {
  // Events chosen so the windows straddling every possible cut are UNIQUE in
  // the trace: if a shard cut dropped or duplicated a boundary window, the
  // segment list would differ from the sequential one.
  std::vector<std::string> events;
  for (int i = 0; i < 40; ++i) events.push_back("ev" + std::to_string(i));
  const std::string content = ftrace_content(events);
  par::ShardedIngestOptions options;
  options.window = 3;
  options.compliance_length = 2;
  options.keep_sequence = true;
  check_all_shard_counts(content, options);
}

TEST(ShardedIngest, BoundaryWindowDuplicatingInteriorIsDeduped) {
  // A short repeating alphabet: windows straddling a cut also occur inside
  // shards, so the merge must dedup them against the interior lists while
  // preserving sequential first-occurrence order.
  std::vector<std::string> events;
  for (int i = 0; i < 60; ++i) events.push_back("ev" + std::to_string(i % 3));
  const std::string content = ftrace_content(events);
  par::ShardedIngestOptions options;
  options.window = 3;
  options.compliance_length = 2;
  options.keep_sequence = true;
  check_all_shard_counts(content, options);
}

TEST(ShardedIngest, RandomisedDifferential) {
  Rng rng(404);
  for (int round = 0; round < 30; ++round) {
    const std::size_t length = 2 + rng.below(120);
    const std::size_t alphabet = 1 + rng.below(6);
    std::vector<std::string> events;
    events.reserve(length);
    for (std::size_t i = 0; i < length; ++i) {
      // += form: GCC 12's -Wrestrict false-fires on "e" + to_string(...)
      // at -O2 (PR105651).
      std::string name = "e";
      name += std::to_string(rng.below(alphabet));
      events.push_back(std::move(name));
    }
    par::ShardedIngestOptions options;
    options.window = 1 + rng.below(5);
    options.compliance_length = rng.below(4);  // includes l == 0
    options.keep_sequence = rng.chance(0.5);
    options.segmented = rng.chance(0.9);
    check_all_shard_counts(ftrace_content(events), options, 6);
  }
}

TEST(ShardedIngest, ShorterThanWindowFormsOneSegment) {
  const std::string content = ftrace_content({"a", "b", "c", "d"});
  // 3 steps < w=5: one whole-sequence segment, as segment_sequence.
  par::ShardedIngestOptions options;
  options.window = 5;
  options.compliance_length = 2;
  options.keep_sequence = true;
  check_all_shard_counts(content, options, 4);
}

TEST(ShardedIngest, CommentOnlyLeadingShardFallsBackCorrectly)
{
  // A long comment prefix pushes every event past the first cut: the shard
  // that scanned in fresh-start mode saw nothing. The implementation must
  // detect this and still produce sequential-identical artefacts.
  std::string content;
  for (int i = 0; i < 50; ++i) content += "# padding comment line with some text\n";
  content += ftrace_content({"x", "y", "x", "z", "y", "x"});
  par::ShardedIngestOptions options;
  options.window = 2;
  options.compliance_length = 2;
  options.keep_sequence = true;
  check_all_shard_counts(content, options, 4);
}

TEST(ShardedIngest, TaskFilterApplies) {
  std::string content;
  for (int i = 0; i < 30; ++i) {
    const char* task = (i % 3 == 0) ? "keep" : "drop";
    content += std::string(task) + "-1 [000] " + std::to_string(100 + i) +
               ".5: ev" + std::to_string(i % 4) + ": detail\n";
  }
  par::ShardedIngestOptions options;
  options.window = 2;
  options.compliance_length = 2;
  options.keep_sequence = true;
  options.task_filter = "keep";
  check_all_shard_counts(content, options, 4);
}

TEST(ShardedIngest, TooShortThrowsLikeStreaming) {
  par::ShardedIngestOptions options;
  options.shards = 3;
  EXPECT_THROW(par::sharded_ftrace_ingest(ftrace_content({"only"}), options),
               std::invalid_argument);
  EXPECT_THROW(par::sharded_ftrace_ingest("", options), std::invalid_argument);
  options.window = 0;
  EXPECT_THROW(par::sharded_ftrace_ingest(ftrace_content({"a", "b"}), options),
               std::invalid_argument);
}

TEST(ShardedIngest, LearnFromFtraceMatchesStreamingOnRandomisedTraces) {
  Rng rng(77);
  for (int round = 0; round < 3; ++round) {
    sim::PatternEventConfig gen;
    gen.events = 500 + rng.below(2000);
    gen.pattern_length = 3 + rng.below(3);
    gen.bursts = rng.below(2);
    gen.burst_length = 2 + rng.below(3);
    gen.burst_prob = 0.05;
    gen.seed = rng.next();
    std::ostringstream os;
    write_ftrace(os, sim::generate_pattern_event_trace(gen));
    const TempFile file(os.str());

    LearnerConfig config;
    config.window = 2 + rng.below(3);
    const ModelLearner sequential(config);
    const LearnResult reference = sequential.learn_from_ftrace(file.path());

    LearnerConfig parallel_config = config;
    parallel_config.threads = 4;
    const ModelLearner parallel(parallel_config);
    const LearnResult sharded = parallel.learn_from_ftrace(file.path());

    ASSERT_EQ(sharded.success, reference.success);
    EXPECT_EQ(sharded.states, reference.states);
    EXPECT_EQ(sharded.stats.sequence_length, reference.stats.sequence_length);
    EXPECT_EQ(sharded.stats.segments, reference.stats.segments);
    EXPECT_EQ(sharded.stats.sat_calls, reference.stats.sat_calls);
    EXPECT_EQ(sharded.preds.seq, reference.preds.seq);
    EXPECT_EQ(sharded.preds.display_names, reference.preds.display_names);
    EXPECT_EQ(sharded.model.num_states(), reference.model.num_states());
    EXPECT_EQ(sharded.model.transitions(), reference.model.transitions());
    EXPECT_EQ(sharded.model.pred_names(), reference.model.pred_names());
  }
}

TEST(ShardedIngest, LearnFromFtraceMatchesStreamingOnRtlinux) {
  std::ostringstream os;
  write_ftrace(os, sim::generate_full_coverage_sched_trace(20165));
  const TempFile file(os.str());

  LearnerConfig config;
  const ModelLearner sequential(config);
  const LearnResult reference = sequential.learn_from_ftrace(file.path());

  LearnerConfig parallel_config = config;
  parallel_config.threads = 4;
  const LearnResult sharded = ModelLearner(parallel_config).learn_from_ftrace(file.path());

  ASSERT_TRUE(reference.success);
  ASSERT_TRUE(sharded.success);
  EXPECT_EQ(sharded.states, reference.states);
  EXPECT_EQ(sharded.model.transitions(), reference.model.transitions());
  EXPECT_EQ(sharded.preds.seq, reference.preds.seq);
  // --threads widens only the ingest: the search runs the same solves.
  const auto search_work = [](const LearnStats& s) {
    return std::vector<std::uint64_t>{s.sat_calls, s.sat_conflicts, s.csp_builds,
                                      s.csp_grows, s.forbidden_words};
  };
  EXPECT_EQ(search_work(sharded.stats), search_work(reference.stats));
}

TEST(MappedFileView, ServesWholeFile) {
  const std::string content = "alpha\nbeta\ngamma";
  const TempFile file(content);
  const MappedFile mapped(file.path());
  EXPECT_EQ(mapped.view(), content);
  // Region cursors over sub-views serve exact lines.
  LineReader reader(mapped.view().substr(6), LineReader::from_memory);
  std::string_view line;
  ASSERT_TRUE(reader.next(line));
  EXPECT_EQ(line, "beta");
  ASSERT_TRUE(reader.next(line));
  EXPECT_EQ(line, "gamma");
  EXPECT_FALSE(reader.next(line));
}

}  // namespace
}  // namespace t2m
