// Differential tests for the streaming trace pipeline: LineReader (mmap and
// istream fallback), streaming event abstraction, StreamingSegmenter,
// ComplianceWindowBuilder and ModelLearner::learn_from_stream must be
// byte-for-byte interchangeable with the in-memory reference path.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/abstraction/abstraction.h"
#include "src/abstraction/event_stream.h"
#include "src/core/compliance.h"
#include "src/core/learner.h"
#include "src/core/segmentation.h"
#include "src/sim/rtlinux/workloads.h"
#include "src/sim/synthetic/pattern_events.h"
#include "src/trace/ftrace_io.h"
#include "src/trace/mmap_io.h"
#include "src/trace/text_io.h"
#include "src/util/rng.h"

namespace t2m {
namespace {

/// RAII temp file seeded with `content`.
class TempFile {
public:
  explicit TempFile(const std::string& content, const char* tag = "t2m_stream_test") {
    path_ = std::string("/tmp/") + tag + "_" + std::to_string(counter_++) + ".txt";
    std::ofstream os(path_, std::ios::binary);
    os << content;
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

private:
  static inline int counter_ = 0;
  std::string path_;
};

std::vector<std::string> read_all_lines(LineReader& reader) {
  std::vector<std::string> lines;
  std::string_view line;
  while (reader.next(line)) lines.emplace_back(line);
  return lines;
}

TEST(LineReader, MmapAndIstreamAgree) {
  const std::string content = "first\nsecond line\n\nlast without newline";
  const TempFile file(content);
  LineReader mapped(file.path());
  EXPECT_TRUE(mapped.mapped());
  std::istringstream is(content);
  LineReader streamed(is);
  EXPECT_FALSE(streamed.mapped());
  const auto a = read_all_lines(mapped);
  const auto b = read_all_lines(streamed);
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), 4u);
  EXPECT_EQ(a[0], "first");
  EXPECT_EQ(a[2], "");
  EXPECT_EQ(a[3], "last without newline");
}

TEST(LineReader, StripsCrlf) {
  const TempFile file("a\r\nb\r\nplain\n");
  LineReader reader(file.path());
  EXPECT_EQ(read_all_lines(reader), (std::vector<std::string>{"a", "b", "plain"}));
}

TEST(LineReader, EmptyFile) {
  const TempFile file("");
  LineReader reader(file.path());
  std::string_view line;
  EXPECT_FALSE(reader.next(line));
}

TEST(LineReader, MissingFileThrows) {
  EXPECT_THROW(LineReader("/tmp/definitely_missing_t2m_file.txt"), std::runtime_error);
}

TEST(LineReader, LargeFileCrossesReleaseStride) {
  // > 8 MB so the mmap cursor releases consumed pages mid-stream; every
  // line must still come back intact.
  std::string content;
  content.reserve(10u << 20);
  for (int i = 0; i < 400000; ++i) {
    content += "line_" + std::to_string(i) + "_padding_padding\n";
  }
  const TempFile file(content);
  LineReader reader(file.path());
  std::string_view line;
  int count = 0;
  while (reader.next(line)) {
    ASSERT_TRUE(line.rfind("line_", 0) == 0) << "line " << count;
    ++count;
  }
  EXPECT_EQ(count, 400000);
  EXPECT_EQ(reader.bytes_read(), content.size());
}

std::vector<PredId> random_sequence(Rng& rng, std::size_t length, std::size_t alphabet) {
  std::vector<PredId> seq(length);
  for (auto& p : seq) p = static_cast<PredId>(rng.below(alphabet));
  return seq;
}

TEST(StreamingSegmenter, MatchesBatchOnRandomSequences) {
  Rng rng(2024);
  for (int round = 0; round < 200; ++round) {
    const std::size_t w = 1 + rng.below(5);
    const std::size_t length = rng.below(60);
    const std::size_t alphabet = 1 + rng.below(4);
    const auto seq = random_sequence(rng, length, alphabet);
    StreamingSegmenter segmenter(w);
    for (const PredId p : seq) segmenter.push(p);
    EXPECT_EQ(segmenter.take(), segment_sequence(seq, w))
        << "w=" << w << " length=" << length << " alphabet=" << alphabet;
  }
}

TEST(StreamingSegmenter, EdgeCases) {
  StreamingSegmenter empty(3);
  EXPECT_TRUE(empty.take().empty());

  // Shorter than w: the whole sequence is one segment, as in batch mode.
  StreamingSegmenter shorter(5);
  for (const PredId p : {1, 2, 3}) shorter.push(p);
  EXPECT_EQ(shorter.take(), (std::vector<Segment>{{1, 2, 3}}));

  // Exactly w.
  StreamingSegmenter exact(3);
  for (const PredId p : {7, 8, 9}) exact.push(p);
  EXPECT_EQ(exact.take(), (std::vector<Segment>{{7, 8, 9}}));

  EXPECT_THROW(StreamingSegmenter(0), std::invalid_argument);
}

TEST(ComplianceWindowBuilder, MatchesBatchChecker) {
  Rng rng(7);
  for (int round = 0; round < 100; ++round) {
    const std::size_t l = 1 + rng.below(3);
    const std::size_t length = rng.below(40);
    const std::size_t alphabet = 1 + rng.below(5);
    const auto seq = random_sequence(rng, length, alphabet);

    const ComplianceChecker batch(seq, l);
    ComplianceWindowBuilder builder(l);
    for (const PredId p : seq) builder.push(p);
    const ComplianceChecker streamed = builder.finish();

    ASSERT_EQ(streamed.trace_sequences(), batch.trace_sequences());
    ASSERT_EQ(streamed.window_length(), batch.window_length());

    // Probe both checkers with a random model; verdicts and missing-word
    // sets must coincide.
    Nfa model(1 + rng.below(3));
    const std::size_t edges = rng.below(6);
    for (std::size_t e = 0; e < edges; ++e) {
      model.add_transition(rng.below(model.num_states()),
                           static_cast<PredId>(rng.below(alphabet + 1)),
                           rng.below(model.num_states()));
    }
    const ComplianceResult a = batch.check(model);
    const ComplianceResult b = streamed.check(model);
    EXPECT_EQ(a.compliant, b.compliant);
    EXPECT_EQ(a.invalid_sequences, b.invalid_sequences);
    EXPECT_EQ(a.model_sequences, b.model_sequences);
    EXPECT_EQ(a.trace_sequences, b.trace_sequences);
  }
}

TEST(ComplianceWindowBuilder, ZeroLengthIsAParseError) {
  // l == 0 has no windows: every candidate would fail on the empty word and
  // the refinement loop would never converge. Both construction paths
  // reject it.
  const auto code = [](auto&& construct) {
    try {
      construct();
    } catch (const StatusError& e) {
      return e.code();
    }
    return ErrorCode::ok;
  };
  EXPECT_EQ(code([] { ComplianceWindowBuilder builder(0); }), ErrorCode::parse_error);
  EXPECT_EQ(code([] { const ComplianceChecker checker({0, 1, 0}, 0); }),
            ErrorCode::parse_error);
}

TEST(ComplianceWindowBuilder, WidePredicatesFallBackToVectorSet) {
  // Predicate ids too wide to pack into 64 bits force the hashed-vector
  // representation in both construction paths.
  std::vector<PredId> seq = {1ull << 40, 2, 1ull << 40, 3, 2, 1ull << 40};
  const std::size_t l = 3;
  const ComplianceChecker batch(seq, l);
  ComplianceWindowBuilder builder(l);
  for (const PredId p : seq) builder.push(p);
  const ComplianceChecker streamed = builder.finish();
  EXPECT_EQ(streamed.trace_sequences(), batch.trace_sequences());
  Nfa model(2);
  model.add_transition(0, 1ull << 40, 1);
  model.add_transition(1, 2, 0);
  model.add_transition(0, 3, 0);
  const ComplianceResult a = batch.check(model);
  const ComplianceResult b = streamed.check(model);
  EXPECT_EQ(a.compliant, b.compliant);
  EXPECT_EQ(a.invalid_sequences, b.invalid_sequences);
}

/// Writes `trace` as an ftrace log and drives both learn paths over it; the
/// learned artefacts must match byte for byte.
void expect_stream_matches_in_memory(const Trace& trace, const LearnerConfig& config) {
  std::ostringstream os;
  write_ftrace(os, trace);
  const TempFile file(os.str());

  // In-memory reference: read the whole file back, abstract, learn.
  std::ifstream is(file.path());
  const Trace read_back = read_ftrace(is);
  const ModelLearner learner(config);
  const LearnResult reference = learner.learn(read_back);

  // Streaming path: mmap line cursor + one-pass abstraction.
  LineReader lines(file.path());
  ASSERT_TRUE(lines.mapped());
  FtracePredStream stream(lines);
  const LearnResult streamed = learner.learn_from_stream(stream);

  ASSERT_EQ(streamed.success, reference.success);
  ASSERT_EQ(streamed.timed_out, reference.timed_out);
  EXPECT_EQ(streamed.states, reference.states);
  EXPECT_EQ(streamed.stats.sequence_length, reference.stats.sequence_length);
  EXPECT_EQ(streamed.stats.vocabulary_size, reference.stats.vocabulary_size);
  EXPECT_EQ(streamed.stats.segments, reference.stats.segments);
  EXPECT_EQ(streamed.stats.encoded_transitions, reference.stats.encoded_transitions);
  EXPECT_EQ(streamed.stats.sat_calls, reference.stats.sat_calls);
  EXPECT_EQ(streamed.stats.forbidden_words, reference.stats.forbidden_words);
  // The abstraction output must be identical: same interned sequence (when
  // the config retains it), same display names.
  EXPECT_EQ(streamed.preds.seq, reference.preds.seq);
  EXPECT_EQ(streamed.preds.display_names, reference.preds.display_names);
  EXPECT_EQ(streamed.preds.vocab.size(), reference.preds.vocab.size());
  // And the models themselves, transition for transition.
  EXPECT_EQ(streamed.model.num_states(), reference.model.num_states());
  EXPECT_EQ(streamed.model.transitions(), reference.model.transitions());
  EXPECT_EQ(streamed.model.pred_names(), reference.model.pred_names());
}

TEST(StreamPipeline, DifferentialOnRandomisedTraces) {
  Rng rng(11);
  for (int round = 0; round < 6; ++round) {
    sim::PatternEventConfig gen;
    gen.events = 500 + rng.below(3000);
    gen.pattern_length = 3 + rng.below(4);
    // At most one digression: with two the default-config state search from
    // N = 2 becomes a minutes-long SAT grind, which is a property of the
    // search, not of the ingest paths under test here.
    gen.bursts = rng.below(2);
    gen.burst_length = 2 + rng.below(3);
    gen.burst_prob = 0.05;
    gen.seed = rng.next();
    LearnerConfig config;
    config.window = 2 + rng.below(3);
    expect_stream_matches_in_memory(sim::generate_pattern_event_trace(gen), config);
  }
}

TEST(StreamPipeline, DifferentialWithAcceptanceOffDropsSequence) {
  sim::PatternEventConfig gen;
  gen.events = 2000;
  LearnerConfig config;
  config.require_trace_acceptance = false;
  // Ingest is under test, not state-count discovery: start at the
  // generator's own automaton size, as the bench does.
  config.initial_states = sim::pattern_generator_states(gen);
  const Trace trace = sim::generate_pattern_event_trace(gen);

  std::ostringstream os;
  write_ftrace(os, trace);
  const TempFile file(os.str());
  std::ifstream is(file.path());
  const Trace read_back = read_ftrace(is);
  const ModelLearner learner(config);
  const LearnResult reference = learner.learn(read_back);

  LineReader lines(file.path());
  FtracePredStream stream(lines);
  const LearnResult streamed = learner.learn_from_stream(stream);

  ASSERT_TRUE(reference.success);
  ASSERT_TRUE(streamed.success);
  EXPECT_EQ(streamed.states, reference.states);
  EXPECT_EQ(streamed.model.transitions(), reference.model.transitions());
  // With acceptance off nothing needs the sequence: the streaming path must
  // not have materialised it.
  EXPECT_TRUE(streamed.preds.seq.empty());
  EXPECT_EQ(streamed.stats.sequence_length, reference.stats.sequence_length);
}

TEST(StreamPipeline, DifferentialOnRtlinuxTrace) {
  LearnerConfig config;
  expect_stream_matches_in_memory(sim::generate_full_coverage_sched_trace(20165), config);
}

TEST(StreamPipeline, VectorPredStreamMatchesLearnFromSequence) {
  sim::PatternEventConfig gen;
  gen.events = 1500;
  gen.bursts = 1;
  gen.burst_prob = 0.05;
  const Trace trace = sim::generate_pattern_event_trace(gen);
  const PredicateSequence preds = abstract_trace(trace, {});
  const ModelLearner learner;

  const LearnResult reference = learner.learn_from_sequence(preds, trace.schema());
  VectorPredStream stream(preds, trace.schema());
  const LearnResult streamed = learner.learn_from_stream(stream);

  ASSERT_EQ(streamed.success, reference.success);
  EXPECT_EQ(streamed.states, reference.states);
  EXPECT_EQ(streamed.model.transitions(), reference.model.transitions());
  EXPECT_EQ(streamed.preds.seq, reference.preds.seq);
}

TEST(StreamPipeline, TextTraceStreamMatchesBatchReader) {
  sim::PatternEventConfig gen;
  gen.events = 800;
  std::ostringstream os;
  sim::write_pattern_event_text(os, gen);
  const TempFile file(os.str());

  const Trace read_back = read_trace_file(file.path());
  const PredicateSequence reference = abstract_trace(read_back, {});

  LineReader lines(file.path());
  TextTracePredStream stream(lines);
  std::vector<PredId> seq;
  while (const auto id = stream.next()) seq.push_back(*id);
  const PredicateSequence streamed = stream.take_preds();

  EXPECT_EQ(seq, reference.seq);
  EXPECT_EQ(streamed.display_names, reference.display_names);
  EXPECT_EQ(streamed.vocab.size(), reference.vocab.size());
  EXPECT_EQ(stream.schema().var(0).symbols, read_back.schema().var(0).symbols);
}

TEST(StreamPipeline, TextTraceStreamRejectsNonCategorical) {
  const TempFile file("# var x int\n1\n2\n");
  LineReader lines(file.path());
  TextTracePredStream stream(lines);
  EXPECT_THROW(stream.next(), std::invalid_argument);
}

TEST(StreamPipeline, TooShortStreamThrowsLikeAbstraction) {
  // Zero and one observation must fail exactly as abstract_trace does.
  for (const char* content : {"", "0.1 only_event\n"}) {
    const TempFile file(content);
    LineReader lines(file.path());
    FtracePredStream stream(lines);
    EXPECT_THROW(
        {
          while (stream.next()) {
          }
        },
        std::invalid_argument)
        << "content: '" << content << "'";
  }
}

TEST(StreamPipeline, FtraceStreamHonoursTaskFilter) {
  const std::string content =
      "pi_stress-1234 [000] d..2 100.000001: sched_waking: comm=x\n"
      "other-77 [000] d..2 100.000002: sched_other: cpu=0\n"
      "pi_stress-1234 [000] d..2 100.000003: sched_switch_in: prev=y\n"
      "pi_stress-1234 [000] d..2 100.000004: sched_waking: comm=x\n";
  const TempFile file(content);

  std::istringstream is(content);
  const Trace reference_trace = read_ftrace(is, "pi_stress");
  const PredicateSequence reference = abstract_trace(reference_trace, {});

  LineReader lines(file.path());
  FtracePredStream stream(lines, "pi_stress");
  std::vector<PredId> seq;
  while (const auto id = stream.next()) seq.push_back(*id);
  EXPECT_EQ(seq, reference.seq);
  const PredicateSequence streamed = stream.take_preds();
  EXPECT_EQ(streamed.display_names, reference.display_names);
}

}  // namespace
}  // namespace t2m
