// Differential tests for the streaming trace pipeline: LineReader (mmap and
// istream fallback), streaming event abstraction, StreamingSegmenter,
// ComplianceWindowBuilder and ModelLearner::learn_from_stream must be
// byte-for-byte interchangeable with the in-memory reference path.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/abstraction/abstraction.h"
#include "src/abstraction/event_abstraction.h"
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

TEST(ComplianceChecker, FromSegmentsMatchesSequenceWhenLAtMostW) {
  // For l <= w every length-l window of P lies inside a distinct length-w
  // window (or inside P when |P| < w), so P_l built from the segment set is
  // P_l built from P. The unsegmented run's one segment is P itself, so
  // there any l works.
  Rng rng(31);
  for (int round = 0; round < 200; ++round) {
    const std::size_t w = 1 + rng.below(5);
    const std::size_t l = 1 + rng.below(w);
    const std::size_t alphabet = 1 + rng.below(5);
    const auto seq = random_sequence(rng, rng.below(40), alphabet);
    const ComplianceChecker batch(seq, l);
    const ComplianceChecker from_segments =
        ComplianceChecker::from_windows(segment_sequence(seq, w), l);
    const ComplianceChecker from_whole =
        ComplianceChecker::from_windows(whole_sequence(seq), 1 + rng.below(6));
    const ComplianceChecker whole_batch(seq, from_whole.window_length());
    ASSERT_EQ(from_segments.trace_sequences(), batch.trace_sequences());
    ASSERT_EQ(from_whole.trace_sequences(), whole_batch.trace_sequences());

    Nfa model(1 + rng.below(3));
    const std::size_t edges = rng.below(6);
    for (std::size_t e = 0; e < edges; ++e) {
      model.add_transition(rng.below(model.num_states()),
                           static_cast<PredId>(rng.below(alphabet + 1)),
                           rng.below(model.num_states()));
    }
    EXPECT_EQ(from_segments.check(model).invalid_sequences,
              batch.check(model).invalid_sequences);
    EXPECT_EQ(from_whole.check(model).invalid_sequences,
              whole_batch.check(model).invalid_sequences);
  }
}

/// Writes `trace` as an ftrace log and learns it through both paths: the
/// in-memory reference (read the whole file back, abstract, learn) and the
/// stream (mmap line cursor + one-pass abstraction). Returns {reference,
/// streamed}.
std::pair<LearnResult, LearnResult> learn_in_memory_and_streamed(const Trace& trace,
                                                                 const LearnerConfig& config) {
  std::ostringstream os;
  write_ftrace(os, trace);
  const TempFile file(os.str());
  std::ifstream is(file.path());
  const Trace read_back = read_ftrace(is);
  const ModelLearner learner(config);
  LearnResult reference = learner.learn(read_back);
  LineReader lines(file.path());
  EXPECT_TRUE(lines.mapped());
  FtracePredStream stream(lines);
  LearnResult streamed = learner.learn_from_stream(stream);
  return {std::move(reference), std::move(streamed)};
}

/// Drives both learn paths over `trace`; the learned artefacts must match
/// byte for byte.
void expect_stream_matches_in_memory(const Trace& trace, const LearnerConfig& config) {
  const auto [reference, streamed] = learn_in_memory_and_streamed(trace, config);

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

TEST(StreamPipeline, ComplianceLongerThanWindowBuildsTraceWindowsFromSequence) {
  // For l > w the segments do not hold every length-l window of P, so P_l
  // is built from P and the stream keeps P even with acceptance off. Both
  // paths must learn the same model against the same P_l.
  sim::PatternEventConfig gen;
  gen.events = 2000;
  gen.bursts = 1;
  gen.burst_length = 2;
  gen.burst_prob = 0.05;
  const Trace trace = sim::generate_pattern_event_trace(gen);
  for (const bool acceptance : {false, true}) {
    SCOPED_TRACE(acceptance ? "acceptance on" : "acceptance off");
    LearnerConfig config;
    config.window = 2;
    config.compliance_length = 4;
    config.require_trace_acceptance = acceptance;
    config.initial_states = sim::pattern_generator_states(gen);
    const auto [reference, streamed] = learn_in_memory_and_streamed(trace, config);
    ASSERT_TRUE(reference.success);
    ASSERT_TRUE(streamed.success);
    EXPECT_EQ(streamed.states, reference.states);
    EXPECT_EQ(streamed.model.transitions(), reference.model.transitions());
    EXPECT_EQ(streamed.stats.sat_calls, reference.stats.sat_calls);
    ASSERT_FALSE(streamed.preds.seq.empty());
    EXPECT_EQ(streamed.preds.seq, reference.preds.seq);
    const ComplianceChecker reference_windows(reference.preds.seq, config.compliance_length);
    const ComplianceChecker streamed_windows(streamed.preds.seq, config.compliance_length);
    EXPECT_EQ(streamed_windows.trace_sequences(), reference_windows.trace_sequences());
    EXPECT_TRUE(reference_windows.check(streamed.model).compliant);
    EXPECT_TRUE(reference_windows.check(reference.model).compliant);
  }
}

TEST(StreamPipeline, ComplianceUpToWindowDropsSequenceWithAcceptanceOff) {
  // For l <= w P_l comes from the segments, so with acceptance off nothing
  // needs P and the stream must not keep it, l == w included.
  sim::PatternEventConfig gen;
  gen.events = 2000;
  const Trace trace = sim::generate_pattern_event_trace(gen);
  for (const std::size_t l : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
    SCOPED_TRACE("l = " + std::to_string(l));
    LearnerConfig config;
    config.window = 3;
    config.compliance_length = l;
    config.require_trace_acceptance = false;
    config.initial_states = sim::pattern_generator_states(gen);
    const auto [reference, streamed] = learn_in_memory_and_streamed(trace, config);
    ASSERT_TRUE(reference.success);
    ASSERT_TRUE(streamed.success);
    EXPECT_TRUE(streamed.preds.seq.empty());
    EXPECT_EQ(streamed.states, reference.states);
    EXPECT_EQ(streamed.model.transitions(), reference.model.transitions());
    EXPECT_EQ(streamed.stats.sequence_length, reference.stats.sequence_length);
  }
}

TEST(StreamPipeline, UnsegmentedStreamKeepsSequenceWithAcceptanceOff) {
  // The unsegmented run's one segment is P itself, so the stream keeps P
  // whatever the acceptance setting, and P_l comes from that segment.
  sim::PatternEventConfig gen;
  gen.events = 300;
  LearnerConfig config;
  config.segmented = false;
  config.require_trace_acceptance = false;
  config.initial_states = sim::pattern_generator_states(gen);
  const auto [reference, streamed] =
      learn_in_memory_and_streamed(sim::generate_pattern_event_trace(gen), config);
  ASSERT_TRUE(reference.success);
  ASSERT_TRUE(streamed.success);
  EXPECT_EQ(streamed.states, reference.states);
  EXPECT_EQ(streamed.model.transitions(), reference.model.transitions());
  EXPECT_EQ(streamed.preds.seq, reference.preds.seq);
  EXPECT_EQ(streamed.stats.segments, 1u);
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

/// One random line of a hostile ftrace document: every shape the parser
/// accepts, the near misses it must reject, and the noise around them.
/// Events come from a small pool, so spellings repeat (the memo's hit
/// path) and the same symbol arrives spelled raw, %-escaped and in both
/// shapes.
std::string hostile_ftrace_line(Rng& rng) {
  static const char* const kEvents[] = {"sched_waking", "sched_switch", "irq", "a b",
                                        "c:d",          "50%",          "%20", "x-1"};
  static const char* const kComms[] = {"pi_stress", "Web Content", "Web \t  Content",
                                       "kworker/0:1", "<idle>", "a-b"};
  const std::string event = kEvents[rng.below(std::size(kEvents))];
  const std::string comm = kComms[rng.below(std::size(kComms))];
  const std::string pid = std::to_string(rng.below(5000));
  const std::string cpu = "[00" + std::to_string(rng.below(4)) + "]";
  const std::string ts =
      std::to_string(rng.below(1000)) + "." + std::to_string(rng.below(1000000));
  switch (rng.below(13)) {
    case 0:
      return comm + "-" + pid + " " + cpu + " d..2 " + ts + ": " + event + ": comm=x pid=9";
    case 1:  // trace-cmd report: no flags column
      return comm + "-" + pid + " " + cpu + " " + ts + ": " + event + ": prev=y";
    case 2:
      return ts + " " + escape_ftrace_symbol(event);
    case 3:  // details faking the full shape's tail geometry
      return ts + " " + escape_ftrace_symbol(event) + " [0] d..2 2.0: note";
    case 4:
      return ts + " " + escape_ftrace_symbol(event) + " [k=v] more: detail: x";
    case 5:  // digit-free timestamps are data
      return ". " + escape_ftrace_symbol(event);
    case 6:
      return "... " + escape_ftrace_symbol(event) + " detail";
    case 7:
      return "# tracer: nop";
    case 8:
      return "";
    case 9:
      return " \t ";
    case 10:  // raw spelling, surrounding whitespace
      return "  " + ts + "\t" + event + "  ";
    case 11:  // a timestamp-led line whose head carries a -pid suffix
      return "1.5 " + comm + "-" + pid + " " + cpu + " 2.0: " + event;
    default:  // an empty full-shape event
      return comm + "-" + pid + " " + cpu + " " + ts + ": : detail";
  }
}

TEST(StreamPipeline, FtraceStreamMatchesBatchReaderOnHostileDocuments) {
  // The stream (LineReader + the line parser + the spelling memo) must give
  // the ids, symbol table and display names of read_ftrace +
  // abstract_event_trace, task filter or none, on every document.
  Rng rng(4242);
  for (int round = 0; round < 300; ++round) {
    std::string doc;
    const std::size_t lines = rng.below(60);
    for (std::size_t i = 0; i < lines; ++i) {
      doc += hostile_ftrace_line(rng);
      if (i + 1 < lines || rng.below(2) == 0) doc += rng.below(3) == 0 ? "\r\n" : "\n";
    }
    static const char* const kFilters[] = {"", "", "pi_stress", "Web Content", "a-b"};
    const std::string filter = kFilters[rng.below(std::size(kFilters))];
    SCOPED_TRACE("round " + std::to_string(round) + ", filter '" + filter + "'");

    std::istringstream is(doc);
    const Trace trace = read_ftrace(is, filter);
    LineReader reader(doc, LineReader::from_memory);
    FtracePredStream stream(reader, filter);
    std::vector<PredId> seq;
    const auto drain = [&] {
      while (const auto id = stream.next()) seq.push_back(*id);
    };
    if (trace.size() < 2) {
      EXPECT_THROW(drain(), std::invalid_argument);
      continue;
    }
    const PredicateSequence reference = abstract_event_trace(trace, {});
    drain();
    EXPECT_EQ(seq, reference.seq);
    EXPECT_EQ(stream.schema().var(0).symbols, trace.schema().var(0).symbols);
    const PredicateSequence streamed = stream.take_preds();
    EXPECT_EQ(streamed.display_names, reference.display_names);
    EXPECT_EQ(streamed.vocab.size(), reference.vocab.size());
  }
}

}  // namespace
}  // namespace t2m
