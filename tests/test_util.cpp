#include <gtest/gtest.h>

#include <cctype>
#include <clocale>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>

#include "src/trace/ftrace_io.h"
#include "src/util/cli.h"
#include "src/util/csv.h"
#include "src/util/rng.h"
#include "src/util/stopwatch.h"
#include "src/util/string_utils.h"

namespace t2m {
namespace {

TEST(StringUtils, Split) {
  EXPECT_EQ(split("a,b,,c", ','), (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split_ws("  a\t b \n"), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(split_ws("   ").empty());
}

TEST(StringUtils, TrimAndAffixes) {
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_TRUE(starts_with("abcdef", "abc"));
  EXPECT_FALSE(starts_with("ab", "abc"));
  EXPECT_TRUE(ends_with("abcdef", "def"));
  EXPECT_FALSE(ends_with("ef", "def"));
}

TEST(StringUtils, AsciiClassesMatchCLocaleForEveryByte) {
  // A C++ program starts in the "C" locale; the helpers must reproduce the
  // <cctype> classes they replaced on the trace readers' hot paths.
  ASSERT_STREQ(std::setlocale(LC_CTYPE, nullptr), "C");
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    EXPECT_EQ(is_ascii_space(c), std::isspace(b) != 0) << "byte " << b;
    EXPECT_EQ(is_ascii_digit(c), std::isdigit(b) != 0) << "byte " << b;
  }
}

TEST(StringUtils, TakeWsTokenWalksTokens) {
  std::string_view rest = " \tab  c\v\fd \r";
  EXPECT_EQ(take_ws_token(rest), "ab");
  EXPECT_EQ(take_ws_token(rest), "c");
  EXPECT_EQ(take_ws_token(rest), "d");
  EXPECT_EQ(take_ws_token(rest), "");
  EXPECT_TRUE(take_ws_token(rest).empty());
}

struct FtraceLineCase {
  const char* line;
  bool ok;
  const char* task;
  const char* event;
};

TEST(FtraceLineParse, KeepsResultsOnEveryShape) {
  // The lines of the FtraceIo.* cases in test_trace.cpp, plus full-shape
  // lines whose comm holds spaces (read back single-spaced) and whose
  // details hold further ':' fields.
  const FtraceLineCase cases[] = {
      {"# tracer: nop", false, "", ""},
      {"", false, "", ""},
      {"   \t ", false, "", ""},
      {"pi_stress-1234 [000] d..2 100.000001: sched_waking: comm=x pid=9", true,
       "pi_stress", "sched_waking"},
      {"pi_stress-1234 [000] d..2 100.000002: sched_switch_in: prev=y", true, "pi_stress",
       "sched_switch_in"},
      {"other-77 [000] d..2 100.000003: sched_entry: cpu=0", true, "other", "sched_entry"},
      {"0.1 sched_waking", true, "", "sched_waking"},
      {"0.2 sched_switch_in extra detail", true, "", "sched_switch_in"},
      {". foo", false, "", ""},
      {"... foo", false, "", ""},
      {".. sched_waking detail", false, "", ""},
      {"0.5 sched_waking", true, "", "sched_waking"},
      {"12 sched_waking", true, "", "sched_waking"},
      {"12", false, "", ""},
      {"1.5 myevent [note: retry]", true, "", "myevent"},
      {"2.0 evt [k=v] more: detail", true, "", "evt"},
      {"3.0 evt [12] note: detail", true, "", "evt"},
      {"1.5 myevent [0] 2.0: detail", true, "", "myevent"},
      {"1.5 ev [0] d..2 2.0: note", true, "", "ev"},
      {"pi_stress-1325 [001] 123.456789: sched_switch: x", true, "pi_stress", "sched_switch"},
      {"Web Content-1234 [000] d..2 1.000000: sched_waking: comm=x", true, "Web Content",
       "sched_waking"},
      {"not a trace line at all", false, "", ""},
      {"0.1 a%20b%3Ac", true, "", "a b:c"},
      {"  Web \t Content  Proc-42  [003]  d.h1  7.5:  irq_handler_entry : irq=5: name=eth0:rx",
       true, "Web Content Proc", "irq_handler_entry"},
      {"kworker/0:1 x-9 [002] 8.25: workqueue:queue: work=a:b:c", true, "kworker/0:1 x",
       "workqueue"},
      {"a-b-17 [1] 3: ev::", true, "a-b", "ev"},
      {"x-1 [0] 1.0: : detail", false, "x", ""},
      {"[0] 1.0: ev: detail", false, "", ""},
      {"name-12x [0] 1.0: ev: d", false, "", ""},
  };
  for (const FtraceLineCase& c : cases) {
    std::string task = "stale";
    std::string event = "stale";
    const bool ok = parse_ftrace_line(c.line, task, event);
    EXPECT_EQ(ok, c.ok) << c.line;
    if (ok && c.ok) {
      EXPECT_EQ(task, c.task) << c.line;
      EXPECT_EQ(event, c.event) << c.line;
    }
  }
}

TEST(StringUtils, JoinAndFormat) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(format_double(1.5), "1.5");
  EXPECT_EQ(format_double(2.0), "2");
  EXPECT_EQ(format_double(0.1234, 2), "0.12");
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next();
    EXPECT_EQ(va, b.next());
    (void)c.next();
  }
  Rng a2(42), c2(43);
  bool differ = false;
  for (int i = 0; i < 10; ++i) differ |= (a2.next() != c2.next());
  EXPECT_TRUE(differ);
}

TEST(Rng, RangeAndUnitBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    const double u = rng.unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Deadline, NeverAndFinite) {
  const Deadline never = Deadline::never();
  EXPECT_FALSE(never.expired());
  EXPECT_FALSE(never.is_finite());
  const Deadline past = Deadline::after_seconds(-1.0);
  EXPECT_TRUE(past.expired());
  const Deadline future = Deadline::after_seconds(60.0);
  EXPECT_FALSE(future.expired());
  EXPECT_GT(future.remaining_seconds(), 0.0);
}

TEST(Deadline, HugeAndNonFiniteCountsNeverExpire) {
  // Regression: the double was cast straight to the clock's int64
  // nanoseconds, so 1e12 s or inf wrapped to a deadline in the past and a
  // `--timeout inf` learn reported a timeout after a few milliseconds.
  const double inf = std::numeric_limits<double>::infinity();
  for (const double seconds :
       {inf, 1e12, kMaxClockSeconds, std::numeric_limits<double>::quiet_NaN()}) {
    const Deadline d = Deadline::after_seconds(seconds);
    EXPECT_FALSE(d.is_finite()) << seconds;
    EXPECT_FALSE(d.expired()) << seconds;
  }
  const Deadline far = Deadline::after_seconds(kMaxClockSeconds / 2);
  EXPECT_TRUE(far.is_finite());
  EXPECT_FALSE(far.expired());
  EXPECT_GT(far.remaining_seconds(), kMaxClockSeconds / 4);
  for (const double seconds : {0.0, -5.0, -inf}) {
    EXPECT_TRUE(Deadline::after_seconds(seconds).expired()) << seconds;
  }
}

TEST(Deadline, ClampedClockDurationStaysInRange) {
  using Duration = Stopwatch::Clock::duration;
  const double inf = std::numeric_limits<double>::infinity();
  const Duration max = clamped_clock_duration(kMaxClockSeconds);
  EXPECT_EQ(std::chrono::duration_cast<std::chrono::seconds>(max).count(), 1000000000);
  EXPECT_EQ(clamped_clock_duration(inf), max);
  EXPECT_EQ(clamped_clock_duration(1e300), max);
  EXPECT_EQ(clamped_clock_duration(-1.0), Duration::zero());
  EXPECT_EQ(clamped_clock_duration(-inf), Duration::zero());
  EXPECT_EQ(clamped_clock_duration(std::numeric_limits<double>::quiet_NaN()), Duration::zero());
  EXPECT_EQ(clamped_clock_duration(0.25), std::chrono::milliseconds(250));
}

TEST(Stopwatch, MonotoneElapsed) {
  Stopwatch watch;
  const double t1 = watch.elapsed_seconds();
  const double t2 = watch.elapsed_seconds();
  EXPECT_GE(t2, t1);
  EXPECT_GE(t1, 0.0);
  watch.restart();
  EXPECT_GE(watch.elapsed_ms(), 0);
}

TEST(TableWriter, AsciiAndCsv) {
  TableWriter table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "22"});
  std::ostringstream ascii;
  table.write_ascii(ascii);
  EXPECT_NE(ascii.str().find("| alpha | 1     |"), std::string::npos);
  std::ostringstream csv;
  table.write_csv(csv);
  EXPECT_EQ(csv.str(), "name,value\nalpha,1\nb,22\n");
}

TEST(TableWriter, CsvQuotesSpecialCharacters) {
  // Regression: fields containing ',', '"' or newlines were emitted
  // unquoted, producing corrupt CSV. RFC 4180: quote such fields and double
  // embedded quotes.
  TableWriter table({"name", "value"});
  table.add_row({"a,b", "plain"});
  table.add_row({"say \"hi\"", "line\nbreak"});
  table.add_row({"cr\rhere", "both\",\n"});
  std::ostringstream csv;
  table.write_csv(csv);
  EXPECT_EQ(csv.str(),
            "name,value\n"
            "\"a,b\",plain\n"
            "\"say \"\"hi\"\"\",\"line\nbreak\"\n"
            "\"cr\rhere\",\"both\"\",\n\"\n");
}

TEST(TableWriter, RejectsBadRows) {
  TableWriter table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(TableWriter({}), std::invalid_argument);
}

TEST(CliArgs, FlagsAndPositionals) {
  const char* argv[] = {"prog", "learn", "--trace", "t.txt", "--window=5",
                        "--verbose", "--timeout", "2.5"};
  const CliArgs args(8, argv);
  EXPECT_EQ(args.program(), "prog");
  EXPECT_EQ(args.positional(), (std::vector<std::string>{"learn"}));
  EXPECT_EQ(args.get_or("trace", ""), "t.txt");
  EXPECT_EQ(args.get_int_or("window", 3), 5);
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_DOUBLE_EQ(args.get_double_or("timeout", 0.0), 2.5);
  EXPECT_EQ(args.get_int_or("absent", 9), 9);
  EXPECT_FALSE(args.get("absent").has_value());
}

TEST(CliArgs, MalformedNumbersThrowDiagnosticsInsteadOfCrashing) {
  // Regression: get_int_or/get_double_or called std::stoll/std::stod on the
  // raw flag value; `--window banana` crashed with an uncaught exception.
  // The examples and the t2m tool catch std::exception at main and print
  // the message, so a clean invalid_argument naming the flag is the
  // user-visible error path.
  const char* argv[] = {"prog",        "--window",  "banana", "--timeout", "fast",
                        "--trailing",  "12x",       "--huge", "99999999999999999999"};
  const CliArgs args(9, argv);
  EXPECT_THROW(args.get_int_or("window", 3), std::invalid_argument);
  EXPECT_THROW(args.get_double_or("timeout", 0.0), std::invalid_argument);
  // Trailing garbage is rejected, not truncated.
  EXPECT_THROW(args.get_int_or("trailing", 0), std::invalid_argument);
  // Out-of-range is a diagnostic too, not UB or std::out_of_range.
  EXPECT_THROW(args.get_int_or("huge", 0), std::invalid_argument);
  // Explicit '+' signs, which the old stoll/stod parsers accepted, still do.
  const char* signed_argv[] = {"prog", "--window", "+5", "--timeout", "+2.5",
                               "--plus", "+",      "--plusminus", "+-3"};
  const CliArgs signed_args(9, signed_argv);
  EXPECT_EQ(signed_args.get_int_or("window", 0), 5);
  EXPECT_DOUBLE_EQ(signed_args.get_double_or("timeout", 0.0), 2.5);
  EXPECT_THROW(signed_args.get_int_or("plus", 0), std::invalid_argument);
  EXPECT_THROW(signed_args.get_int_or("plusminus", 0), std::invalid_argument);
  try {
    args.get_int_or("window", 3);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("window"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("banana"), std::string::npos);
  }
}

TEST(CliArgs, SizeFlagsRejectNegativeValues) {
  // Regression: --window, --compliance and --max-memory were read through
  // get_int_or and cast to size_t, so `--window -1` learned a wrong model
  // and `--max-memory -1` wrapped to an unlimited cap.
  const char* argv[] = {"prog", "--window", "-1", "--compliance", "4",
                        "--zero", "0",      "--bad", "x"};
  const CliArgs args(9, argv);
  EXPECT_EQ(args.get_size_or("compliance", 2), 4u);
  EXPECT_EQ(args.get_size_or("zero", 2), 0u);
  EXPECT_EQ(args.get_size_or("absent", 7), 7u);
  EXPECT_THROW(args.get_size_or("bad", 0), std::invalid_argument);
  try {
    (void)args.get_size_or("window", 3);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--window"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("-1"), std::string::npos);
  }
}

TEST(CliArgs, SecondsFlagsRejectNegativeAndNanValues) {
  // Regression: `--timeout -5` and `--timeout nan` silently meant "no
  // timeout", and `--progress -1` a 1 s heartbeat.
  const char* argv[] = {"prog",       "--timeout", "-5",  "--progress", "nan",
                        "--infinite", "inf",       "--ok", "2.5",       "--bare"};
  const CliArgs args(10, argv);
  EXPECT_DOUBLE_EQ(args.get_seconds_or("ok", 0.0), 2.5);
  EXPECT_DOUBLE_EQ(args.get_seconds_or("absent", 5.0), 5.0);
  EXPECT_DOUBLE_EQ(args.get_seconds_or("bare", 5.0), 5.0);
  EXPECT_EQ(args.get_seconds_or("infinite", 0.0), std::numeric_limits<double>::infinity());
  for (const char* flag : {"timeout", "progress"}) {
    try {
      (void)args.get_seconds_or(flag, 0.0);
      FAIL() << "expected invalid_argument for --" << flag;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("--") + flag), std::string::npos);
    }
  }
}

TEST(CliArgs, RejectUnknownNamesTheFirstUnknownFlag) {
  // Regression: `t2m learn --timout 5` ran without a timeout and exited 0,
  // because the parser accepts any flag.
  const char* argv[] = {"prog", "learn", "--trace", "t.txt", "--timout", "5", "--verbose"};
  const CliArgs args(7, argv);
  EXPECT_NO_THROW(args.reject_unknown({"trace", "timout", "verbose"}));
  try {
    args.reject_unknown({"trace", "timeout", "verbose"});
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--timout"), std::string::npos);
  }
  // Positionals and `--flag=value` spellings are checked by name only.
  const char* eq_argv[] = {"prog", "learn", "--window=5", "--bogus-flag=1"};
  const CliArgs eq_args(4, eq_argv);
  EXPECT_NO_THROW(eq_args.reject_unknown({"window", "bogus-flag"}));
  EXPECT_THROW(eq_args.reject_unknown({"window"}), std::invalid_argument);
}

}  // namespace
}  // namespace t2m
