// libFuzzer harness for the trace parsers: trace-text, ftrace event logs,
// the single-line ftrace field splitter, and the batch-vs-stream ftrace
// differential. Build with
//
//   cmake -B build-fuzz -S . -DT2M_BUILD_FUZZERS=ON -DCMAKE_CXX_COMPILER=clang++
//   ./build-fuzz/fuzz_trace_io -max_total_time=60
//
// Structured parse/io failures (StatusError, std::invalid_argument and the
// other taxonomy exceptions) are the parsers' documented rejection path and
// are swallowed; anything else — a raw crash, a sanitizer report, an
// unexpected exception type escaping — is a finding. The differential
// route aborts when read_ftrace + abstract_event_trace and FtracePredStream
// disagree on a document's ids or symbol table.

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "src/abstraction/event_abstraction.h"
#include "src/abstraction/event_stream.h"
#include "src/base/status.h"
#include "src/trace/ftrace_io.h"
#include "src/trace/mmap_io.h"
#include "src/trace/text_io.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  if (size == 0) return 0;
  const std::string_view input(reinterpret_cast<const char*>(data), size);

  // First byte routes to a parser; the rest is its document.
  const std::uint8_t route = data[0] % 4;
  const std::string body(input.substr(1));
  try {
    switch (route) {
      case 0: {
        std::istringstream is(body);
        (void)t2m::read_trace_text(is);
        break;
      }
      case 1: {
        std::istringstream is(body);
        (void)t2m::read_ftrace(is);
        break;
      }
      case 2: {
        std::string task, event;
        if (t2m::parse_ftrace_line(body, task, event)) {
          // Escaping must round-trip whatever the parser accepted.
          (void)t2m::unescape_ftrace_symbol(t2m::escape_ftrace_symbol(event));
        }
        break;
      }
      default: {
        // One parser, two drivers: the batch reader over an istream and the
        // stream over LineReader lines with its spelling memo must agree.
        std::istringstream is(body);
        const t2m::Trace trace = t2m::read_ftrace(is);
        t2m::LineReader lines(body, t2m::LineReader::from_memory);
        t2m::FtracePredStream stream(lines);
        std::vector<t2m::PredId> ids;
        bool too_short = false;
        try {
          while (const auto id = stream.next()) ids.push_back(*id);
        } catch (const std::invalid_argument&) {
          too_short = true;  // fewer than two observations
        }
        if (too_short != (trace.size() < 2)) std::abort();
        if (too_short) break;
        if (stream.schema().var(0).symbols != trace.schema().var(0).symbols) std::abort();
        if (ids != t2m::abstract_event_trace(trace, {}).seq) std::abort();
        break;
      }
    }
  } catch (const t2m::StatusError&) {
    // Structured rejection — expected for malformed input.
  } catch (const std::invalid_argument&) {
  } catch (const std::out_of_range&) {
  }
  return 0;
}
