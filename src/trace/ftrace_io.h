#ifndef T2M_TRACE_FTRACE_IO_H
#define T2M_TRACE_FTRACE_IO_H

#include <iosfwd>
#include <string>
#include <string_view>

#include "src/trace/trace.h"

namespace t2m {

/// The ftrace line parser behind parse_ftrace_line, read_ftrace and
/// FtracePredStream. parse() extracts (task, event) from one line and
/// returns false for comments, blank lines and lines matching neither
/// accepted shape:
///
///   <task>-<pid> [<cpu>] <flags> <timestamp>: <event>: <details>
///   <task>-<pid> [<cpu>] <timestamp>: <event>: <details>
///   <timestamp> <event> [details]
///
/// Full-shape detection is anchored on the fixed tail geometry before the
/// first ": " — a bracketed [cpu] field third- or second-from-last with a
/// numeric timestamp last — plus the mandatory -pid suffix on the comm
/// head. Task comms containing spaces or bracketed tokens still match,
/// while simplified lines whose details contain '[N]', numbers and ": "
/// are not misread as the full shape. The simplified shape requires the
/// leading timestamp to contain at least one digit (digit-free tokens such
/// as "." are data, not timestamps) and %XX escapes in the event field are
/// decoded (see escape_ftrace_symbol).
///
/// The line is scanned once, front to back, through a byte-class table;
/// the tokens before the first ": " are kept as views, so both shapes are
/// decided from that one scan. task() and event() view the line itself
/// when it spells the field verbatim (the simplified line copies nothing),
/// or a buffer this parser owns when the field is decoded (a %XX-escaped
/// event, a comm whose whitespace runs collapse to single spaces). The
/// views stay valid until the next parse() and while the line's storage
/// lives; the parser is not copyable, so no copy can hold views into
/// another parser's buffers.
class FtraceLineParser {
public:
  FtraceLineParser() = default;
  FtraceLineParser(const FtraceLineParser&) = delete;
  FtraceLineParser& operator=(const FtraceLineParser&) = delete;

  bool parse(std::string_view line);

  /// The comm of a full-shape line; empty for the simplified shape.
  std::string_view task() const { return task_; }
  std::string_view event() const { return event_; }

private:
  std::string_view task_, event_;
  std::string task_buffer_, event_buffer_;
};

/// FtraceLineParser::parse into caller-owned strings.
bool parse_ftrace_line(std::string_view line, std::string& task, std::string& event);

/// Escapes an event symbol for the simplified `<timestamp> <event>` shape:
/// whitespace/control bytes, ':' and '%' become %XX so the written line
/// stays whitespace-delimited and colon-free. Throws std::invalid_argument
/// on an empty symbol, which has no representation in the line format.
std::string escape_ftrace_symbol(std::string_view symbol);

/// Decodes %XX escapes produced by escape_ftrace_symbol. A '%' not followed
/// by two hex digits is kept verbatim, so most files predating the escaping
/// read back unchanged — the exception is a legacy symbol that happens to
/// contain a valid %XX triple ("disk%2Fsda"), which is now decoded; rewrite
/// such files once through read_ftrace/write_ftrace to normalise them.
std::string unescape_ftrace_symbol(std::string_view field);

/// Parses a simplified ftrace-style event log into a single-variable
/// categorical trace (shapes as in FtraceLineParser). Only the event name
/// is retained; task filtering selects lines whose task field matches
/// `task_filter` (empty = keep all). Lines that do not match either shape
/// are skipped.
Trace read_ftrace(std::istream& is, const std::string& task_filter = "");

/// Writes the trace in the simplified `<timestamp> <event>` shape with event
/// symbols escaped so read_ftrace round-trips them exactly. The trace must
/// have a single categorical variable.
void write_ftrace(std::ostream& os, const Trace& trace);

}  // namespace t2m

#endif  // T2M_TRACE_FTRACE_IO_H
