#ifndef T2M_TRACE_TEXT_IO_H
#define T2M_TRACE_TEXT_IO_H

#include <iosfwd>
#include <string>
#include <string_view>

#include "src/trace/trace.h"

namespace t2m {

/// Applies one line of the text format below. A `# var` declaration extends
/// `schema`; blank lines and other comments are skipped; a data row is
/// parsed into `row` (resized to the schema width, categorical symbols
/// interned on first use) and the call returns true. `header_done` records
/// that a data row was seen, after which a declaration is an error. Shared
/// by read_trace_text and the streaming TextTracePredStream; a data row
/// allocates nothing once `row` has its width.
bool parse_trace_line(Schema& schema, std::string_view line, bool& header_done,
                      Valuation& row);

/// Self-describing text trace format:
///
///   # t2m-trace v1
///   # var x int
///   # var ev cat IDLE READ WRITE default=IDLE
///   1 IDLE
///   2 READ
///
/// Variable order in rows matches declaration order. Blank lines and other
/// `#` comments are ignored. Categorical symbols not pre-declared are
/// interned on first use.
Trace read_trace_text(std::istream& is);
Trace read_trace_file(const std::string& path);

void write_trace_text(std::ostream& os, const Trace& trace);
void write_trace_file(const std::string& path, const Trace& trace);

}  // namespace t2m

#endif  // T2M_TRACE_TEXT_IO_H
