#include "src/trace/ftrace_io.h"

#include <array>
#include <cstdint>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "src/util/string_utils.h"

namespace t2m {

namespace {

/// Byte classes of the line scan: one table load per byte replaces the
/// chain of comparisons is_ascii_space / is_ascii_digit make.
enum ByteClass : std::uint8_t { kSpace = 1, kDigit = 2, kDot = 4, kPercent = 8, kOther = 16 };

constexpr std::array<std::uint8_t, 256> make_byte_classes() {
  std::array<std::uint8_t, 256> classes{};
  for (std::size_t b = 0; b < classes.size(); ++b) {
    const char c = static_cast<char>(b);
    classes[b] = is_ascii_space(c)   ? kSpace
                 : is_ascii_digit(c) ? kDigit
                 : c == '.'          ? kDot
                 : c == '%'          ? kPercent
                                     : kOther;
  }
  return classes;
}

constexpr std::array<std::uint8_t, 256> kByteClass = make_byte_classes();

std::uint8_t byte_class(char c) { return kByteClass[static_cast<unsigned char>(c)]; }

/// A token whose bytes' classes OR to `classes` is a timestamp — "12",
/// "0.5", "100.000001": at least one digit, nothing but digits and dots.
bool is_timestamp_classes(std::uint8_t classes) {
  return (classes & kDigit) != 0 && (classes & ~(kDigit | kDot)) == 0;
}

/// A whole field that is a timestamp: the full-shape anchor's last field
/// before the first ": ".
bool is_timestamp_field(std::string_view field) {
  std::uint8_t classes = 0;
  for (const char c : field) classes |= byte_class(c);
  return is_timestamp_classes(classes);
}

/// "[000]", "[12]": a bracketed cpu number, the anchor of the full shape.
bool is_cpu_field(std::string_view field) {
  if (field.size() < 3 || field.front() != '[' || field.back() != ']') return false;
  for (std::size_t i = 1; i + 1 < field.size(); ++i) {
    if (!is_ascii_digit(field[i])) return false;
  }
  return true;
}

/// "comm-123", "<idle>-0": the full shape's head always carries a -pid
/// suffix; requiring it keeps simplified lines whose details fake the
/// [cpu]/timestamp geometry from being misread as the full shape.
bool has_pid_suffix(std::string_view head) {
  const auto dash = head.rfind('-');
  if (dash == std::string_view::npos || dash + 1 >= head.size()) return false;
  for (std::size_t i = dash + 1; i < head.size(); ++i) {
    if (!is_ascii_digit(head[i])) return false;
  }
  return true;
}

/// Assigns `text` to `out` with every whitespace run collapsed to one
/// space: the comm as split-on-whitespace-and-join-with-' ' spells it.
void assign_ws_collapsed(std::string& out, std::string_view text) {
  out.clear();
  bool in_space = false;
  for (const char c : text) {
    if (is_ascii_space(c)) {
      if (!in_space) out.push_back(' ');
      in_space = true;
    } else {
      out.push_back(c);
      in_space = false;
    }
  }
}

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

bool FtraceLineParser::parse(std::string_view line) {
  // The trimmed line is [p, end): trailing whitespace is dropped from the
  // back (LineReader has already cut the line end), leading whitespace by
  // the scan itself.
  const char* p = line.data();
  const char* end = p + line.size();
  while (end != p && (byte_class(end[-1]) & kSpace) != 0) --end;
  while (p != end && (byte_class(*p) & kSpace) != 0) ++p;
  if (p == end || *p == '#') return false;
  const char* const start = p;

  // One forward scan splits the line into whitespace-delimited tokens up to
  // the first ": ". The simplified shape needs the first two tokens (and
  // the byte classes each holds); the full shape's anchor needs the last
  // three tokens before that ": " and how many there are.
  const auto scan_token = [&p, end](std::uint8_t& classes) {
    const char* const begin = p;
    for (; p != end; ++p) {
      const std::uint8_t c = byte_class(*p);
      if ((c & kSpace) != 0) break;
      classes |= c;
    }
    return std::string_view(begin, static_cast<std::size_t>(p - begin));
  };
  std::string_view anchor[3];  // anchor[0] is the last token before ": "
  std::size_t anchor_tokens = 0;
  const char* colon = nullptr;  // the first ": " inside the trimmed line
  // Files `token` as an anchor field and steps to the next token; true when
  // the scan is over: the token ended on the first ": " or the line ended.
  // ':' followed by ' ' can only end a token, and the anchor's fields are
  // the tokens before that colon, so a token of ":" alone is none.
  const auto end_token = [&](std::string_view token) {
    const bool at_colon = p != end && *p == ' ' && p[-1] == ':';
    if (at_colon) token.remove_suffix(1);
    if (!token.empty()) {
      anchor[2] = anchor[1];
      anchor[1] = anchor[0];
      anchor[0] = token;
      ++anchor_tokens;
    }
    if (at_colon) colon = p - 1;
    while (p != end && (byte_class(*p) & kSpace) != 0) ++p;
    return at_colon || p == end;
  };
  std::uint8_t first_classes = 0, second_classes = 0;
  std::uint8_t details_classes = 0;  // scanned, never read
  std::string_view second;
  if (!end_token(scan_token(first_classes))) {
    second = scan_token(second_classes);
    if (!end_token(second)) {
      while (!end_token(scan_token(details_classes))) {
      }
    }
  }

  // Full shape: "comm-123 [000] d..2 12.345678: event: details" (ftrace
  // raw) or "comm-123 [000] 12.345678: event: details" (trace-cmd report,
  // no flags column). The anchor is the fixed tail geometry before the
  // first ": " — a bracketed [cpu] field third- or second-from-last with a
  // numeric timestamp last — plus the mandatory -pid suffix on the comm
  // head. Anchoring from the end keeps comms containing spaces or
  // bracketed tokens ("Web Content-1234") matching, and the pid check
  // keeps simplified lines whose details fake the tail geometry ("1.5 ev
  // [0] d..2 2.0: note") in the simplified branch. A genuinely ambiguous
  // line (a simplified event named "x-1" with such details) parses as the
  // full shape; the grammars overlap there and the full shape wins.
  if (colon != nullptr && anchor_tokens >= 3 && is_timestamp_field(anchor[0])) {
    // A comm must precede the cpu field.
    std::string_view cpu;
    if (anchor_tokens >= 4 && is_cpu_field(anchor[2])) {
      cpu = anchor[2];  // [cpu] flags timestamp
    } else if (is_cpu_field(anchor[1])) {
      cpu = anchor[1];  // [cpu] timestamp
    }
    if (!cpu.empty()) {
      // The comm-pid head is everything before the cpu field; `start`
      // is on it, so only trailing whitespace needs dropping.
      const std::string_view head =
          trim(std::string_view(start, static_cast<std::size_t>(cpu.data() - start)));
      if (has_pid_suffix(head)) {
        // Spaces inside the comm read back as single spaces.
        assign_ws_collapsed(task_buffer_, head.substr(0, head.rfind('-')));
        task_ = task_buffer_;
        const std::string_view rest(colon + 2, static_cast<std::size_t>(end - colon - 2));
        event_ = trim(rest.substr(0, rest.find(':')));
        return !event_.empty();
      }
    }
  }

  // Simplified shape: "<timestamp> <event> [details]". The first field must
  // look like a number ("." or "..." are data, not timestamps).
  if (!is_timestamp_classes(first_classes) || second.empty()) return false;
  task_ = {};
  if ((second_classes & kPercent) == 0) {
    event_ = second;
  } else {
    event_buffer_ = unescape_ftrace_symbol(second);
    event_ = event_buffer_;
  }
  return true;
}

bool parse_ftrace_line(std::string_view line, std::string& task, std::string& event) {
  FtraceLineParser parser;
  if (!parser.parse(line)) return false;
  task.assign(parser.task());
  event.assign(parser.event());
  return true;
}

std::string escape_ftrace_symbol(std::string_view symbol) {
  if (symbol.empty()) {
    throw std::invalid_argument(
        "ftrace: empty event symbol cannot be represented in the line format");
  }
  static const char* hex = "0123456789ABCDEF";
  std::string out;
  out.reserve(symbol.size());
  for (const char c : symbol) {
    const auto u = static_cast<unsigned char>(c);
    if (u <= ' ' || c == ':' || c == '%' || u == 0x7f) {
      out.push_back('%');
      out.push_back(hex[u >> 4]);
      out.push_back(hex[u & 0xf]);
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string unescape_ftrace_symbol(std::string_view field) {
  std::string out;
  out.reserve(field.size());
  for (std::size_t i = 0; i < field.size(); ++i) {
    if (field[i] == '%' && i + 2 < field.size()) {
      const int hi = hex_digit(field[i + 1]);
      const int lo = hex_digit(field[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>((hi << 4) | lo));
        i += 2;
        continue;
      }
    }
    out.push_back(field[i]);
  }
  return out;
}

Trace read_ftrace(std::istream& is, const std::string& task_filter) {
  Schema schema;
  const VarIndex ev = schema.add_cat("event", {}, std::nullopt);
  Trace trace(std::move(schema));

  std::string line;
  FtraceLineParser parser;
  while (std::getline(is, line)) {
    if (!parser.parse(line)) continue;
    if (!task_filter.empty() && parser.task() != task_filter) continue;
    const auto sym = trace.mutable_schema().sym_id_intern(ev, parser.event());
    trace.append({Value::of_sym(sym)});
  }
  return trace;
}

void write_ftrace(std::ostream& os, const Trace& trace) {
  const Schema& schema = trace.schema();
  if (schema.size() != 1 || schema.var(0).type != VarType::Cat) {
    throw std::invalid_argument("write_ftrace: trace must have one categorical variable");
  }
  for (std::size_t t = 0; t < trace.size(); ++t) {
    os << t << ".000000 " << escape_ftrace_symbol(schema.format_value(0, trace.obs(t)[0]))
       << '\n';
  }
}

}  // namespace t2m
