#include "src/trace/ftrace_io.h"

#include <istream>
#include <ostream>
#include <stdexcept>

#include "src/util/string_utils.h"

namespace t2m {

namespace {

/// "[000]", "[12]": a bracketed cpu number, the anchor of the full shape.
bool is_cpu_field(std::string_view field) {
  if (field.size() < 3 || field.front() != '[' || field.back() != ']') return false;
  for (std::size_t i = 1; i + 1 < field.size(); ++i) {
    if (!is_ascii_digit(field[i])) return false;
  }
  return true;
}

/// Length of the leading whitespace-delimited token of `text` when it is a
/// timestamp — "12", "0.5", "100.000001": at least one digit, nothing but
/// digits and dots — else 0. Checks the token while scanning it, so the
/// simplified shape reads its first field in one pass.
std::size_t timestamp_token_length(std::string_view text) {
  bool has_digit = false;
  std::size_t i = 0;
  for (; i < text.size() && !is_ascii_space(text[i]); ++i) {
    if (is_ascii_digit(text[i])) {
      has_digit = true;
    } else if (text[i] != '.') {
      return 0;
    }
  }
  return has_digit ? i : 0;
}

/// A whole field that is a timestamp: the full-shape anchor's last field
/// before the first ": ".
bool is_timestamp_field(std::string_view field) {
  return !field.empty() && timestamp_token_length(field) == field.size();
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

/// Mirror of take_ws_token from the back: splits off the last token of
/// `text` and leaves `text` holding everything before it.
std::string_view take_last_ws_token(std::string_view& text) {
  std::size_t j = text.size();
  while (j > 0 && is_ascii_space(text[j - 1])) --j;
  std::size_t i = j;
  while (i > 0 && !is_ascii_space(text[i - 1])) --i;
  const std::string_view token = text.substr(i, j - i);
  text.remove_suffix(text.size() - i);
  return token;
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

bool parse_ftrace_line(std::string_view line, std::string& task, std::string& event) {
  const std::string_view trimmed = trim(line);
  if (trimmed.empty() || trimmed[0] == '#') return false;

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
  const auto first_colon = trimmed.find(": ");
  if (first_colon != std::string_view::npos) {
    // The three pre-colon fields the anchor looks at, taken from the back.
    std::string_view before = trimmed.substr(0, first_colon);
    const std::string_view ts = take_last_ws_token(before);
    const std::string_view f2 = take_last_ws_token(before);
    const std::string_view f3 = take_last_ws_token(before);
    std::string_view cpu;  // empty = no anchor; a comm must precede the cpu field
    if (!f3.empty() && is_timestamp_field(ts)) {
      if (!trim(before).empty() && is_cpu_field(f3)) {
        cpu = f3;  // [cpu] flags timestamp
      } else if (is_cpu_field(f2)) {
        cpu = f2;  // [cpu] timestamp
      }
    }
    if (!cpu.empty()) {
      // The comm-pid head is everything before the cpu field; `trimmed`
      // starts on it, so only trailing whitespace needs dropping.
      const std::string_view head =
          trim(trimmed.substr(0, static_cast<std::size_t>(cpu.data() - trimmed.data())));
      if (has_pid_suffix(head)) {
        // Spaces inside the comm read back as single spaces.
        assign_ws_collapsed(task, head.substr(0, head.rfind('-')));
        std::string_view rest = trimmed.substr(first_colon + 2);
        const auto second_colon = rest.find(':');
        const std::string_view ev = trim(
            second_colon == std::string_view::npos ? rest : rest.substr(0, second_colon));
        event.assign(ev.data(), ev.size());
        return !event.empty();
      }
    }
  }

  // Simplified shape: "<timestamp> <event> [details]". The first field must
  // look like a number ("." or "..." are data, not timestamps). Only the
  // two leading tokens are extracted — no per-detail-field allocations on
  // the streaming hot path.
  const std::size_t ts_length = timestamp_token_length(trimmed);
  if (ts_length == 0) return false;
  std::string_view rest = trimmed.substr(ts_length);
  const std::string_view ev = take_ws_token(rest);
  if (ev.empty()) return false;
  task.clear();
  if (ev.find('%') == std::string_view::npos) {
    event.assign(ev.data(), ev.size());  // reuse the caller's buffer
  } else {
    event = unescape_ftrace_symbol(ev);
  }
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

  std::string line, task, event;
  while (std::getline(is, line)) {
    if (!parse_ftrace_line(line, task, event)) continue;
    if (!task_filter.empty() && task != task_filter) continue;
    const auto sym = trace.mutable_schema().sym_id_intern(ev, event);
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
