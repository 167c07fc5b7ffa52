#ifndef T2M_UTIL_STRING_UTILS_H
#define T2M_UTIL_STRING_UTILS_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace t2m {

/// ASCII byte classes, equal to std::isspace / std::isdigit under the "C"
/// locale for every byte value but without the locale lookup: the trace
/// readers call them on every byte of a multi-million-line log.
constexpr bool is_ascii_space(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');  // \t \n \v \f \r
}
constexpr bool is_ascii_digit(char c) { return c >= '0' && c <= '9'; }

/// Splits `text` on `sep`, keeping empty fields. The result always has
/// (number of separators + 1) entries; in particular split("") returns {""}
/// — one empty field, never an empty vector. Callers that want "no fields"
/// for empty input must test text.empty() themselves (see cli.cpp's comma
/// lists) or use split_ws, which drops empty fields.
std::vector<std::string> split(std::string_view text, char sep);

/// Splits on any run of whitespace, dropping empty fields.
std::vector<std::string> split_ws(std::string_view text);

/// Skips leading whitespace and splits off the next whitespace-delimited
/// token; `text` is left pointing past it. Returns an empty view when no
/// token is left. The allocation-free counterpart of split_ws for per-line
/// parsing loops.
std::string_view take_ws_token(std::string_view& text);

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view text);

bool starts_with(std::string_view text, std::string_view prefix);
bool ends_with(std::string_view text, std::string_view suffix);

/// Joins `parts` with `sep`.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Formats a double with `digits` significant decimals, trimming zeros.
std::string format_double(double value, int digits = 3);

/// Strict full-token integer parse: optional '+'/'-' sign, then digits;
/// the entire token must be consumed ("12x" is rejected, not truncated) and
/// out-of-range values fail. The one definition of a valid integer literal
/// for CLI flags and trace rows. Returns false without touching errno state
/// guarantees; `value` is unspecified on failure.
bool parse_int64(std::string_view text, std::int64_t& value);

/// Strict full-token floating-point parse; same consumption and sign rules.
bool parse_double(std::string_view text, double& value);

}  // namespace t2m

#endif  // T2M_UTIL_STRING_UTILS_H
