#include "src/util/string_utils.h"

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <version>

namespace t2m {

namespace {

/// from_chars does not accept the explicit '+' sign that stoll/stod did;
/// strip it when a digit (or, for floats, a '.') follows so "+3" keeps
/// parsing while "+" alone and "+-3" stay invalid.
std::string_view strip_explicit_plus(std::string_view text, bool allow_dot) {
  if (text.size() >= 2 && text[0] == '+' &&
      (is_ascii_digit(text[1]) || (allow_dot && text[1] == '.'))) {
    text.remove_prefix(1);
  }
  return text;
}

}  // namespace

bool parse_int64(std::string_view text, std::int64_t& value) {
  text = strip_explicit_plus(text, /*allow_dot=*/false);
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  return ec == std::errc() && ptr == end;
}

bool parse_double(std::string_view text, double& value) {
  text = strip_explicit_plus(text, /*allow_dot=*/true);
#if defined(__cpp_lib_to_chars)
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  return ec == std::errc() && ptr == end;
#else
  // Floating-point from_chars is missing on some standard libraries (e.g.
  // Apple's libc++ before LLVM 20): fall back to strtod with a
  // full-consumption and range check. strtod is laxer than from_chars —
  // it skips leading whitespace and accepts hex literals — so reject those
  // shapes up front to keep the strict contract identical across platforms.
  const std::string owned(text);
  if (owned.empty() || is_ascii_space(owned.front()) ||
      owned.find_first_of("xX") != std::string::npos) {
    return false;
  }
  errno = 0;
  char* parse_end = nullptr;
  value = std::strtod(owned.c_str(), &parse_end);
  return errno != ERANGE && parse_end == owned.c_str() + owned.size();
#endif
}

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string> split_ws(std::string_view text) {
  std::vector<std::string> out;
  for (std::string_view token = take_ws_token(text); !token.empty();
       token = take_ws_token(text)) {
    out.emplace_back(token);
  }
  return out;
}

std::string_view take_ws_token(std::string_view& text) {
  std::size_t i = 0;
  while (i < text.size() && is_ascii_space(text[i])) ++i;
  std::size_t j = i;
  while (j < text.size() && !is_ascii_space(text[j])) ++j;
  const std::string_view token = text.substr(i, j - i);
  text.remove_prefix(j);
  return token;
}

std::string_view trim(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && is_ascii_space(text[begin])) ++begin;
  while (end > begin && is_ascii_space(text[end - 1])) --end;
  return text.substr(begin, end - begin);
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string format_double(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, value);
  std::string s(buf);
  if (s.find('.') != std::string::npos) {
    while (!s.empty() && s.back() == '0') s.pop_back();
    if (!s.empty() && s.back() == '.') s.pop_back();
  }
  return s;
}

}  // namespace t2m
