#include "src/util/cli.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/util/string_utils.h"

namespace t2m {

CliArgs::CliArgs(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!starts_with(arg, "--")) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // `--flag value` when the next token is not itself a flag; else a switch.
    if (i + 1 < argc && !starts_with(argv[i + 1], "--")) {
      flags_[arg] = argv[++i];
    } else {
      flags_[arg] = "";
    }
  }
}

bool CliArgs::has(const std::string& flag) const { return flags_.count(flag) > 0; }

std::optional<std::string> CliArgs::get(const std::string& flag) const {
  const auto it = flags_.find(flag);
  if (it == flags_.end()) return std::nullopt;
  return it->second;
}

std::string CliArgs::get_or(const std::string& flag, const std::string& fallback) const {
  return get(flag).value_or(fallback);
}

std::int64_t CliArgs::get_int_or(const std::string& flag, std::int64_t fallback) const {
  const auto v = get(flag);
  if (!v || v->empty()) return fallback;
  // Strict parse instead of stoll: malformed or out-of-range input becomes
  // a diagnostic naming the flag, not an uncaught exception crash.
  std::int64_t value = 0;
  if (!parse_int64(*v, value)) {
    throw std::invalid_argument("--" + flag + ": expected an integer, got '" + *v + "'");
  }
  return value;
}

std::size_t CliArgs::get_size_or(const std::string& flag, std::size_t fallback) const {
  const std::int64_t value = get_int_or(flag, static_cast<std::int64_t>(fallback));
  if (value < 0) {
    throw std::invalid_argument("--" + flag + ": expected a non-negative integer, got '" +
                                *get(flag) + "'");
  }
  return static_cast<std::size_t>(value);
}

double CliArgs::get_double_or(const std::string& flag, double fallback) const {
  const auto v = get(flag);
  if (!v || v->empty()) return fallback;
  double value = 0.0;
  if (!parse_double(*v, value)) {
    throw std::invalid_argument("--" + flag + ": expected a number, got '" + *v + "'");
  }
  return value;
}

double CliArgs::get_seconds_or(const std::string& flag, double fallback) const {
  const double value = get_double_or(flag, fallback);
  if (std::isnan(value) || value < 0.0) {
    throw std::invalid_argument("--" + flag +
                                ": expected a non-negative number of seconds, got '" +
                                get(flag).value_or("") + "'");
  }
  return value;
}

void CliArgs::reject_unknown(std::initializer_list<std::string_view> known) const {
  for (const auto& [flag, value] : flags_) {
    if (std::find(known.begin(), known.end(), flag) == known.end()) {
      throw std::invalid_argument("--" + flag + ": unknown flag");
    }
  }
}

}  // namespace t2m
