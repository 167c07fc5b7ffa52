#ifndef T2M_UTIL_CLI_H
#define T2M_UTIL_CLI_H

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace t2m {

/// Tiny `--flag value` / `--flag=value` / `--switch` command-line parser used
/// by the example programs, benches, and the t2m tool.
class CliArgs {
public:
  CliArgs(int argc, const char* const* argv);

  const std::string& program() const { return program_; }
  const std::vector<std::string>& positional() const { return positional_; }

  bool has(const std::string& flag) const;
  std::optional<std::string> get(const std::string& flag) const;
  std::string get_or(const std::string& flag, const std::string& fallback) const;
  std::int64_t get_int_or(const std::string& flag, std::int64_t fallback) const;
  /// get_int_or for sizes and counts: a negative value throws the same
  /// flag-naming invalid_argument as a malformed one.
  std::size_t get_size_or(const std::string& flag, std::size_t fallback) const;
  double get_double_or(const std::string& flag, double fallback) const;
  /// get_double_or for durations in seconds: a negative or NaN value throws
  /// the same flag-naming invalid_argument as a malformed one; inf is kept.
  double get_seconds_or(const std::string& flag, double fallback) const;
  /// Throws a flag-naming invalid_argument for the first flag not in
  /// `known`, so a misspelt flag fails instead of being ignored. Opt-in:
  /// the constructor accepts any flag.
  void reject_unknown(std::initializer_list<std::string_view> known) const;

private:
  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace t2m

#endif  // T2M_UTIL_CLI_H
