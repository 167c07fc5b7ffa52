#ifndef T2M_UTIL_LOG_H
#define T2M_UTIL_LOG_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

namespace t2m {

/// Severity levels for the library logger, ordered by verbosity.
enum class LogLevel : std::uint8_t { Trace, Debug, Info, Warn, Error, Off };

/// "trace" -> LogLevel::Trace, ... "off" -> LogLevel::Off; nullopt for
/// anything else. The one parser behind `t2m --log-level`.
std::optional<LogLevel> parse_log_level(std::string_view name);

/// "TRACE", "DEBUG", ... (unpadded).
const char* log_level_name(LogLevel level);

/// Minimal logger writing to stderr (or an installed sink). Lines are
/// emitted whole under a mutex, so concurrent writers (a caller's own
/// threads) interleave at line granularity, and every line
/// carries a monotonic timestamp (seconds since process start) plus a small
/// per-thread id: `[t2m INFO  12.345678 t03] message`.
///
/// Thread-safety: set_level is an atomic store and may be called at any
/// time from any thread (it used to be startup-only); set_sink swaps the
/// sink under the same mutex that serialises write(), so a test can install
/// a capture sink around a parallel region without racing in-flight lines.
class Logger {
public:
  /// A sink receives the severity and the fully formatted line (prefix
  /// included, no trailing newline). nullptr restores the stderr default.
  using Sink = std::function<void(LogLevel, const std::string& line)>;

  static Logger& instance();

  // order: relaxed — the level is an isolated filter value carrying no
  // payload; a marginally stale read only delays a verbosity change by one
  // line.
  void set_level(LogLevel level) { level_.store(level, std::memory_order_relaxed); }
  LogLevel level() const { return level_.load(std::memory_order_relaxed); }
  bool enabled(LogLevel level) const {
    const LogLevel current = this->level();
    return level >= current && current != LogLevel::Off;
  }

  void set_sink(Sink sink);

  void write(LogLevel level, const std::string& message);

private:
  Logger() = default;

  std::atomic<LogLevel> level_{LogLevel::Warn};
  std::mutex mutex_;  ///< serialises write() and sink swaps; guards sink_
  Sink sink_;
};

namespace detail {

/// RAII line builder: streams parts, emits one log line on destruction.
class LogLine {
public:
  LogLine(LogLevel level, bool enabled) : level_(level), enabled_(enabled) {}
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;
  ~LogLine() {
    if (enabled_) Logger::instance().write(level_, stream_.str());
  }

  template <typename T>
  LogLine& operator<<(const T& value) {
    if (enabled_) stream_ << value;
    return *this;
  }

private:
  LogLevel level_;
  bool enabled_;
  std::ostringstream stream_;
};

}  // namespace detail

inline detail::LogLine log_line(LogLevel level) {
  return detail::LogLine(level, Logger::instance().enabled(level));
}

inline detail::LogLine log_trace() { return log_line(LogLevel::Trace); }
inline detail::LogLine log_debug() { return log_line(LogLevel::Debug); }
inline detail::LogLine log_info() { return log_line(LogLevel::Info); }
inline detail::LogLine log_warn() { return log_line(LogLevel::Warn); }
inline detail::LogLine log_error() { return log_line(LogLevel::Error); }

}  // namespace t2m

#endif  // T2M_UTIL_LOG_H
