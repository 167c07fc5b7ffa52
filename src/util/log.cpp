#include "src/util/log.h"

#include <chrono>
#include <cstdio>
#include <iostream>
#include <utility>

namespace t2m {

namespace {

const char* level_tag(LogLevel level) {
  switch (level) {
    case LogLevel::Trace: return "TRACE";
    case LogLevel::Debug: return "DEBUG";
    case LogLevel::Info:  return "INFO ";
    case LogLevel::Warn:  return "WARN ";
    case LogLevel::Error: return "ERROR";
    case LogLevel::Off:   return "OFF  ";
  }
  return "?????";
}

/// Monotonic process clock for the line prefix; anchored at first use, so
/// t=0 is roughly the first log statement, not machine boot.
double uptime_seconds() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

/// Small dense per-thread id ("t00", "t01", ...): stable within a run and
/// readable next to interleaved worker lines, unlike the 15-digit native id.
std::uint32_t thread_log_id() {
  static std::atomic<std::uint32_t> next{0};
  // order: relaxed — the counter only needs uniqueness, not ordering.
  thread_local const std::uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

}  // namespace

std::optional<LogLevel> parse_log_level(std::string_view name) {
  if (name == "trace") return LogLevel::Trace;
  if (name == "debug") return LogLevel::Debug;
  if (name == "info") return LogLevel::Info;
  if (name == "warn") return LogLevel::Warn;
  if (name == "error") return LogLevel::Error;
  if (name == "off") return LogLevel::Off;
  return std::nullopt;
}

const char* log_level_name(LogLevel level) {
  switch (level) {
    case LogLevel::Trace: return "TRACE";
    case LogLevel::Debug: return "DEBUG";
    case LogLevel::Info:  return "INFO";
    case LogLevel::Warn:  return "WARN";
    case LogLevel::Error: return "ERROR";
    case LogLevel::Off:   return "OFF";
  }
  return "?";
}

Logger& Logger::instance() {
  static Logger logger;
  return logger;
}

void Logger::set_sink(Sink sink) {
  const std::lock_guard<std::mutex> lock(mutex_);
  sink_ = std::move(sink);
}

void Logger::write(LogLevel level, const std::string& message) {
  char prefix[48];
  std::snprintf(prefix, sizeof(prefix), "[t2m %s %.6f t%02u] ", level_tag(level),
                uptime_seconds(), thread_log_id());
  std::string line = prefix;
  line += message;
  // One line per call, serialised: concurrent workers must not shear lines,
  // and a sink swap must not race an in-flight write. A span inside this
  // region would recurse through the tracer while the logger lock is held.
  const std::lock_guard<std::mutex> lock(mutex_);  // no-span
  if (sink_) {
    sink_(level, line);
  } else {
    std::cerr << line << '\n';
  }
}

}  // namespace t2m
