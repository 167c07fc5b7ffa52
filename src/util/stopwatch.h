#ifndef T2M_UTIL_STOPWATCH_H
#define T2M_UTIL_STOPWATCH_H

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>

namespace t2m {

/// Wall-clock stopwatch used by the learner and the bench harnesses.
class Stopwatch {
public:
  using Clock = std::chrono::steady_clock;

  Stopwatch() : start_(Clock::now()) {}

  void restart() { start_ = Clock::now(); }

  double elapsed_seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }
  std::int64_t elapsed_ms() const {
    return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() - start_)
        .count();
  }

private:
  Clock::time_point start_;
};

/// The longest span, in seconds, a double converts to a clock duration:
/// about 31.7 years. The steady clock counts int64 nanoseconds (about 292
/// years), so now() plus this span cannot overflow, while casting a larger
/// or infinite double to the clock's duration is undefined and in practice
/// wraps to a negative span.
inline constexpr double kMaxClockSeconds = 1e9;

/// `seconds` as a steady-clock duration, clamped to [0, kMaxClockSeconds];
/// NaN and negative counts read as zero.
inline Stopwatch::Clock::duration clamped_clock_duration(double seconds) {
  if (!(seconds > 0.0)) return Stopwatch::Clock::duration::zero();
  return std::chrono::duration_cast<Stopwatch::Clock::duration>(
      std::chrono::duration<double>(std::min(seconds, kMaxClockSeconds)));
}

/// A soft deadline checked cooperatively by long-running algorithms (SAT
/// search, learner refinement). A default-constructed deadline never expires.
class Deadline {
public:
  Deadline() = default;

  /// Expires `seconds` from now; a zero or negative count has already
  /// expired. NaN, +inf and counts of kMaxClockSeconds or more never expire.
  static Deadline after_seconds(double seconds) {
    if (std::isnan(seconds) || seconds >= kMaxClockSeconds) return never();
    Deadline d;
    d.expiry_ = Stopwatch::Clock::now() + clamped_clock_duration(seconds);
    return d;
  }
  static Deadline never() { return Deadline(); }

  bool expired() const {
    return expiry_.has_value() && Stopwatch::Clock::now() >= *expiry_;
  }
  bool is_finite() const { return expiry_.has_value(); }

  /// Seconds remaining; +inf for the never-expiring deadline.
  double remaining_seconds() const {
    if (!expiry_) return std::numeric_limits<double>::infinity();
    return std::chrono::duration<double>(*expiry_ - Stopwatch::Clock::now()).count();
  }

private:
  std::optional<Stopwatch::Clock::time_point> expiry_;
};

}  // namespace t2m

#endif  // T2M_UTIL_STOPWATCH_H
