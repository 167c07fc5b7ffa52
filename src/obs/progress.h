#ifndef T2M_OBS_PROGRESS_H
#define T2M_OBS_PROGRESS_H

#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "src/util/stopwatch.h"

namespace t2m::obs {

/// Point-in-time view of a running learn.
struct ProgressSnapshot {
  double uptime_seconds = 0.0;  ///< since the learn began
  std::uint64_t states = 0;     ///< current N under search
  std::uint64_t sat_calls = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t refinements = 0;
  std::size_t memory_used_bytes = 0;  ///< MemoryAccountant::global().used()
  /// Seconds until the run's deadline; +inf when none was set.
  double deadline_remaining_seconds = 0.0;
};

/// "progress: t=3.0s N=4 sat_calls=12 conflicts=3.4k refinements=7
/// mem=12.3MiB deadline=4.2s" — the Info line the poll logs.
std::string format_progress_line(const ProgressSnapshot& snapshot);

/// The `--progress` poll of one learn, run on the learn's own thread. The
/// learn's deadline checks call tick(); once `interval_seconds` have passed
/// since the previous line, the poll logs one progress line built from its
/// source. While alive it is the calling thread's poll, so the solver, the
/// clause emission and the compliance DFS tick it through the static tick()
/// without being handed it. A non-positive or NaN interval turns the poll
/// off: it installs nothing, and tick() is then one thread-local load.
class ProgressPoll {
public:
  /// Fills the run's counters and deadline; the poll adds age and memory.
  using Source = std::function<void(ProgressSnapshot&)>;

  /// Starts the run's clock: a line's `t=` counts from here.
  explicit ProgressPoll(double interval_seconds);
  ~ProgressPoll();
  ProgressPoll(const ProgressPoll&) = delete;
  ProgressPoll& operator=(const ProgressPoll&) = delete;

  /// Lines are logged only while a source is set; nullptr clears it.
  void set_source(Source source) { source_ = std::move(source); }

  /// Logs a line from the calling thread's poll, if one is live and due.
  static void tick();

private:
  void poll();

  double interval_;
  Stopwatch clock_;
  double next_;  ///< clock_ reading at which the next line is due
  Source source_;
};

}  // namespace t2m::obs

#endif  // T2M_OBS_PROGRESS_H
