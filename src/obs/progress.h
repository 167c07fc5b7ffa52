#ifndef T2M_OBS_PROGRESS_H
#define T2M_OBS_PROGRESS_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include "src/util/stopwatch.h"
#include "src/util/sync.h"

namespace t2m::obs {

/// Point-in-time view of a running learn, assembled from the global
/// Progress counters plus the memory accountant.
struct ProgressSnapshot {
  double uptime_seconds = 0.0;  ///< since begin_run()
  std::uint64_t states = 0;     ///< current N under search
  std::uint64_t sat_calls = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t refinements = 0;
  std::size_t memory_used_bytes = 0;  ///< MemoryAccountant::global().used()
  /// Seconds until the run's deadline; +inf when none was set.
  double deadline_remaining_seconds = 0.0;
};

/// "progress: N=4 sat_calls=12 conflicts=3.4k refinements=7 mem=12.3 MiB
/// deadline=4.2s" — the Info line the heartbeat emits.
std::string format_progress_line(const ProgressSnapshot& snapshot);

/// Global lock-free progress counters fed by the learner and the SAT solver
/// at phase boundaries (solver restarts, refinement steps). Disabled (the
/// default) every update is one relaxed load.
class Progress {
public:
  static Progress& global();

  // order: release on enable/disable so counter resets sequenced before the
  // flip are visible to updaters that observe it; the relaxed read side is a
  // hot-path gate where a one-update-stale answer is harmless.
  void enable() { enabled_.store(true, std::memory_order_release); }
  void disable() { enabled_.store(false, std::memory_order_release); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Zeroes the counters and records the run's start + deadline; called by
  /// the learner when a search begins (only when enabled).
  void begin_run(const Deadline& deadline);

  // order: relaxed — independent statistics counters; the heartbeat reader
  // tolerates cross-counter tearing (each line is a glance value, not an
  // invariant), and no payload hangs off any of them.
  void set_states(std::uint64_t n) {
    if (enabled()) states_.store(n, std::memory_order_relaxed);
  }
  // order: relaxed — see set_states() above.
  void add_sat_calls(std::uint64_t n) {
    if (enabled()) sat_calls_.fetch_add(n, std::memory_order_relaxed);
  }
  // order: relaxed — see set_states() above.
  void add_conflicts(std::uint64_t n) {
    if (enabled()) conflicts_.fetch_add(n, std::memory_order_relaxed);
  }
  // order: relaxed — see set_states() above.
  void add_refinements(std::uint64_t n) {
    if (enabled()) refinements_.fetch_add(n, std::memory_order_relaxed);
  }

  ProgressSnapshot snapshot() const;

private:
  Progress() = default;

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> states_{0};
  std::atomic<std::uint64_t> sat_calls_{0};
  std::atomic<std::uint64_t> conflicts_{0};
  std::atomic<std::uint64_t> refinements_{0};
  /// steady_clock ns of begin_run() and of the deadline; -1 = no deadline.
  /// Published as a pair: begin_run stores deadline_ns_ first, then
  /// start_ns_ with release; snapshot loads start_ns_ with acquire before
  /// deadline_ns_, so a reader that sees the new start also sees the
  /// matching deadline (they feed the same formatted line).
  std::atomic<std::int64_t> start_ns_{0};
  std::atomic<std::int64_t> deadline_ns_{-1};
};

/// Background thread emitting one Info-level progress line (plus an optional
/// callback) every `interval_seconds` while alive. The interval clamps to
/// kMaxClockSeconds; a non-positive or NaN one means 1 s. RAII:
/// construction starts the thread, destruction (or stop()) joins it. Long
/// CLI runs hold one for `t2m --progress`; a future --serve mode can hold
/// one per job.
class Heartbeat {
public:
  using Callback = std::function<void(const ProgressSnapshot&)>;

  explicit Heartbeat(double interval_seconds, Callback callback = nullptr);
  ~Heartbeat();
  Heartbeat(const Heartbeat&) = delete;
  Heartbeat& operator=(const Heartbeat&) = delete;

  void stop();

private:
  Mutex mutex_;
  CondVar cv_;
  bool stop_ GUARDED_BY(mutex_) = false;
  Thread worker_;
};

}  // namespace t2m::obs

#endif  // T2M_OBS_PROGRESS_H
