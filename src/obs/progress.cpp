#include "src/obs/progress.h"

#include <chrono>
#include <cmath>
#include <limits>
#include <sstream>

#include "src/base/memory_accountant.h"
#include "src/obs/trace.h"
#include "src/util/log.h"
#include "src/util/string_utils.h"

namespace t2m::obs {

namespace {

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// "3456" → "3.5k", "12582912" → "12.0M": progress lines favour glance
/// value over digit-exact counts (the exact numbers land in LearnStats).
std::string compact_count(std::uint64_t n) {
  if (n < 10000) return std::to_string(n);
  const double d = static_cast<double>(n);
  if (n < 10000000) return format_double(d / 1e3, 1) + "k";
  return format_double(d / 1e6, 1) + "M";
}

}  // namespace

std::string format_progress_line(const ProgressSnapshot& snapshot) {
  std::ostringstream os;
  os << "progress: t=" << format_double(snapshot.uptime_seconds, 1) << "s N="
     << snapshot.states << " sat_calls=" << snapshot.sat_calls
     << " conflicts=" << compact_count(snapshot.conflicts)
     << " refinements=" << snapshot.refinements << " mem="
     << format_double(static_cast<double>(snapshot.memory_used_bytes) / (1 << 20), 1)
     << "MiB";
  if (std::isfinite(snapshot.deadline_remaining_seconds)) {
    os << " deadline=" << format_double(snapshot.deadline_remaining_seconds, 1) << "s";
  }
  return os.str();
}

Progress& Progress::global() {
  static Progress progress;
  return progress;
}

void Progress::begin_run(const Deadline& deadline) {
  // order: relaxed — independent counters; see the header.
  states_.store(0, std::memory_order_relaxed);
  sat_calls_.store(0, std::memory_order_relaxed);
  conflicts_.store(0, std::memory_order_relaxed);
  refinements_.store(0, std::memory_order_relaxed);
  const std::int64_t now = steady_now_ns();
  const double remaining = deadline.remaining_seconds();
  // Deadline first, then start with release: the concurrency audit found the
  // old relaxed start-then-deadline order let a heartbeat pair a fresh start
  // with the previous run's deadline and print a wildly negative remaining.
  // order: relaxed — publication rides on the release store of start_ns_.
  deadline_ns_.store(std::isfinite(remaining)
                         ? now + static_cast<std::int64_t>(remaining * 1e9)
                         : -1,
                     std::memory_order_relaxed);
  // order: release pairs with snapshot()'s acquire load of start_ns_,
  // publishing the deadline stored above as one consistent pair.
  start_ns_.store(now, std::memory_order_release);
}

ProgressSnapshot Progress::snapshot() const {
  ProgressSnapshot s;
  const std::int64_t now = steady_now_ns();
  // order: acquire pairs with begin_run()'s release store: observing the new
  // start guarantees the matching deadline is visible below.
  s.uptime_seconds =
      static_cast<double>(now - start_ns_.load(std::memory_order_acquire)) / 1e9;
  // order: relaxed — independent counters; see the header.
  s.states = states_.load(std::memory_order_relaxed);
  s.sat_calls = sat_calls_.load(std::memory_order_relaxed);
  s.conflicts = conflicts_.load(std::memory_order_relaxed);
  s.refinements = refinements_.load(std::memory_order_relaxed);
  s.memory_used_bytes = MemoryAccountant::global().used();
  // order: relaxed — ordered by the acquire load of start_ns_ above.
  const std::int64_t deadline = deadline_ns_.load(std::memory_order_relaxed);
  s.deadline_remaining_seconds = deadline < 0
                                     ? std::numeric_limits<double>::infinity()
                                     : static_cast<double>(deadline - now) / 1e9;
  return s;
}

Heartbeat::Heartbeat(double interval_seconds, Callback callback) {
  const auto interval = clamped_clock_duration(interval_seconds > 0 ? interval_seconds : 1.0);
  worker_ = Thread([this, interval, callback = std::move(callback)] {
    Tracer::set_thread_name("obs.heartbeat");
    // Absolute-deadline loop (CondVar has no predicate overloads — the
    // analysis cannot see through a predicate lambda): stop_ is only read
    // and written under mutex_, and every emission happens with the lock
    // shed so the callback / logger / tracer take their own locks freely.
    auto next = std::chrono::steady_clock::now() + interval;
    MutexLock lock(mutex_);
    while (!stop_) {
      if (cv_.wait_until(mutex_, next) != std::cv_status::timeout) {
        continue;  // notified (stop) or spurious: re-check stop_
      }
      lock.unlock();
      const ProgressSnapshot snapshot = Progress::global().snapshot();
      log_info() << format_progress_line(snapshot);
      // A conflicts-over-time counter track makes a stalled solve visible
      // at a glance in the Perfetto view of the same run.
      T2M_TRACE_COUNTER("progress.conflicts", snapshot.conflicts);
      T2M_TRACE_COUNTER("progress.memory_bytes", snapshot.memory_used_bytes);
      if (callback) callback(snapshot);
      next += interval;
      lock.lock();
    }
  });
}

Heartbeat::~Heartbeat() { stop(); }

void Heartbeat::stop() {
  {
    const MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

}  // namespace t2m::obs
