#include "src/obs/progress.h"

#include <cmath>
#include <sstream>

#include "src/base/memory_accountant.h"
#include "src/obs/trace.h"
#include "src/util/log.h"
#include "src/util/string_utils.h"

namespace t2m::obs {

namespace {

/// The live poll of the calling thread; null when progress is off.
thread_local ProgressPoll* t_poll = nullptr;

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

ProgressPoll::ProgressPoll(double interval_seconds)
    : interval_(interval_seconds), next_(interval_seconds) {
  if (interval_ > 0) t_poll = this;
}

ProgressPoll::~ProgressPoll() {
  if (t_poll == this) t_poll = nullptr;
}

void ProgressPoll::tick() {
  if (t_poll != nullptr) t_poll->poll();
}

void ProgressPoll::poll() {
  // An infinite or huge interval is simply never due.
  const double now = clock_.elapsed_seconds();
  if (now < next_ || !source_) return;
  next_ = now + interval_;
  ProgressSnapshot snapshot;
  source_(snapshot);
  snapshot.uptime_seconds = now;
  snapshot.memory_used_bytes = MemoryAccountant::global().used();
  log_info() << format_progress_line(snapshot);
  // A conflicts-over-time counter track makes a stalled solve visible at a
  // glance in the Perfetto view of the same run.
  T2M_TRACE_COUNTER("progress.conflicts", snapshot.conflicts);
  T2M_TRACE_COUNTER("progress.memory_bytes", snapshot.memory_used_bytes);
}

}  // namespace t2m::obs
