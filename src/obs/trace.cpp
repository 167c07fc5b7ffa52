#include "src/obs/trace.h"

#include <algorithm>
#include <fstream>
#include <string_view>

namespace t2m::obs {

namespace detail {
std::atomic<bool> g_trace_enabled{false};
}  // namespace detail

namespace {

/// JSON string escape shared by names and string args.
void write_json_string(std::ostream& os, std::string_view text) {
  os << '"';
  for (const char c : text) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          os << "\\u00" << kHex[(c >> 4) & 0xf] << kHex[c & 0xf];
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

/// Chrome trace timestamps are microseconds; emit ns ticks as µs with three
/// decimals so no precision is lost through the division.
void write_us(std::ostream& os, std::int64_t ns) {
  if (ns < 0) ns = 0;
  os << (ns / 1000) << '.';
  const auto frac = static_cast<int>(ns % 1000);
  os << static_cast<char>('0' + frac / 100) << static_cast<char>('0' + (frac / 10) % 10)
     << static_cast<char>('0' + frac % 10);
}

void write_args(std::ostream& os, const std::vector<EventArg>& args) {
  os << "{";
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i != 0) os << ", ";
    write_json_string(os, args[i].key);
    os << ": ";
    switch (args[i].kind) {
      case EventArg::Kind::Int: os << args[i].i; break;
      case EventArg::Kind::Float: os << args[i].f; break;
      case EventArg::Kind::Str: write_json_string(os, args[i].s); break;
    }
  }
  os << "}";
}

/// Runaway-instrumentation backstop: one learn emits thousands of events,
/// not millions; past the cap events are counted as dropped, not stored.
constexpr std::size_t kMaxEvents = std::size_t{1} << 20;

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

// order: relaxed — epoch_ns_ is a timestamp scalar; a span that races
// start() carries an offset from the old epoch into a trace start() clears.
Tracer::Tracer() { epoch_ns_.store(steady_now_ns(), std::memory_order_relaxed); }

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::start() {
  const std::lock_guard<std::mutex> lock(mutex_);  // no-span
  // Swapped out, not cleared, so the previous run's storage is freed.
  std::vector<TraceEvent>().swap(events_);
  threads_.clear();
  dropped_ = 0;
  // order: relaxed — see the constructor's epoch_ns_ rationale.
  epoch_ns_.store(steady_now_ns(), std::memory_order_relaxed);
  // order: release so the reset above is visible before any site observes
  // tracing as enabled.
  detail::g_trace_enabled.store(true, std::memory_order_release);
}

// order: release — a reader that keys off the disabled flag sees every
// event recorded before stop().
void Tracer::stop() { detail::g_trace_enabled.store(false, std::memory_order_release); }

std::int64_t Tracer::now_ns() const {
  // order: relaxed — see the constructor's epoch_ns_ rationale.
  return steady_now_ns() - epoch_ns_.load(std::memory_order_relaxed);
}

void Tracer::record(TraceEvent ev) {
  if (!enabled()) return;
  const std::thread::id self = std::this_thread::get_id();
  const std::lock_guard<std::mutex> lock(mutex_);  // no-span
  if (events_.size() >= kMaxEvents) {
    ++dropped_;
    return;
  }
  const auto track = std::find(threads_.begin(), threads_.end(), self);
  ev.track = static_cast<std::uint32_t>(track - threads_.begin());
  if (track == threads_.end()) threads_.push_back(self);
  events_.push_back(std::move(ev));
}

void Tracer::instant(const char* name, std::vector<EventArg> args) {
  TraceEvent ev;
  ev.name = name;
  ev.phase = 'i';
  ev.ts_ns = now_ns();
  ev.args = std::move(args);
  record(std::move(ev));
}

void Tracer::counter(const char* name, std::int64_t value) {
  TraceEvent ev;
  ev.name = name;
  ev.phase = 'C';
  ev.ts_ns = now_ns();
  ev.args.emplace_back("value", value);
  record(std::move(ev));
}

std::size_t Tracer::event_count() {
  const std::lock_guard<std::mutex> lock(mutex_);  // no-span
  return events_.size();
}

std::size_t Tracer::dropped_count() {
  const std::lock_guard<std::mutex> lock(mutex_);  // no-span
  return dropped_;
}

void Tracer::write_json(std::ostream& os) {
  const std::lock_guard<std::mutex> lock(mutex_);  // no-span
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  os << R"({"name": "process_name", "ph": "M", "pid": 1, "tid": 0, "args": {"name": "t2m"}})";
  for (std::size_t t = 0; t < threads_.size(); ++t) {
    os << ",\n"
       << R"({"name": "thread_name", "ph": "M", "pid": 1, "tid": )" << t
       << R"(, "args": {"name": "thread )" << t << "\"}}";
  }
  for (const TraceEvent& ev : events_) {
    os << ",\n{\"name\": ";
    write_json_string(os, ev.name);
    os << ", \"ph\": \"" << ev.phase << "\", \"pid\": 1, \"tid\": " << ev.track
       << ", \"ts\": ";
    write_us(os, ev.ts_ns);
    if (ev.phase == 'X') {
      os << ", \"dur\": ";
      write_us(os, ev.dur_ns);
    }
    if (ev.phase == 'i') os << ", \"s\": \"t\"";
    if (!ev.args.empty() || ev.phase == 'C') {
      os << ", \"args\": ";
      write_args(os, ev.args);
    }
    os << "}";
  }
  os << "\n]}\n";
}

bool Tracer::write_file(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  write_json(out);
  return bool(out);
}

Span::~Span() {
  if (name_ == nullptr) return;
  TraceEvent ev;
  ev.name = name_;
  ev.phase = 'X';
  ev.ts_ns = start_ns_;
  ev.dur_ns = Tracer::instance().now_ns() - start_ns_;
  ev.args = std::move(args_);
  Tracer::instance().record(std::move(ev));
}

}  // namespace t2m::obs
