#ifndef T2M_OBS_TRACE_H
#define T2M_OBS_TRACE_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace t2m::obs {

namespace detail {
/// Runtime master switch, read with one relaxed load on every instrumented
/// site; false (the default) makes every span a no-op.
extern std::atomic<bool> g_trace_enabled;
}  // namespace detail

/// One key/value pair attached to an event. Keys are string literals owned
/// by the call site; values are small tagged unions.
struct EventArg {
  enum class Kind : std::uint8_t { Int, Float, Str };

  const char* key = "";
  Kind kind = Kind::Int;
  std::int64_t i = 0;
  double f = 0.0;
  std::string s;

  EventArg() = default;
  template <typename T,
            std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>, int> = 0>
  EventArg(const char* k, T v) : key(k), i(static_cast<std::int64_t>(v)) {}
  EventArg(const char* k, bool v) : key(k), i(v ? 1 : 0) {}
  EventArg(const char* k, double v) : key(k), kind(Kind::Float), f(v) {}
  EventArg(const char* k, std::string v) : key(k), kind(Kind::Str), s(std::move(v)) {}
  EventArg(const char* k, const char* v) : key(k), kind(Kind::Str), s(v) {}
};

/// One buffered trace event in the Chrome trace-event model: a complete span
/// ('X', with a duration), an instant marker ('i'), or a counter sample
/// ('C'). Timestamps are nanoseconds since Tracer::start().
struct TraceEvent {
  const char* name = "";
  char phase = 'X';
  std::uint32_t track = 0;
  std::int64_t ts_ns = 0;
  std::int64_t dur_ns = 0;
  std::vector<EventArg> args;
};

/// Process-wide span collector emitting Chrome trace-event / Perfetto JSON.
///
/// Events go to one vector under one mutex: the learn itself runs on one
/// thread, and caller threads that trace at the same time simply take turns.
/// Each event's track is a dense per-thread id: the position of its thread
/// in first-record order since start(). The intended lifecycle is start() →
/// instrumented run → stop() → write_file(), all driven from one thread.
class Tracer {
public:
  static Tracer& instance();

  /// True when spans are being collected — one relaxed load, safe anywhere.
  // order: relaxed — pure gate; a span that races start()/stop() is either
  // recorded or skipped, both fine.
  static bool enabled() { return detail::g_trace_enabled.load(std::memory_order_relaxed); }

  /// Discards previously collected events, restarts the clock at 0 and
  /// enables collection. Call from a quiescent point (no spans in flight).
  void start();
  /// Stops collection; buffered events stay readable until the next start().
  void stop();

  /// Nanoseconds since start() on the steady clock.
  std::int64_t now_ns() const;

  /// Buffers an event on the calling thread's track (no-op when disabled).
  /// `ev.track` is stamped by the tracer; callers never set it.
  void record(TraceEvent ev);
  /// Convenience 'i' (instant) and 'C' (counter sample) emitters.
  void instant(const char* name, std::vector<EventArg> args = {});
  void counter(const char* name, std::int64_t value);

  /// Number of events currently buffered (tests).
  std::size_t event_count();
  /// Events dropped by the overflow cap since start().
  std::size_t dropped_count();

  /// Emits the collected events as a Chrome trace-event JSON document
  /// ({"traceEvents": [...]}) loadable by Perfetto / chrome://tracing.
  void write_json(std::ostream& os);
  bool write_file(const std::string& path);

private:
  Tracer();

  std::mutex mutex_;  ///< guards events_, threads_ and dropped_
  std::vector<TraceEvent> events_;
  std::vector<std::thread::id> threads_;  ///< track id = index
  std::size_t dropped_ = 0;
  /// steady_clock nanoseconds captured at start(); atomic so spans on
  /// caller threads can read it without taking the mutex.
  std::atomic<std::int64_t> epoch_ns_{0};
};

/// RAII span: captures the clock at construction and buffers one complete
/// ('X') event at scope exit. Constructor args are flat key/value pairs:
/// Span s("learn.solve", "n", n, "calls", calls). Inactive (one relaxed
/// load, nothing else) when tracing is off at construction.
class Span {
public:
  template <typename... KV>
  explicit Span(const char* name, KV&&... kv) {
    if (!Tracer::enabled()) return;
    name_ = name;
    start_ns_ = Tracer::instance().now_ns();
    add_args(std::forward<KV>(kv)...);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span();

  bool active() const { return name_ != nullptr; }
  /// Attaches a result arg discovered after construction (no-op if inactive).
  template <typename V>
  void arg(const char* key, V&& value) {
    if (name_ != nullptr) args_.emplace_back(key, std::forward<V>(value));
  }

private:
  void add_args() {}
  template <typename V, typename... Rest>
  void add_args(const char* key, V&& value, Rest&&... rest) {
    args_.emplace_back(key, std::forward<V>(value));
    add_args(std::forward<Rest>(rest)...);
  }

  const char* name_ = nullptr;
  std::int64_t start_ns_ = 0;
  std::vector<EventArg> args_;
};

}  // namespace t2m::obs

#define T2M_OBS_CONCAT_INNER(a, b) a##b
#define T2M_OBS_CONCAT(a, b) T2M_OBS_CONCAT_INNER(a, b)

/// Anonymous scope span: T2M_SPAN("phase.name", "key", value, ...).
#define T2M_SPAN(...) \
  const ::t2m::obs::Span T2M_OBS_CONCAT(t2m_obs_span_, __LINE__){__VA_ARGS__}
/// Named span handle, for attaching result args before scope exit.
#define T2M_SPAN_SCOPE(var, ...) ::t2m::obs::Span var{__VA_ARGS__}
/// Instant marker on the current track.
#define T2M_INSTANT(name) \
  do { \
    if (::t2m::obs::Tracer::enabled()) ::t2m::obs::Tracer::instance().instant(name); \
  } while (false)
/// Counter-track sample (Perfetto renders these as a value-over-time lane).
#define T2M_TRACE_COUNTER(name, value) \
  do { \
    if (::t2m::obs::Tracer::enabled()) { \
      ::t2m::obs::Tracer::instance().counter(name, static_cast<std::int64_t>(value)); \
    } \
  } while (false)

#endif  // T2M_OBS_TRACE_H
