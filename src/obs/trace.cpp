#include "src/obs/trace.h"

#include <array>
#include <fstream>
#include <string_view>

namespace t2m::obs {

namespace detail {
std::atomic<bool> g_trace_enabled{false};
}  // namespace detail

namespace {

/// JSON string escape shared by names, thread names and string args.
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

}  // namespace

/// Per-thread chunked event buffer. The owning thread appends into the
/// current chunk and publishes each slot with a release store of `count`;
/// chunks are linked through a release-stored `next`. A concurrent reader
/// acquire-loads both, so it only ever sees fully constructed events — the
/// append path never takes a lock and never touches another thread's state.
class Tracer::EventBuffer {
public:
  static constexpr std::size_t kChunkEvents = 512;
  /// Runaway-instrumentation backstop: one learn emits thousands of events,
  /// not millions; past the cap events are counted as dropped, not stored.
  static constexpr std::size_t kMaxEvents = std::size_t{1} << 20;

  ~EventBuffer() {
    // order: acquire pairs with push()'s release store of next — the
    // destructor must see fully constructed chunks before deleting them.
    Chunk* c = head_.next.load(std::memory_order_acquire);
    while (c != nullptr) {
      Chunk* next = c->next.load(std::memory_order_acquire);
      delete c;
      c = next;
    }
  }

  /// Owner thread only.
  void push(TraceEvent ev) {
    if (total_ >= kMaxEvents) {
      // order: relaxed — an isolated statistic read by dropped().
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    Chunk* c = write_;
    // order: relaxed — count is only ever written by this (owner) thread;
    // the load needs atomicity against concurrent readers, not ordering.
    std::size_t n = c->count.load(std::memory_order_relaxed);
    if (n == kChunkEvents) {
      auto* fresh = new Chunk();
      // order: release publishes the zero-initialised chunk; pairs with the
      // acquire chain walk in for_each / the destructor.
      c->next.store(fresh, std::memory_order_release);
      write_ = fresh;
      c = fresh;
      n = 0;
    }
    c->events[n] = std::move(ev);
    // order: release publishes events[n] itself — THE publication edge of
    // the lock-free buffer; pairs with for_each's acquire load of count.
    c->count.store(n + 1, std::memory_order_release);
    ++total_;
  }

  /// Any thread; sees every event published before the call.
  // order: acquire on next/count pairs with push()'s release stores, so the
  // reader only ever dereferences fully constructed chunks and events.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Chunk* c = &head_; c != nullptr; c = c->next.load(std::memory_order_acquire)) {
      const std::size_t n = c->count.load(std::memory_order_acquire);
      for (std::size_t i = 0; i < n; ++i) fn(c->events[i]);
    }
  }

  // order: relaxed — isolated statistic.
  std::size_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

private:
  struct Chunk {
    std::array<TraceEvent, kChunkEvents> events;
    std::atomic<std::size_t> count{0};
    std::atomic<Chunk*> next{nullptr};
  };

  Chunk head_;
  Chunk* write_ = &head_;           // owner-only
  std::size_t total_ = 0;           // owner-only
  std::atomic<std::size_t> dropped_{0};
};

struct Tracer::ThreadState {
  std::shared_ptr<EventBuffer> buffer;
  std::uint64_t generation = 0;  ///< tracer generation the buffer belongs to
  std::uint32_t thread_track = 0;  ///< this thread's track id
  std::string name;  ///< sticky set_thread_name value, "" = default
};

Tracer::ThreadState& Tracer::thread_state() {
  thread_local ThreadState state;
  return state;
}

namespace {
std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

// order: relaxed — epoch_ns_ is a timestamp scalar; readers tolerate a
// stale epoch during a start() race (spans then carry pre-reset offsets into
// a buffer the same race just orphaned).
Tracer::Tracer() { epoch_ns_.store(steady_now_ns(), std::memory_order_relaxed); }

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::start() {
  const MutexLock lock(mutex_);  // no-span
  // Bumping the generation orphans every thread's old buffer: threads
  // re-register on their next append, so no buffer is ever cleared while
  // its owner might still be writing.
  // order: release pairs with ensure_registered's acquire load — a thread
  // that observes the new generation also observes the cleared registry
  // state published by this critical section.
  generation_.fetch_add(1, std::memory_order_release);
  buffers_.clear();
  track_names_.clear();
  // order: relaxed — see the constructor's epoch_ns_ rationale.
  epoch_ns_.store(steady_now_ns(), std::memory_order_relaxed);
  // order: release so the generation bump and registry reset above are
  // visible before any site observes tracing as enabled.
  detail::g_trace_enabled.store(true, std::memory_order_release);
}

// order: release so events pushed before stop() are published ahead of any
// reader that keys off the disabled flag.
void Tracer::stop() { detail::g_trace_enabled.store(false, std::memory_order_release); }

std::int64_t Tracer::now_ns() const {
  // order: relaxed — see the constructor's epoch_ns_ rationale.
  return steady_now_ns() - epoch_ns_.load(std::memory_order_relaxed);
}

void Tracer::ensure_registered(ThreadState& state) {
  // order: acquire pairs with start()'s release fetch_add (see there).
  const std::uint64_t generation = generation_.load(std::memory_order_acquire);
  if (state.generation == generation) return;
  const MutexLock lock(mutex_);  // no-span
  state.buffer = std::make_shared<EventBuffer>();
  buffers_.push_back(state.buffer);
  state.thread_track = static_cast<std::uint32_t>(track_names_.size());
  track_names_.push_back(state.name.empty()
                             ? "thread " + std::to_string(state.thread_track)
                             : state.name);
  // order: relaxed — re-read under the registry mutex: whichever generation
  // this critical section belongs to is the one the buffer was filed under.
  state.generation = generation_.load(std::memory_order_relaxed);
}

void Tracer::record(TraceEvent ev) {
  if (!enabled()) return;
  ThreadState& state = thread_state();
  ensure_registered(state);
  ev.track = state.thread_track;
  state.buffer->push(std::move(ev));
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

void Tracer::set_thread_name(const std::string& name) {
  ThreadState& state = thread_state();
  state.name = name;
  Tracer& tracer = instance();
  const MutexLock lock(tracer.mutex_);  // no-span
  // Re-check the generation under the lock: a concurrent start() may have
  // cleared the registry since the caller last registered.
  // order: relaxed — the registry mutex already orders this read against
  // start()'s critical section.
  if (state.generation == tracer.generation_.load(std::memory_order_relaxed) &&
      state.thread_track < tracer.track_names_.size()) {
    tracer.track_names_[state.thread_track] = name;
  }
}

std::size_t Tracer::event_count() {
  std::vector<std::shared_ptr<EventBuffer>> buffers;
  {
    const MutexLock lock(mutex_);  // no-span
    buffers = buffers_;
  }
  std::size_t n = 0;
  for (const auto& buffer : buffers) buffer->for_each([&n](const TraceEvent&) { ++n; });
  return n;
}

std::size_t Tracer::dropped_count() {
  const MutexLock lock(mutex_);  // no-span
  std::size_t n = 0;
  for (const auto& buffer : buffers_) n += buffer->dropped();
  return n;
}

void Tracer::write_json(std::ostream& os) {
  // Snapshot the registry, then walk the buffers outside the lock: the
  // chunked buffers tolerate concurrent appends, and late events simply
  // miss this flush.
  std::vector<std::shared_ptr<EventBuffer>> buffers;
  std::vector<std::string> names;
  {
    const MutexLock lock(mutex_);  // no-span
    buffers = buffers_;
    names = track_names_;
  }

  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  const auto sep = [&first, &os] {
    if (!first) os << ",\n";
    first = false;
  };

  sep();
  os << R"({"name": "process_name", "ph": "M", "pid": 1, "tid": 0, "args": {"name": "t2m"}})";
  for (std::size_t t = 0; t < names.size(); ++t) {
    sep();
    os << R"({"name": "thread_name", "ph": "M", "pid": 1, "tid": )" << t << ", \"args\": {\"name\": ";
    write_json_string(os, names[t]);
    os << "}}";
  }

  for (const auto& buffer : buffers) {
    buffer->for_each([&](const TraceEvent& ev) {
      sep();
      os << "{\"name\": ";
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
    });
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
