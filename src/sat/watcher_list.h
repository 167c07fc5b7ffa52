#ifndef T2M_SAT_WATCHER_LIST_H
#define T2M_SAT_WATCHER_LIST_H

#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <utility>

#include "src/sat/clause_arena.h"
#include "src/sat/cnf.h"

namespace t2m::sat {

/// One entry of a literal's watch list: the watching clause plus a cached
/// "blocker" literal whose satisfaction lets propagation skip the clause.
struct Watcher {
  ClauseRef clause = kClauseRefUndef;
  Lit blocker = Lit::undef();
};
static_assert(sizeof(Watcher) == 8);

/// Watch list with inline small-buffer storage.
///
/// A fresh CSP encoding touches every literal's watch list once or twice;
/// with `std::vector` that first push is a malloc per list, which dominated
/// the encode+propagate microbench. The first `kInlineWatchers` watchers
/// live inside the list object itself (one 32-byte struct, half a cache
/// line), so lists only hit the heap beyond that — and the per-literal array
/// of lists stays contiguous for the propagation loop.
///
/// Only the operations the solver needs are provided: push, indexed access,
/// shrinking resize, and iteration. Watchers are trivially copyable, so
/// spills and moves are raw memcpy.
class WatcherList {
public:
  static constexpr std::uint32_t kInlineWatchers = 3;

  WatcherList() = default;
  WatcherList(const WatcherList&) = delete;
  WatcherList& operator=(const WatcherList&) = delete;

  WatcherList(WatcherList&& other) noexcept : size_(other.size_), cap_(other.cap_) {
    if (other.on_heap()) {
      heap_ = other.heap_;
    } else {
      std::memcpy(inline_, other.inline_, size_ * sizeof(Watcher));
    }
    other.size_ = 0;
    other.cap_ = kInlineWatchers;
  }

  WatcherList& operator=(WatcherList&& other) noexcept {
    if (this != &other) {
      if (on_heap()) std::free(heap_);
      size_ = other.size_;
      cap_ = other.cap_;
      if (other.on_heap()) {
        heap_ = other.heap_;
      } else {
        std::memcpy(inline_, other.inline_, size_ * sizeof(Watcher));
      }
      other.size_ = 0;
      other.cap_ = kInlineWatchers;
    }
    return *this;
  }

  ~WatcherList() {
    if (on_heap()) std::free(heap_);
  }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return cap_; }
  bool empty() const { return size_ == 0; }

  Watcher& operator[](std::size_t i) {
    assert(i < size_);
    return data()[i];
  }
  const Watcher& operator[](std::size_t i) const {
    assert(i < size_);
    return data()[i];
  }

  Watcher* begin() { return data(); }
  Watcher* end() { return data() + size_; }
  const Watcher* begin() const { return data(); }
  const Watcher* end() const { return data() + size_; }

  void push_back(const Watcher& w) {
    if (size_ == cap_) grow();
    data()[size_++] = w;
  }

  /// Shrink only (the propagation loop compacts in place).
  void resize(std::size_t n) {
    assert(n <= size_);
    size_ = static_cast<std::uint32_t>(n);
  }

  void clear() { size_ = 0; }

  /// Prefetches the slot the next push_back() writes (a hint: at full
  /// capacity it names memory past the list, which a prefetch never faults
  /// on).
  void prefetch_tail() const { __builtin_prefetch(data() + size_, 1); }

private:
  bool on_heap() const { return cap_ > kInlineWatchers; }
  Watcher* data() { return on_heap() ? heap_ : reinterpret_cast<Watcher*>(inline_); }
  const Watcher* data() const {
    return on_heap() ? heap_ : reinterpret_cast<const Watcher*>(inline_);
  }

  void grow() {
    const std::uint32_t new_cap = cap_ * 2;
    auto* fresh = static_cast<Watcher*>(std::malloc(new_cap * sizeof(Watcher)));
    if (fresh == nullptr) throw std::bad_alloc();
    std::memcpy(fresh, data(), size_ * sizeof(Watcher));
    if (on_heap()) std::free(heap_);
    heap_ = fresh;
    cap_ = new_cap;
  }

  std::uint32_t size_ = 0;
  std::uint32_t cap_ = kInlineWatchers;
  union {
    alignas(Watcher) unsigned char inline_[kInlineWatchers * sizeof(Watcher)];
    Watcher* heap_;
  };
};

}  // namespace t2m::sat

#endif  // T2M_SAT_WATCHER_LIST_H
