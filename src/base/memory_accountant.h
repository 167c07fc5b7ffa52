#ifndef T2M_BASE_MEMORY_ACCOUNTANT_H
#define T2M_BASE_MEMORY_ACCOUNTANT_H

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "src/base/status.h"

namespace t2m {

/// Process-wide accountant for the structures that dominate a learn run's
/// footprint: the SAT clause arena, per-thread scratch arenas, and the
/// segmenter/compliance window-dedup sets. A configurable cap turns
/// allocation pressure into a structured `resource_exhausted` error at the
/// charge site instead of an OOM kill deep inside a container.
///
/// Charges are advisory bookkeeping, not an allocator: call sites charge the
/// capacity they are about to reserve and release what they drop. Hot paths
/// charge capacity deltas (vector doubling → O(log) accountant calls) or
/// batch small charges; see ClauseArena / ScratchArena / StreamingWindowDedup.
///
/// With no limit set (the default) charge() never fails and costs two relaxed
/// atomic ops — byte-identity fingerprint tests run with the accountant
/// compiled in and see no behaviour change.
class MemoryAccountant {
public:
  /// The global instance every tracked structure charges. Leaked singleton:
  /// thread_local arenas release from thread-exit destructors, which must
  /// not race static destruction.
  static MemoryAccountant& global();

  /// 0 = unlimited. Takes effect for subsequent charges; already-charged
  /// bytes are not re-checked.
  // order: relaxed — the accountant is pure bookkeeping: used_/peak_/limit_
  // are independent scalars that never publish other memory, and callers
  // tolerate momentarily stale reads (the cap check re-reads under charge).
  void set_limit(std::size_t bytes) {
    limit_.store(bytes, std::memory_order_relaxed);
  }
  std::size_t limit() const { return limit_.load(std::memory_order_relaxed); }

  /// Records `bytes` of planned growth. Throws
  /// StatusError(resource_exhausted) when the charge would exceed the limit
  /// (the charge is rolled back first, so the caller's catch site sees a
  /// consistent accountant). The "mem.charge" failpoint forces the failure
  /// path regardless of the limit.
  void charge(std::size_t bytes);

  /// Non-throwing charge: false (and no charge recorded) on overrun.
  bool try_charge(std::size_t bytes);

  // order: relaxed — see set_limit(): bookkeeping scalars, no payload.
  void release(std::size_t bytes) {
    used_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  // order: relaxed — see set_limit(): advisory reads for reporting.
  std::size_t used() const { return used_.load(std::memory_order_relaxed); }
  std::size_t peak() const { return peak_.load(std::memory_order_relaxed); }

  /// Restarts the peak from the current usage, so that peak() covers only
  /// what is charged from here on (the learner calls this as each learn
  /// starts).
  // order: relaxed — see set_limit().
  void rebase_peak() { peak_.store(used(), std::memory_order_relaxed); }

  /// Test hook: clears usage/peak and the limit. Only meaningful when no
  /// tracked structure is alive.
  void reset_for_test();

private:
  std::atomic<std::size_t> used_{0};
  std::atomic<std::size_t> peak_{0};
  std::atomic<std::size_t> limit_{0};
};

/// Tracks the charged capacity of one growable structure and charges only
/// deltas. Move-aware: the charge follows the owning structure; moved-from
/// trackers hold zero. Not copyable — copyable owners must charge the copy
/// explicitly.
class ChargeTracker {
public:
  ChargeTracker() = default;
  ~ChargeTracker() { set_charged(0); }
  ChargeTracker(const ChargeTracker&) = delete;
  ChargeTracker& operator=(const ChargeTracker&) = delete;
  ChargeTracker(ChargeTracker&& other) noexcept : charged_(other.charged_) {
    other.charged_ = 0;
  }
  ChargeTracker& operator=(ChargeTracker&& other) noexcept {
    if (this != &other) {
      set_charged(0);
      charged_ = other.charged_;
      other.charged_ = 0;
    }
    return *this;
  }

  /// Adjusts the recorded charge to `bytes`, charging or releasing the
  /// delta. Growth can throw resource_exhausted; shrink never fails.
  void set_charged(std::size_t bytes) {
    if (bytes > charged_) {
      MemoryAccountant::global().charge(bytes - charged_);
    } else if (bytes < charged_) {
      MemoryAccountant::global().release(charged_ - bytes);
    }
    charged_ = bytes;
  }

  std::size_t charged() const { return charged_; }

private:
  std::size_t charged_ = 0;
};

}  // namespace t2m

#endif  // T2M_BASE_MEMORY_ACCOUNTANT_H
