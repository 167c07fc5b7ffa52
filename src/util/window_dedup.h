#ifndef T2M_UTIL_WINDOW_DEDUP_H
#define T2M_UTIL_WINDOW_DEDUP_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/base/memory_accountant.h"
#include "src/util/hash.h"

namespace t2m {

/// One-pass dedup of the sliding length-w windows of a stream: push one
/// element at a time; each completed window is checked against the distinct
/// windows seen so far and materialised only when genuinely new. The one
/// per-event window dedup of the learn path is StreamingSegmenter's
/// (w = segmentation window), which segment_sequence and the streaming
/// learner both drive; the learner builds P_l from the segments it keeps.
/// ComplianceWindowBuilder (w = compliance length l) uses it off the learn
/// path, for callers that want P_l alone from a stream.
///
/// - a mirrored ring holds the current window: element k of the stream is
///   written to slots k mod w and k mod w + w, so the last w elements always
///   sit contiguously at [head, head + w) and no push divides by w;
/// - a polynomial rolling hash (kPolyHashBase, mod 2^64) is updated in O(1)
///   per element — the expiring element's contribution base^(w-1) is
///   subtracted before the new one is shifted in;
/// - an open-addressing table (linear probing, power-of-two capacity, load
///   at most 1/2) maps the mixed hash to indices into the distinct-window
///   list; windows whose hashes collide each keep their own slot, and a
///   candidate is compared element-wise straight out of the ring, so the
///   common duplicate case costs one O(w) compare and zero allocations.
///
/// Memory: the ring + the distinct windows + at most two table slots per
/// distinct window — O(w + dedup set), independent of stream length.
template <typename T>
class StreamingWindowDedup {
public:
  /// `w` must be positive; callers own that validation.
  explicit StreamingWindowDedup(std::size_t w) : w_(w), ring_(2 * w), table_(kMinSlots) {
    for (std::size_t i = 1; i < w; ++i) drop_coeff_ *= kPolyHashBase;
  }

  void push(T value) {
    if (count_ >= w_) {
      // Expire the element leaving the window before it is overwritten.
      rolling_ -= drop_coeff_ * static_cast<std::uint64_t>(ring_[head_]);
    }
    rolling_ = rolling_ * kPolyHashBase + static_cast<std::uint64_t>(value);
    ring_[head_] = value;
    ring_[head_ + w_] = value;
    if (++head_ == w_) head_ = 0;
    ++count_;
    if (count_ < w_) return;
    // A full window ends here, at ring_[head_, head_ + w): dedup against the
    // distinct windows sharing its hash, materialise only when new.
    const T* current = ring_.data() + head_;
    const std::uint64_t hash = hash_mix(rolling_);
    std::size_t slot = hash & (table_.size() - 1);
    for (; table_[slot].index != kEmpty; slot = (slot + 1) & (table_.size() - 1)) {
      const Slot& s = table_[slot];
      if (s.hash == hash && std::equal(current, current + w_, windows_[s.index].begin())) return;
    }
    table_[slot] = Slot{hash, static_cast<std::uint32_t>(windows_.size())};
    windows_.emplace_back(current, current + w_);
    if (2 * windows_.size() > table_.size()) grow_table();
    // Charge the dedup set's growth in batches: per-window accountant calls
    // would put two atomics on the ingest hot path; pending bytes are flushed
    // every 256 KiB, so a configured cap is enforced with at most that much
    // slack per dedup instance.
    pending_bytes_ += w_ * sizeof(T) + kPerWindowOverhead;
    if (pending_bytes_ >= kChargeBatchBytes) flush_charge();
  }

  /// Total elements pushed.
  std::size_t pushed() const { return count_; }
  /// Distinct windows collected so far, in first-occurrence order.
  const std::vector<std::vector<T>>& windows() const { return windows_; }
  /// Surrenders the distinct-window list; the dedup is spent afterwards.
  std::vector<std::vector<T>> take_windows() { return std::move(windows_); }

  /// The whole stream in push order; only valid while pushed() <= w (the
  /// ring has not wrapped). Serves the short-stream case where the caller
  /// wants the entire sequence as one window.
  std::vector<T> short_prefix() const {
    return {ring_.begin(), ring_.begin() + static_cast<std::ptrdiff_t>(count_)};
  }

private:
  struct Slot {
    std::uint64_t hash = 0;
    std::uint32_t index = kEmpty;  ///< into windows_
  };
  static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};
  static constexpr std::size_t kMinSlots = 16;

  /// Doubles the table and re-places every slot by its stored hash.
  void grow_table() {
    std::vector<Slot> old(table_.size() * 2);
    old.swap(table_);
    const std::size_t mask = table_.size() - 1;
    for (const Slot& s : old) {
      if (s.index == kEmpty) continue;
      std::size_t slot = s.hash & mask;
      while (table_[slot].index != kEmpty) slot = (slot + 1) & mask;
      table_[slot] = s;
    }
  }

  /// Rough per-distinct-window footprint beyond the elements themselves:
  /// the vector header in windows_ plus its share of the hash table.
  static constexpr std::size_t kPerWindowOverhead = 32;
  static constexpr std::size_t kChargeBatchBytes = 256u << 10;

  void flush_charge() {
    charge_.set_charged(charge_.charged() + pending_bytes_);
    pending_bytes_ = 0;
  }

  std::size_t w_;
  std::vector<T> ring_;  ///< 2w slots, each element written to both halves
  std::size_t head_ = 0;  ///< next write position in [0, w)
  std::size_t count_ = 0;
  std::uint64_t rolling_ = 0;
  std::uint64_t drop_coeff_ = 1;  ///< kPolyHashBase^(w-1)
  std::vector<std::vector<T>> windows_;
  std::vector<Slot> table_;
  std::size_t pending_bytes_ = 0;
  ChargeTracker charge_;  ///< released when the dedup is destroyed
};

}  // namespace t2m

#endif  // T2M_UTIL_WINDOW_DEDUP_H
