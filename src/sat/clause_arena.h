#ifndef T2M_SAT_CLAUSE_ARENA_H
#define T2M_SAT_CLAUSE_ARENA_H

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <new>
#include <span>
#include <type_traits>
#include <utility>

#include "src/base/memory_accountant.h"
#include "src/sat/cnf.h"
#include "src/util/failpoint.h"

namespace t2m::sat {

/// Offset of a clause within the arena's word buffer. 32 bits address
/// 16 GiB of clause storage, far beyond any instance we encode.
using ClauseRef = std::uint32_t;
inline constexpr ClauseRef kClauseRefUndef = 0xFFFFFFFFu;

// ClauseArena::alloc() copies literals into the word buffer as raw codes.
static_assert(sizeof(Lit) == sizeof(std::uint32_t) && std::is_trivially_copyable_v<Lit>);

/// MiniSat-style flat clause storage: every clause lives contiguously in one
/// `uint32_t` buffer and is addressed by its word offset.
///
/// Layout per clause (32-bit words):
///
///   [header]              size << 4 | learned(1) | deleted(2) | reloced(4)
///   [activity]  (learned) IEEE float, bit_cast
///   [lbd]       (learned) literal-block distance at learn time
///   [lit 0..size-1]       Lit codes
///
/// Deleted clauses stay in place (their watchers are dropped lazily) until
/// garbage_collect() copies the live clauses into a fresh arena. During that
/// copy the old clause's first payload word is overwritten with the
/// forwarding reference and the `reloced` bit is set, so every owner
/// (watcher lists, reason refs, clause lists) can be rewritten by a simple
/// lookup regardless of traversal order.
class ClauseArena {
public:
  static constexpr std::uint32_t kLearnedBit = 1u;
  static constexpr std::uint32_t kDeletedBit = 2u;
  static constexpr std::uint32_t kRelocedBit = 4u;

  ClauseArena() = default;
  ClauseArena(const ClauseArena&) = delete;
  ClauseArena& operator=(const ClauseArena&) = delete;
  ClauseArena(ClauseArena&& other) noexcept
      : mem_(std::exchange(other.mem_, nullptr)),
        size_(std::exchange(other.size_, 0)),
        cap_(std::exchange(other.cap_, 0)),
        wasted_(std::exchange(other.wasted_, 0)),
        peak_words_(std::exchange(other.peak_words_, 0)),
        charge_(std::move(other.charge_)) {}
  ClauseArena& operator=(ClauseArena&& other) noexcept {
    if (this != &other) {
      release_buffer(mem_, cap_);
      mem_ = std::exchange(other.mem_, nullptr);
      size_ = std::exchange(other.size_, 0);
      cap_ = std::exchange(other.cap_, 0);
      wasted_ = std::exchange(other.wasted_, 0);
      peak_words_ = std::exchange(other.peak_words_, 0);
      charge_ = std::move(other.charge_);
    }
    return *this;
  }
  ~ClauseArena() { release_buffer(mem_, cap_); }

  /// Appends a clause: one capacity check, the header (and learned
  /// metadata) and one memcpy of the literal codes.
  ClauseRef alloc(std::span<const Lit> lits, bool learned) {
    T2M_INJECT_STATUS("arena.alloc", ErrorCode::resource_exhausted,
                      "clause arena allocation failed");
    const std::size_t meta = learned ? 2 : 0;
    const auto cref = static_cast<ClauseRef>(size_);
    std::uint32_t* out = extend(1 + meta + lits.size());
    out[0] = (static_cast<std::uint32_t>(lits.size()) << 4) | (learned ? kLearnedBit : 0u);
    if (learned) {
      out[1] = std::bit_cast<std::uint32_t>(0.0f);  // activity
      out[2] = 0;                                   // lbd
    }
    std::memcpy(out + 1 + meta, lits.data(), lits.size_bytes());
    return cref;
  }

  // --- header access ------------------------------------------------------
  std::size_t size(ClauseRef c) const { return mem_[c] >> 4; }
  bool learned(ClauseRef c) const { return (mem_[c] & kLearnedBit) != 0; }
  bool deleted(ClauseRef c) const { return (mem_[c] & kDeletedBit) != 0; }

  /// Marks the clause dead; its words are reclaimed at the next GC.
  void mark_deleted(ClauseRef c) {
    assert(!deleted(c));
    mem_[c] |= kDeletedBit;
    wasted_ += words_of(c);
  }

  // --- literal access -----------------------------------------------------
  std::size_t lits_offset(ClauseRef c) const {
    return c + 1 + (learned(c) ? 2 : 0);
  }
  /// Pointer to the clause's literal codes (valid until the next alloc/GC).
  std::uint32_t* lit_codes(ClauseRef c) { return mem_ + lits_offset(c); }
  const std::uint32_t* lit_codes(ClauseRef c) const { return mem_ + lits_offset(c); }
  Lit lit(ClauseRef c, std::size_t i) const {
    return Lit::from_code(static_cast<std::int32_t>(lit_codes(c)[i]));
  }

  // --- learned-clause metadata -------------------------------------------
  float activity(ClauseRef c) const {
    assert(learned(c));
    return std::bit_cast<float>(mem_[c + 1]);
  }
  void set_activity(ClauseRef c, float a) {
    assert(learned(c));
    mem_[c + 1] = std::bit_cast<std::uint32_t>(a);
  }
  std::uint32_t lbd(ClauseRef c) const {
    assert(learned(c));
    return mem_[c + 2];
  }
  void set_lbd(ClauseRef c, std::uint32_t v) {
    assert(learned(c));
    mem_[c + 2] = v;
  }

  // --- garbage collection -------------------------------------------------
  /// Copies the clause into `to` (once; subsequent calls return the same
  /// forwarding reference) and returns its new reference.
  ClauseRef relocate(ClauseRef c, ClauseArena& to) {
    if ((mem_[c] & kRelocedBit) != 0) return mem_[c + 1];
    assert(!deleted(c));
    const std::size_t n = words_of(c);
    const auto nc = static_cast<ClauseRef>(to.size_);
    std::memcpy(to.extend(n), mem_ + c, n * sizeof(std::uint32_t));
    mem_[c] |= kRelocedBit;
    mem_[c + 1] = nc;
    return nc;
  }

  void reserve_words(std::size_t words) {
    if (words > cap_) resize_buffer(words);
  }
  /// Carries the lifetime high-water mark across a GC swap.
  void inherit_peak(const ClauseArena& from) {
    peak_words_ = std::max({peak_words_, from.peak_words_, from.size_});
  }

  // --- accounting ---------------------------------------------------------
  std::size_t size_words() const { return size_; }
  std::size_t wasted_words() const { return wasted_; }
  std::size_t size_bytes() const { return size_ * sizeof(std::uint32_t); }
  /// The arena only shrinks at a GC swap, which carries the high-water
  /// mark over (inherit_peak()), so the peak is that mark or the live size.
  std::size_t peak_bytes() const {
    return std::max(peak_words_, size_) * sizeof(std::uint32_t);
  }

private:
  std::size_t words_of(ClauseRef c) const {
    return 1 + (learned(c) ? 2 : 0) + size(c);
  }

  /// Claims `words` words at the end and returns them.
  std::uint32_t* extend(std::size_t words) {
    if (words > cap_ - size_) {
      // Doubling, as a vector grown one word at a time would.
      std::size_t cap = cap_ == 0 ? 1 : cap_;
      while (cap < size_ + words) cap *= 2;
      resize_buffer(cap);
    }
    std::uint32_t* out = mem_ + size_;
    size_ += words;
    return out;
  }

  /// Moves the buffer to `cap` words. The global memory accountant is
  /// charged the new capacity first, so it hears of the buffer O(log size)
  /// times; an overrun of a configured cap throws resource_exhausted and a
  /// failed allocation std::bad_alloc, both with the arena unchanged.
  void resize_buffer(std::size_t cap) {
    const std::size_t charged = charge_.charged();
    charge_.set_charged(cap * sizeof(std::uint32_t));
    std::uint32_t* fresh = regrow_buffer(mem_, cap_, size_, cap);
    if (fresh == nullptr) {
      charge_.set_charged(charged);
      throw std::bad_alloc();
    }
    mem_ = fresh;
    cap_ = cap;
  }

  // Buffer storage (clause_arena.cpp). On Linux a buffer of 1 MiB or more
  // is an anonymous mapping of its own, which mremap() grows without
  // copying: a long chain's clause database doubles its way to tens of MB,
  // and copying it at every doubling cost a tenth of the learn. Smaller
  // buffers, and every buffer elsewhere, come from malloc.

  /// Returns a buffer of `cap` words holding the first `size` words of
  /// `mem` (of `old_cap` words), which it takes over; nullptr on failure,
  /// with `mem` untouched.
  static std::uint32_t* regrow_buffer(std::uint32_t* mem, std::size_t old_cap, std::size_t size,
                                      std::size_t cap);
  static void release_buffer(std::uint32_t* mem, std::size_t cap);

  std::uint32_t* mem_ = nullptr;
  std::size_t size_ = 0;
  std::size_t cap_ = 0;
  std::size_t wasted_ = 0;
  // High-water mark of size_ inherited across GC swaps (see peak_bytes()).
  std::size_t peak_words_ = 0;
  // The charge follows the buffer across the GC swap (`arena_ = std::move(to)`).
  ChargeTracker charge_;
};

}  // namespace t2m::sat

#endif  // T2M_SAT_CLAUSE_ARENA_H
