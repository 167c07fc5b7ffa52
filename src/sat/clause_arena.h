#ifndef T2M_SAT_CLAUSE_ARENA_H
#define T2M_SAT_CLAUSE_ARENA_H

#include <bit>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "src/base/memory_accountant.h"
#include "src/sat/cnf.h"
#include "src/util/failpoint.h"

namespace t2m::sat {

/// Offset of a clause within the arena's word buffer. 32 bits address
/// 16 GiB of clause storage, far beyond any instance we encode.
using ClauseRef = std::uint32_t;
inline constexpr ClauseRef kClauseRefUndef = 0xFFFFFFFFu;

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

  ClauseRef alloc(std::span<const Lit> lits, bool learned) {
    T2M_INJECT_STATUS("arena.alloc", ErrorCode::resource_exhausted,
                      "clause arena allocation failed");
    const auto cref = static_cast<ClauseRef>(mem_.size());
    mem_.push_back((static_cast<std::uint32_t>(lits.size()) << 4) |
                   (learned ? kLearnedBit : 0u));
    if (learned) {
      mem_.push_back(std::bit_cast<std::uint32_t>(0.0f));  // activity
      mem_.push_back(0);                                   // lbd
    }
    for (const Lit l : lits) {
      mem_.push_back(static_cast<std::uint32_t>(l.code()));
    }
    if (mem_.size() > peak_words_) peak_words_ = mem_.size();
    update_charge();
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
  std::uint32_t* lit_codes(ClauseRef c) { return mem_.data() + lits_offset(c); }
  const std::uint32_t* lit_codes(ClauseRef c) const {
    return mem_.data() + lits_offset(c);
  }
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
    const auto nc = static_cast<ClauseRef>(to.mem_.size());
    to.mem_.insert(to.mem_.end(), mem_.begin() + c, mem_.begin() + c + n);
    to.update_charge();
    mem_[c] |= kRelocedBit;
    mem_[c + 1] = nc;
    return nc;
  }

  void reserve_words(std::size_t words) {
    mem_.reserve(words);
    update_charge();
  }
  /// Carries the lifetime high-water mark across a GC swap.
  void inherit_peak(const ClauseArena& from) {
    if (from.peak_words_ > peak_words_) peak_words_ = from.peak_words_;
  }

  // --- accounting ---------------------------------------------------------
  std::size_t size_words() const { return mem_.size(); }
  std::size_t wasted_words() const { return wasted_; }
  std::size_t size_bytes() const { return mem_.size() * sizeof(std::uint32_t); }
  std::size_t peak_bytes() const { return peak_words_ * sizeof(std::uint32_t); }

private:
  std::size_t words_of(ClauseRef c) const {
    return 1 + (learned(c) ? 2 : 0) + size(c);
  }

  /// Syncs the global memory accountant with the buffer's capacity. The
  /// vector doubles, so this reaches the accountant O(log size) times; when
  /// a configured cap is overrun the charge throws resource_exhausted (the
  /// just-performed push_back stays — the learn run is unwinding anyway).
  void update_charge() {
    const std::size_t cap_bytes = mem_.capacity() * sizeof(std::uint32_t);
    if (cap_bytes != charge_.charged()) charge_.set_charged(cap_bytes);
  }

  std::vector<std::uint32_t> mem_;
  std::size_t wasted_ = 0;
  std::size_t peak_words_ = 0;
  // Makes the arena move-only; the charge follows the buffer across the GC
  // swap (`arena_ = std::move(to)`).
  ChargeTracker charge_;
};

}  // namespace t2m::sat

#endif  // T2M_SAT_CLAUSE_ARENA_H
