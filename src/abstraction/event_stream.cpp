#include "src/abstraction/event_stream.h"

#include <cstring>
#include <stdexcept>
#include <utility>

#include "src/trace/text_io.h"

namespace t2m {

bool EventStreamAbstractor::starts_step(const Schema& schema) {
  if (observations_ == 0 && !schema.all_categorical()) {
    throw std::invalid_argument("event abstraction requires all-categorical schema");
  }
  return ++observations_ > 1;  // the first observation ends no step
}

PredId EventStreamAbstractor::intern_destination(const Schema& schema, const Valuation& obs) {
  std::vector<ExprPtr> atoms;
  std::string display;
  for (VarIndex v = 0; v < schema.size(); ++v) {
    atoms.push_back(
        Expr::eq(Expr::var_ref(v, /*primed=*/true), Expr::constant(obs[v])));
    if (!display.empty()) display += " & ";
    display += schema.format_value(v, obs[v]);
  }
  const PredId id = preds_.vocab.intern(Expr::conj(std::move(atoms)));
  if (preds_.display_names.size() <= id) preds_.display_names.resize(id + 1);
  preds_.display_names[id] = std::move(display);
  return id;
}

std::optional<PredId> EventStreamAbstractor::push_symbol(const Schema& schema,
                                                         std::int64_t sym) {
  if (schema.size() != 1) {
    throw std::invalid_argument("EventStreamAbstractor::push_symbol needs a one-variable schema");
  }
  if (!starts_step(schema)) return std::nullopt;
  if (sym < 0 || static_cast<std::size_t>(sym) >= schema.var(0).symbols.size()) {
    // Not a symbol of the variable: format_value reports it.
    return intern_destination(schema, {Value::of_sym(sym)});
  }
  const auto slot = static_cast<std::size_t>(sym);
  if (slot >= by_symbol_.size()) by_symbol_.resize(slot + 1, kUnseen);
  if (by_symbol_[slot] == kUnseen) {
    by_symbol_[slot] = intern_destination(schema, {Value::of_sym(sym)});
  }
  return by_symbol_[slot];
}

std::optional<PredId> EventStreamAbstractor::push(const Schema& schema, const Valuation& obs) {
  if (schema.size() == 1 && obs.size() == 1 && obs[0].is_sym()) {
    return push_symbol(schema, obs[0].raw());
  }
  if (!starts_step(schema)) return std::nullopt;
  const auto hit = by_valuation_.find(obs);
  if (hit != by_valuation_.end()) return hit->second;
  const PredId id = intern_destination(schema, obs);
  by_valuation_.emplace(obs, id);
  return id;
}

PredicateSequence EventStreamAbstractor::take() { return std::move(preds_); }

std::uint64_t FtracePredStream::SpellingMemo::hash(std::string_view spelling) {
  // Eight bytes per multiply-mix step; the tail is zero-padded. Lengths
  // are folded in first, so "a" and "a\0" differ.
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ spelling.size();
  const char* p = spelling.data();
  std::size_t n = spelling.size();
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, 8);
    h = (h ^ word) * 0xbf58476d1ce4e5b9ULL;
  }
  if (n > 0) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, n);
    h = (h ^ word) * 0xbf58476d1ce4e5b9ULL;
  }
  return hash_mix(h);
}

const PredId* FtracePredStream::SpellingMemo::find(std::string_view spelling,
                                                   std::uint64_t h) const {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = h & mask; slots_[i].id != kEmpty; i = (i + 1) & mask) {
    const Slot& s = slots_[i];
    if (s.hash == h && std::string_view(bytes_).substr(s.offset, s.length) == spelling) {
      return &s.id;
    }
  }
  return nullptr;
}

void FtracePredStream::SpellingMemo::insert(std::string_view spelling, std::uint64_t h,
                                            PredId id) {
  if (2 * (size_ + 1) > slots_.size()) {
    // Double and re-place every slot by its stored hash.
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    for (const Slot& s : old) {
      if (s.id == kEmpty) continue;
      std::size_t i = s.hash & (slots_.size() - 1);
      while (slots_[i].id != kEmpty) i = (i + 1) & (slots_.size() - 1);
      slots_[i] = s;
    }
  }
  std::size_t i = h & (slots_.size() - 1);
  while (slots_[i].id != kEmpty) i = (i + 1) & (slots_.size() - 1);
  slots_[i] = Slot{h, bytes_.size(), spelling.size(), id};
  bytes_.append(spelling);
  ++size_;
}

FtracePredStream::FtracePredStream(LineReader& lines, std::string task_filter)
    : lines_(lines), task_filter_(std::move(task_filter)) {
  ev_ = schema_.add_cat("event", {}, std::nullopt);
}

std::optional<PredId> FtracePredStream::next() {
  if (done_) return std::nullopt;
  std::string_view line;
  while (lines_.next(line)) {
    if (!parser_.parse(line)) continue;
    if (!task_filter_.empty() && parser_.task() != task_filter_) continue;
    const std::string_view event = parser_.event();
    const std::uint64_t h = SpellingMemo::hash(event);
    if (const PredId* id = memo_.find(event, h)) return *id;
    // First sighting of this event as a step's destination. The first
    // observation of the trace ends no step and is not memoised, so the
    // abstractor sees it and counts it; a memo hit implies at least two
    // observations, so the count check below stays exact.
    const auto id = abstractor_.push_symbol(schema_, schema_.sym_id_intern(ev_, event));
    if (id) {
      memo_.insert(event, h, *id);
      return id;
    }
  }
  done_ = true;
  if (abstractor_.observations() < 2) {
    throw std::invalid_argument("event abstraction: trace needs at least two observations");
  }
  return std::nullopt;
}

TextTracePredStream::TextTracePredStream(LineReader& lines) : lines_(lines) {}

std::optional<PredId> TextTracePredStream::next() {
  if (done_) return std::nullopt;
  std::string_view line;
  while (lines_.next(line)) {
    if (!parse_trace_line(schema_, line, header_done_, row_)) continue;
    const auto id = abstractor_.push(schema_, row_);
    if (id) return id;
  }
  done_ = true;
  if (abstractor_.observations() < 2) {
    throw std::invalid_argument("event abstraction: trace needs at least two observations");
  }
  return std::nullopt;
}

}  // namespace t2m
