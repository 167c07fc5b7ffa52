#include "src/core/csp_encoder.h"

#include <algorithm>
#include <array>
#include <functional>
#include <limits>
#include <span>
#include <stdexcept>

#include "src/base/status.h"
#include "src/obs/progress.h"
#include "src/obs/trace.h"
#include "src/util/log.h"

namespace t2m {

namespace {

constexpr std::uint32_t kNoDecodedState = std::numeric_limits<std::uint32_t>::max();

}  // namespace

/// Clause output of one emission pass (run_emission), written straight into
/// the solver's open clause batch:
/// - emit() sorts the clause and hands it to Solver::add_clause_presorted,
///   which keeps the root-assignment filter but neither deduplicates nor
///   drops tautologies. Every shape but the at-least-one clause has at most
///   kSmallClause literals and is insertion-sorted in a stack buffer;
///   wider clauses go through std::sort;
/// - emit_normalised() hands the clause to Solver::add_clause as given, for
///   shapes that may repeat a literal or be a tautology.
/// Once the solver holds `max_clauses` problem clauses, further clauses are
/// dropped and the pass reports overflow.
class ClauseSink {
public:
  ClauseSink(sat::Solver& solver, std::size_t max_clauses)
      : solver_(solver), max_clauses_(max_clauses) {}

  void emit(std::initializer_list<sat::Lit> lits) { emit_span({lits.begin(), lits.size()}); }
  void emit_span(std::span<const sat::Lit> lits) {
    if (!within_budget()) return;
    if (lits.size() > kSmallClause) {
      wide_.assign(lits.begin(), lits.end());
      std::sort(wide_.begin(), wide_.end());
      solver_.add_clause_presorted(wide_);
      return;
    }
    std::array<sat::Lit, kSmallClause> sorted;
    std::size_t n = 0;
    for (const sat::Lit l : lits) {
      std::size_t i = n++;
      for (; i > 0 && l < sorted[i - 1]; --i) sorted[i] = sorted[i - 1];
      sorted[i] = l;
    }
    solver_.add_clause_presorted({sorted.data(), n});
  }
  void emit_normalised(std::initializer_list<sat::Lit> lits) {
    if (!within_budget()) return;
    solver_.add_clause({lits.begin(), lits.size()});
  }
  bool overflowed() const { return overflowed_; }

private:
  /// The widest precedence clause: its lead, the previous group's chain
  /// literal and one literal per state variable of the group.
  static constexpr std::size_t kSmallClause = AutomatonCsp::kChainStride + 2;

  bool within_budget() {
    if (overflowed_) return false;
    if (solver_.num_clauses() >= max_clauses_) {
      overflowed_ = true;
      return false;
    }
    return true;
  }

  sat::Solver& solver_;
  std::size_t max_clauses_;
  bool overflowed_ = false;
  std::vector<sat::Lit> wide_;
};

namespace {

/// Runs `build(item, sink)` for every item in [0, n_items), in order, inside
/// one clause batch (sat::ClauseBatch). Returns false when the clause budget
/// was hit; the caller marks the CSP overflowed.
///
/// Once per 64 items the progress poll ticks and the deadline is read. An
/// expiry throws deadline_exceeded; the batch still closes, attaching the
/// clauses emitted so far, and the learner discards the half-built CSP and
/// converts the escape into its timed-out verdict.
template <typename BuildFn>
bool run_emission(sat::Solver& solver, std::size_t max_clauses, std::size_t n_items,
                  const Deadline& deadline, const BuildFn& build) {
  if (n_items == 0) return true;
  T2M_SPAN("encode.emit_serial", "items", n_items);
  sat::ClauseBatch batch(solver);
  ClauseSink sink(solver, max_clauses);
  for (std::size_t i = 0; i < n_items && !sink.overflowed(); ++i) {
    if ((i & 63u) == 0) {
      obs::ProgressPoll::tick();
      if (deadline.is_finite() && deadline.expired()) {
        throw_status(ErrorCode::deadline_exceeded,
                     "clause emission exceeded the learn deadline");
      }
    }
    build(i, sink);
  }
  batch.close();
  return !sink.overflowed();
}

}  // namespace

AutomatonCsp::AutomatonCsp(const std::vector<Segment>& segments, std::size_t num_preds,
                           std::size_t num_states, const CspOptions& options)
    : num_preds_(num_preds),
      num_states_(num_states),
      capacity_(options.state_capacity == 0 ? num_states
                                            : std::max(num_states, options.state_capacity)),
      options_(options) {
  if (num_states_ == 0) throw std::invalid_argument("AutomatonCsp: zero states");
  T2M_SPAN("encode.build", "states", num_states_, "capacity", capacity_, "segments",
           segments.size());
  // Before any new_vars: default_phase seeds the phase array as variables
  // are created.
  solver_.set_config(options_.solver);

  // Lay out state variables: each segment of length w owns w+1 of them,
  // chained implicitly by sharing (dst of transition j is src of j+1).
  for (const Segment& segment : segments) {
    if (segment.empty()) continue;
    const std::size_t first_var = num_state_vars_;
    num_state_vars_ += segment.size() + 1;
    if (lead_end_sv_ == kNoStateVar) {
      lead_end_sv_ = first_var + segment.size();
      base_lead_length_ = segment.size();
    } else {
      others_.emplace_back(static_cast<std::uint32_t>(preds_of_transition_.size()),
                           static_cast<std::uint32_t>(segment.size()));
    }
    for (std::size_t j = 0; j < segment.size(); ++j) {
      preds_of_transition_.push_back(segment[j]);
      src_var_.push_back(first_var + j);
      dst_var_.push_back(first_var + j + 1);
    }
  }

  base_state_vars_ = num_state_vars_;
  base_transitions_ = preds_of_transition_.size();

  // One-hot blocks of capacity_ columns, then the precedence chains of
  // columns [1, capacity_-2), in one contiguous batch. The chain of column
  // capacity_-2 is allocated when N reaches capacity_
  // (encode_precedence_columns).
  const std::size_t early_chains = capacity_ > 3 ? capacity_ - 3 : 0;
  const std::size_t chain_vars = num_chain_groups() * early_chains;
  block_base_.resize(num_state_vars_);
  const sat::Var blocks_base = solver_.new_vars(num_state_vars_ * capacity_ + chain_vars);
  for (std::size_t sv = 0; sv < num_state_vars_; ++sv) {
    block_base_[sv] = blocks_base + static_cast<sat::Var>(sv * capacity_);
  }
  const sat::Var chains_base = blocks_base + static_cast<sat::Var>(num_state_vars_ * capacity_);
  chain_base_.assign(capacity_, kVarUndef);
  for (std::size_t c = 1; c <= early_chains; ++c) {
    chain_base_[c] = chains_base + static_cast<sat::Var>(num_chain_groups() * (c - 1));
  }

  const bool is_persistent = options_.state_capacity > 0;
  if (is_persistent) {
    const sat::Var act_base = solver_.new_vars(capacity_);
    act_.resize(capacity_);
    for (std::size_t k = 0; k < capacity_; ++k) {
      act_[k] = act_base + static_cast<sat::Var>(k);
    }
  }

  transitions_with_pred_.resize(num_preds_);
  for (std::size_t i = 0; i < preds_of_transition_.size(); ++i) {
    transitions_with_pred_.at(preds_of_transition_[i]).push_back(i);
  }
  trans_order_.reserve(preds_of_transition_.size());
  for (const auto& group : transitions_with_pred_) {
    for (const std::size_t t : group) trans_order_.push_back(static_cast<std::uint32_t>(t));
  }

  // Successor aux blocks span the full capacity so their layout survives
  // grow_to(); only used predicates get one.
  succ_base_.assign(num_preds_, kVarUndef);
  if (options_.encoding == DeterminismEncoding::Successor) {
    for (std::size_t p = 0; p < num_preds_; ++p) {
      if (transitions_with_pred_[p].empty()) continue;
      succ_base_[p] = solver_.new_vars(capacity_ * capacity_);
    }
  }

  encode_at_least_one(0, num_states_);
  activate_columns(0, num_states_);
}

void AutomatonCsp::encode_at_least_one(std::size_t sv_lo, std::size_t guard_lo) {
  // At-least-one over the full block width, the one clause of the encoding
  // whose literal set depends on the capacity. In persistent mode the guard
  // binaries (act_k | ~x) restrict it to the active columns under the
  // per-solve assumptions; in fixed mode the width IS the state count.
  // Guard binaries only for columns that can ever be inactive: N only
  // grows, so columns below guard_lo never need deactivating.
  const std::size_t cap = capacity_;
  std::vector<sat::Lit> alo(cap);
  if (!run_emission(solver_, options_.max_clauses, num_state_vars_ - sv_lo, options_.deadline,
                    [&](std::size_t i, ClauseSink& sink) {
                      const std::size_t sv = sv_lo + i;
                      for (std::size_t k = 0; k < cap; ++k) alo[k] = state_lit(sv, k);
                      sink.emit_span(alo);
                      if (!act_.empty()) {
                        for (std::size_t k = guard_lo; k < cap; ++k) {
                          sink.emit({sat::pos(act_[k]), ~state_lit(sv, k)});
                        }
                      }
                    })) {
    set_overflowed("one-hot at-least-one");
  }
}

void AutomatonCsp::encode_at_most_one(std::size_t sv_lo, std::size_t lo, std::size_t hi) {
  if (!run_emission(solver_, options_.max_clauses, num_state_vars_ - sv_lo, options_.deadline,
                    [&](std::size_t i, ClauseSink& sink) {
                      const std::size_t sv = sv_lo + i;
                      for (std::size_t j = std::max<std::size_t>(lo, 1); j < hi; ++j) {
                        for (std::size_t k = 0; k < j; ++k) {
                          sink.emit({~state_lit(sv, k), ~state_lit(sv, j)});
                        }
                      }
                    })) {
    set_overflowed("one-hot at-most-one");
  }
}

void AutomatonCsp::extend_prefix(std::span<const PredId> tail) {
  if (lead_end_sv_ == kNoStateVar) {
    throw std::logic_error("AutomatonCsp::extend_prefix: no leading segment");
  }
  if (tail.empty() || overflowed_) return;
  T2M_SPAN("encode.extend", "steps", tail.size(), "states", num_states_);
  decoded_valid_ = false;
  const std::size_t sv_lo = num_state_vars_;
  const std::size_t t_lo = preds_of_transition_.size();

  // Layout: the tail chains on from the leading segment's last state
  // variable through one new state variable per step.
  std::vector<std::uint32_t> new_preds;  // predicates the tail uses first
  for (const PredId pred : tail) {
    if (transitions_with_pred_.at(pred).empty()) {
      new_preds.push_back(static_cast<std::uint32_t>(pred));
    }
    transitions_with_pred_[pred].push_back(preds_of_transition_.size());
    preds_of_transition_.push_back(pred);
    src_var_.push_back(lead_end_sv_);
    dst_var_.push_back(num_state_vars_);
    lead_end_sv_ = num_state_vars_++;
  }
  trans_order_.clear();
  for (const auto& group : transitions_with_pred_) {
    for (const std::size_t t : group) trans_order_.push_back(static_cast<std::uint32_t>(t));
  }

  // Variables: the new one-hot blocks, the new precedence groups' chains
  // (every column at once), then the successor blocks of new predicates.
  const sat::Var blocks = solver_.new_vars(tail.size() * capacity_);
  for (std::size_t i = 0; i < tail.size(); ++i) {
    block_base_.push_back(blocks + static_cast<sat::Var>(i * capacity_));
  }
  for (std::size_t first = sv_lo; first < num_state_vars_; first += kChainStride) {
    ext_groups_.push_back(
        {first, capacity_ >= 3 ? solver_.new_vars(capacity_ - 2) : kVarUndef});
  }
  if (options_.encoding == DeterminismEncoding::Successor) {
    for (const std::uint32_t p : new_preds) succ_base_[p] = solver_.new_vars(capacity_ * capacity_);
  }

  // Clauses, every one naming a new state variable or transition.
  const std::size_t n = num_states_;
  encode_at_least_one(sv_lo, n);
  if (overflowed_) return;
  encode_at_most_one(sv_lo, 0, n);
  if (overflowed_) return;
  encode_precedence_columns(0, n, sv_lo);
  if (overflowed_) return;
  if (options_.encoding == DeterminismEncoding::Successor) {
    if (!encode_successor_blocks(new_preds, 0, n)) return;
    std::vector<std::uint32_t> new_transitions(tail.size());
    for (std::size_t i = 0; i < tail.size(); ++i) {
      new_transitions[i] = static_cast<std::uint32_t>(t_lo + i);
    }
    encode_successor_links(new_transitions, 0, n);
  } else {
    encode_pairwise_new_transitions(t_lo);
  }
  if (overflowed_) return;
  tie_covered_segments(t_lo);
  if (overflowed_) return;
  encode_star_members(t_lo);
  for (std::size_t w = 0; w < words_.size() && !overflowed_; ++w) encode_word(w, t_lo);
}

std::size_t AutomatonCsp::chain_transition(std::size_t p) const {
  return p < base_lead_length_ ? p : base_transitions_ + (p - base_lead_length_);
}

void AutomatonCsp::tie_covered_segments(std::size_t t_lo) {
  if (!others_.empty()) {  // first extension: index the other segments
    for (const auto& [first, length] : others_) {
      untied_.emplace(Segment(preds_of_transition_.begin() + first,
                              preds_of_transition_.begin() + first + length),
                      first);
      untied_lengths_.push_back(length);
    }
    others_ = {};
    std::sort(untied_lengths_.begin(), untied_lengths_.end());
    untied_lengths_.erase(std::unique(untied_lengths_.begin(), untied_lengths_.end()),
                          untied_lengths_.end());
  }
  if (untied_.empty()) return;
  // Every window of the leading chain that ends in the tail, in chain order:
  // a segment equal to one is tied at its first occurrence.
  const std::size_t old_length = base_lead_length_ + t_lo - base_transitions_;
  const std::size_t new_length =
      base_lead_length_ + preds_of_transition_.size() - base_transitions_;
  const std::size_t longest = untied_lengths_.back();
  const std::size_t first_tie = ties_.size();
  Segment window;
  for (std::size_t p = old_length >= longest ? old_length + 1 - longest : 0;
       p < new_length && !untied_.empty(); ++p) {
    for (const std::size_t length : untied_lengths_) {
      if (p + length > new_length || p + length <= old_length) continue;
      window.clear();
      for (std::size_t i = p; i < p + length; ++i) {
        window.push_back(preds_of_transition_[chain_transition(i)]);
      }
      const auto it = untied_.find(window);
      if (it == untied_.end()) continue;
      // Every state variable, not only the first one with determinism tying
      // the rest: the direct binaries keep the Sat solves as fast as without
      // ties (the first-only variant cost the corpus 36% in Sat time).
      const std::size_t first = it->second;
      ties_.emplace_back(static_cast<std::uint32_t>(src_var_[first]),
                         static_cast<std::uint32_t>(src_var_[chain_transition(p)]));
      for (std::size_t j = 0; j < length; ++j) {
        ties_.emplace_back(static_cast<std::uint32_t>(dst_var_[first + j]),
                           static_cast<std::uint32_t>(dst_var_[chain_transition(p + j)]));
      }
      untied_.erase(it);
    }
  }
  encode_ties(first_tie, 0, num_states_);
}

void AutomatonCsp::encode_ties(std::size_t from, std::size_t lo, std::size_t hi) {
  // x(s, k) -> x(c, k): with both one-hot, s takes c's state.
  if (!run_emission(solver_, options_.max_clauses, ties_.size() - from, options_.deadline,
                    [&](std::size_t i, ClauseSink& sink) {
                      const auto [s, c] = ties_[from + i];
                      for (std::size_t k = lo; k < hi; ++k) {
                        sink.emit({~state_lit(s, k), state_lit(c, k)});
                      }
                    })) {
    set_overflowed("segment tie");
  }
}

sat::Var AutomatonCsp::chain_var(std::size_t g, std::size_t c) const {
  if (g < base_groups()) {
    return chain_base_.at(c) == kVarUndef ? kVarUndef
                                          : chain_base_[c] + static_cast<sat::Var>(g);
  }
  if (c == 0 || c + 2 > capacity_) return kVarUndef;
  return ext_groups_.at(g - base_groups()).chain_base + static_cast<sat::Var>(c - 1);
}

AutomatonCsp::GroupSpan AutomatonCsp::group_of(std::size_t sv) const {
  if (sv < base_state_vars_) {
    const std::size_t g = sv / kChainStride;
    const std::size_t first = g * kChainStride;
    return {g, first, std::min(base_state_vars_, first + kChainStride)};
  }
  const auto next = std::upper_bound(
      ext_groups_.begin(), ext_groups_.end(), sv,
      [](std::size_t v, const ExtGroup& group) { return v < group.first; });
  const std::size_t i = static_cast<std::size_t>(next - ext_groups_.begin()) - 1;
  return {base_groups() + i, ext_groups_[i].first,
          next == ext_groups_.end() ? num_state_vars_ : next->first};
}

void AutomatonCsp::set_overflowed(const char* where) {
  if (overflowed_) return;
  overflowed_ = true;
  log_warn() << "AutomatonCsp: clause budget exceeded (" << where << "); giving up";
}

bool AutomatonCsp::grow_to(std::size_t n) {
  if (!persistent()) return false;
  if (n <= num_states_) return true;
  if (n > capacity_) return false;
  T2M_SPAN("encode.grow", "from", num_states_, "to", n);
  const std::size_t lo = num_states_;
  num_states_ = n;
  decoded_valid_ = false;
  // Learned clauses carry over; the branching heuristics do not — phases and
  // activities encode the shape of the just-refuted (N-1)-state search and
  // bias the wider problem towards degenerate sibling models.
  solver_.reset_branching_heuristics();
  activate_columns(lo, n);
  return true;
}

void AutomatonCsp::activate_columns(std::size_t lo, std::size_t hi) {
  if (overflowed_) return;
  // At-most-one pairs whose larger column is new, one item per state variable.
  encode_at_most_one(0, lo, hi);
  if (overflowed_) return;
  encode_precedence_columns(lo, hi);
  if (overflowed_) return;

  switch (options_.encoding) {
    case DeterminismEncoding::Pairwise:
      encode_determinism_pairwise(lo, hi);
      break;
    case DeterminismEncoding::Successor:
      encode_determinism_successor(lo, hi);
      break;
  }
  if (overflowed_) return;

  // Column extensions of everything the refinement loop accumulated so far
  // (no-ops during construction, when the containers are still empty). Order
  // is fixed: star blocks, star conflict binaries, direct forbidden pairs,
  // then equality variables in insertion order.
  encode_star_columns(lo, hi);
  if (overflowed_) return;
  for (const ForbiddenWord& fw : words_) {
    if (fw.form != WordForm::Direct) continue;
    encode_forbidden_pair(chains_for(fw.word), lo, hi);
    if (overflowed_) return;
  }
  encode_equality_columns(equality_list_, lo, hi);
  if (overflowed_) return;
  encode_ties(0, lo, hi);
}

void AutomatonCsp::encode_precedence_columns(std::size_t lo, std::size_t hi,
                                             std::size_t sv_lo) {
  if (num_state_vars_ == 0) return;
  // Column k >= 2 reads the chain of column k-1; only the base groups'
  // chain of column capacity_-2 is still unallocated here.
  for (std::size_t c = std::max<std::size_t>(lo, 2) - 1; c + 1 < hi; ++c) {
    if (chain_base_[c] != kVarUndef) continue;
    chain_base_[c] = solver_.new_vars(base_groups());
  }
  if (!run_emission(
          solver_, options_.max_clauses, num_state_vars_ - sv_lo, options_.deadline,
          [&](std::size_t i, ClauseSink& sink) {
            const std::size_t sv = sv_lo + i;
            const GroupSpan group = group_of(sv);
            const std::size_t g = group.g;
            const std::size_t first = group.first;
            const bool group_end = sv + 1 == group.end;
            std::array<sat::Lit, kChainStride + 2> lits;
            // (lead | m(g-1,c) | x(first..end-1, c)) into `lits`.
            const auto emit = [&](sat::Lit lead, std::size_t c, std::size_t end) {
              std::size_t n = 0;
              lits[n++] = lead;
              if (g > 0) lits[n++] = chain_lit(g - 1, c);
              for (std::size_t s = first; s < end; ++s) lits[n++] = state_lit(s, c);
              sink.emit_span({lits.data(), n});
            };
            for (std::size_t k = std::max<std::size_t>(lo, 1); k < hi; ++k) {
              if (sv == 0) sink.emit({~state_lit(0, k)});
              if (k < 2) continue;
              if (sv > 0) emit(~state_lit(sv, k), k - 1, sv);  // precedence
              if (group_end) emit(~chain_lit(g, k - 1), k - 1, sv + 1);  // justification
            }
          })) {
    set_overflowed("value precedence");
  }
}

void AutomatonCsp::encode_determinism_pairwise(std::size_t lo, std::size_t hi) {
  // For every pair of transitions sharing a predicate: equal sources force
  // equal destinations. Clauses (~srcA=k | ~srcB=k | ~dstA=k1 | ~dstB=k2)
  // for k1 != k2 -- the paper's "wrong transition" condition, line 29.
  // Only tuples touching a column in [lo, hi) are new. One item per
  // (group, first-transition) pair; each item emits the pairs of one
  // transition against its group successors.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> items;  // (pred, a_i)
  for (std::size_t p = 0; p < transitions_with_pred_.size(); ++p) {
    const std::size_t n = transitions_with_pred_[p].size();
    for (std::size_t a_i = 0; a_i + 1 < n; ++a_i) {
      items.emplace_back(static_cast<std::uint32_t>(p), static_cast<std::uint32_t>(a_i));
    }
  }
  if (!run_emission(
          solver_, options_.max_clauses, items.size(), options_.deadline,
          [&](std::size_t idx, ClauseSink& sink) {
            const auto& group = transitions_with_pred_[items[idx].first];
            const std::size_t a_i = items[idx].second;
            for (std::size_t b_i = a_i + 1; b_i < group.size(); ++b_i) {
              emit_pairwise(group[a_i], group[b_i], lo, hi, sink);
            }
          })) {
    set_overflowed("pairwise encoding");
  }
}

void AutomatonCsp::encode_pairwise_new_transitions(std::size_t t_lo) {
  // One item per new transition b, paired with every earlier transition of
  // its predicate (old ones and earlier new ones) over the active columns.
  if (!run_emission(solver_, options_.max_clauses, preds_of_transition_.size() - t_lo,
                    options_.deadline, [&](std::size_t i, ClauseSink& sink) {
                      const std::size_t b = t_lo + i;
                      for (const std::size_t a : transitions_with_pred_[preds_of_transition_[b]]) {
                        if (a == b) break;
                        emit_pairwise(a, b, 0, num_states_, sink);
                      }
                    })) {
    set_overflowed("pairwise encoding");
  }
}

void AutomatonCsp::emit_pairwise(std::size_t a, std::size_t b, std::size_t lo,
                                 std::size_t hi, ClauseSink& sink) const {
  if (src_var_[a] == src_var_[b] && dst_var_[a] == dst_var_[b]) return;
  for (std::size_t k = 0; k < hi; ++k) {
    for (std::size_t k1 = 0; k1 < hi; ++k1) {
      for (std::size_t k2 = 0; k2 < hi; ++k2) {
        if (k1 == k2) continue;
        if (k < lo && k1 < lo && k2 < lo) continue;  // already emitted
        sink.emit({~state_lit(src_var_[a], k), ~state_lit(src_var_[b], k),
                   ~state_lit(dst_var_[a], k1), ~state_lit(dst_var_[b], k2)});
      }
    }
  }
}

void AutomatonCsp::encode_determinism_successor(std::size_t lo, std::size_t hi) {
  // succ(k, p): one-hot successor state of state k under predicate p. Any
  // transition with predicate p leaving state k must land on succ(k, p);
  // at-most-one on the block enforces determinism in O(m N^2) clauses.
  std::vector<std::uint32_t> used_preds;
  for (std::size_t p = 0; p < num_preds_; ++p) {
    if (!transitions_with_pred_[p].empty()) used_preds.push_back(static_cast<std::uint32_t>(p));
  }
  if (!encode_successor_blocks(used_preds, lo, hi)) return;
  encode_successor_links(trans_order_, lo, hi);
}

bool AutomatonCsp::encode_successor_blocks(std::span<const std::uint32_t> preds,
                                           std::size_t lo, std::size_t hi) {
  // Phase 1: at-most-one per (source state, predicate) successor block; for
  // sources already active only the pairs reaching into the new columns are
  // missing.
  if (!run_emission(solver_, options_.max_clauses, preds.size(), options_.deadline,
                    [&](std::size_t pi, ClauseSink& sink) {
                      const sat::Var succ_base = succ_base_[preds[pi]];
                      const auto succ = [&](std::size_t k, std::size_t k2) {
                        return sat::pos(succ_base + static_cast<sat::Var>(k * capacity_ + k2));
                      };
                      for (std::size_t k = 0; k < hi; ++k) {
                        for (std::size_t j = k < lo ? lo : 1; j < hi; ++j) {
                          for (std::size_t i = 0; i < j; ++i) {
                            sink.emit({~succ(k, i), ~succ(k, j)});
                          }
                        }
                      }
                    })) {
    set_overflowed("successor at-most-one");
    return false;
  }
  return true;
}

void AutomatonCsp::encode_successor_links(std::span<const std::uint32_t> transitions,
                                          std::size_t lo, std::size_t hi) {
  // Phase 2: the transition links, one item per transition (grow time: the
  // flattened order, by predicate, then group order).
  if (!run_emission(solver_, options_.max_clauses, transitions.size(), options_.deadline,
                    [&](std::size_t ti, ClauseSink& sink) {
                      const std::size_t t = transitions[ti];
                      const sat::Var succ_base = succ_base_[preds_of_transition_[t]];
                      for (std::size_t k = 0; k < hi; ++k) {
                        for (std::size_t k2 = 0; k2 < hi; ++k2) {
                          if (k < lo && k2 < lo) continue;  // already emitted
                          // (src=k & dst=k2) -> succ(k, k2)
                          sink.emit({~state_lit(src_var_[t], k), ~state_lit(dst_var_[t], k2),
                                    sat::pos(succ_base +
                                             static_cast<sat::Var>(k * capacity_ + k2))});
                        }
                      }
                    })) {
    set_overflowed("successor encoding");
  }
}

void AutomatonCsp::encode_equality_columns(
    std::span<const std::pair<std::uint64_t, sat::Var>> vars, std::size_t lo,
    std::size_t hi) {
  // Vacuous for inactive columns: both clause shapes contain ~x_{a,k}, and
  // the guard assumptions hold those literals true until column k activates.
  // add_clause normalises: an equality of a state variable with itself
  // repeats a literal in one shape and is a tautology in the other.
  if (!run_emission(solver_, options_.max_clauses, vars.size(), options_.deadline,
                    [&](std::size_t i, ClauseSink& sink) {
                      const auto [key, e] = vars[i];
                      const std::size_t sv_a = key >> 32;
                      const std::size_t sv_b = key & 0xffffffffu;
                      for (std::size_t k = lo; k < hi; ++k) {
                        // (a=k & b=k) -> e
                        sink.emit_normalised(
                            {~state_lit(sv_a, k), ~state_lit(sv_b, k), sat::pos(e)});
                        // (e & a=k) -> b=k
                        sink.emit_normalised(
                            {~sat::pos(e), ~state_lit(sv_a, k), state_lit(sv_b, k)});
                      }
                    })) {
    set_overflowed("equality extension");
  }
}

sat::Var AutomatonCsp::equality_var(std::size_t sv_a, std::size_t sv_b) {
  const std::uint64_t key = static_cast<std::uint64_t>(sv_a) << 32 | sv_b;
  const auto it = equality_cache_.find(key);
  if (it != equality_cache_.end()) return it->second;
  const sat::Var e = solver_.new_var();
  equality_cache_.emplace(key, e);
  equality_list_.emplace_back(key, e);
  encode_equality_columns({&equality_list_.back(), 1}, 0, num_states_);
  return e;
}

std::size_t AutomatonCsp::star_block(PredId pred, bool src_side) {
  const std::uint32_t key = static_cast<std::uint32_t>(pred) * 2 + (src_side ? 1 : 0);
  const auto it = star_index_.find(key);
  if (it != star_index_.end()) return it->second;

  StarBlock blk;
  blk.pred = pred;
  blk.src_side = src_side;
  for (const std::size_t t : transitions_with_pred_.at(pred)) {
    blk.svs.push_back(static_cast<std::uint32_t>(src_side ? src_var_[t] : dst_var_[t]));
  }
  std::sort(blk.svs.begin(), blk.svs.end());
  blk.svs.erase(std::unique(blk.svs.begin(), blk.svs.end()), blk.svs.end());
  blk.base = solver_.new_vars(capacity_);
  const std::size_t idx = star_blocks_.size();
  star_blocks_.push_back(std::move(blk));
  star_index_.emplace(key, idx);
  // Membership binaries over the active columns: z_k is set whenever any
  // member state variable uses column k. One direction suffices — z is only
  // consumed negatively by the conflict binaries, so a spuriously-true z
  // can always be avoided by the solver; setting z exactly to the
  // disjunction witnesses satisfiability both ways.
  if (!run_emission(solver_, options_.max_clauses, 1, options_.deadline,
                    [&](std::size_t, ClauseSink& sink) {
                      emit_star_membership(star_blocks_[idx], 0, 0, num_states_, sink);
                    })) {
    set_overflowed("star membership");
  }
  return idx;
}

void AutomatonCsp::emit_star_membership(const StarBlock& blk, std::size_t from,
                                        std::size_t lo, std::size_t hi,
                                        ClauseSink& sink) const {
  for (std::size_t m = from; m < blk.svs.size(); ++m) {
    for (std::size_t k = lo; k < hi; ++k) {
      sink.emit_normalised(
          {~state_lit(blk.svs[m], k), sat::pos(blk.base + static_cast<sat::Var>(k))});
    }
  }
}

void AutomatonCsp::emit_star_conflicts(std::size_t word, std::size_t lo, std::size_t hi,
                                       ClauseSink& sink) const {
  const sat::Var za = star_blocks_[star_words_[word].first].base;
  const sat::Var zb = star_blocks_[star_words_[word].second].base;
  for (std::size_t k = lo; k < hi; ++k) {
    sink.emit_normalised({sat::neg(za + static_cast<sat::Var>(k)),
                          sat::neg(zb + static_cast<sat::Var>(k))});
  }
}

void AutomatonCsp::encode_star_columns(std::size_t lo, std::size_t hi) {
  // Items: every block's membership binaries, then every compressed word's
  // conflict binaries.
  const std::size_t blocks = star_blocks_.size();
  if (!run_emission(solver_, options_.max_clauses, blocks + star_words_.size(),
                    options_.deadline, [&](std::size_t i, ClauseSink& sink) {
                      if (i < blocks) {
                        emit_star_membership(star_blocks_[i], 0, lo, hi, sink);
                      } else {
                        emit_star_conflicts(i - blocks, lo, hi, sink);
                      }
                    })) {
    set_overflowed("star extension");
  }
}

void AutomatonCsp::encode_star_members(std::size_t t_lo) {
  // The new transitions' state variables are new members: each is either a
  // new state variable or the old leading-segment end, which had no
  // outgoing transition before.
  if (!run_emission(solver_, options_.max_clauses, star_blocks_.size(), options_.deadline,
                    [&](std::size_t i, ClauseSink& sink) {
                      StarBlock& blk = star_blocks_[i];
                      const std::size_t from = blk.svs.size();
                      for (std::size_t t = t_lo; t < preds_of_transition_.size(); ++t) {
                        if (preds_of_transition_[t] != blk.pred) continue;
                        blk.svs.push_back(static_cast<std::uint32_t>(
                            blk.src_side ? src_var_[t] : dst_var_[t]));
                      }
                      emit_star_membership(blk, from, 0, num_states_, sink);
                    })) {
    set_overflowed("star membership");
  }
}

bool AutomatonCsp::enumerate_chains(const std::vector<PredId>& word, std::size_t from,
                                    std::vector<ForbiddenChainCache::Chain>& out) const {
  // Enumerate every chain of transitions labelled by `word` that uses a
  // transition of [from, end), recording the consecutive dst/src
  // state-variable adjacencies. This is the exponential part of the
  // encoding; everything emitted from it is N-independent, so the result is
  // cached across state-count increments. The enumeration is budget-capped:
  // every chain emits at least one clause, so a chain count beyond
  // max_clauses can only end in overflow anyway — give up before the
  // product materialises (unsegmented input makes even a length-2 word
  // quadratic in its occurrence counts).
  //
  // Each group lists its transitions in index order, so the transitions of
  // [from, end) are a suffix of it. A chain that has used none of them by
  // the last position offering one takes one there; from = 0 is therefore
  // the plain product.
  std::size_t last_new = word.size();
  for (std::size_t d = 0; d < word.size(); ++d) {
    const auto& group = transitions_with_pred_.at(word[d]);
    if (!group.empty() && group.back() >= from) last_new = d;
  }
  if (last_new == word.size()) return true;
  std::vector<std::size_t> chain(word.size());
  bool truncated = false;
  const std::function<void(std::size_t, bool)> recurse = [&](std::size_t depth,
                                                             bool has_new) {
    if (truncated) return;
    if (depth == word.size()) {
      if (out.size() >= options_.max_clauses) {
        truncated = true;
        return;
      }
      ForbiddenChainCache::Chain adj;
      adj.reserve(word.size() - 1);
      for (std::size_t i = 0; i + 1 < word.size(); ++i) {
        adj.emplace_back(static_cast<std::uint32_t>(dst_var_[chain[i]]),
                         static_cast<std::uint32_t>(src_var_[chain[i + 1]]));
      }
      out.push_back(std::move(adj));
      return;
    }
    const auto& group = transitions_with_pred_[word[depth]];
    auto it = group.begin();
    if (!has_new && depth == last_new) it = std::lower_bound(group.begin(), group.end(), from);
    for (; it != group.end(); ++it) {
      chain[depth] = *it;
      recurse(depth + 1, has_new || *it >= from);
    }
  };
  recurse(0, false);
  return !truncated;
}

std::span<const ForbiddenChainCache::Chain> AutomatonCsp::chains_for(
    const std::vector<PredId>& word, std::size_t t_lo) {
  ForbiddenChainCache& cache = chain_cache_ != nullptr ? *chain_cache_ : local_chain_cache_;
  ForbiddenChainCache::Entry* entry = cache.find(word);
  if (entry == nullptr) entry = &cache.emplace(word);
  // After an extension the entry this CSP encoded the word from covers
  // exactly the transitions before it, so the new chains are its tail.
  if (entry->transitions > preds_of_transition_.size() ||
      (t_lo > 0 && entry->transitions != t_lo)) {
    throw std::logic_error("AutomatonCsp: chain cache entry of another layout");
  }
  const std::size_t from = t_lo > 0 ? entry->chains.size() : 0;
  if (entry->transitions < preds_of_transition_.size()) {
    if (!enumerate_chains(word, entry->transitions, entry->chains)) {
      cache.erase(word);  // a partial chain set must not be shared
      set_overflowed("forbidden-word chain enumeration");
      return {};
    }
    entry->transitions = preds_of_transition_.size();
  }
  return std::span<const ForbiddenChainCache::Chain>(entry->chains).subspan(from);
}

void AutomatonCsp::encode_forbidden_pair(std::span<const ForbiddenChainCache::Chain> chains,
                                         std::size_t lo, std::size_t hi) {
  // No transition labelled word[0] may feed one labelled word[1]:
  // for all pairs (a, b): dst(a) != src(b). One item per chain.
  if (!run_emission(solver_, options_.max_clauses, chains.size(), options_.deadline,
                    [&](std::size_t ci, ClauseSink& sink) {
                      const ForbiddenChainCache::Chain& adj = chains[ci];
                      for (std::size_t k = lo; k < hi; ++k) {
                        sink.emit({~state_lit(adj[0].first, k), ~state_lit(adj[0].second, k)});
                      }
                    })) {
    set_overflowed("forbidden pair");
  }
}

void AutomatonCsp::add_forbidden_sequence(const std::vector<PredId>& word) {
  if (word.empty() || overflowed_) return;
  // A repeated word is already forbidden, and extensions encode each word
  // once.
  if (std::any_of(words_.begin(), words_.end(),
                  [&word](const ForbiddenWord& fw) { return fw.word == word; })) {
    return;
  }
  words_.push_back({word, word.size() <= 2 ? WordForm::Absent : WordForm::Chain});
  encode_word(words_.size() - 1, 0);
}

void AutomatonCsp::encode_word(std::size_t w, std::size_t t_lo) {
  const std::vector<PredId>& word = words_[w].word;
  WordForm& form = words_[w].form;
  if (word.size() == 1) {
    // A single forbidden predicate cannot occur at all; with segments fixed
    // this is only satisfiable if no transition uses it.
    if (form == WordForm::Absent && !transitions_with_pred_.at(word[0]).empty()) {
      // Force root-level conflict: the instance has no such automaton.
      const sat::Var v = solver_.new_var();
      solver_.add_unit(sat::pos(v));
      solver_.add_unit(sat::neg(v));
      form = WordForm::Unit;
    }
    return;
  }
  if (word.size() == 2) {
    if (form == WordForm::Star) return;  // new members joined the blocks
    if (form == WordForm::Direct) {
      encode_forbidden_pair(chains_for(word, t_lo), 0, num_states_);
      return;
    }
    // Absent so far: every chain is new.
    const std::size_t na = transitions_with_pred_.at(word[0]).size();
    const std::size_t nb = transitions_with_pred_.at(word[1]).size();
    if (na == 0 || nb == 0) return;  // no such path exists, nothing to forbid
    // Star compression pays off as soon as the pair product beats the
    // (amortisable) membership cost; below that the direct binaries are
    // smaller and need no aux vars. Crucially the star path never
    // materialises the |A|x|B| chain product at all — on an unsegmented
    // trace that product alone can exceed the whole clause budget.
    if (options_.compress_forbidden && na * nb >= na + nb + 2) {
      const std::size_t a = star_block(word[0], /*src_side=*/false);
      const std::size_t b = star_block(word[1], /*src_side=*/true);
      if (overflowed_) return;
      form = WordForm::Star;
      star_words_.emplace_back(static_cast<std::uint32_t>(a), static_cast<std::uint32_t>(b));
      if (!run_emission(solver_, options_.max_clauses, 1, options_.deadline,
                        [&](std::size_t, ClauseSink& sink) {
                          emit_star_conflicts(star_words_.size() - 1, 0, num_states_, sink);
                        })) {
        set_overflowed("star conflict");
      }
      return;
    }
    form = WordForm::Direct;
    encode_forbidden_pair(chains_for(word), 0, num_states_);
    return;
  }
  const std::span<const ForbiddenChainCache::Chain> chains = chains_for(word, t_lo);
  // General case: for every chain of transitions labelled by `word`, at
  // least one consecutive dst/src pair must differ. Auxiliary equality
  // variables keep this polynomial per chain. The clause itself is
  // width-independent; the equality variables are extended per column at
  // grow time.
  std::vector<sat::Lit> clause;
  std::size_t since_check = 0;
  for (const ForbiddenChainCache::Chain& adj : chains) {
    if (++since_check >= 1024) {
      since_check = 0;
      if (solver_.num_clauses() >= options_.max_clauses) {
        set_overflowed("forbidden word");
        return;
      }
    }
    clause.clear();
    clause.reserve(adj.size());
    for (const auto& [dst_sv, src_sv] : adj) {
      clause.push_back(~sat::pos(equality_var(dst_sv, src_sv)));
    }
    if (overflowed_) return;  // an equality variable's clauses hit the budget
    solver_.add_clause(clause);
  }
}

sat::SolveResult AutomatonCsp::solve(const Deadline& deadline,
                                     std::span<const sat::Lit> pins) {
  if (overflowed_) return sat::SolveResult::Unknown;
  solver_.set_deadline(deadline);
  decoded_valid_ = false;
  if (!persistent()) return solver_.solve(pins);
  // Guard assumptions select the active width.
  assumptions_.clear();
  for (std::size_t k = 0; k < capacity_; ++k) {
    assumptions_.push_back(k < num_states_ ? sat::pos(act_[k]) : sat::neg(act_[k]));
  }
  assumptions_.insert(assumptions_.end(), pins.begin(), pins.end());
  return solver_.solve(assumptions_);
}

bool AutomatonCsp::unsat_for_all_states() const {
  if (!persistent()) return false;
  // With no inactive column left, Unsat may only mean "not within this
  // capacity" — the caller's rebuild path handles that case.
  if (num_states_ >= capacity_) return false;
  if (solver_.in_unsat_state()) return true;  // root-level: assumption-free
  const std::vector<sat::Lit>& core = solver_.final_conflict();
  if (core.empty()) return false;  // last solve was not an assumption Unsat
  // Column guards are the only assumptions; an inactive column's ~act_k in
  // the core voids the proof.
  return std::none_of(core.begin(), core.end(), [](sat::Lit l) { return l.negated(); });
}

void AutomatonCsp::decode_model() const {
  decoded_.assign(num_state_vars_, kNoDecodedState);
  for (std::size_t sv = 0; sv < num_state_vars_; ++sv) {
    for (std::size_t k = 0; k < num_states_; ++k) {
      if (solver_.model_value(block_base_[sv] + static_cast<sat::Var>(k))) {
        decoded_[sv] = static_cast<std::uint32_t>(k);
        break;
      }
    }
  }
  decoded_valid_ = true;
}

std::size_t AutomatonCsp::decode_state(std::size_t sv) const {
  if (!decoded_valid_) decode_model();
  const std::uint32_t k = decoded_.at(sv);
  if (k == kNoDecodedState) {
    throw std::logic_error("AutomatonCsp::decode_state: no state set (not SAT?)");
  }
  return k;
}

Nfa AutomatonCsp::extract_model() const {
  Nfa model(num_states_, 0);  // value precedence makes state variable 0 state 0
  for (std::size_t t = 0; t < preds_of_transition_.size(); ++t) {
    model.add_transition(decode_state(src_var_[t]), preds_of_transition_[t],
                         decode_state(dst_var_[t]));
  }
  return model;
}

}  // namespace t2m
