#include "src/core/csp_encoder.h"

#include <algorithm>
#include <array>
#include <functional>
#include <limits>
#include <span>
#include <stdexcept>

#include "src/base/status.h"
#include "src/obs/trace.h"
#include "src/sat/var_remap.h"
#include "src/util/log.h"

namespace t2m {

namespace {

constexpr std::uint32_t kNoDecodedState = std::numeric_limits<std::uint32_t>::max();

}  // namespace

/// Clause output of one emission pass (run_emission), written straight into
/// the solver's open clause batch:
/// - emit() sorts the clause and hands it to Solver::add_clause_presorted,
///   which keeps the root-assignment filter but neither deduplicates nor
///   drops tautologies;
/// - emit_normalised() hands the clause to Solver::add_clause as given, for
///   shapes that may repeat a literal or be a tautology.
/// Once the solver holds `max_clauses` problem clauses, further clauses are
/// dropped and the pass reports overflow.
class ClauseSink {
public:
  ClauseSink(sat::Solver& solver, std::size_t max_clauses)
      : solver_(solver), max_clauses_(max_clauses) {}

  void emit(std::initializer_list<sat::Lit> lits, bool tainted = false) {
    emit_span({lits.begin(), lits.size()}, tainted);
  }
  void emit_span(std::span<const sat::Lit> lits, bool tainted = false) {
    if (!within_budget()) return;
    sorted_.assign(lits.begin(), lits.end());
    std::sort(sorted_.begin(), sorted_.end());
    solver_.add_clause_presorted(sorted_, tainted);
  }
  void emit_normalised(std::initializer_list<sat::Lit> lits) {
    if (!within_budget()) return;
    solver_.add_clause({lits.begin(), lits.size()});
  }
  bool overflowed() const { return overflowed_; }

private:
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
  std::vector<sat::Lit> sorted_;
};

namespace {

/// Runs `build(item, sink)` for every item in [0, n_items), in order, inside
/// one clause batch (sat::ClauseBatch). Returns false when the clause budget
/// was hit; the caller marks the CSP overflowed.
///
/// The deadline is polled once per 64 items. An expiry throws
/// deadline_exceeded; the batch still closes, attaching the clauses emitted
/// so far, and the learner discards the half-built CSP and converts the
/// escape into its timed-out verdict.
template <typename BuildFn>
bool run_emission(sat::Solver& solver, std::size_t max_clauses, std::size_t n_items,
                  const Deadline& deadline, const BuildFn& build) {
  if (n_items == 0) return true;
  T2M_SPAN("encode.emit_serial", "items", n_items);
  sat::ClauseBatch batch(solver);
  ClauseSink sink(solver, max_clauses);
  for (std::size_t i = 0; i < n_items && !sink.overflowed(); ++i) {
    if (deadline.is_finite() && (i & 63u) == 0 && deadline.expired()) {
      throw_status(ErrorCode::deadline_exceeded,
                   "clause emission exceeded the learn deadline");
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
    for (std::size_t j = 0; j < segment.size(); ++j) {
      preds_of_transition_.push_back(segment[j]);
      src_var_.push_back(first_var + j);
      dst_var_.push_back(first_var + j + 1);
    }
  }

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

  // At-least-one over the full block width (tainted: it is the one clause
  // of the encoding whose literal set depends on the capacity, so nothing
  // derived from it may be re-seeded into a differently-sized rebuild). In
  // persistent mode the guard binaries (act_k | ~x) restrict it to the
  // active columns under the per-solve assumptions; in fixed mode the width
  // IS the state count.
  const std::size_t cap = capacity_;
  const std::size_t n0 = num_states_;
  std::vector<sat::Lit> alo(cap);
  if (!run_emission(solver_, options_.max_clauses, num_state_vars_, options_.deadline,
                    [&](std::size_t sv, ClauseSink& sink) {
                      for (std::size_t k = 0; k < cap; ++k) alo[k] = state_lit(sv, k);
                      sink.emit_span(alo, /*tainted=*/true);
                      if (!act_.empty()) {
                        // Guard binaries only for columns that can ever be
                        // inactive: N only grows, so the first n0 columns
                        // never need deactivating.
                        for (std::size_t k = n0; k < cap; ++k) {
                          sink.emit({sat::pos(act_[k]), ~state_lit(sv, k)});
                        }
                      }
                    })) {
    set_overflowed("one-hot at-least-one");
    return;
  }

  activate_columns(0, num_states_);
}

sat::Lit AutomatonCsp::state_lit(std::size_t sv, std::size_t k) const {
  return sat::pos(block_base_.at(sv) + static_cast<sat::Var>(k));
}

sat::Lit AutomatonCsp::chain_lit(std::size_t g, std::size_t c) const {
  return sat::pos(chain_base_.at(c) + static_cast<sat::Var>(g));
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
  if (!run_emission(solver_, options_.max_clauses, num_state_vars_, options_.deadline,
                    [&](std::size_t sv, ClauseSink& sink) {
                      for (std::size_t j = std::max<std::size_t>(lo, 1); j < hi; ++j) {
                        for (std::size_t i = 0; i < j; ++i) {
                          sink.emit({~state_lit(sv, i), ~state_lit(sv, j)});
                        }
                      }
                    })) {
    set_overflowed("one-hot at-most-one");
    return;
  }
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
  for (const auto& word : forbidden_pairs_) {
    encode_forbidden_pair(chains_for(word), lo, hi);
    if (overflowed_) return;
  }
  encode_equality_columns(equality_list_, lo, hi);
}

void AutomatonCsp::encode_precedence_columns(std::size_t lo, std::size_t hi) {
  if (num_state_vars_ == 0) return;
  // Column k >= 2 reads the chain of column k-1; only the chain of column
  // capacity_-2 is still unallocated here.
  for (std::size_t c = std::max<std::size_t>(lo, 2) - 1; c + 1 < hi; ++c) {
    if (chain_base_[c] != kVarUndef) continue;
    chain_base_[c] = solver_.new_vars(num_chain_groups());
  }
  if (!run_emission(
          solver_, options_.max_clauses, num_state_vars_, options_.deadline,
          [&](std::size_t sv, ClauseSink& sink) {
            const std::size_t g = sv / kChainStride;
            const std::size_t first = g * kChainStride;
            const bool group_end = sv + 1 == std::min(num_state_vars_, first + kChainStride);
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
            const std::size_t a = group[a_i];
            for (std::size_t b_i = a_i + 1; b_i < group.size(); ++b_i) {
              const std::size_t b = group[b_i];
              if (src_var_[a] == src_var_[b] && dst_var_[a] == dst_var_[b]) continue;
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
          })) {
    set_overflowed("pairwise encoding");
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
  // Phase 1: at-most-one per (source state, predicate) successor block; for
  // sources already active only the pairs reaching into the new columns are
  // missing.
  if (!run_emission(solver_, options_.max_clauses, used_preds.size(), options_.deadline,
                    [&](std::size_t pi, ClauseSink& sink) {
                      const sat::Var succ_base = succ_base_[used_preds[pi]];
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
    return;
  }
  // Phase 2: the transition links, one item per transition in the flattened
  // transition order (by predicate, then group order).
  if (!run_emission(solver_, options_.max_clauses, trans_order_.size(), options_.deadline,
                    [&](std::size_t ti, ClauseSink& sink) {
                      const std::size_t t = trans_order_[ti];
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
                      const std::size_t sv_a = key / num_state_vars_;
                      const std::size_t sv_b = key % num_state_vars_;
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
  const std::uint64_t key =
      static_cast<std::uint64_t>(sv_a) * num_state_vars_ + sv_b;
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
                      emit_star_membership(star_blocks_[idx], 0, num_states_, sink);
                    })) {
    set_overflowed("star membership");
  }
  return idx;
}

void AutomatonCsp::emit_star_membership(const StarBlock& blk, std::size_t lo,
                                        std::size_t hi, ClauseSink& sink) const {
  for (const std::uint32_t sv : blk.svs) {
    for (std::size_t k = lo; k < hi; ++k) {
      sink.emit_normalised({~state_lit(sv, k), sat::pos(blk.base + static_cast<sat::Var>(k))});
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
                        emit_star_membership(star_blocks_[i], lo, hi, sink);
                      } else {
                        emit_star_conflicts(i - blocks, lo, hi, sink);
                      }
                    })) {
    set_overflowed("star extension");
  }
}

const std::vector<ForbiddenChainCache::Chain>& AutomatonCsp::chains_for(
    const std::vector<PredId>& word) {
  ForbiddenChainCache& cache = chain_cache_ ? *chain_cache_ : local_chain_cache_;
  if (const auto* hit = cache.find(word)) return *hit;
  // Enumerate every chain of transitions labelled by `word`, recording the
  // consecutive dst/src state-variable adjacencies. This is the exponential
  // part of the encoding; everything emitted from it is N-independent, so
  // the result is cached across state-count increments. The enumeration is
  // budget-capped: every chain emits at least one clause, so a chain count
  // beyond max_clauses can only end in overflow anyway — give up before the
  // product materialises (unsegmented input makes even a length-2 word
  // quadratic in its occurrence counts).
  std::vector<ForbiddenChainCache::Chain>& chains = cache.emplace(word);
  std::vector<std::size_t> chain(word.size());
  bool truncated = false;
  const std::function<void(std::size_t)> recurse = [&](std::size_t depth) {
    if (truncated) return;
    if (depth == word.size()) {
      if (chains.size() >= options_.max_clauses) {
        truncated = true;
        return;
      }
      ForbiddenChainCache::Chain adj;
      adj.reserve(word.size() - 1);
      for (std::size_t i = 0; i + 1 < word.size(); ++i) {
        adj.emplace_back(static_cast<std::uint32_t>(dst_var_[chain[i]]),
                         static_cast<std::uint32_t>(src_var_[chain[i + 1]]));
      }
      chains.push_back(std::move(adj));
      return;
    }
    for (const std::size_t t : transitions_with_pred_.at(word[depth])) {
      chain[depth] = t;
      recurse(depth + 1);
    }
  };
  recurse(0);
  if (truncated) {
    cache.erase(word);  // a partial chain set must not be shared
    set_overflowed("forbidden-word chain enumeration");
    static const std::vector<ForbiddenChainCache::Chain> kNoChains;
    return kNoChains;
  }
  return chains;
}

void AutomatonCsp::encode_forbidden_pair(
    const std::vector<ForbiddenChainCache::Chain>& chains, std::size_t lo,
    std::size_t hi) {
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
  if (word.size() == 1) {
    // A single forbidden predicate cannot occur at all; with segments fixed
    // this is only satisfiable if no transition uses it.
    if (!transitions_with_pred_.at(word[0]).empty()) {
      // Force root-level conflict: the instance has no such automaton.
      const sat::Var v = solver_.new_var();
      solver_.add_unit(sat::pos(v));
      solver_.add_unit(sat::neg(v));
    }
    return;
  }
  if (word.size() == 2) {
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
      star_words_.emplace_back(static_cast<std::uint32_t>(a), static_cast<std::uint32_t>(b));
      if (!run_emission(solver_, options_.max_clauses, 1, options_.deadline,
                        [&](std::size_t, ClauseSink& sink) {
                          emit_star_conflicts(star_words_.size() - 1, 0, num_states_, sink);
                        })) {
        set_overflowed("star conflict");
      }
      return;
    }
    const std::vector<ForbiddenChainCache::Chain>& chains = chains_for(word);
    encode_forbidden_pair(chains, 0, num_states_);
    // Overflowed words are not recorded: grow_to would only re-run a chain
    // enumeration already known to be too large.
    if (!overflowed_) forbidden_pairs_.push_back(word);
    return;
  }
  const std::vector<ForbiddenChainCache::Chain>& chains = chains_for(word);
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

std::size_t AutomatonCsp::reseed_from(const AutomatonCsp& old) {
  // Only meaningful across a capacity rebuild over the same segment layout.
  if (old.num_state_vars_ != num_state_vars_ || old.num_preds_ != num_preds_ ||
      old.preds_of_transition_.size() != preds_of_transition_.size()) {
    return 0;
  }
  sat::VarRemap remap;
  const std::size_t kmin = std::min(old.capacity_, capacity_);
  for (std::size_t sv = 0; sv < num_state_vars_; ++sv) {
    for (std::size_t k = 0; k < kmin; ++k) {
      remap.map(old.block_base_[sv] + static_cast<sat::Var>(k),
                block_base_[sv] + static_cast<sat::Var>(k));
    }
  }
  for (std::size_t c = 1; c < kmin; ++c) {
    if (old.chain_base_[c] == kVarUndef || chain_base_[c] == kVarUndef) continue;
    for (std::size_t g = 0; g < num_chain_groups(); ++g) {
      remap.map(old.chain_base_[c] + static_cast<sat::Var>(g),
                chain_base_[c] + static_cast<sat::Var>(g));
    }
  }
  for (std::size_t k = 0; k < std::min({old.act_.size(), act_.size()}); ++k) {
    remap.map(old.act_[k], act_[k]);
  }
  for (std::size_t p = 0; p < num_preds_; ++p) {
    if (old.succ_base_[p] == kVarUndef || succ_base_[p] == kVarUndef) continue;
    for (std::size_t k = 0; k < kmin; ++k) {
      for (std::size_t k2 = 0; k2 < kmin; ++k2) {
        remap.map(old.succ_base_[p] + static_cast<sat::Var>(k * old.capacity_ + k2),
                  succ_base_[p] + static_cast<sat::Var>(k * capacity_ + k2));
      }
    }
  }
  for (const auto& [key, e_old] : old.equality_list_) {
    const auto it = equality_cache_.find(key);
    if (it != equality_cache_.end()) remap.map(e_old, it->second);
  }
  for (const auto& [key, old_idx] : old.star_index_) {
    const auto it = star_index_.find(key);
    if (it == star_index_.end()) continue;
    const sat::Var old_base = old.star_blocks_[old_idx].base;
    const sat::Var new_base = star_blocks_[it->second].base;
    for (std::size_t k = 0; k < kmin; ++k) {
      remap.map(old_base + static_cast<sat::Var>(k), new_base + static_cast<sat::Var>(k));
    }
  }

  std::size_t imported = 0;
  sat::Clause mapped;
  for (const sat::Clause& c : old.solver_.export_clauses(/*max_lbd=*/2)) {
    if (!remap.map_clause(c, mapped)) continue;
    solver_.add_clause(mapped);
    ++imported;
  }
  return imported;
}

sat::SolveResult AutomatonCsp::solve(const Deadline& deadline) {
  if (overflowed_) return sat::SolveResult::Unknown;
  solver_.set_deadline(deadline);
  decoded_valid_ = false;
  if (!persistent()) return solver_.solve();
  // Guard assumptions select the active width.
  assumptions_.clear();
  for (std::size_t k = 0; k < capacity_; ++k) {
    assumptions_.push_back(k < num_states_ ? sat::pos(act_[k]) : sat::neg(act_[k]));
  }
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
