#include "src/core/compliance.h"

#include <algorithm>
#include <bit>

#include "src/automaton/ops.h"
#include "src/base/status.h"
#include "src/obs/trace.h"

namespace t2m {

namespace {

/// Amortised deadline poll shared by both DFS paths: reads the clock every
/// 4096th leaf word and throws the structured timeout that cancels the
/// whole check.
struct DeadlinePoll {
  const Deadline& deadline;
  std::uint64_t ticks = 0;
  void operator()() {
    if ((ticks++ & 4095u) != 0 || !deadline.is_finite()) return;
    if (deadline.expired()) {
      throw_status(ErrorCode::deadline_exceeded,
                   "compliance check exceeded the learn deadline");
    }
  }
};

/// l == 0 has no windows to compare, so every candidate fails on the empty
/// word and the refinement loop never converges: reject it up front.
std::size_t positive_length(std::size_t l) {
  if (l == 0) throw_status(ErrorCode::parse_error, "compliance length must be positive");
  return l;
}

}  // namespace

void ComplianceChecker::init_packing(PredId max_pred) {
  bits_ = std::max(1u, static_cast<std::uint32_t>(std::bit_width(
                           static_cast<std::uint64_t>(max_pred))));
  packed_ = bits_ < 64 && l_ * bits_ <= 64;
  if (packed_) {
    const std::uint32_t width = static_cast<std::uint32_t>(l_) * bits_;
    mask_ = width == 64 ? ~0ULL : (1ULL << width) - 1;
  }
}

std::uint64_t ComplianceChecker::pack_word(const std::vector<PredId>& word) const {
  std::uint64_t key = 0;
  for (const PredId p : word) {
    key = ((key << bits_) | static_cast<std::uint64_t>(p)) & mask_;
  }
  return key;
}

ComplianceChecker::ComplianceChecker(const std::vector<PredId>& seq, std::size_t l)
    : l_(positive_length(l)) {
  // Mirror the original subsequences() edge case: no windows for a sequence
  // shorter than l. The empty window set is served by the generic
  // hashed-vector path; every model word is missing.
  if (seq.size() < l_) return;

  PredId max_pred = 0;
  for (const PredId p : seq) max_pred = std::max(max_pred, p);
  init_packing(max_pred);

  if (packed_) {
    packed_windows_.reserve(seq.size());
    // Rolling pack: shift each predicate in and mask to the window width;
    // one pass, no per-window allocation.
    std::uint64_t key = 0;
    for (std::size_t i = 0; i < seq.size(); ++i) {
      key = ((key << bits_) | static_cast<std::uint64_t>(seq[i])) & mask_;
      if (i + 1 >= l_) packed_windows_.insert(key);
    }
    trace_windows_ = packed_windows_.size();
  } else {
    vec_windows_.reserve(seq.size());
    for (std::size_t i = 0; i + l_ <= seq.size(); ++i) {
      vec_windows_.insert(std::vector<PredId>(
          seq.begin() + static_cast<std::ptrdiff_t>(i),
          seq.begin() + static_cast<std::ptrdiff_t>(i + l_)));
    }
    trace_windows_ = vec_windows_.size();
  }
}

bool ComplianceChecker::packed_usable(const Nfa& model) const {
  if (!packed_) return false;
  // Every model predicate must fit the per-id bit budget, or packed keys
  // would alias distinct words.
  const std::uint64_t limit = bits_ >= 64 ? ~0ULL : (1ULL << bits_);
  for (const Transition& t : model.transitions()) {
    if (static_cast<std::uint64_t>(t.pred) >= limit) return false;
  }
  return true;
}

void ComplianceChecker::check_packed(
    const std::vector<std::vector<std::pair<PredId, StateId>>>& adj,
    ComplianceResult& result) const {
  // Streaming DFS over packed keys: dedup and membership are both O(1)
  // integer hashing; only missing words are materialised.
  std::unordered_set<std::uint64_t> seen;
  std::vector<PredId> prefix;
  prefix.reserve(l_);
  DeadlinePoll poll{deadline_};
  const auto dfs = [&](auto&& self, StateId state, std::uint64_t key) -> void {
    if (prefix.size() == l_) {
      poll();
      if (seen.insert(key).second && packed_windows_.count(key) == 0) {
        result.invalid_sequences.insert(prefix);
      }
      return;
    }
    for (const auto& [pred, dst] : adj[state]) {
      prefix.push_back(pred);
      self(self, dst, ((key << bits_) | static_cast<std::uint64_t>(pred)) & mask_);
      prefix.pop_back();
    }
  };
  for (StateId s = 0; s < adj.size(); ++s) dfs(dfs, s, 0);
  result.model_sequences = seen.size();
}

void ComplianceChecker::check_vec(
    const std::vector<std::vector<std::pair<PredId, StateId>>>& adj,
    ComplianceResult& result) const {
  // Generic path: hashed vector keys. Taken when windows exceed 64 bits
  // or a model predicate is outside the trace's id range.
  std::unordered_set<std::vector<PredId>, VectorHash> seen;
  std::vector<PredId> prefix;
  prefix.reserve(l_);
  const auto in_trace = [this](const std::vector<PredId>& word) {
    if (!packed_) return vec_windows_.count(word) != 0;
    std::uint64_t key = 0;
    const std::uint64_t limit = bits_ >= 64 ? ~0ULL : (1ULL << bits_);
    for (const PredId p : word) {
      if (static_cast<std::uint64_t>(p) >= limit) return false;  // never seen in trace
      key = ((key << bits_) | static_cast<std::uint64_t>(p)) & mask_;
    }
    return packed_windows_.count(key) != 0;
  };
  DeadlinePoll poll{deadline_};
  const auto dfs = [&](auto&& self, StateId state) -> void {
    if (prefix.size() == l_) {
      poll();
      if (seen.insert(prefix).second && !in_trace(prefix)) {
        result.invalid_sequences.insert(prefix);
      }
      return;
    }
    for (const auto& [pred, dst] : adj[state]) {
      prefix.push_back(pred);
      self(self, dst);
      prefix.pop_back();
    }
  };
  for (StateId s = 0; s < adj.size(); ++s) dfs(dfs, s);
  result.model_sequences = seen.size();
}

ComplianceResult ComplianceChecker::check(const Nfa& model) const {
  T2M_SPAN_SCOPE(check_span, "compliance.check", "states", model.num_states());
  ComplianceResult result;
  result.trace_sequences = trace_windows_;
  const auto adj = out_edges(model);
  if (packed_usable(model)) {
    check_packed(adj, result);
  } else {
    check_vec(adj, result);
  }
  result.compliant = result.invalid_sequences.empty();
  check_span.arg("compliant", result.compliant);
  check_span.arg("invalid_sequences", result.invalid_sequences.size());
  return result;
}

ComplianceWindowBuilder::ComplianceWindowBuilder(std::size_t l)
    : l_(positive_length(l)), dedup_(l) {}

void ComplianceWindowBuilder::push(PredId p) {
  max_pred_ = std::max(max_pred_, p);
  dedup_.push(p);
}

ComplianceChecker ComplianceWindowBuilder::finish() {
  ComplianceChecker checker(l_);
  // Mirror the batch constructor's edge case: a stream shorter than l leaves
  // an empty window set served by the generic path.
  if (dedup_.pushed() < l_) return checker;
  // Every stream element is covered by at least one window once count >= l,
  // so the maximum over pushed ids equals the batch path's maximum over the
  // whole sequence — the packed-representation decision is identical.
  checker.init_packing(max_pred_);
  std::vector<std::vector<PredId>> windows = dedup_.take_windows();
  if (checker.packed_) {
    checker.packed_windows_.reserve(windows.size());
    for (const auto& window : windows) {
      checker.packed_windows_.insert(checker.pack_word(window));
    }
  } else {
    checker.vec_windows_.reserve(windows.size());
    for (auto& window : windows) checker.vec_windows_.insert(std::move(window));
  }
  checker.trace_windows_ =
      checker.packed_ ? checker.packed_windows_.size() : checker.vec_windows_.size();
  return checker;
}

ComplianceResult check_compliance(const Nfa& model, const std::vector<PredId>& seq,
                                  std::size_t l) {
  return ComplianceChecker(seq, l).check(model);
}

}  // namespace t2m
