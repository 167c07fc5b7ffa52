#include "src/core/compliance.h"

#include <algorithm>
#include <bit>

#include "src/automaton/ops.h"
#include "src/base/status.h"
#include "src/obs/progress.h"
#include "src/obs/trace.h"

namespace t2m {

namespace {

/// Amortised deadline poll shared by both DFS paths: every 4096th leaf word
/// it ticks the progress poll and reads the clock, and throws the structured
/// timeout that cancels the whole check.
struct DeadlinePoll {
  const Deadline& deadline;
  std::uint64_t ticks = 0;
  void operator()() {
    if ((ticks++ & 4095u) != 0) return;
    obs::ProgressPoll::tick();
    if (deadline.is_finite() && deadline.expired()) {
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

ComplianceChecker::ComplianceChecker(const std::vector<PredId>& seq, std::size_t l)
    : l_(positive_length(l)) {
  build_windows(std::span<const std::vector<PredId>>(&seq, 1));
}

ComplianceChecker ComplianceChecker::from_windows(
    const std::vector<std::vector<PredId>>& windows, std::size_t l) {
  ComplianceChecker checker(positive_length(l));
  checker.build_windows(windows);
  return checker;
}

void ComplianceChecker::build_windows(std::span<const std::vector<PredId>> windows) {
  // Mirror the original subsequences() edge case: no windows inside a
  // window shorter than l. With none at all, the empty window set is served
  // by the generic hashed-vector path; every model word is missing.
  PredId max_pred = 0;
  std::size_t count = 0;  // length-l windows, duplicates included
  for (const auto& window : windows) {
    if (window.size() < l_) continue;
    count += window.size() - l_ + 1;
    for (const PredId p : window) max_pred = std::max(max_pred, p);
  }
  if (count == 0) return;

  // The representation follows the largest id: packed when l ids fit in
  // 64 bits, hashed vectors otherwise.
  bits_ = std::max(1u, static_cast<std::uint32_t>(std::bit_width(
                           static_cast<std::uint64_t>(max_pred))));
  packed_ = bits_ < 64 && l_ * bits_ <= 64;
  if (packed_) {
    const std::uint32_t width = static_cast<std::uint32_t>(l_) * bits_;
    mask_ = width == 64 ? ~0ULL : (1ULL << width) - 1;
    packed_windows_.reserve(count);
    for (const auto& window : windows) {
      // Rolling pack: shift each predicate in and mask to the window width;
      // one pass, no per-window allocation.
      std::uint64_t key = 0;
      for (std::size_t i = 0; i < window.size(); ++i) {
        key = ((key << bits_) | static_cast<std::uint64_t>(window[i])) & mask_;
        if (i + 1 >= l_) packed_windows_.insert(key);
      }
    }
    trace_windows_ = packed_windows_.size();
  } else {
    vec_windows_.reserve(count);
    for (const auto& window : windows) {
      for (std::size_t i = 0; i + l_ <= window.size(); ++i) {
        vec_windows_.emplace(window.begin() + static_cast<std::ptrdiff_t>(i),
                             window.begin() + static_cast<std::ptrdiff_t>(i + l_));
      }
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

ComplianceChecker ComplianceWindowBuilder::finish() {
  // A stream shorter than l completed no window: the empty window set.
  return ComplianceChecker::from_windows(dedup_.take_windows(), l_);
}

ComplianceResult check_compliance(const Nfa& model, const std::vector<PredId>& seq,
                                  std::size_t l) {
  return ComplianceChecker(seq, l).check(model);
}

}  // namespace t2m
