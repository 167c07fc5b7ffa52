#include "verify.h"

#include <algorithm>
#include <functional>
#include <set>
#include <unordered_set>

namespace perfbench {

namespace {

using t2m::PredId;
using t2m::StateId;

/// Replays `seq` as an NFA run: the set of states reachable after each
/// prefix, starting from the initial state.
void check_replay(const t2m::Nfa& model, const std::vector<PredId>& seq, ModelCheck& out) {
  const std::size_t n = model.num_states();
  PredId vocab = 0;
  for (const auto& t : model.transitions()) vocab = std::max(vocab, t.pred + 1);
  // table[q * vocab + p] = destinations of q under p.
  std::vector<std::vector<StateId>> table(n * vocab);
  for (const auto& t : model.transitions()) {
    if (t.src < n && t.dst < n) table[t.src * vocab + t.pred].push_back(t.dst);
  }

  std::vector<StateId> current;
  if (model.initial() < n) current.push_back(model.initial());
  std::vector<StateId> next;
  std::vector<char> seen(n, 0);
  for (std::size_t i = 0; i < seq.size(); ++i) {
    next.clear();
    if (seq[i] < vocab) {
      for (const StateId q : current) {
        for (const StateId d : table[q * vocab + seq[i]]) {
          if (!seen[d]) {
            seen[d] = 1;
            next.push_back(d);
          }
        }
      }
    }
    for (const StateId d : next) seen[d] = 0;
    if (next.empty()) {
      out.replays = false;
      out.replay_stuck_at = i;
      return;
    }
    current.swap(next);
  }
  out.replays = !current.empty() || seq.empty();
}

/// The distinct length-l windows of `seq`. Windows are first deduplicated
/// as offsets into `seq` (no allocation per repeat), then copied out.
std::set<std::vector<PredId>> trace_windows(const std::vector<PredId>& seq, std::size_t l) {
  std::set<std::vector<PredId>> windows;
  if (l == 0 || seq.size() < l) return windows;
  const auto hash = [&seq, l](std::size_t off) {
    std::size_t h = 1469598103934665603ULL;
    for (std::size_t k = 0; k < l; ++k) h = (h ^ seq[off + k]) * 1099511628211ULL;
    return h;
  };
  const auto equal = [&seq, l](std::size_t a, std::size_t b) {
    for (std::size_t k = 0; k < l; ++k) {
      if (seq[a + k] != seq[b + k]) return false;
    }
    return true;
  };
  std::unordered_set<std::size_t, decltype(hash), decltype(equal)> offsets(64, hash, equal);
  for (std::size_t off = 0; off + l <= seq.size(); ++off) offsets.insert(off);
  for (const std::size_t off : offsets) {
    windows.emplace(seq.begin() + static_cast<std::ptrdiff_t>(off),
                    seq.begin() + static_cast<std::ptrdiff_t>(off + l));
  }
  return windows;
}

void check_paths(const t2m::Nfa& model, const std::vector<PredId>& seq, std::size_t l,
                 ModelCheck& out) {
  out.paths_in_trace = true;
  if (l == 0) return;
  const std::set<std::vector<PredId>> windows = trace_windows(seq, l);
  const std::size_t n = model.num_states();
  std::vector<std::vector<std::pair<PredId, StateId>>> edges(n);
  for (const auto& t : model.transitions()) {
    if (t.src < n && t.dst < n) edges[t.src].emplace_back(t.pred, t.dst);
  }
  std::vector<PredId> word;
  const std::function<bool(StateId)> walk = [&](StateId q) {
    if (word.size() == l) return windows.count(word) != 0;
    for (const auto& [pred, dst] : edges[q]) {
      word.push_back(pred);
      if (!walk(dst)) return false;
      word.pop_back();
    }
    return true;
  };
  for (StateId q = 0; q < n; ++q) {
    if (!walk(q)) {
      out.paths_in_trace = false;
      out.bad_word = word;
      return;
    }
  }
}

}  // namespace

std::string ModelCheck::describe() const {
  if (!within_bound) return "too many states";
  if (!replays) return "no replay: stuck at step " + std::to_string(replay_stuck_at);
  if (!paths_in_trace) {
    std::string s = "model path not in trace:";
    for (const PredId p : bad_word) s += " p" + std::to_string(p);
    return s;
  }
  return "ok";
}

ModelCheck check_model(const t2m::Nfa& model, const std::vector<PredId>& seq,
                       std::size_t l, std::size_t bound) {
  ModelCheck out;
  out.within_bound = model.num_states() <= bound;
  check_replay(model, seq, out);
  check_paths(model, seq, l, out);
  return out;
}

}  // namespace perfbench
