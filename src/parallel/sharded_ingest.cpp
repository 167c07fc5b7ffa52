#include "src/parallel/sharded_ingest.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "src/abstraction/event_stream.h"
#include "src/base/status.h"
#include "src/obs/trace.h"
#include "src/parallel/scratch_arena.h"
#include "src/parallel/thread_pool.h"
#include "src/trace/ftrace_io.h"
#include "src/trace/mmap_io.h"
#include "src/util/hash.h"
#include "src/util/window_dedup.h"

namespace t2m::par {
namespace {

/// Everything one shard scan produces, in shard-local predicate ids (dense,
/// first-occurrence order within the shard). Local ids are 32-bit: a shard
/// cannot see more distinct events than bytes.
struct ShardScan {
  std::size_t observations = 0;  ///< parsed (and filter-passing) events
  std::size_t preds = 0;         ///< step destinations (|local pred sequence|)
  bool has_first_obs = false;
  std::string first_obs;  ///< event string of the shard's first observation
  /// Local pred id -> event string, in local first-occurrence order.
  std::vector<std::string> dest_order;
  /// First min(preds, K) local ids (K covers every merge window length).
  std::vector<std::uint32_t> lead;
  /// Last min(preds, K) local ids.
  std::vector<std::uint32_t> rear;
  /// Distinct windows fully inside the shard, local first-occurrence order.
  std::vector<std::vector<std::uint32_t>> seg_windows;
  std::vector<std::vector<std::uint32_t>> cmp_windows;
  /// Full local-id sequence (only when the caller keeps the sequence).
  std::vector<std::uint32_t> seq;
};

/// Amortised deadline poll for the scan and merge loops: reads the clock
/// every 8192nd call and throws the structured timeout on expiry.
struct IngestDeadlinePoll {
  const Deadline& deadline;
  std::uint64_t ticks = 0;
  void operator()() {
    if ((ticks++ & 8191u) != 0 || !deadline.is_finite()) return;
    if (deadline.expired()) {
      throw_status(ErrorCode::deadline_exceeded,
                   "trace ingest exceeded the learn deadline");
    }
  }
};

/// Cuts `content` at line boundaries into up to `shards` non-empty regions.
std::vector<std::string_view> split_regions(std::string_view content,
                                            std::size_t shards) {
  std::vector<std::size_t> cuts{0};
  for (std::size_t s = 1; s < shards; ++s) {
    const std::size_t target = content.size() * s / shards;
    if (target <= cuts.back()) continue;
    const char* nl = static_cast<const char*>(
        std::memchr(content.data() + target, '\n', content.size() - target));
    const std::size_t cut =
        nl != nullptr ? static_cast<std::size_t>(nl - content.data()) + 1 : content.size();
    if (cut > cuts.back() && cut < content.size()) cuts.push_back(cut);
  }
  cuts.push_back(content.size());
  std::vector<std::string_view> regions;
  regions.reserve(cuts.size() - 1);
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    if (cuts[i + 1] > cuts[i]) {
      regions.push_back(content.substr(cuts[i], cuts[i + 1] - cuts[i]));
    }
  }
  if (regions.empty()) regions.push_back(content.substr(0, 0));
  return regions;
}

/// One shard's pass: parse lines, intern event strings locally, feed the
/// window dedups. The step predicate depends only on the destination
/// observation (see EventStreamAbstractor), so a shard needs no context from
/// its predecessor: every observation it sees is a step destination — except
/// the very first observation of the whole trace (`fresh_start`), which
/// starts the trace instead of ending a step.
void scan_shard(std::string_view region, bool fresh_start,
                const ShardedIngestOptions& opt, std::size_t K, ShardScan& out) {
  LineReader lines(region, LineReader::from_memory);
  std::unordered_map<std::string, std::uint32_t> local_ids;
  std::optional<StreamingWindowDedup<std::uint32_t>> seg_dedup;
  if (opt.segmented) seg_dedup.emplace(std::max<std::size_t>(opt.window, 1));
  std::optional<StreamingWindowDedup<std::uint32_t>> cmp_dedup;
  if (opt.compliance_length > 0) {
    cmp_dedup.emplace(std::max<std::size_t>(opt.compliance_length, 1));
  }
  std::vector<std::uint32_t> rear_ring(std::max<std::size_t>(K, 1));

  std::string task, event;
  std::string_view line;
  IngestDeadlinePoll poll{opt.deadline};
  while (lines.next(line)) {
    poll();
    if (!parse_ftrace_line(line, task, event)) continue;
    if (!opt.task_filter.empty() && task != opt.task_filter) continue;
    ++out.observations;
    if (!out.has_first_obs) {
      out.has_first_obs = true;
      out.first_obs = event;
      if (fresh_start) continue;  // the trace's first observation: no step yet
    }
    const auto [it, inserted] =
        local_ids.try_emplace(event, static_cast<std::uint32_t>(out.dest_order.size()));
    if (inserted) out.dest_order.push_back(event);
    const std::uint32_t lid = it->second;
    if (seg_dedup) seg_dedup->push(lid);
    if (cmp_dedup) cmp_dedup->push(lid);
    if (out.preds < K) out.lead.push_back(lid);
    if (K > 0) rear_ring[out.preds % K] = lid;
    if (opt.keep_sequence) out.seq.push_back(lid);
    ++out.preds;
  }

  if (seg_dedup) out.seg_windows = seg_dedup->take_windows();
  if (cmp_dedup) out.cmp_windows = cmp_dedup->take_windows();
  const std::size_t r = std::min(out.preds, K);
  out.rear.resize(r);
  for (std::size_t i = 0; i < r; ++i) {
    out.rear[i] = rear_ring[(out.preds - r + i) % K];
  }
}

/// Order-preserving distinct-window accumulator for the merge: insert keeps
/// the first occurrence, exactly as the sequential dedup would have. Stored
/// as hash buckets of indices into the ordered list (the window_dedup.h
/// layout), so each distinct window is held once, not once per container.
class OrderedWindowMerge {
public:
  void insert(std::vector<PredId> window) {
    auto& bucket = buckets_[VectorHash{}(window)];
    for (const std::uint32_t idx : bucket) {
      if (order_[idx] == window) return;
    }
    bucket.push_back(static_cast<std::uint32_t>(order_.size()));
    order_.push_back(std::move(window));
  }
  std::vector<std::vector<PredId>> take() { return std::move(order_); }

private:
  std::unordered_map<std::size_t, std::vector<std::uint32_t>> buckets_;
  std::vector<std::vector<PredId>> order_;
};

/// Emits the length-L windows that straddle the cut between the processed
/// stream (whose last up-to-(L-1) predicates are `tail`) and the next
/// shard (whose first predicates are `lead`), in stream order. Windows fully
/// inside the tail were emitted at an earlier cut; windows fully inside the
/// lead are in the shard's local list.
void emit_cross_windows(const std::vector<PredId>& tail, const std::vector<PredId>& lead,
                        std::size_t L, OrderedWindowMerge& out) {
  if (L == 0 || tail.empty() || lead.empty()) return;
  ScratchArena& scratch = local_scratch();
  scratch.reset();
  const std::size_t tape_len = tail.size() + lead.size();
  PredId* tape = scratch.alloc_array<PredId>(tape_len);
  std::copy(tail.begin(), tail.end(), tape);
  std::copy(lead.begin(), lead.end(), tape + tail.size());
  // advance_tail caps the tail at L-1 elements, so every enumerated window
  // necessarily crosses into the lead — none can sit fully inside the tail.
  for (std::size_t p = 0; p < tail.size() && p + L <= tape_len; ++p) {
    out.insert(std::vector<PredId>(tape + p, tape + p + L));
  }
}

/// Appends `take` and trims to the last L-1 elements: the rolling context
/// the next cut's cross windows need.
void advance_tail(std::vector<PredId>& tail, const std::vector<PredId>& take,
                  std::size_t L) {
  if (L <= 1) return;
  tail.insert(tail.end(), take.begin(), take.end());
  if (tail.size() > L - 1) {
    tail.erase(tail.begin(),
               tail.begin() + static_cast<std::ptrdiff_t>(tail.size() - (L - 1)));
  }
}

/// Sequential reference pipeline over the same region (also the fallback for
/// degenerate inputs): LineReader -> FtracePredStream -> window builders,
/// exactly what ModelLearner::learn_from_stream runs.
ShardedIngestResult sequential_ingest(std::string_view content,
                                      const ShardedIngestOptions& opt) {
  ShardedIngestResult result;
  result.shards_used = 1;
  LineReader lines(content, LineReader::from_memory);
  FtracePredStream stream(lines, opt.task_filter);
  std::optional<StreamingSegmenter> segmenter;
  if (opt.segmented) segmenter.emplace(opt.window);
  ComplianceWindowBuilder builder(opt.compliance_length);
  std::vector<PredId> seq;
  IngestDeadlinePoll poll{opt.deadline};
  while (const auto id = stream.next()) {
    poll();
    if (segmenter) segmenter->push(*id);
    builder.push(*id);
    if (opt.keep_sequence) seq.push_back(*id);
    ++result.sequence_length;
  }
  result.preds = stream.take_preds();
  result.preds.seq = std::move(seq);
  result.schema = stream.schema();
  if (segmenter) result.segments = segmenter->take();
  result.compliance = builder.finish();
  return result;
}

}  // namespace

ShardedIngestResult sharded_ftrace_ingest(std::string_view content,
                                          const ShardedIngestOptions& options) {
  if (options.window == 0) {
    throw std::invalid_argument("sharded ingest: window must be positive");
  }
  const std::size_t want =
      options.shards != 0 ? options.shards : std::max<std::size_t>(options.threads, 1);
  if (want <= 1) return sequential_ingest(content, options);

  const std::vector<std::string_view> regions = split_regions(content, want);
  if (regions.size() <= 1) return sequential_ingest(content, options);

  // K: enough lead/rear context for every merge window length.
  const std::size_t w = options.window;
  const std::size_t l = options.compliance_length;
  const std::size_t K =
      std::max(w > 0 ? w - 1 : 0, l > 0 ? l - 1 : 0);

  // Parallel scan: one task per shard, results keyed by shard index.
  std::vector<ShardScan> scans(regions.size());
  for_chunks(options.threads, regions.size(), regions.size(),
             [&](std::size_t shard, std::size_t, std::size_t) {
               T2M_SPAN("ingest.scan_shard", "shard", shard, "bytes",
                        regions[shard].size());
               scan_shard(regions[shard], /*fresh_start=*/shard == 0, options, K,
                          scans[shard]);
             });

  // The first observation of the whole trace must be the one scanned in
  // fresh-start mode. If the leading shard held no events (a comment-only
  // prefix), a later shard misclassified the global first observation as a
  // step destination — rare enough that re-running sequentially is the
  // simplest correct answer.
  std::size_t first_shard = scans.size();
  for (std::size_t s = 0; s < scans.size(); ++s) {
    if (scans[s].observations > 0) {
      first_shard = s;
      break;
    }
  }
  if (first_shard != 0) return sequential_ingest(content, options);

  std::size_t total_obs = 0;
  std::size_t total_preds = 0;
  for (const ShardScan& s : scans) {
    total_obs += s.observations;
    total_preds += s.preds;
  }
  if (total_obs < 2) {
    throw std::invalid_argument(
        "event abstraction: trace needs at least two observations");
  }

  ShardedIngestResult result;
  result.shards_used = scans.size();
  result.sequence_length = total_preds;

  T2M_SPAN("ingest.merge", "shards", scans.size(), "observations", total_obs);

  // --- global vocabulary replay -------------------------------------------
  // The sequential path interns each event symbol at its first occurrence
  // and each step predicate at its first occurrence as a destination.
  // Concatenating the shards' per-shard first-occurrence orders (new strings
  // only) reproduces both orders exactly: all of shard s's firsts come after
  // shard s-1's, and within a shard local order is stream order. Replaying
  // through a real EventStreamAbstractor keeps the Exprs, interned ids and
  // display names byte-identical to the sequential pipeline.
  const VarIndex ev = result.schema.add_cat("event", {}, std::nullopt);
  result.schema.sym_id_intern(ev, scans[0].first_obs);  // the trace's first observation
  EventStreamAbstractor abstractor;
  abstractor.prime();
  std::unordered_map<std::string, PredId> global_of;
  for (const ShardScan& scan : scans) {
    for (const std::string& name : scan.dest_order) {
      if (global_of.count(name) != 0) continue;
      const auto id = abstractor.push_symbol(result.schema, result.schema.sym_id_intern(ev, name));
      global_of.emplace(name, *id);
    }
  }
  std::vector<std::vector<PredId>> remap(scans.size());
  for (std::size_t s = 0; s < scans.size(); ++s) {
    remap[s].reserve(scans[s].dest_order.size());
    for (const std::string& name : scans[s].dest_order) {
      remap[s].push_back(global_of.at(name));
    }
  }
  // --- window merges -------------------------------------------------------
  // Per length L: walk shards in stream order keeping the last L-1 merged
  // predicates as `tail`; per shard, first emit the windows straddling the
  // incoming cut (tail x lead), then splice the shard's interior list. Every
  // window is thereby inserted at its global first-occurrence position, so
  // the merged order equals the sequential dedup's order exactly.
  const auto slice_front = [](const std::vector<PredId>& v, std::size_t n) {
    return std::vector<PredId>(v.begin(),
                               v.begin() + static_cast<std::ptrdiff_t>(std::min(n, v.size())));
  };
  const auto slice_back = [](const std::vector<PredId>& v, std::size_t n) {
    const std::size_t take = std::min(n, v.size());
    return std::vector<PredId>(v.end() - static_cast<std::ptrdiff_t>(take), v.end());
  };
  std::vector<std::vector<PredId>> lead_global(scans.size());
  std::vector<std::vector<PredId>> rear_global(scans.size());
  for (std::size_t s = 0; s < scans.size(); ++s) {
    lead_global[s].reserve(scans[s].lead.size());
    for (const std::uint32_t lid : scans[s].lead) lead_global[s].push_back(remap[s][lid]);
    rear_global[s].reserve(scans[s].rear.size());
    for (const std::uint32_t lid : scans[s].rear) rear_global[s].push_back(remap[s][lid]);
  }

  const auto merge_windows = [&](std::size_t L,
                                 const auto member) -> std::vector<std::vector<PredId>> {
    OrderedWindowMerge merged;
    std::vector<PredId> tail;
    IngestDeadlinePoll poll{options.deadline};
    for (std::size_t s = 0; s < scans.size(); ++s) {
      emit_cross_windows(tail, slice_front(lead_global[s], L > 0 ? L - 1 : 0), L, merged);
      for (const auto& local_window : scans[s].*member) {
        poll();
        std::vector<PredId> window;
        window.reserve(local_window.size());
        for (const std::uint32_t lid : local_window) window.push_back(remap[s][lid]);
        merged.insert(std::move(window));
      }
      advance_tail(tail, slice_back(rear_global[s], L > 0 ? L - 1 : 0), L);
    }
    return merged.take();
  };

  if (options.segmented) {
    if (total_preds > 0 && total_preds < w) {
      // Short stream: the whole sequence is one segment, as in
      // segment_sequence / StreamingSegmenter. Every shard's count is below
      // w, so its lead holds all of its predicates.
      Segment whole;
      whole.reserve(total_preds);
      for (std::size_t s = 0; s < scans.size(); ++s) {
        whole.insert(whole.end(), lead_global[s].begin(), lead_global[s].end());
      }
      result.segments.push_back(std::move(whole));
    } else if (total_preds >= w) {
      result.segments = merge_windows(w, &ShardScan::seg_windows);
    }
  }

  result.preds = abstractor.take();
  {
    std::vector<std::vector<PredId>> cmp_windows;
    if (l > 0 && total_preds >= l) {
      cmp_windows = merge_windows(l, &ShardScan::cmp_windows);
    }
    // Predicate ids are dense and every one occurs in the stream, so the
    // stream's maximum id is vocab-size - 1 — the same packed-representation
    // decision the builder's rolling maximum reaches.
    const PredId max_pred =
        result.preds.vocab.size() > 0 ? result.preds.vocab.size() - 1 : 0;
    result.compliance = ComplianceChecker::from_windows(l, total_preds,
                                                        std::move(cmp_windows), max_pred);
  }

  if (options.keep_sequence) {
    result.preds.seq.reserve(total_preds);
    for (std::size_t s = 0; s < scans.size(); ++s) {
      for (const std::uint32_t lid : scans[s].seq) {
        result.preds.seq.push_back(remap[s][lid]);
      }
    }
  }

  return result;
}

ShardedIngestResult sharded_ftrace_ingest_file(const std::string& path,
                                               const ShardedIngestOptions& options) {
  const MappedFile file(path);
  return sharded_ftrace_ingest(file.view(), options);
}

}  // namespace t2m::par
