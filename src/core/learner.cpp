#include "src/core/learner.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <span>

#include "src/abstraction/event_stream.h"
#include "src/base/memory_accountant.h"
#include "src/obs/progress.h"
#include "src/obs/trace.h"
#include "src/trace/mmap_io.h"
#include "src/util/failpoint.h"
#include "src/util/log.h"

namespace t2m {

namespace {

/// Applies LearnerConfig::max_memory_bytes to the global accountant for the
/// duration of one public learn call, restoring the previous cap on exit.
class ScopedMemoryLimit {
public:
  explicit ScopedMemoryLimit(std::size_t limit)
      : prev_(MemoryAccountant::global().limit()) {
    if (limit > 0) MemoryAccountant::global().set_limit(limit);
  }
  ~ScopedMemoryLimit() { MemoryAccountant::global().set_limit(prev_); }
  ScopedMemoryLimit(const ScopedMemoryLimit&) = delete;
  ScopedMemoryLimit& operator=(const ScopedMemoryLimit&) = delete;

private:
  std::size_t prev_;
};

/// Folds a structured failure into a run's record instead of unwinding:
/// deadline expiry reports as a timeout, allocation pressure as resource
/// exhaustion; every other code keeps its taxonomy in `status` with no
/// verdict flag beyond !success. What the record already counted stays.
void fold_failure(LearnResult& result, Status status) {
  switch (status.code()) {
    case ErrorCode::deadline_exceeded:
      result.timed_out = true;
      break;
    case ErrorCode::resource_exhausted:
      result.resource_exhausted = true;
      break;
    default:
      break;
  }
  result.status = std::move(status);
}

/// The entry guard of every public learn call: owns the run's one
/// Stopwatch and progress poll and hands both to `body`, caps accounted
/// memory for the call, returns a structured failure or a failed allocation
/// that escaped `body` as a verdict (the search folds its own into its
/// record), and records the accountant's peak since the call began and the
/// call's total time on every exit, failures included.
template <typename Body>
LearnResult guarded(const LearnerConfig& config, const Body& body) {
  const Stopwatch total;
  obs::ProgressPoll progress(config.progress_seconds);
  const ScopedMemoryLimit mem_limit(config.max_memory_bytes);
  MemoryAccountant::global().rebase_peak();
  LearnResult result;
  try {
    result = body(total, progress);
  } catch (const StatusError& e) {
    log_warn() << "learner: run failed: " << e.status().to_string();
    fold_failure(result, e.status());
  } catch (const std::bad_alloc&) {
    log_warn() << "learner: run failed: allocation failed during learn";
    fold_failure(result, Status::ResourceExhausted("allocation failed during learn"));
  }
  result.stats.accounted_peak_bytes = MemoryAccountant::global().peak();
  result.stats.total_seconds = total.elapsed_seconds();
  return result;
}

/// The trace window set P_l, built once per run: it is invariant across
/// all refinement iterations, and every compliance check streams against
/// it. It comes from the segment set whenever that holds every length-l
/// window of P: the unsegmented run's one segment is P itself, and for
/// l <= w every length-l window of P lies inside a length-w window of P,
/// hence inside a distinct one (or inside P when |P| < w). Only for l > w
/// is it built from `seq`, which is then P.
ComplianceChecker trace_window_checker(const LearnerConfig& config,
                                       const std::vector<Segment>& segments,
                                       const std::vector<PredId>& seq) {
  if (!config.segmented || config.compliance_length <= config.window) {
    return ComplianceChecker::from_windows(segments, config.compliance_length);
  }
  return ComplianceChecker(seq, config.compliance_length);
}

}  // namespace

ModelLearner::ModelLearner(LearnerConfig config) : config_(std::move(config)) {}

LearnResult ModelLearner::learn(const Trace& trace, AbstractionMode mode) const {
  return guarded(config_, [&](const Stopwatch& total, obs::ProgressPoll& progress) {
    AbstractionConfig abs_config = config_.abstraction;
    abs_config.window = config_.window;
    PredicateSequence preds = abstract_trace(trace, abs_config, mode);
    const double abstraction_seconds = total.elapsed_seconds();

    LearnResult result = search_sequence(std::move(preds), trace.schema(), progress);
    result.stats.abstraction_seconds = abstraction_seconds;
    return result;
  });
}

LearnResult ModelLearner::learn_from_sequence(PredicateSequence preds,
                                              const Schema& schema) const {
  return guarded(config_, [&](const Stopwatch&, obs::ProgressPoll& progress) {
    return search_sequence(std::move(preds), schema, progress);
  });
}

LearnResult ModelLearner::learn_from_stream(PredStream& stream) const {
  return guarded(config_, [&](const Stopwatch& total, obs::ProgressPoll& progress) {
    return search_stream(stream, total, progress);
  });
}

LearnResult ModelLearner::learn_from_ftrace(const std::string& path,
                                            const std::string& task_filter) const {
  return guarded(config_, [&](const Stopwatch& total, obs::ProgressPoll& progress) {
    LineReader lines(path);
    FtracePredStream stream(lines, task_filter);
    return search_stream(stream, total, progress);
  });
}

LearnResult ModelLearner::search_sequence(PredicateSequence preds, const Schema& schema,
                                          obs::ProgressPoll& progress) const {
  const std::size_t sequence_length = preds.length();
  std::vector<Segment> segments = config_.segmented
                                      ? segment_sequence(preds.seq, config_.window)
                                      : whole_sequence(preds.seq);

  const ComplianceChecker compliance_checker =
      trace_window_checker(config_, segments, preds.seq);
  return run_cegis(std::move(preds), sequence_length, segments, compliance_checker, schema,
                   progress);
}

LearnResult ModelLearner::search_stream(PredStream& stream, const Stopwatch& total,
                                        obs::ProgressPoll& progress) const {
  // One pass: every pulled id goes into the window segmenter, and P_l is
  // then taken from the segments it kept. The full id sequence is retained
  // only when a downstream consumer needs it: trace acceptance, the
  // unsegmented run's one segment, or P_l when l > w.
  const bool keep_sequence = config_.require_trace_acceptance || !config_.segmented ||
                             config_.compliance_length > config_.window;
  // Non-segmented runs take their single segment from the retained sequence;
  // feeding the segmenter would only burn CPU and memory on a discarded set.
  std::optional<StreamingSegmenter> segmenter;
  if (config_.segmented) segmenter.emplace(config_.window);
  std::vector<PredId> seq;
  std::size_t sequence_length = 0;
  {
    T2M_SPAN_SCOPE(pass_span, "ingest.stream_pass");
    while (const auto id = stream.next()) {
      if (segmenter) segmenter->push(*id);
      if (keep_sequence) seq.push_back(*id);
      ++sequence_length;
    }
    pass_span.arg("steps", sequence_length);
  }
  PredicateSequence preds = stream.take_preds();
  preds.seq = std::move(seq);
  std::vector<Segment> segments = segmenter ? segmenter->take() : whole_sequence(preds.seq);
  const ComplianceChecker compliance_checker =
      trace_window_checker(config_, segments, preds.seq);
  const double pass_seconds = total.elapsed_seconds();

  LearnResult result = run_cegis(std::move(preds), sequence_length, segments,
                                 compliance_checker, stream.schema(), progress);
  result.stats.abstraction_seconds = pass_seconds;
  return result;
}

LearnResult ModelLearner::run_cegis(PredicateSequence preds, std::size_t sequence_length,
                                    const std::vector<Segment>& segments,
                                    const ComplianceChecker& compliance_checker,
                                    const Schema& schema,
                                    obs::ProgressPoll& progress) const {
  const Deadline deadline = config_.timeout_seconds > 0
                                ? Deadline::after_seconds(config_.timeout_seconds)
                                : Deadline::never();
  T2M_SPAN_SCOPE(run_span, "learn.run", "segments", segments.size());

  LearnResult result;
  result.schema = schema;
  result.stats.sequence_length = sequence_length;
  result.stats.vocabulary_size = preds.vocab.size();
  result.stats.segments = segments.size();
  result.stats.encoded_transitions = total_transitions(segments);

  // Trace acceptance needs the materialised sequence; the streaming path
  // omits it exactly when the configuration never consults it.
  const bool check_acceptance = config_.require_trace_acceptance && !preds.seq.empty();

  const auto stopped = [this] {
    // order: relaxed — pure cancellation signal (see docs/observability.md).
    return config_.stop != nullptr && config_.stop->load(std::memory_order_relaxed);
  };

  // Forbidden sequences accumulate across N: they are facts about P. Their
  // chain enumeration is N-independent, so one cache serves every CSP this
  // run constructs (see ForbiddenChainCache).
  std::set<std::vector<PredId>> forbidden;
  ForbiddenChainCache chain_cache;

  // The encoded layout is `segments` with the leading segment extended to
  // P[0..lead_length): prefix refinements append the tails P[b..e) in order,
  // and every build replays them.
  std::size_t lead_length = segments.empty() ? 0 : segments.front().size();
  std::vector<std::pair<std::size_t, std::size_t>> tails;

  // Fold a finished CSP's solver counters into the run totals. In the
  // persistent path one CSP spans many state counts, so this runs only when
  // a CSP is retired (capacity rebuild) or the run returns — never twice for
  // the same instance.
  const auto absorb_solver_stats = [&result, &forbidden](const AutomatonCsp& csp) {
    const sat::SolverStats& s = csp.solver_stats();
    result.stats.sat_conflicts += s.conflicts;
    result.stats.sat_propagations += s.propagations;
    result.stats.sat_learned_clauses += s.learned_clauses;
    if (s.peak_arena_bytes > result.stats.sat_peak_arena_bytes) {
      result.stats.sat_peak_arena_bytes = s.peak_arena_bytes;
    }
    result.stats.forbidden_words = forbidden.size();
  };

  // Best-so-far salvage: the last candidate that passed compliance but could
  // not replay the trace (and so triggered a prefix refinement).
  std::optional<Nfa> best_model;
  std::size_t best_states = 0;

  const Stopwatch construction_watch;
  std::unique_ptr<AutomatonCsp> csp;

  // Progress lines read this run's own counters plus the live solver's,
  // whose conflicts the stats absorb only when its CSP retires.
  std::size_t searching_states = 0;
  progress.set_source([&](obs::ProgressSnapshot& s) {
    s.states = searching_states;
    s.sat_calls = result.stats.sat_calls;
    s.conflicts = result.stats.sat_conflicts + (csp ? csp->solver_stats().conflicts : 0);
    s.refinements = result.stats.refinements;
    s.deadline_remaining_seconds = deadline.remaining_seconds();
  });

  // Builds the CSP from scratch at state count n over the current layout.
  // Persistent mode allocates headroom columns beyond n so subsequent
  // increments are in-place grows; the shared chain cache keeps re-adding
  // the accumulated forbidden words cheap. A live CSP is absorbed into the
  // stats and freed first, so two clause arenas are never resident at once.
  const auto build_csp = [&](std::size_t n) {
    T2M_SPAN("learn.build_csp", "n", n);
    if (csp) {
      absorb_solver_stats(*csp);
      csp.reset();
    }
    CspOptions options;
    options.encoding = config_.encoding;
    options.solver = config_.solver;
    options.compress_forbidden = config_.compress_forbidden;
    if (config_.max_clauses > 0) options.max_clauses = config_.max_clauses;
    options.state_capacity =
        config_.persistent_solver
            ? std::min(config_.max_states, n + config_.state_headroom)
            : 0;
    csp = std::make_unique<AutomatonCsp>(segments, preds.vocab.size(), n, options);
    csp->set_chain_cache(&chain_cache);
    csp->set_stop_flag(config_.stop);
    for (const auto& [b, e] : tails) {
      csp->extend_prefix(std::span<const PredId>(preds.seq).subspan(b, e - b));
    }
    for (const auto& word : forbidden) csp->add_forbidden_sequence(word);
    ++result.stats.csp_builds;
  };

  // Algorithm 1 with the refinements. Each return leaves `result` holding
  // the run's verdict flags; the one exit below completes the record.
  const auto search = [&] {
    for (std::size_t n = config_.initial_states; n <= config_.max_states; ++n) {
      searching_states = n;
      bool grown = false;
      if (csp && config_.persistent_solver) {
        T2M_SPAN("learn.grow", "n", n);
        grown = csp->grow_to(n);
      }
      if (grown) {
        ++result.stats.csp_grows;
      } else {
        build_csp(n);
      }

      bool next_n = false;
      while (!next_n) {
        obs::ProgressPoll::tick();
        if (deadline.expired() || stopped()) {
          result.timed_out = true;
          result.cancelled = stopped();
          return;
        }
        ++result.stats.sat_calls;
        T2M_INJECT_STATUS("learn.solve", ErrorCode::internal, "search failed before a solve");
        sat::SolveResult sat_result;
        {
          T2M_SPAN_SCOPE(solve_span, "learn.solve", "n", n, "call",
                         result.stats.sat_calls);
          sat_result = csp->solve(deadline);
          solve_span.arg("result", sat_result == sat::SolveResult::Sat     ? "sat"
                                   : sat_result == sat::SolveResult::Unsat ? "unsat"
                                                                           : "unknown");
        }
        if (sat_result == sat::SolveResult::Unknown) {
          if (csp->overflowed()) {
            // The encoding itself overran the clause budget: a verdict about
            // the instance's size at this configuration, not a timeout.
            result.budget_exceeded = true;
          } else {
            result.timed_out = true;
            result.cancelled = stopped();
          }
          return;
        }
        if (sat_result == sat::SolveResult::Unsat) {
          if (config_.core_driven_stop && csp->unsat_for_all_states()) {
            // The assumption core names no inactive-column guard: no state
            // count can satisfy this instance; growing N is provably futile.
            ++result.stats.core_stops;
            log_info() << "learner: Unsat core independent of the state count at N = "
                       << n << "; stopping the search";
            return;
          }
          // No N-state automaton: grow N (Algorithm 1, lines 34-36).
          ++result.stats.state_increments;
          log_debug() << "learner: no " << n << "-state automaton, growing N";
          next_n = true;
          continue;
        }
        // Candidate model: compliance check (lines 38-48).
        Nfa candidate = csp->extract_model();
        const ComplianceResult compliance = compliance_checker.check(candidate);
        std::size_t replayed = preds.seq.size();
        if (compliance.compliant && check_acceptance) {
          T2M_SPAN("learn.acceptance", "n", n);
          replayed = candidate.replay_length(preds.seq);
        }
        if (replayed < preds.seq.size()) {
          // Prefix refinement: the candidate is deterministic and embeds the
          // leading segment from q0, so it replays at least that segment and
          // dead-ends at step `replayed`. Every accepting model embeds
          // P[0..replayed] from q0; extend the leading segment to it in place.
          if (replayed < lead_length) {
            throw_status(ErrorCode::internal,
                         "learner: candidate does not replay its pinned segment");
          }
          {
            T2M_SPAN("learn.grow", "n", n, "prefix", replayed + 1);
            csp->extend_prefix(std::span<const PredId>(preds.seq)
                                   .subspan(lead_length, replayed + 1 - lead_length));
          }
          tails.emplace_back(lead_length, replayed + 1);
          lead_length = replayed + 1;
          ++result.stats.prefix_extensions;
          // The rejected candidate is the best model seen so far — keep it
          // for salvage if the run is cut short before a full verdict.
          best_model = std::move(candidate);
          best_states = n;
          ++result.stats.refinements;
          ++result.stats.prefix_refinements;
          log_debug() << "learner: acceptance refinement to a " << replayed + 1
                      << "-step prefix at N = " << n;
          continue;
        }
        if (compliance.compliant) {
          candidate.set_pred_names(preds.names_for(schema));
          result.success = true;
          result.model = std::move(candidate);
          result.states = n;
          log_info() << "learner: " << n << "-state model found after "
                     << result.stats.sat_calls << " SAT calls";
          return;
        }
        ++result.stats.refinements;
        log_debug() << "learner: compliance failed with "
                    << compliance.invalid_sequences.size() << " invalid sequences";
        for (const auto& word : compliance.invalid_sequences) {
          if (forbidden.insert(word).second) csp->add_forbidden_sequence(word);
        }
      }
    }
    // Falling out of the loop exhausted the state budget.
  };

  // A structured error anywhere inside the loop — deadline expiry or
  // allocation pressure in clause emission, the compliance DFS or an arena
  // grow, or an internal error — ends the search with its status folded
  // into this run's record, so the counts taken before it survive. Deadline
  // expiry and allocation pressure become verdicts with salvage.
  try {
    search();
  } catch (const StatusError& e) {
    if (e.status().code() != ErrorCode::deadline_exceeded) {
      log_warn() << "learner: " << e.status().to_string();
    }
    fold_failure(result, e.status());
  } catch (const std::bad_alloc&) {
    fold_failure(result, Status::ResourceExhausted("allocation failed during the search"));
  }
  // The source reads this frame's locals, and the poll outlives them.
  progress.set_source(nullptr);

  // The one exit. A run that ended with a verdict (a model, an Unsat proof
  // that stopped the search, or the state budget) records the fingerprint of
  // the CSP that produced it; a run ended by an internal error records none.
  // A run cut short by the deadline, the clause budget or the memory cap
  // hands back the best model so far, tagged `salvaged`: it is compliant for
  // the window length it was checked at, just not a full verdict. A
  // cancelled run hands back nothing, since the caller who raised the stop
  // flag asked for no verdict.
  const bool cut_short = result.timed_out || result.budget_exceeded || result.resource_exhausted;
  if (csp) {
    absorb_solver_stats(*csp);
    if (!cut_short && result.status.ok()) {
      result.stats.encoding_fingerprint = csp->encoding_fingerprint();
    }
  }
  if (cut_short && !result.cancelled && best_model) {
    best_model->set_pred_names(preds.names_for(schema));
    result.model = std::move(*best_model);
    result.states = best_states;
    result.salvaged = true;
    log_info() << "learner: salvaged the best " << result.states
               << "-state model from the aborted run";
  }
  result.preds = std::move(preds);
  result.stats.construction_seconds = construction_watch.elapsed_seconds();
  run_span.arg("success", result.success);
  run_span.arg("states", result.states);
  return result;
}

}  // namespace t2m
