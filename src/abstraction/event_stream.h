#ifndef T2M_ABSTRACTION_EVENT_STREAM_H
#define T2M_ABSTRACTION_EVENT_STREAM_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/abstraction/pred_stream.h"
#include "src/trace/ftrace_io.h"
#include "src/trace/mmap_io.h"
#include "src/util/hash.h"

namespace t2m {

/// Push-based event abstraction (mode E): feed one observation at a time;
/// each observation after the first yields the PredId of the step ending
/// there. The step predicate is the conjunction of destination atoms
/// `v' = value` and its display name the destination's spellings, so both
/// depend only on the destination observation. abstract_event_trace is a
/// loop over this class, and the streaming readers drive it directly, so
/// every path interns the same Exprs in the same first-occurrence order with
/// the same display names.
class EventStreamAbstractor {
public:
  /// `schema` is read per call (not stored) because streaming readers intern
  /// new symbols into their schema as lines are consumed.
  std::optional<PredId> push(const Schema& schema, const Valuation& obs);

  /// push() for single-variable schemas, taking the observation's symbol id
  /// directly so the per-line caller builds no Valuation.
  std::optional<PredId> push_symbol(const Schema& schema, std::int64_t sym);

  /// Observations pushed so far.
  std::size_t observations() const { return observations_; }

  /// Vocabulary + display names accumulated so far; `seq` is empty.
  PredicateSequence take();

private:
  struct ValuationHash {
    std::size_t operator()(const Valuation& v) const {
      std::uint64_t h = 0x51ed270b9f1c3f2dULL ^ v.size();
      for (const Value& x : v) {
        h = hash_combine(h, static_cast<std::uint64_t>(x.kind()));
        h = hash_combine(h, static_cast<std::uint64_t>(x.raw()));
      }
      return static_cast<std::size_t>(h);
    }
  };
  static constexpr PredId kUnseen = static_cast<PredId>(-1);

  /// Counts the observation; false for the trace's first one (no step).
  bool starts_step(const Schema& schema);
  /// Builds, interns and names the predicate of a destination not seen yet.
  PredId intern_destination(const Schema& schema, const Valuation& obs);

  PredicateSequence preds_;
  /// The step predicate depends only on the destination valuation, so
  /// repeated observations (the whole point of a long trace) skip the Expr
  /// construction, interning and display formatting entirely — the memos
  /// yield the same ids in the same first-occurrence order. Single-variable
  /// schemas index a dense table by symbol id; wider ones hash the valuation.
  std::vector<PredId> by_symbol_;
  std::unordered_map<Valuation, PredId, ValuationHash> by_valuation_;
  std::size_t observations_ = 0;
};

/// PredStream over a simplified/full-shape ftrace log served by a
/// LineReader: parses each line, interns the event symbol into a
/// single-variable categorical schema and abstracts the step — one pass,
/// holding one observation, never the trace. Equivalent to
/// read_ftrace + abstract_event_trace.
class FtracePredStream : public PredStream {
public:
  explicit FtracePredStream(LineReader& lines, std::string task_filter = "");

  std::optional<PredId> next() override;
  PredicateSequence take_preds() override { return abstractor_.take(); }
  const Schema& schema() const override { return schema_; }

private:
  /// Event spelling → PredId of the step ending on that event, for events
  /// already abstracted once: an open-addressing table (linear probing,
  /// power-of-two capacity, load at most 1/2) whose slots hold the
  /// spelling's hash, its bytes' place in one shared buffer and the id. A
  /// repeated event costs one hash of its bytes and one probe; the schema
  /// and the abstractor see only first sightings, so they intern in the
  /// same order as read_ftrace + abstract_event_trace.
  class SpellingMemo {
  public:
    static std::uint64_t hash(std::string_view spelling);
    /// The id stored for `spelling` (whose hash() is `h`), or nullptr.
    const PredId* find(std::string_view spelling, std::uint64_t h) const;
    /// Stores a spelling find() has just missed.
    void insert(std::string_view spelling, std::uint64_t h, PredId id);

  private:
    struct Slot {
      std::uint64_t hash = 0;
      std::size_t offset = 0;  ///< into bytes_
      std::size_t length = 0;
      PredId id = kEmpty;
    };
    static constexpr PredId kEmpty = static_cast<PredId>(-1);
    std::vector<Slot> slots_ = std::vector<Slot>(16);
    std::size_t size_ = 0;
    std::string bytes_;  ///< every stored spelling, back to back
  };

  LineReader& lines_;
  std::string task_filter_;
  Schema schema_;
  VarIndex ev_ = 0;
  EventStreamAbstractor abstractor_;
  FtraceLineParser parser_;  ///< its buffers are reused across lines
  SpellingMemo memo_;
  bool done_ = false;
};

/// PredStream over the `# var` text trace format (all-categorical schemas
/// only — the event abstraction's domain). Header and rows are parsed
/// exactly as read_trace_text does, including its error behaviour, but rows
/// are abstracted as they are read instead of collected.
class TextTracePredStream : public PredStream {
public:
  explicit TextTracePredStream(LineReader& lines);

  std::optional<PredId> next() override;
  PredicateSequence take_preds() override { return abstractor_.take(); }
  const Schema& schema() const override { return schema_; }

private:
  LineReader& lines_;
  Schema schema_;
  EventStreamAbstractor abstractor_;
  Valuation row_;  ///< parse buffer reused across rows
  bool header_done_ = false;
  bool done_ = false;
};

}  // namespace t2m

#endif  // T2M_ABSTRACTION_EVENT_STREAM_H
