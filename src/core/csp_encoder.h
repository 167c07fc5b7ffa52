#ifndef T2M_CORE_CSP_ENCODER_H
#define T2M_CORE_CSP_ENCODER_H

#include <cassert>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/automaton/nfa.h"
#include "src/core/segmentation.h"
#include "src/sat/solver.h"
#include "src/util/hash.h"
#include "src/util/stopwatch.h"

namespace t2m {

/// Memoised chain enumeration for forbidden words.
///
/// Encoding a forbidden word w requires enumerating every chain of encoded
/// transitions labelled by w — a product over the per-predicate transition
/// groups that is exponential in |w|. The enumeration depends only on the
/// segment layout (which transition reads which predicate between which
/// state variables), NOT on the state count N, so the learner shares one
/// cache across its whole run: re-encoding the accumulated forbidden words
/// into a fresh CSP reuses the cached chains and only emits the (cheap,
/// N-dependent) clauses.
///
/// Each entry records the number of transitions it was enumerated over. A
/// cache may be shared between CSPs whose layouts extend one another, which
/// is what the learner builds: the original segments plus the tail chunks
/// its prefix refinements appended (AutomatonCsp::extend_prefix), in order.
/// A CSP with more transitions than an entry extends the entry in place with
/// the chains through its newer transitions; one with fewer throws
/// std::logic_error rather than read chains it does not have.
class ForbiddenChainCache {
public:
  /// One dst/src state-variable adjacency along a chain.
  using SvPair = std::pair<std::uint32_t, std::uint32_t>;
  /// One chain of transitions labelled by the word: |word|-1 adjacencies.
  using Chain = std::vector<SvPair>;
  struct Entry {
    /// The chains are every chain over transitions [0, transitions).
    std::size_t transitions = 0;
    std::vector<Chain> chains;
  };

  /// Returns the cached entry for `word`, or null when absent.
  Entry* find(const std::vector<PredId>& word) {
    const auto it = entries_.find(word);
    return it == entries_.end() ? nullptr : &it->second;
  }
  Entry& emplace(const std::vector<PredId>& word) { return entries_[word]; }
  /// Drops a partially enumerated entry (budget overflow): a truncated chain
  /// set must never be shared, it would silently under-constrain other CSPs.
  void erase(const std::vector<PredId>& word) { entries_.erase(word); }
  std::size_t size() const { return entries_.size(); }

private:
  std::unordered_map<std::vector<PredId>, Entry, VectorHash> entries_;
};

/// How the "at most one transition per (state, predicate)" condition
/// (Algorithm 1, line 29) is encoded:
enum class DeterminismEncoding : std::uint8_t {
  /// Paper-faithful: one constraint per PAIR of transitions with the same
  /// predicate, O(m^2 N^3) clauses — this is the encoding whose cost the
  /// segmentation study (Table I, Fig. 7) measures.
  Pairwise,
  /// Our improvement: auxiliary one-hot successor functions succ(state,
  /// pred), O(m N^2) clauses. Ablated in bench_ablation_encoding.
  Successor,
};

struct CspOptions {
  DeterminismEncoding encoding = DeterminismEncoding::Successor;
  /// Abort encoding beyond this many clauses; solve() then reports Unknown.
  /// Counts the solver's problem clauses, including root-satisfied ones its
  /// amortised simplification has not swept yet (sat::Solver::simplify()).
  /// The pairwise encoding of an unsegmented long trace is O(m^2 N^3) --
  /// this cap is what turns the paper's ">16 hours" rows into a clean
  /// "intractable" verdict instead of memory exhaustion.
  std::size_t max_clauses = 5000000;
  /// 0: fixed-N CSP (the fresh-per-N reference — one-hot blocks of exactly
  /// `num_states` columns, no guards). Otherwise the persistent encoding:
  /// blocks span `state_capacity` columns, each column k owns a guard
  /// variable act_k, and grow_to() activates further columns so one solver
  /// instance (learned clauses, VSIDS activity, saved phases) serves the
  /// whole N-increment loop.
  std::size_t state_capacity = 0;
  /// Solver settings (proof log, original-clause retention) applied to the
  /// underlying solver before encoding.
  sat::SolverConfig solver;
  /// Star-compress length-2 forbidden words: instead of one binary clause
  /// per (transition-of-p, transition-of-q) pair and column, introduce
  /// shared per-(predicate, side) flag variables z so each word costs one
  /// binary per column plus group-membership binaries amortised across
  /// words. Turns the |A|x|B| chain product into |A|+|B|+1.
  bool compress_forbidden = true;
  /// Cooperative wall-clock bound on clause emission (construction and
  /// grow_to): the emission polls it, and an expiry throws a
  /// structured deadline_exceeded StatusError — the learner converts that
  /// into its timed-out verdict (salvaging the best model so far) instead of
  /// letting a huge encoding blow straight through the run's time budget.
  /// Defaults to never expiring. Distinct from solve()'s per-call deadline,
  /// which bounds the search itself.
  Deadline deadline;
};

/// Clause output of one emission pass (csp_encoder.cpp).
class ClauseSink;

/// The automaton-existence hypothesis of Algorithm 1 (lines 18-33), encoded
/// directly to CNF over our CDCL solver instead of a C program over CBMC.
///
/// Unknowns: one state variable per segment position (w+1 per segment of
/// length w), each one-hot over {0..N-1}. Constraints: segment chaining (by
/// variable sharing), per-predicate determinism, and any forbidden
/// transition sequences added by the compliance refinement loop.
///
/// solve() == Sat  <=>  an N-state automaton embedding all segments exists
/// (the paper's CBMC counterexample case).
///
/// Symmetry breaking by value precedence (Law & Lee 2004) over the state
/// variables in encoding order: state k >= 1 may label a state variable only
/// if state k-1 labels an earlier one. The state variables are cut into
/// groups of kChainStride consecutive ones, and chain variables m(g, c)
/// ("some state variable in groups <= g is state c") carry the condition.
/// Column k >= 1 gets the unit ~x(0,k); column k >= 2 also gets the chain of
/// c = k-1:
///  - justification: (~m(g,c) | m(g-1,c) | x(sv,c) for every sv of group g);
///  - precedence, for every sv >= 1 of group g:
///    (~x(sv,k) | m(g-1,c) | x(sv',c) for every earlier sv' of group g).
/// (m(g-1,c) is left out for g = 0.) State variable 0 is therefore state 0,
/// which is q0.
///  - Sound: every other constraint is invariant under renaming states, and
///    numbering any model's states by first occurrence satisfies the
///    precedence clauses. Unsat at N still means no N-state automaton.
///  - Complete: exactly one labeling of each model survives, so an Unsat
///    proof no longer re-refutes the relabelings of the states.
///  - Grouping keeps both properties and cuts the chain variables to one
///    per group: one per state variable measured +21% peak RSS on the
///    unsegmented rtlinux learn.
///
/// Persistent mode (options.state_capacity > 0) keeps ONE sat::Solver alive
/// across state counts. Soundness of the guarded encoding:
///  - At-most-one, determinism and forbidden-word clauses are negative
///    (monotone) conditions: over columns >= N they are vacuously
///    satisfiable by leaving those columns false, so emitting them only up
///    to the active width N and appending the new columns' clauses at grow
///    time never changes the verdict for smaller N.
///  - Value precedence is emitted column by column as columns activate, so
///    at width N the CSP holds exactly the precedence clauses of a fresh
///    N-state CSP, and an inactive column's variables appear in none of
///    them. Its chain variables are allocated up front (the chain of column
///    capacity-2, read only at full capacity, when N reaches capacity).
///  - The at-least-one clause spans the full capacity once; guard binaries
///    (act_k | ~x_{sv,k}) under the per-solve assumptions {act_0..act_{N-1},
///    ~act_N..~act_{C-1}} force the inactive columns false, restricting it
///    to exactly the active width. Clauses learned under those assumptions
///    carry ~act_k antecedents and become vacuous once column k activates.
///  - Past the capacity grow_to() refuses, and the learner builds a new CSP
///    from scratch at a larger capacity. Only the forbidden-word chain
///    cache carries over; the old solver's learned clauses do not.
///
/// Prefix extension (extend_prefix) appends the state variables of a tail of
/// the leading segment to the live CSP, the acceptance refinement of the
/// learner. Soundness of extending in place:
///  - The extended CSP holds the old clauses plus the clauses a build over
///    the extended layout emits for the new state variables and transitions:
///    their one-hot, guard, precedence and determinism clauses, their
///    star-block memberships, and every forbidden-word chain through a new
///    transition. Nothing is withdrawn, so every learned clause stays implied
///    and the solver keeps them, with its activities and phases.
///  - The appended state variables come last in the precedence order and
///    start groups of their own. The renumber-by-first-occurrence argument
///    above holds for any fixed order of the state variables and any cut of
///    that order into runs of consecutive ones, so Unsat at N still means no
///    N-state automaton. State variable 0 stays first, so it is still q0, and
///    the tail hangs off the leading segment's last state variable: every
///    model embeds the extended prefix from q0.
///  - Apart from the full-width at-least-one and the guard binaries, the new
///    clauses span only the active columns, so the persistent-mode argument
///    above carries over, and grow_to() later extends them like any others.
///  - A non-leading segment equal to a window of the extended chain is tied
///    to the window's first occurrence: (~x(s,k) | x(c,k)) for each of its
///    state variables s and the chain's c at the same offset. Sound: set any
///    model's segment to the chain's states at that window (it still
///    satisfies every constraint) and renumber. The ties make the covered
///    segments aliases of chain positions, so precedence numbers states much
///    as it would with the prefix first in the order; without them the
///    N = 9 proof of a 12-state random-DFA walk took 16 times the conflicts.
///  - Building over the same segments and replaying the same tails in order
///    gives the same state variables, transitions, precedence groups and
///    ties, so a capacity rebuild can share the chain cache.
class AutomatonCsp {
public:
  AutomatonCsp(const std::vector<Segment>& segments, std::size_t num_preds,
               std::size_t num_states, const CspOptions& options = {});

  /// Forbids any path labelled `word` (compliance refinement, line 44).
  /// Length-2 words use direct binary clauses; longer words introduce
  /// auxiliary state-equality variables (memoised per state-variable pair).
  /// A word added before is ignored.
  void add_forbidden_sequence(const std::vector<PredId>& word);

  /// Shares a chain cache across CSP instances (non-owning; the learner
  /// keeps one per learn run). Must only be shared between CSPs whose
  /// layouts extend one another (ForbiddenChainCache).
  void set_chain_cache(ForbiddenChainCache* cache) { chain_cache_ = cache; }

  /// Prefix refinement in place: appends one state variable per step of
  /// `tail`, chained from the last state variable of the leading segment
  /// (the first non-empty one, as extended by earlier calls), and emits only
  /// the clauses that name a new state variable or transition (class doc).
  /// The solver keeps its learned clauses, activities and phases. Throws
  /// std::logic_error when the layout has no leading segment.
  void extend_prefix(std::span<const PredId> tail);

  /// Persistent mode: raises the active state count to `n` in place, keeping
  /// the solver (learned clauses, activities, phases) intact. Only the
  /// clauses of the newly activated columns are emitted. Returns false when
  /// `n` exceeds the allocated capacity (the caller then rebuilds) or the
  /// CSP is a fixed-N instance.
  bool grow_to(std::size_t n);

  /// Runs the solver; Unknown on deadline expiry. `pins` are extra
  /// assumptions after the column guards, with which tests fix part of a
  /// labelling (state_lit()) to check that the clauses refute it;
  /// unsat_for_all_states() does not hold for a pinned solve.
  sat::SolveResult solve(const Deadline& deadline = Deadline::never(),
                         std::span<const sat::Lit> pins = {});

  /// Cooperative cancellation, forwarded to the solver: when the flag reads
  /// true, the next solve() poll returns Unknown. The learner threads its
  /// caller's LearnerConfig::stop through every CSP it builds.
  void set_stop_flag(const std::atomic<bool>* stop) { solver_.set_stop_flag(stop); }

  /// After solve() == Unsat in persistent mode: true when the verdict
  /// provably holds for EVERY state count, so the learner can stop growing N
  /// instead of re-solving to the budget. Sound reasoning: while a capacity
  /// column is still inactive (N < capacity), that column's variables appear
  /// in no at-most-one/determinism/forbidden/precedence clause — any
  /// automaton of any size could park a state there for free — so an Unsat
  /// whose assumption core needs no inactive-column guard (no ~act_k) can
  /// only stem from width-independent facts (e.g. a forbidden
  /// single-predicate word's unit contradiction). A root-level Unsat is the
  /// empty-core case of the same argument. At N == capacity the verdict may
  /// merely be width-capped, so this conservatively reports false there.
  bool unsat_for_all_states() const;

  /// Decodes the model into an automaton (requires last solve() == Sat).
  /// The NFA has exactly `num_states` states; unreachable ones are kept so
  /// the state count reports the paper's N.
  Nfa extract_model() const;
  /// The state the model assigns to state variable `sv`, in encoding order
  /// (requires last solve() == Sat).
  std::size_t decode_state(std::size_t sv) const;

  /// True once any emission path hit the clause budget: the encoding is
  /// incomplete and solve() reports Unknown. The learner surfaces this as
  /// LearnResult::budget_exceeded rather than a timeout.
  bool overflowed() const { return overflowed_; }

  /// Structural hash of the emitted problem clauses + root facts (see
  /// Solver::clause_fingerprint); proves emission determinism in tests.
  std::uint64_t encoding_fingerprint() const { return solver_.clause_fingerprint(); }

  std::size_t num_states() const { return num_states_; }
  std::size_t state_capacity() const { return capacity_; }
  bool persistent() const { return !act_.empty(); }
  std::size_t num_transitions() const { return preds_of_transition_.size(); }
  /// Distinct state-variable pairs with an equality aux var (for tests).
  std::size_t num_equality_vars() const { return equality_cache_.size(); }
  /// Precedence chain variable m(g, c), or -1 while column c's chain is
  /// unallocated (for tests).
  sat::Var chain_var(std::size_t g, std::size_t c) const;
  std::size_t num_chain_groups() const { return base_groups() + ext_groups_.size(); }
  /// State variables of the layout, tails included.
  std::size_t num_state_vars() const { return num_state_vars_; }

  /// State variables per precedence-chain group (class doc).
  static constexpr std::size_t kChainStride = 4;
  const sat::SolverStats& solver_stats() const { return solver_.stats(); }
  std::size_t num_clauses() const { return solver_.num_clauses(); }
  std::size_t num_vars() const { return solver_.num_vars(); }

  /// SAT literal for "state variable `sv` equals state `k`". Unchecked
  /// (the emission loops call it per literal); bounds are asserted.
  sat::Lit state_lit(std::size_t sv, std::size_t k) const {
    assert(sv < block_base_.size() && k < capacity_);
    return sat::pos(block_base_[sv] + static_cast<sat::Var>(k));
  }

private:
  /// Fills decoded_ with the assigned state of every one-hot block in one
  /// pass over the model, so repeated decode_state() lookups during model
  /// extraction are O(1) instead of an O(N) scan each.
  void decode_model() const;
  /// Precedence groups over the constructor's state variables.
  std::size_t base_groups() const {
    return (base_state_vars_ + kChainStride - 1) / kChainStride;
  }
  /// The precedence group holding state variable `sv`: its index and the
  /// state variables [first, end) it spans.
  struct GroupSpan {
    std::size_t g, first, end;
  };
  GroupSpan group_of(std::size_t sv) const;
  /// One-hot at-least-one of state variables [sv_lo, end) over the full
  /// capacity, and in persistent mode their guard binaries for columns
  /// [guard_lo, capacity).
  void encode_at_least_one(std::size_t sv_lo, std::size_t guard_lo);
  /// At-most-one pairs of state variables [sv_lo, end) whose larger column
  /// is in [lo, hi).
  void encode_at_most_one(std::size_t sv_lo, std::size_t lo, std::size_t hi);
  /// Emits every N-dependent clause of columns [lo, hi): one-hot at-most-one
  /// pairs, determinism, and the column extensions of accumulated forbidden
  /// words and equality variables. Construction activates [0, N); grow_to()
  /// activates [N, n).
  void activate_columns(std::size_t lo, std::size_t hi);
  /// Chain variable m(g, c): "some state variable in groups <= g is state c".
  /// Unchecked like state_lit(); the chain must be allocated.
  sat::Lit chain_lit(std::size_t g, std::size_t c) const {
    if (g < base_groups()) {
      assert(c < chain_base_.size() && chain_base_[c] != kVarUndef);
      return sat::pos(chain_base_[c] + static_cast<sat::Var>(g));
    }
    assert(g - base_groups() < ext_groups_.size() && c >= 1 && c + 2 <= capacity_);
    return sat::pos(ext_groups_[g - base_groups()].chain_base + static_cast<sat::Var>(c - 1));
  }
  /// Emits the value-precedence clauses of state variables [sv_lo, end)
  /// over columns [lo, hi) (class doc).
  void encode_precedence_columns(std::size_t lo, std::size_t hi, std::size_t sv_lo = 0);
  void encode_determinism_pairwise(std::size_t lo, std::size_t hi);
  /// Pairwise determinism between each transition of [t_lo, end) and every
  /// earlier transition with its predicate, over columns [0, N).
  void encode_pairwise_new_transitions(std::size_t t_lo);
  /// Determinism tuples of transitions a and b with a column in [lo, hi).
  void emit_pairwise(std::size_t a, std::size_t b, std::size_t lo, std::size_t hi,
                     ClauseSink& sink) const;
  void encode_determinism_successor(std::size_t lo, std::size_t hi);
  /// Successor-block at-most-one pairs of predicates `preds` that reach a
  /// column in [lo, hi); false on overflow.
  bool encode_successor_blocks(std::span<const std::uint32_t> preds, std::size_t lo,
                               std::size_t hi);
  /// Successor links of `transitions` with a column in [lo, hi).
  void encode_successor_links(std::span<const std::uint32_t> transitions, std::size_t lo,
                              std::size_t hi);
  void encode_forbidden_pair(std::span<const ForbiddenChainCache::Chain> chains,
                             std::size_t lo, std::size_t hi);
  /// Star-compression support: index of the z-flag block for the given
  /// predicate/side (creating it, with its membership binaries over the
  /// active columns, on first use).
  std::size_t star_block(PredId pred, bool src_side);
  struct StarBlock;
  /// Membership binaries of `blk`'s members [from, end) over columns
  /// [lo, hi).
  void emit_star_membership(const StarBlock& blk, std::size_t from, std::size_t lo,
                            std::size_t hi, ClauseSink& sink) const;
  /// Conflict binaries of compressed word `word` (index into star_words_).
  void emit_star_conflicts(std::size_t word, std::size_t lo, std::size_t hi,
                           ClauseSink& sink) const;
  /// Extends every star block and compressed word to columns [lo, hi).
  void encode_star_columns(std::size_t lo, std::size_t hi);
  /// The transition at position p of the leading chain.
  std::size_t chain_transition(std::size_t p) const;
  /// Ties every not yet tied non-leading segment that equals a window of the
  /// leading chain ending in transitions [t_lo, end) to its first such
  /// occurrence (class doc).
  void tie_covered_segments(std::size_t t_lo);
  /// Tie binaries of ties_[from, end) over columns [lo, hi).
  void encode_ties(std::size_t from, std::size_t lo, std::size_t hi);
  /// Adds the state variables of transitions [t_lo, end) to every star
  /// block of their predicate and side, with membership over [0, N).
  void encode_star_members(std::size_t t_lo);
  /// How a forbidden word is encoded (add_forbidden_sequence).
  enum class WordForm : std::uint8_t {
    Absent,  ///< length 1 or 2 with no labelled path in the layout yet
    Unit,    ///< length 1: the root-level contradiction
    Direct,  ///< length 2: one binary per chain and column
    Star,    ///< length 2: star-compressed conflict binaries
    Chain,   ///< length >= 3: one clause per chain over equality variables
  };
  struct ForbiddenWord {
    std::vector<PredId> word;
    WordForm form;
  };
  /// Encodes the chains of `words_[w]` that use a transition of [t_lo, end):
  /// all of them for a new word (t_lo = 0), the new ones after an
  /// extension. An Absent word is encoded in full once it has a path.
  void encode_word(std::size_t w, std::size_t t_lo);
  void set_overflowed(const char* where);
  /// Emits the equality semantics of each (key, e) in `vars` over columns
  /// [lo, hi), in order.
  void encode_equality_columns(std::span<const std::pair<std::uint64_t, sat::Var>> vars,
                               std::size_t lo, std::size_t hi);
  /// Variable forced to track `state_var_a == state_var_b`; memoised per
  /// (sv_a, sv_b) so repeated adjacencies across forbidden chains reuse one
  /// aux var instead of minting a fresh one plus 2N duplicate clauses.
  sat::Var equality_var(std::size_t sv_a, std::size_t sv_b);
  /// The transition chains labelled by `word` that use a transition of
  /// [t_lo, end): every chain for t_lo = 0, the new ones after an extension
  /// from t_lo transitions (cached; see ForbiddenChainCache).
  std::span<const ForbiddenChainCache::Chain> chains_for(const std::vector<PredId>& word,
                                                         std::size_t t_lo = 0);
  /// Appends to `out` every chain labelled by `word` that uses a transition
  /// of [from, end), in product order. False when `out` would exceed the
  /// clause budget.
  bool enumerate_chains(const std::vector<PredId>& word, std::size_t from,
                        std::vector<ForbiddenChainCache::Chain>& out) const;

  bool clause_budget_ok() const { return solver_.num_clauses() <= options_.max_clauses; }

  std::size_t num_preds_;
  std::size_t num_states_;   ///< active state count N
  std::size_t capacity_;     ///< allocated one-hot width (== N when fixed)
  CspOptions options_;
  bool overflowed_ = false;
  sat::Solver solver_;

  // Flattened transition table: transition i reads predicate
  // preds_of_transition_[i] between state variables src_var_[i], dst_var_[i].
  std::vector<PredId> preds_of_transition_;
  std::vector<std::size_t> src_var_;
  std::vector<std::size_t> dst_var_;
  std::size_t num_state_vars_ = 0;
  /// State variables laid out by the constructor; extend_prefix appends the
  /// rest.
  std::size_t base_state_vars_ = 0;
  /// Last state variable of the leading segment (kNoStateVar when the
  /// layout has none).
  std::size_t lead_end_sv_ = kNoStateVar;
  /// The leading chain is the constructor's leading segment, transitions
  /// [0, base_lead_length_), then the appended ones, [base_transitions_,
  /// end).
  std::size_t base_lead_length_ = 0;
  std::size_t base_transitions_ = 0;
  /// The other segments as (first transition, length), until the first
  /// extension moves them into untied_.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> others_;
  /// Other segments not yet tied, by content, to their first transition,
  /// and their distinct lengths.
  std::unordered_map<Segment, std::size_t, VectorHash> untied_;
  std::vector<std::size_t> untied_lengths_;
  /// (segment state variable, chain state variable it is tied to).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> ties_;
  /// First SAT var of each state variable's one-hot block (capacity_ wide).
  std::vector<sat::Var> block_base_;
  /// Transitions grouped by predicate (for determinism and forbidding).
  std::vector<std::vector<std::size_t>> transitions_with_pred_;
  /// Value-precedence chains of the base groups: chain_base_[c] is the
  /// first of the base_groups() variables m(., c), for c in [1, capacity_-2];
  /// kVarUndef for c = 0 and until allocated.
  std::vector<sat::Var> chain_base_;
  /// Precedence groups of the appended state variables, in order: each
  /// starts at `first` and owns the chain variables m(g, c) = chain_base +
  /// c - 1 for c in [1, capacity_-2].
  struct ExtGroup {
    std::size_t first;
    sat::Var chain_base;
  };
  std::vector<ExtGroup> ext_groups_;
  /// Persistent mode: per-column guard variables (empty when fixed-N).
  std::vector<sat::Var> act_;
  /// Successor-encoding aux blocks, one capacity_^2 block per used predicate
  /// (kVarUndef for unused predicates).
  std::vector<sat::Var> succ_base_;
  /// Every forbidden word added, in order. Direct pairs are re-extended at
  /// grow time; star words through their blocks; longer words through the
  /// equality list (their chain clause itself is width-independent).
  std::vector<ForbiddenWord> words_;
  /// Flattened transition order (by predicate, then group order): the item
  /// space of the successor-link emission.
  std::vector<std::uint32_t> trans_order_;
  /// Star-compression flag blocks: one capacity_-wide one-per-column var
  /// block per (predicate, side) that ever appeared in a compressed
  /// forbidden pair. `svs` is the deduplicated member state-variable list.
  struct StarBlock {
    PredId pred;
    bool src_side;
    sat::Var base;
    std::vector<std::uint32_t> svs;
  };
  std::vector<StarBlock> star_blocks_;
  std::unordered_map<std::uint32_t, std::size_t> star_index_;  // pred*2+side
  /// Compressed forbidden pairs as (dst-block, src-block) index pairs; their
  /// per-column conflict binaries are re-extended at grow time.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> star_words_;
  /// Memoised equality aux vars, keyed by sv_a << 32 | sv_b.
  /// The map answers lookups; the vector preserves insertion order so
  /// grow-time extension is deterministic.
  std::unordered_map<std::uint64_t, sat::Var> equality_cache_;
  std::vector<std::pair<std::uint64_t, sat::Var>> equality_list_;
  /// Shared cross-N chain cache (optional); falls back to a local one.
  ForbiddenChainCache* chain_cache_ = nullptr;
  ForbiddenChainCache local_chain_cache_;
  /// One-pass model decode cache (valid while decoded_valid_).
  mutable std::vector<std::uint32_t> decoded_;
  mutable bool decoded_valid_ = false;
  /// Assumption scratch for persistent solves.
  std::vector<sat::Lit> assumptions_;

  static constexpr sat::Var kVarUndef = -1;
  static constexpr std::size_t kNoStateVar = static_cast<std::size_t>(-1);
};

}  // namespace t2m

#endif  // T2M_CORE_CSP_ENCODER_H
