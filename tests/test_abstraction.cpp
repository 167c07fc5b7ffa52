#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "src/abstraction/abstraction.h"
#include "src/abstraction/event_abstraction.h"
#include "src/abstraction/event_stream.h"
#include "src/trace/mmap_io.h"
#include "src/trace/text_io.h"
#include "src/util/rng.h"
#include "src/sim/basic/counter.h"
#include "src/sim/basic/integrator.h"
#include "src/sim/serial/serial_port.h"
#include "src/trace/recorder.h"

namespace t2m {
namespace {

std::vector<std::string> vocab_names(const PredicateSequence& p, const Schema& s) {
  return p.names_for(s);
}

bool has_name(const std::vector<std::string>& names, const std::string& want) {
  return std::find(names.begin(), names.end(), want) != names.end();
}

TEST(ModeSelection, FollowsSchema) {
  Schema events;
  events.add_cat("ev", {"a"}, "a");
  EXPECT_EQ(select_mode(events), AbstractionMode::Event);
  Schema numeric;
  numeric.add_int("x");
  EXPECT_EQ(select_mode(numeric), AbstractionMode::Numeric);
  Schema mixed;
  mixed.add_cat("ev", {"a"}, "a");
  mixed.add_int("x");
  EXPECT_EQ(select_mode(mixed), AbstractionMode::Mixed);
}

TEST(EventAbstraction, OnePredicatePerStepWithDisplayNames) {
  TraceRecorder rec;
  const VarIndex ev = rec.declare_cat("ev", {"a", "b", "c"}, "a");
  for (const char* e : {"a", "b", "c", "b", "c"}) {
    rec.set_sym(ev, e);
    rec.commit();
  }
  const Trace trace = rec.take();
  const PredicateSequence p = abstract_trace(trace);
  EXPECT_EQ(p.length(), 4u);  // n-1 steps
  EXPECT_EQ(p.vocab.size(), 2u);  // only b and c are step destinations
  const auto names = vocab_names(p, trace.schema());
  EXPECT_TRUE(has_name(names, "b"));
  EXPECT_TRUE(has_name(names, "c"));
  // Repeating pattern shares ids.
  EXPECT_EQ(p.seq[0], p.seq[2]);
  EXPECT_EQ(p.seq[1], p.seq[3]);
}

TEST(EventAbstraction, TooShortThrows) {
  TraceRecorder rec;
  rec.declare_cat("ev", {"a"}, "a");
  rec.commit();
  EXPECT_THROW(abstract_trace(rec.take()), std::invalid_argument);
}

/// Random all-categorical trace: `vars` variables, some symbols declared up
/// front and the rest interned as they appear, observations drawn from a
/// small pool of valuations so that destinations repeat.
Trace random_categorical_trace(Rng& rng, std::size_t vars, std::size_t length) {
  static const char* const kVarNames[] = {"x0", "x1", "x2"};
  static const char* const kSymbols[] = {"s0", "s1", "s2", "s3"};
  Schema schema;
  for (std::size_t v = 0; v < vars; ++v) {
    const std::size_t declared = rng.below(3);
    schema.add_cat(kVarNames[v], {kSymbols + 4 - declared, kSymbols + 4});
  }
  std::vector<Valuation> pool(1 + rng.below(12));
  for (Valuation& val : pool) {
    for (std::size_t v = 0; v < vars; ++v) {
      val.push_back(Value::of_sym(schema.sym_id_intern(v, kSymbols[rng.below(4)])));
    }
  }
  Trace trace(std::move(schema));
  for (std::size_t t = 0; t < length; ++t) trace.append(pool[rng.below(pool.size())]);
  return trace;
}

/// The per-step construction abstract_event_trace used before it became a
/// loop over EventStreamAbstractor: a fresh conjunction of destination atoms
/// and display string for every step, interned as it comes.
PredicateSequence per_step_reference(const Trace& trace) {
  const Schema& schema = trace.schema();
  PredicateSequence out;
  for (std::size_t step = 0; step < trace.num_steps(); ++step) {
    const Valuation& next = trace.step_next(step);
    std::vector<ExprPtr> atoms;
    std::string display;
    for (VarIndex v = 0; v < schema.size(); ++v) {
      atoms.push_back(Expr::eq(Expr::var_ref(v, /*primed=*/true), Expr::constant(next[v])));
      if (!display.empty()) display += " & ";
      display += schema.format_value(v, next[v]);
    }
    const PredId id = out.vocab.intern(Expr::conj(std::move(atoms)));
    if (out.display_names.size() <= id) out.display_names.resize(id + 1);
    out.display_names[id] = display;
    out.seq.push_back(id);
  }
  return out;
}

void expect_same_sequence(const PredicateSequence& a, const PredicateSequence& b,
                          const Schema& schema, const std::string& label) {
  ASSERT_EQ(a.vocab.size(), b.vocab.size()) << label;
  for (PredId id = 0; id < a.vocab.size(); ++id) {
    EXPECT_TRUE(ExprPtrEqual{}(a.vocab.expr(id), b.vocab.expr(id))) << label << " p" << id;
  }
  EXPECT_EQ(a.vocab.names(schema), b.vocab.names(schema)) << label;
  EXPECT_EQ(a.display_names, b.display_names) << label;
  EXPECT_EQ(a.seq, b.seq) << label;
}

TEST(EventAbstraction, BatchEqualsHandDrivenAbstractorOnRandomTraces) {
  Rng rng(1234);
  for (int round = 0; round < 60; ++round) {
    const std::size_t vars = 1 + rng.below(3);
    const Trace trace = random_categorical_trace(rng, vars, 2 + rng.below(300));
    const std::string label = "round " + std::to_string(round) + " vars " + std::to_string(vars);
    const PredicateSequence batch = abstract_event_trace(trace, AbstractionConfig{});

    EventStreamAbstractor by_valuation;
    std::vector<PredId> seq;
    for (std::size_t t = 0; t < trace.size(); ++t) {
      if (const auto id = by_valuation.push(trace.schema(), trace.obs(t))) seq.push_back(*id);
    }
    PredicateSequence driven = by_valuation.take();
    driven.seq = seq;
    expect_same_sequence(batch, driven, trace.schema(), label + " push");
    expect_same_sequence(batch, per_step_reference(trace), trace.schema(),
                         label + " reference");

    if (vars == 1) {
      EventStreamAbstractor by_symbol;
      seq.clear();
      for (std::size_t t = 0; t < trace.size(); ++t) {
        if (const auto id = by_symbol.push_symbol(trace.schema(), trace.obs(t)[0].as_sym())) {
          seq.push_back(*id);
        }
      }
      PredicateSequence symbols = by_symbol.take();
      symbols.seq = seq;
      expect_same_sequence(batch, symbols, trace.schema(), label + " push_symbol");
    }

    // The streaming text reader interns and abstracts the written trace the
    // same way.
    std::ostringstream text;
    write_trace_text(text, trace);
    const std::string content = text.str();
    LineReader lines(content, LineReader::from_memory);
    TextTracePredStream stream(lines);
    seq.clear();
    while (const auto id = stream.next()) seq.push_back(*id);
    PredicateSequence streamed = stream.take_preds();
    streamed.seq = seq;
    expect_same_sequence(batch, streamed, trace.schema(), label + " text stream");
  }
}

TEST(EventAbstraction, PushSymbolNeedsOneVariable) {
  Schema schema;
  schema.add_cat("a", {"x"});
  schema.add_cat("b", {"y"});
  EventStreamAbstractor abstractor;
  EXPECT_THROW(abstractor.push_symbol(schema, 0), std::invalid_argument);
}

TEST(NumericAbstraction, CounterVocabularyMatchesFig5) {
  const Trace trace = sim::generate_counter_trace({128, 447, 1});
  const PredicateSequence p = abstract_trace(trace);
  EXPECT_EQ(p.length(), trace.size() + 1 - 3);  // k = n + 1 - w
  const auto names = vocab_names(p, trace.schema());
  ASSERT_EQ(names.size(), 4u);
  EXPECT_TRUE(has_name(names, "x' = x + 1"));
  EXPECT_TRUE(has_name(names, "x' = x - 1"));
  EXPECT_TRUE(has_name(names, "x >= 128"));
  EXPECT_TRUE(has_name(names, "x <= 1"));
}

TEST(NumericAbstraction, CounterGuardsNotMerged) {
  // Peak and trough guards have different contexts and must stay separate.
  const Trace trace = sim::generate_counter_trace({16, 200, 1});
  AbstractionConfig config;
  config.merge_guards = true;
  const PredicateSequence p = abstract_trace(trace, config);
  const auto names = vocab_names(p, trace.schema());
  EXPECT_TRUE(has_name(names, "x >= 16"));
  EXPECT_TRUE(has_name(names, "x <= 1"));
}

TEST(NumericAbstraction, IntegratorGuardsMergeIntoDisjunction) {
  sim::IntegratorConfig config;
  config.length = 20000;
  const Trace trace = sim::generate_integrator_trace(config);
  AbstractionConfig abs;
  abs.input_vars = {sim::integrator_input_var()};
  const PredicateSequence p = abstract_trace(trace, abs);
  const auto names = vocab_names(p, trace.schema());
  EXPECT_TRUE(has_name(names, "op' = op"));
  EXPECT_TRUE(has_name(names, "op' = op + ip"));
  bool merged_guard = false;
  for (const auto& n : names) {
    if (n.find("||") != std::string::npos && n.find("5") != std::string::npos) {
      merged_guard = true;
    }
  }
  EXPECT_TRUE(merged_guard) << "saturation guards should merge into a disjunction";
}

TEST(NumericAbstraction, MergeCanBeDisabled) {
  sim::IntegratorConfig config;
  config.length = 20000;
  const Trace trace = sim::generate_integrator_trace(config);
  AbstractionConfig abs;
  abs.input_vars = {sim::integrator_input_var()};
  abs.merge_guards = false;
  const PredicateSequence p = abstract_trace(trace, abs);
  for (const auto& n : vocab_names(p, trace.schema())) {
    EXPECT_EQ(n.find("||"), std::string::npos) << n;
  }
}

TEST(NumericAbstraction, WindowSizeControlsSequenceLength) {
  const Trace trace = sim::generate_counter_trace({8, 50, 1});
  for (const std::size_t w : {2u, 3u, 4u, 5u}) {
    AbstractionConfig config;
    config.window = w;
    const PredicateSequence p = abstract_trace(trace, config);
    EXPECT_EQ(p.length(), trace.size() + 1 - w) << "w=" << w;
  }
}

TEST(NumericAbstraction, InputVarGetsNoUpdateAtom) {
  sim::IntegratorConfig config;
  config.length = 5000;
  const Trace trace = sim::generate_integrator_trace(config);
  AbstractionConfig abs;
  abs.input_vars = {"ip"};
  const PredicateSequence p = abstract_trace(trace, abs);
  for (const auto& n : vocab_names(p, trace.schema())) {
    EXPECT_EQ(n.find("ip' ="), std::string::npos) << n;
  }
}

TEST(NumericAbstraction, RejectsCategoricalVariables) {
  TraceRecorder rec;
  rec.declare_cat("ev", {"a"}, "a");
  rec.commit();
  rec.commit();
  AbstractionConfig config;
  EXPECT_THROW(abstract_trace(rec.take(), config, AbstractionMode::Numeric),
               std::invalid_argument);
}

TEST(MixedAbstraction, SerialAtoms) {
  sim::SerialPortConfig config;
  config.operations = 400;
  const Trace trace = sim::generate_serial_trace(config);
  const PredicateSequence p = abstract_trace(trace);
  EXPECT_EQ(p.length(), trace.num_steps());
  const auto names = vocab_names(p, trace.schema());
  EXPECT_TRUE(has_name(names, "read"));
  EXPECT_TRUE(has_name(names, "write"));
  EXPECT_TRUE(has_name(names, "reset"));
  EXPECT_TRUE(has_name(names, "x' = x - 1"));
  EXPECT_TRUE(has_name(names, "x' = x + 1"));
  EXPECT_TRUE(has_name(names, "x' = 0"));
}

TEST(MixedAbstraction, EventAndEffectAlternate) {
  sim::SerialPortConfig config;
  config.operations = 100;
  const Trace trace = sim::generate_serial_trace(config);
  const PredicateSequence p = abstract_trace(trace);
  const auto names = vocab_names(p, trace.schema());
  // Even positions (0-based) are operation events, odd are data effects.
  for (std::size_t i = 0; i + 1 < p.length(); i += 2) {
    const std::string& ev = names[p.seq[i]];
    EXPECT_TRUE(ev == "read" || ev == "write" || ev == "reset") << i << ": " << ev;
    const std::string& effect = names[p.seq[i + 1]];
    EXPECT_NE(effect.find("x'"), std::string::npos) << i + 1 << ": " << effect;
  }
}

TEST(Compaction, DropsUnusedVocabulary) {
  PredicateSequence p;
  const PredId a = p.vocab.intern(Expr::int_const(1));
  const PredId b = p.vocab.intern(Expr::int_const(2));
  (void)a;
  p.seq = {b, b};
  compact_sequence(p);
  EXPECT_EQ(p.vocab.size(), 1u);
  EXPECT_EQ(p.seq, (std::vector<PredId>{0, 0}));
}

}  // namespace
}  // namespace t2m
