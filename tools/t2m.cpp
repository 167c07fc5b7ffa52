// t2m: command-line front end for the trace2model-cpp library.
//
//   t2m gen   --example counter --out counter.trace      generate a trace
//   t2m learn --trace counter.trace --dot model.dot      learn a model
//   t2m info  --trace counter.trace                      describe a trace
//
// `t2m learn` accepts --window, --compliance, --input <var> (repeatable via
// comma list), --no-segment, --encoding pairwise|successor, --timeout <sec>,
// and --ftrace FILE as an alternative to --trace for event logs (learned
// through the streaming one-pass pipeline).

#include <cstdint>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "src/abstraction/abstraction.h"
#include "src/automaton/dot.h"
#include "src/base/status.h"
#include "src/core/learner.h"
#include "src/core/report.h"
#include "src/obs/trace.h"
#include "src/sim/basic/counter.h"
#include "src/sim/basic/integrator.h"
#include "src/sim/rtlinux/workloads.h"
#include "src/sim/serial/serial_port.h"
#include "src/sim/xhci/ring_interface.h"
#include "src/sim/xhci/slot_fsm.h"
#include "src/trace/text_io.h"
#include "src/util/cli.h"
#include "src/util/log.h"
#include "src/util/string_utils.h"

namespace {

int usage() {
  std::cerr <<
      "usage:\n"
      "  t2m gen   --example counter|integrator|serial|usb-slot|usb-attach|rtlinux\n"
      "            [--length N] [--out FILE]\n"
      "  t2m learn --trace FILE | --ftrace FILE\n"
      "            [--window W] [--compliance L] [--input v1,v2]\n"
      "            [--no-segment] [--encoding pairwise|successor]\n"
      "            [--timeout SEC] [--max-memory MB]\n"
      "            [--task NAME] [--dot FILE] [--verbose]\n"
      "            [--trace-out FILE] [--stats-out FILE]\n"
      "            [--progress [SEC]] [--log-level LEVEL]\n"
      "  t2m info  --trace FILE\n"
      "\n"
      "  --max-memory M cap accounted memory at M MiB; overrunning it ends\n"
      "                 the learn with an out-of-memory verdict (salvaging\n"
      "                 the best model so far) instead of crashing\n"
      "  --task NAME    keep only this task's events (--ftrace inputs)\n"
      "\n"
      "  --trace-out F    write a Chrome trace-event / Perfetto JSON span\n"
      "                   timeline of the learn to F (docs/observability.md)\n"
      "  --stats-out F    write the run verdict + LearnStats as JSON to F\n"
      "  --progress [S]   while the search runs, an Info progress line every\n"
      "                   S seconds (default 5; 0 is off) with N, SAT calls,\n"
      "                   conflicts, memory and deadline remaining\n"
      "  --log-level L    trace|debug|info|warn|error|off (default warn;\n"
      "                   --verbose is shorthand for debug)\n"
      "\n"
      "exit codes: 0 ok, 1 no model, 2 usage, 10 io error, 11 parse error,\n"
      "            12 out of memory, 13 deadline exceeded, 14 internal error\n";
  return 2;
}

t2m::Trace generate(const std::string& example, std::int64_t length) {
  using namespace t2m::sim;
  if (example == "counter") {
    CounterConfig c;
    if (length > 0) c.length = static_cast<std::size_t>(length);
    return generate_counter_trace(c);
  }
  if (example == "integrator") {
    IntegratorConfig c;
    if (length > 0) c.length = static_cast<std::size_t>(length);
    return generate_integrator_trace(c);
  }
  if (example == "serial") {
    SerialPortConfig c;
    if (length > 0) c.operations = static_cast<std::size_t>(length) / 2;
    return generate_serial_trace(c);
  }
  if (example == "usb-slot") return generate_slot_trace();
  if (example == "usb-attach") return generate_usb_attach_trace();
  if (example == "rtlinux") {
    return generate_full_coverage_sched_trace(length > 0 ? static_cast<std::size_t>(length)
                                                         : 20165);
  }
  throw std::invalid_argument("unknown example: " + example);
}

int cmd_gen(const t2m::CliArgs& args) {
  args.reject_unknown({"example", "length", "out", "log-level", "verbose"});
  const auto example = args.get("example");
  if (!example) return usage();
  const t2m::Trace trace = generate(*example, args.get_int_or("length", 0));
  const auto out = args.get("out");
  if (out && !out->empty()) {
    t2m::write_trace_file(*out, trace);
    std::cout << "wrote " << trace.size() << " observations to " << *out << "\n";
  } else {
    t2m::write_trace_text(std::cout, trace);
  }
  return 0;
}

int cmd_learn(const t2m::CliArgs& args) {
  args.reject_unknown({"trace", "ftrace", "window", "compliance", "input", "no-segment",
                       "encoding", "timeout", "max-memory", "task", "dot", "trace-out",
                       "stats-out", "progress", "log-level", "verbose"});
  const auto path = args.get("trace");
  const auto ftrace_path = args.get("ftrace");
  if (!path && !ftrace_path) return usage();

  t2m::LearnerConfig config;
  config.window = args.get_size_or("window", 3);
  config.compliance_length = args.get_size_or("compliance", 2);
  config.segmented = !args.has("no-segment");
  config.timeout_seconds = args.get_seconds_or("timeout", 0.0);
  const std::size_t max_memory_mib = args.get_size_or("max-memory", 0);
  if (max_memory_mib > (SIZE_MAX >> 20)) {
    throw std::invalid_argument("--max-memory: " + std::to_string(max_memory_mib) +
                                " MiB overflows a byte count");
  }
  config.max_memory_bytes = max_memory_mib << 20;
  const std::string encoding = args.get_or("encoding", "successor");
  if (encoding == "pairwise") {
    config.encoding = t2m::DeterminismEncoding::Pairwise;
  } else if (encoding != "successor") {
    throw std::invalid_argument("--encoding: expected pairwise|successor, got '" + encoding +
                                "'");
  }
  for (const auto& name : t2m::split(args.get_or("input", ""), ',')) {
    if (!name.empty()) config.abstraction.input_vars.push_back(name);
  }

  // Observability: the trace, the stats record and the progress lines are
  // opt-in and independent. Tracing must be live before the learn starts so
  // the ingest/abstraction spans are captured.
  const auto trace_out = args.get("trace-out");
  const auto stats_out = args.get("stats-out");
  if (trace_out && !trace_out->empty()) t2m::obs::Tracer::instance().start();
  if (args.has("progress")) {
    config.progress_seconds = args.get_seconds_or("progress", 5.0);
    // Progress lines are Info-level; --progress without an explicit
    // --log-level quieter than info would otherwise print nothing.
    if (!args.has("log-level") && !t2m::Logger::instance().enabled(t2m::LogLevel::Info)) {
      t2m::Logger::instance().set_level(t2m::LogLevel::Info);
    }
  }

  const t2m::ModelLearner learner(config);
  t2m::LearnResult result;
  if (ftrace_path) {
    // Event logs go through the streaming one-pass pipeline.
    result = learner.learn_from_ftrace(*ftrace_path, args.get_or("task", ""));
  } else {
    result = learner.learn(t2m::read_trace_file(*path));
  }

  if (trace_out && !trace_out->empty()) {
    t2m::obs::Tracer::instance().stop();
    if (t2m::obs::Tracer::instance().write_file(*trace_out)) {
      std::cout << "wrote trace to " << *trace_out << "\n";
    } else {
      std::cerr << "t2m: io_error: could not write " << *trace_out << "\n";
      return t2m::error_code_exit_status(t2m::ErrorCode::io_error);
    }
  }
  if (stats_out && !stats_out->empty()) {
    std::ofstream os(*stats_out);
    os << t2m::to_json(result) << "\n";
    if (!os) {
      std::cerr << "t2m: io_error: could not write " << *stats_out << "\n";
      return t2m::error_code_exit_status(t2m::ErrorCode::io_error);
    }
    std::cout << "wrote stats to " << *stats_out << "\n";
  }
  std::cout << t2m::format_learn_report(result, result.schema);

  // A salvaged best-so-far model is still worth writing out for inspection.
  const auto dot = args.get("dot");
  if (dot && !dot->empty() && (result.success || result.salvaged)) {
    std::ofstream os(*dot);
    t2m::write_dot(os, result.model);
    std::cout << "wrote DOT to " << *dot << "\n";
  }

  if (result.success) return 0;
  // Failed learns exit through the taxonomy band so scripts can tell an
  // out-of-memory verdict from a timeout from a plain "no model".
  if (!result.status.ok()) {
    std::cerr << "t2m: " << result.status.to_string() << "\n";
    return t2m::error_code_exit_status(result.status.code());
  }
  if (result.resource_exhausted) {
    return t2m::error_code_exit_status(t2m::ErrorCode::resource_exhausted);
  }
  if (result.timed_out && !result.cancelled) {
    return t2m::error_code_exit_status(t2m::ErrorCode::deadline_exceeded);
  }
  return 1;
}

int cmd_info(const t2m::CliArgs& args) {
  args.reject_unknown({"trace", "log-level", "verbose"});
  const auto path = args.get("trace");
  if (!path) return usage();
  const t2m::Trace trace = t2m::read_trace_file(*path);
  std::cout << "observations: " << trace.size() << "\n";
  std::cout << "variables:\n";
  for (t2m::VarIndex v = 0; v < trace.schema().size(); ++v) {
    const auto& info = trace.schema().var(v);
    std::cout << "  " << info.name << " ("
              << (info.type == t2m::VarType::Cat
                      ? "cat, " + std::to_string(info.symbols.size()) + " symbols"
                      : info.type == t2m::VarType::Bool ? "bool" : "int")
              << ")\n";
  }
  const auto mode = t2m::select_mode(trace.schema());
  std::cout << "abstraction mode: "
            << (mode == t2m::AbstractionMode::Event
                    ? "event"
                    : mode == t2m::AbstractionMode::Numeric ? "numeric" : "mixed")
            << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const t2m::CliArgs args(argc, argv);
  if (const auto level_name = args.get("log-level")) {
    const auto level = t2m::parse_log_level(*level_name);
    if (!level) {
      std::cerr << "t2m: --log-level: expected trace|debug|info|warn|error|off, got '"
                << *level_name << "'\n";
      return 2;
    }
    t2m::Logger::instance().set_level(*level);
  } else if (args.has("verbose")) {
    t2m::Logger::instance().set_level(t2m::LogLevel::Debug);
  }
  if (args.positional().empty()) return usage();
  const std::string& command = args.positional().front();
  try {
    if (command == "gen") return cmd_gen(args);
    if (command == "learn") return cmd_learn(args);
    if (command == "info") return cmd_info(args);
  } catch (const t2m::StatusError& e) {
    // Structured failures exit through the taxonomy band (see usage()).
    std::cerr << "t2m: " << e.status().to_string() << "\n";
    return t2m::error_code_exit_status(e.status().code());
  } catch (const std::invalid_argument& e) {
    std::cerr << "t2m: " << t2m::Status::ParseError(e.what()).to_string() << "\n";
    return t2m::error_code_exit_status(t2m::ErrorCode::parse_error);
  } catch (const std::bad_alloc&) {
    std::cerr << "t2m: resource_exhausted: allocation failed\n";
    return t2m::error_code_exit_status(t2m::ErrorCode::resource_exhausted);
  } catch (const std::exception& e) {
    std::cerr << "t2m: error: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
