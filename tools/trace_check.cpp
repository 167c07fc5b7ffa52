// trace_check: structural validator for the Chrome trace-event / Perfetto
// span timelines t2m emits (--trace-out).
//
//   trace_check --trace FILE [--require-track SUB1,SUB2] [--require-span S1,S2]
//   trace_check --self-test
//
// --require-track / --require-span assert that at least one track name /
// span name contains each comma-separated substring — CI uses them to prove
// an instrumented learn actually produced its per-phase spans, not just an
// empty-but-valid document.
//
// --self-test exercises the tracer in-process: it runs a traced workload
// across two threads, writes the trace through the production serializer,
// and validates it (registered in ctest).
//
// exit codes: 0 ok, 1 validation failed, 2 usage/io error.

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/trace.h"
#include "src/obs/validate.h"
#include "src/util/cli.h"
#include "src/util/string_utils.h"

namespace {

int usage() {
  std::cerr << "usage: trace_check --trace FILE [--require-track SUBSTR,...]\n"
               "                   [--require-span SUBSTR,...]\n"
               "       trace_check --self-test\n";
  return 2;
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

int check_trace(const std::string& path, const std::vector<std::string>& require_tracks,
                const std::vector<std::string>& require_spans) {
  std::string text;
  if (!read_file(path, text)) {
    std::cerr << "trace_check: cannot open " << path << "\n";
    return 2;
  }
  t2m::obs::TraceSummary summary;
  const t2m::Status status = t2m::obs::validate_trace_json(text, &summary);
  if (!status.ok()) {
    std::cerr << "trace_check: " << path << ": " << status.to_string() << "\n";
    return 1;
  }
  int failures = 0;
  for (const std::string& want : require_tracks) {
    bool found = false;
    for (const auto& [tid, name] : summary.tracks) {
      if (name.find(want) != std::string::npos) {
        found = true;
        break;
      }
    }
    if (!found) {
      std::cerr << "trace_check: " << path << ": no track name contains '" << want << "'\n";
      ++failures;
    }
  }
  for (const std::string& want : require_spans) {
    bool found = false;
    for (const std::string& name : summary.span_names) {
      if (name.find(want) != std::string::npos) {
        found = true;
        break;
      }
    }
    if (!found) {
      std::cerr << "trace_check: " << path << ": no span name contains '" << want << "'\n";
      ++failures;
    }
  }
  std::cout << "trace_check: " << path << ": " << summary.events << " events ("
            << summary.spans << " spans, " << summary.instants << " instants, "
            << summary.counters << " counter samples) on " << summary.tracks.size()
            << " tracks, " << summary.span_names.size() << " distinct span names\n";
  return failures == 0 ? 0 : 1;
}

int self_test() {
  using namespace t2m;
  obs::Tracer::instance().start();
  {
    T2M_SPAN("selftest.run", "items", 64);
    // 8 chunks of 8 items, dealt round-robin to 2 threads.
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < 2; ++t) {
      threads.emplace_back([t] {
        for (std::size_t c = t; c < 8; c += 2) {
          T2M_SPAN("selftest.chunk", "chunk", c);
          for (std::size_t i = c * 8; i < (c + 1) * 8; ++i) {
            T2M_SPAN("selftest.item", "i", i);
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    T2M_INSTANT("selftest.marker");
    T2M_TRACE_COUNTER("selftest.counter", 42);
  }
  obs::Tracer::instance().stop();

  std::ostringstream trace_os;
  obs::Tracer::instance().write_json(trace_os);
  obs::TraceSummary summary;
  const Status trace_status = obs::validate_trace_json(trace_os.str(), &summary);
  if (!trace_status.ok()) {
    std::cerr << "trace_check self-test: trace invalid: " << trace_status.to_string()
              << "\n";
    return 1;
  }
  // The workload above must be in the document.
  if (summary.span_names.count("selftest.run") == 0 ||
      summary.span_names.count("selftest.chunk") == 0) {
    std::cerr << "trace_check self-test: workload spans missing from the trace\n";
    return 1;
  }

  // Corrupted input must be rejected, not crash.
  if (obs::validate_trace_json("{\"traceEvents\": [{\"ph\": \"X\"}]}").ok()) {
    std::cerr << "trace_check self-test: accepted an event without required fields\n";
    return 1;
  }
  if (obs::validate_trace_json("not json").ok()) {
    std::cerr << "trace_check self-test: accepted malformed JSON\n";
    return 1;
  }

  std::cout << "trace_check self-test: ok (" << summary.events << " events)\n";
  return 0;
}

std::vector<std::string> split_requirements(const std::string& csv) {
  std::vector<std::string> out;
  for (const auto& part : t2m::split(csv, ',')) {
    if (!part.empty()) out.push_back(part);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const t2m::CliArgs args(argc, argv);
  if (args.has("self-test")) return self_test();
  const auto trace = args.get("trace");
  if (!trace) return usage();
  return check_trace(*trace, split_requirements(args.get_or("require-track", "")),
                     split_requirements(args.get_or("require-span", "")));
}
