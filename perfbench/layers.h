#ifndef T2M_PERFBENCH_LAYERS_H
#define T2M_PERFBENCH_LAYERS_H

// Per-layer accounting of a traced learn: the Tracer's span document is
// checked, rebuilt into a span tree, and folded into the per-layer metrics.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/core/learner.h"

namespace perfbench {

/// Spans the benchmark records around its own calls into each layer.
inline constexpr const char* kSpanRead = "bench.read";               // read_trace_file
inline constexpr const char* kSpanAbstract = "bench.abstract";       // abstract_trace
inline constexpr const char* kSpanLearnSeq = "bench.learn_sequence"; // learn_from_sequence
inline constexpr const char* kSpanLearnFtrace = "bench.learn_ftrace";  // learn_from_ftrace
// Stream-only probes that split the one-pass ingest into its layers.
inline constexpr const char* kSpanProbeScan = "bench.probe.scan";      // LineReader alone
inline constexpr const char* kSpanProbeDrain = "bench.probe.drain";    // + FtracePredStream
inline constexpr const char* kSpanProbeSegment = "bench.probe.segment";  // StreamingSegmenter
inline constexpr const char* kSpanProbeWindows = "bench.probe.windows";  // P_l builder

struct TraceSpan {
  std::string name;
  std::uint32_t track = 0;
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
  int parent = -1;              ///< index of the enclosing span on the track
  std::int64_t child_ns = 0;    ///< time covered by direct children
  std::string result;           ///< "result" string arg (learn.solve)
  std::int64_t n = -1;          ///< "n" arg (learn.solve), -1 when absent
  std::int64_t compliant = -1;  ///< "compliant" arg (compliance.check)

  std::int64_t self_ns() const { return dur_ns - child_ns; }
};

/// Runs the laminar-nesting validation (src/obs/validate) on a Tracer JSON
/// document, then parses its complete spans and links each to its parent.
/// A malformed document is an error, never a partial result.
t2m::Status load_spans(const std::string& json, std::vector<TraceSpan>& out);

/// Per-layer metrics summed over the cases of one traced pass. Times come
/// from spans (the benchmark's own around each layer call, and the ones the
/// library emits inside the search); work counts come from LearnStats.
class LayerLedger {
public:
  void add_case(const std::vector<TraceSpan>& spans, const t2m::LearnResult& result);

  /// Every per-layer metric, by name (seconds, counts, MB and fractions).
  std::map<std::string, double> metrics() const;

private:
  std::map<std::string, double> sums_;
  double peak_arena_mb_ = 0.0;
};

/// Units of the per-layer metric names metrics() produces.
std::string layer_unit(const std::string& metric);

}  // namespace perfbench

#endif  // T2M_PERFBENCH_LAYERS_H
