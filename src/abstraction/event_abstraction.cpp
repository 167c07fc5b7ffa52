#include "src/abstraction/event_abstraction.h"

#include <stdexcept>

#include "src/abstraction/event_stream.h"

namespace t2m {

PredicateSequence abstract_event_trace(const Trace& trace, const AbstractionConfig& config) {
  (void)config;  // windowing applies at segmentation time, not here
  if (!trace.schema().all_categorical()) {
    throw std::invalid_argument("event abstraction requires all-categorical schema");
  }
  if (trace.size() < 2) {
    throw std::invalid_argument("event abstraction: trace needs at least two observations");
  }
  EventStreamAbstractor abstractor;
  std::vector<PredId> seq;
  seq.reserve(trace.num_steps());
  for (std::size_t t = 0; t < trace.size(); ++t) {
    if (const auto id = abstractor.push(trace.schema(), trace.obs(t))) seq.push_back(*id);
  }
  PredicateSequence out = abstractor.take();
  out.seq = std::move(seq);
  return out;
}

}  // namespace t2m
