// Concurrency stress for what caller threads share (docs/observability.md,
// "Threads and locks"): the tracer, the logger and its sink swaps, and the
// caller's stop flag — hammered together from plain threads under the
// sanitizer jobs (TSan is where these tests earn their keep; on plain builds
// they are fast smoke checks).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/learner.h"
#include "src/obs/trace.h"
#include "src/obs/validate.h"
#include "src/sim/basic/counter.h"
#include "src/sim/rtlinux/workloads.h"
#include "src/util/log.h"
#include "src/util/stopwatch.h"

namespace t2m {
namespace {

/// Runs `body(task)` on `tasks` plain threads while `during()` runs on the
/// calling thread, then joins them all.
template <typename Body, typename During>
void fan_out(int tasks, Body body, During during) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(tasks));
  for (int task = 0; task < tasks; ++task) threads.emplace_back(body, task);
  during();
  for (std::thread& thread : threads) thread.join();
}

/// Restores global observability state on scope exit (mirrors test_obs.cpp).
struct ObsQuiescent {
  ~ObsQuiescent() {
    obs::Tracer::instance().stop();
    Logger::instance().set_sink(nullptr);
    Logger::instance().set_level(LogLevel::Warn);
  }
};

TEST(ConcurrencyStress, LearnUnderFullObservability) {
  // Two caller threads learn at once with tracing and progress lines on,
  // into one capturing logger sink: both learns take the tracer's and the
  // logger's locks concurrently, and each polls its own progress clock.
  const ObsQuiescent guard;
  obs::Tracer::instance().start();
  Logger::instance().set_level(LogLevel::Info);
  std::mutex lines_mutex;
  std::vector<std::string> lines;
  Logger::instance().set_sink([&](LogLevel, const std::string& line) {
    const std::lock_guard<std::mutex> lock(lines_mutex);
    lines.push_back(line);
  });

  LearnerConfig config;
  config.progress_seconds = 1e-9;
  const ModelLearner learner(config);
  const Trace trace = sim::generate_counter_trace({});
  LearnResult results[2];
  fan_out(2, [&](int task) { results[task] = learner.learn(trace); }, [] {});
  Logger::instance().set_sink(nullptr);
  obs::Tracer::instance().stop();

  for (const LearnResult& result : results) EXPECT_TRUE(result.success);
  EXPECT_EQ(results[0].stats.sat_conflicts, results[1].stats.sat_conflicts);
  // "[t2m INFO  0.001234 t01] progress: ..." — both learns logged lines.
  std::set<std::string> progress_threads;
  for (const std::string& line : lines) {
    const std::size_t at = line.find("] progress: ");
    if (at == std::string::npos) continue;
    const std::size_t from = line.rfind(' ', at);
    progress_threads.insert(line.substr(from, at - from));
  }
  EXPECT_EQ(progress_threads.size(), 2u);
  std::ostringstream os;
  obs::Tracer::instance().write_json(os);
  obs::TraceSummary summary;
  const Status status = obs::validate_trace_json(os.str(), &summary);
  EXPECT_TRUE(status.ok()) << status.to_string();
  EXPECT_EQ(summary.tracks.size(), 2u);
}

TEST(ConcurrencyStress, LoggerSinkSwapsDuringConcurrentWrites) {
  // set_sink swaps under the same mutex that serialises write(): hammering
  // both from many tasks must neither tear lines nor drop the guard.
  const ObsQuiescent guard;
  Logger::instance().set_level(LogLevel::Info);
  std::atomic<std::uint64_t> delivered{0};
  const auto counting_sink = [&delivered](LogLevel, const std::string& line) {
    // order: relaxed — counter only; the joins below synchronise.
    if (!line.empty()) delivered.fetch_add(1, std::memory_order_relaxed);
  };
  fan_out(
      8,
      [](int task) {
        for (int i = 0; i < 200; ++i) log_info() << "stress line " << task << ":" << i;
      },
      [&] {
        for (int swap = 0; swap < 100; ++swap) {
          Logger::instance().set_sink(counting_sink);
          Logger::instance().set_sink(nullptr);
        }
        Logger::instance().set_sink(counting_sink);
      });
  Logger::instance().set_sink(nullptr);
  // Some writes land on the stderr default mid-swap; whatever the sink saw
  // arrived whole (the counter only counts non-empty formatted lines).
  EXPECT_GT(delivered.load(), 0u);
}

TEST(ConcurrencyStress, OuterStopCancelsLearnMidRun) {
  // The caller's stop flag, raised from another thread mid-run, must reach
  // the solver (polled every conflict) and the CEGIS loop (polled between
  // solver calls) promptly.
  std::atomic<bool> stop{false};
  LearnerConfig config;
  config.stop = &stop;
  const Trace trace = sim::generate_full_coverage_sched_trace(20165);
  std::thread raiser([&stop] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    // order: relaxed — pure signal; the learner's join publishes results.
    stop.store(true, std::memory_order_relaxed);
  });
  const Stopwatch wall;
  const LearnResult result = ModelLearner(config).learn(trace);
  const double seconds = wall.elapsed_seconds();
  raiser.join();
  // Either the learn finished before the flag rose (fast machine) or it was
  // cancelled; an unpolled flag would blow far past this generous bound.
  EXPECT_TRUE(result.success || result.cancelled);
  EXPECT_LT(seconds, 30.0);
}

}  // namespace
}  // namespace t2m
