// Concurrency stress for the annotated sync layer (docs/concurrency.md):
// the components the thread-safety audit certifies — logger sink swaps,
// heartbeat, tracer, the caller's stop flag — hammered
// together from plain threads under the sanitizer jobs (TSan is where these
// tests earn their keep; on plain builds they are fast smoke checks).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/learner.h"
#include "src/obs/progress.h"
#include "src/obs/trace.h"
#include "src/obs/validate.h"
#include "src/sim/basic/counter.h"
#include "src/sim/rtlinux/workloads.h"
#include "src/util/log.h"
#include "src/util/stopwatch.h"
#include "src/util/sync.h"

namespace t2m {
namespace {

/// Runs `body(task)` on `tasks` plain threads while `during()` runs on the
/// calling thread, then joins them all.
template <typename Body, typename During>
void fan_out(int tasks, Body body, During during) {
  std::vector<Thread> threads;
  threads.reserve(static_cast<std::size_t>(tasks));
  for (int task = 0; task < tasks; ++task) threads.emplace_back(body, task);
  during();
  for (Thread& thread : threads) thread.join();
}

/// Restores global observability state on scope exit (mirrors test_obs.cpp).
struct ObsQuiescent {
  ~ObsQuiescent() {
    obs::Tracer::instance().stop();
    obs::Progress::global().disable();
    Logger::instance().set_sink(nullptr);
    Logger::instance().set_level(LogLevel::Warn);
  }
};

TEST(ConcurrencyStress, LearnUnderFullObservability) {
  // The worst-case lock interleaving the library offers: a learn with the
  // tracer, progress and a fast heartbeat thread all live, plus a
  // capturing logger sink — every capability in the lock hierarchy is
  // exercised concurrently.
  const ObsQuiescent guard;
  obs::Tracer::instance().start();
  obs::Progress::global().enable();
  Logger::instance().set_level(LogLevel::Info);
  Mutex lines_mutex;
  std::vector<std::string> lines;
  Logger::instance().set_sink([&](LogLevel, const std::string& line) {
    const MutexLock lock(lines_mutex);
    lines.push_back(line);
  });

  obs::Progress::global().begin_run(Deadline::never());
  const obs::Heartbeat heartbeat(0.005);
  const LearnResult result = ModelLearner().learn(sim::generate_counter_trace({}));
  EXPECT_TRUE(result.success);

  obs::Tracer::instance().stop();
  std::ostringstream os;
  obs::Tracer::instance().write_json(os);
  const Status status = obs::validate_trace_json(os.str());
  EXPECT_TRUE(status.ok()) << status.to_string();
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

TEST(ConcurrencyStress, HeartbeatStartStopChurn) {
  // Construction/destruction churn on the heartbeat worker: every cycle
  // joins the thread through the stop_ handshake the annotations guard.
  const ObsQuiescent guard;
  obs::Progress::global().enable();
  obs::Progress::global().begin_run(Deadline::never());
  for (int cycle = 0; cycle < 20; ++cycle) {
    std::atomic<int> beats{0};
    obs::Heartbeat heartbeat(0.001, [&beats](const obs::ProgressSnapshot&) {
      // order: relaxed — counter only; the destructor joins the worker.
      beats.fetch_add(1, std::memory_order_relaxed);
    });
    obs::Progress::global().add_conflicts(1);
  }
}

TEST(ConcurrencyStress, OuterStopCancelsLearnMidRun) {
  // The caller's stop flag, raised from another thread mid-run, must reach
  // the solver (polled every conflict) and the CEGIS loop (polled between
  // solver calls) promptly.
  std::atomic<bool> stop{false};
  LearnerConfig config;
  config.stop = &stop;
  const Trace trace = sim::generate_full_coverage_sched_trace(20165);
  Thread raiser([&stop] {
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
