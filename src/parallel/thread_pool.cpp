#include "src/parallel/thread_pool.h"

#include <algorithm>
#include <string>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/failpoint.h"
#include "src/util/log.h"

namespace t2m::par {

std::size_t hardware_threads() {
  const unsigned n = Thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<std::size_t>(n);
}

ThreadPool::ThreadPool(std::size_t workers) {
  ensure_size(std::max<std::size_t>(workers, 1));
}

ThreadPool::~ThreadPool() {
  // order: release pairs with the worker's acquire load under sleep_mutex_;
  // the rendezvous below guarantees no worker is between its idle check and
  // its wait when the notify lands.
  stopping_.store(true, std::memory_order_release);
  {
    // Rendezvous so no worker is between its idle check and its wait.
    const MutexLock lk(sleep_mutex_);
  }
  sleep_cv_.notify_all();
  const MutexLock lk(grow_mutex_);
  for (Thread& t : threads_) t.join();
}

void ThreadPool::ensure_size(std::size_t workers) {
  workers = std::min(workers, kMaxWorkers);
  if (size() >= workers) return;
  const MutexLock lk(grow_mutex_);
  for (std::size_t i = size(); i < workers; ++i) {
    // Queue first, then publish the count, then start the thread: everyone
    // indexing < worker_count_ finds an initialised queue.
    queues_[i] = std::make_unique<WorkerQueue>();
    // order: release publishes queues_[i]; pairs with the acquire in size().
    worker_count_.store(i + 1, std::memory_order_release);
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(hardware_threads());
  return pool;
}

void ThreadPool::submit(std::function<void()> task) {
  const std::size_t n = size();
  // order: relaxed — the cursor is a round-robin hint; queue placement needs
  // no ordering, only uniqueness-ish distribution.
  const std::size_t slot = submit_cursor_.fetch_add(1, std::memory_order_relaxed) % n;
  // order: release pairs with the worker's acquire re-check of pending_
  // under sleep_mutex_ before it sleeps (the task itself is published by the
  // queue mutex, not by this counter).
  pending_.fetch_add(1, std::memory_order_release);
  {
    const MutexLock lk(queues_[slot]->mutex);
    queues_[slot]->tasks.push_back(std::move(task));
  }
  {
    // Pairs with the pending_ check a worker makes under sleep_mutex_ before
    // waiting: either the worker is already waiting (notify reaches it) or
    // it still holds the mutex and will re-check pending_ != 0.
    const MutexLock lk(sleep_mutex_);
  }
  sleep_cv_.notify_one();
}

bool ThreadPool::pop_own(std::size_t index, std::function<void()>& out) {
  WorkerQueue& q = *queues_[index];
  const MutexLock lk(q.mutex);
  if (q.tasks.empty()) return false;
  out = std::move(q.tasks.back());
  q.tasks.pop_back();
  // order: release keeps the decrement from being reordered before the pop
  // it accounts for; pairs with the acquire loads in worker_loop/wait.
  pending_.fetch_sub(1, std::memory_order_release);
  return true;
}

bool ThreadPool::steal(std::size_t thief, std::function<void()>& out) {
  const std::size_t n = size();
  for (std::size_t d = 0; d < n; ++d) {
    const std::size_t victim = (thief + d) % n;
    WorkerQueue& q = *queues_[victim];
    const MutexLock lk(q.mutex);
    if (q.tasks.empty()) continue;
    out = std::move(q.tasks.front());
    q.tasks.pop_front();
    // order: release — same pairing as pop_own.
    pending_.fetch_sub(1, std::memory_order_release);
    return true;
  }
  return false;
}

bool ThreadPool::help_one() {
  std::function<void()> task;
  if (!steal(0, task)) return false;
  task();
  return true;
}

void ThreadPool::worker_loop(std::size_t index) {
  obs::Tracer::set_thread_name("pool.worker " + std::to_string(index));
  std::function<void()> task;
  while (true) {
    if (pop_own(index, task) || steal(index + 1, task)) {
      // Last line of defence: a raw submit() task that throws (violating the
      // submit contract) must take down its own work item, not the process —
      // an unwound worker thread would std::terminate. TaskGroup tasks never
      // reach this (their wrapper captures the exception for wait()).
      try {
        T2M_SPAN("pool.task", "worker", index);
        obs::count("pool.tasks");
        task();
      } catch (const std::exception& e) {
        log_warn() << "ThreadPool: task escaped with exception: " << e.what();
      } catch (...) {
        log_warn() << "ThreadPool: task escaped with unknown exception";
      }
      task = nullptr;
      continue;
    }
    MutexLock lk(sleep_mutex_);
    // order: acquire pairs with the destructor's release store; the
    // rendezvous under sleep_mutex_ makes the flag impossible to miss.
    if (stopping_.load(std::memory_order_acquire)) return;
    // order: acquire pairs with submit()'s release increment (missed-work
    // re-check under the same mutex submit rendezvouses on).
    if (pending_.load(std::memory_order_acquire) != 0) continue;  // missed work
    sleep_cv_.wait(sleep_mutex_);
  }
}

TaskGroup::~TaskGroup() {
  // A forgotten wait() would let tasks outlive the frame they capture;
  // drain them, dropping any task exception (wait() is where it reports).
  try {
    wait();
  } catch (...) {
  }
}

void TaskGroup::run(std::function<void()> fn) {
  // order: acq_rel — the increment must be visible before the task's own
  // decrement can reach zero (pairs with the loads in wait()/done()).
  pending_.fetch_add(1, std::memory_order_acq_rel);
  pool_.submit([this, fn = std::move(fn)]() mutable {
    try {
      // Fault-injection hook covering every TaskGroup task body (ingest
      // shards, portfolio lanes): an injected failure here must surface
      // from wait() as a structured error, cancelling the parallel stage
      // and nothing else.
      T2M_INJECT_STATUS("pool.task", ErrorCode::internal,
                        "injected task-body failure");
      fn();
    } catch (...) {
      const MutexLock lk(mutex_);
      if (!error_) error_ = std::current_exception();
    }
    const MutexLock lk(mutex_);
    // order: acq_rel — the release half publishes this task's writes to the
    // waiter's acquire load; the acquire half orders the zero-check after
    // sibling decrements.
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) cv_.notify_all();
  });
}

void TaskGroup::wait() {
  // order: acquire pairs with each task wrapper's acq_rel decrement, so a
  // zero read here implies every task's writes are visible to this thread.
  while (pending_.load(std::memory_order_acquire) != 0) {
    if (pool_.help_one()) continue;
    // Nothing left to steal: the stragglers are running on workers. Their
    // completion notifies under mutex_, so the pending_ re-check under the
    // same mutex cannot miss it.
    MutexLock lk(mutex_);
    // order: acquire — same pairing as the loop condition above.
    if (pending_.load(std::memory_order_acquire) == 0) break;
    cv_.wait(mutex_);
  }
  const MutexLock lk(mutex_);
  if (error_) {
    std::exception_ptr e = error_;
    error_ = nullptr;
    std::rethrow_exception(e);
  }
}

void for_chunks(std::size_t threads, std::size_t n, std::size_t chunks,
                const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  chunks = std::min(chunks == 0 ? n : chunks, n);
  if (threads <= 1 || chunks <= 1) {
    for (std::size_t c = 0; c < chunks; ++c) fn(c, n * c / chunks, n * (c + 1) / chunks);
    return;
  }
  ThreadPool& pool = ThreadPool::global();
  pool.ensure_size(std::min(threads, ThreadPool::kMaxWorkers));
  TaskGroup group(pool);
  for (std::size_t c = 0; c < chunks; ++c) {
    group.run([&fn, c, n, chunks] { fn(c, n * c / chunks, n * (c + 1) / chunks); });
  }
  group.wait();
}

}  // namespace t2m::par
