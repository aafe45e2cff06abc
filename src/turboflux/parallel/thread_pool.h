#ifndef TURBOFLUX_PARALLEL_THREAD_POOL_H_
#define TURBOFLUX_PARALLEL_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "turboflux/common/synchronization.h"
#include "turboflux/common/thread_annotations.h"

namespace turboflux {
namespace parallel {

/// A small fixed-size thread pool for QuerySet's cross-query fan-out.
///
///  * Submit enqueues a task and returns a future; exceptions thrown by the
///    task are captured and rethrown from future.get().
///  * RunAll runs task[0] on the calling thread and the rest on workers,
///    waits for every task, and rethrows the first captured exception —
///    the fan-out's one-barrier-per-op primitive.
///  * The destructor finishes every already-queued task before joining
///    (shutdown never drops work).
///
/// A pool of size 0 is valid: Submit and RunAll then execute inline on the
/// calling thread, which keeps `--threads=1` free of any thread machinery.
///
/// Lock discipline (verified by -Wthread-safety, DESIGN.md §3.9): mu_
/// guards the task queue and the stop flag; tasks themselves always run
/// with mu_ released, so a task may Submit recursively without deadlock.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t size() const { return workers_.size(); }

  std::future<void> Submit(std::function<void()> task) EXCLUDES(mu_);

  /// Runs all tasks to completion (task[0] inline on the caller when the
  /// pool has workers to run the rest). Rethrows the first exception.
  void RunAll(std::vector<std::function<void()>> tasks) EXCLUDES(mu_);

 private:
  void WorkerLoop() EXCLUDES(mu_);

  Mutex mu_;
  CondVar cv_;
  std::deque<std::packaged_task<void()>> queue_ GUARDED_BY(mu_);
  bool stopping_ GUARDED_BY(mu_) = false;
  // Immutable after the constructor returns; joined by the destructor.
  std::vector<std::thread> workers_;
};

}  // namespace parallel
}  // namespace turboflux

#endif  // TURBOFLUX_PARALLEL_THREAD_POOL_H_
