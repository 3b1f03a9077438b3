// Fixed-size thread pool with a two-level priority queue and a blocking
// parallel-for.
//
// Two front ends share the work queues:
//
//  * submit() enqueues a single task and returns a waitable Task handle.
//    The store pipeline uses this to keep many stripes in flight without
//    a join barrier per stripe.
//  * parallel_for() partitions [begin, end) across workers and blocks
//    until every chunk is done.  Coding kernels partition a stripe's
//    block range this way; each worker touches a disjoint byte range, so
//    no synchronization beyond the join is needed.
//
// Every task carries a TaskClass:
//
//  * kInteractive - latency-sensitive serving work (ranged reads, degraded
//    reconstructions a viewer is waiting on).  Popped first.
//  * kBulk - throughput work (scrub, repair, encode, cold-tier spill).
//    Popped when no interactive work is queued, and - bounded aging, so a
//    saturating interactive stream can never starve repair - at least once
//    every kBulkAgingLimit pops while bulk work is waiting.
//
// The class is *inherited*: a task runs with its class installed in a
// thread-local, and submit()/parallel_for() without an explicit class tag
// the submitter's current class.  A pipeline whose driver runs under
// TaskClassScope(kBulk) therefore classifies its process tasks and any
// work they submit as bulk without threading a parameter through every
// layer.  Top-level (non-pool) threads default to kInteractive.
//
// Both waits are *helping* waits: a thread blocked in Task::wait() or
// parallel_for() pops and runs queued tasks instead of sleeping while
// work is available.  The helping pop uses the same two-level policy but
// never refuses the only runnable class, so a bulk task waited on from an
// interactive thread (or vice versa) always makes progress - nested use
// cannot deadlock across classes even on a single-worker pool.
//
// Every queued task (both front ends) captures the submitter's
// TraceContext (common/trace_context.h) and runs under it, so spans
// opened inside pool work attribute to the request that submitted it —
// including through helping waits, where a thread runs tasks belonging
// to other requests.
//
// The pool is deliberately simple (no work stealing): coding work is
// regular and statically balanced.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "common/trace_context.h"

namespace approx {

// Scheduling class of pool work; see the file comment.
enum class TaskClass : int { kInteractive = 0, kBulk = 1 };

class ThreadPool {
 public:
  static constexpr int kNumClasses = 2;
  // Bounded aging: while bulk work waits, at most this many consecutive
  // interactive pops happen before the next pop takes the bulk head.
  static constexpr unsigned kBulkAgingLimit = 8;

  // threads == 0 selects std::thread::hardware_concurrency() (min 1).
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const noexcept { return static_cast<unsigned>(workers_.size()); }

  // Waitable handle for a submitted task.  Copyable; all copies refer to
  // the same underlying completion state.  A default-constructed Task is
  // invalid and wait() on it returns immediately.
  class Task {
   public:
    Task() = default;

    bool valid() const noexcept { return state_ != nullptr; }

    // True once the task body has finished (normally or by exception).
    bool done() const;

    // Block until the task finishes, helping to run other queued tasks
    // while waiting.  Rethrows the task's exception, if any.  Safe to
    // call from inside a pool worker.
    void wait();

   private:
    friend class ThreadPool;
    struct State;
    Task(ThreadPool* pool, std::shared_ptr<State> state)
        : pool_(pool), state_(std::move(state)) {}

    ThreadPool* pool_ = nullptr;
    std::shared_ptr<State> state_;
  };

  // Enqueue fn to run exactly once on some pool thread.  The one-argument
  // form inherits the calling thread's current task class.
  Task submit(std::function<void()> fn);
  Task submit(TaskClass cls, std::function<void()> fn);

  // Pop and run one queued task on the calling thread.  Returns false
  // when the queues are empty.  This is the helping-wait primitive: any
  // thread about to block on pool work should drain the queues first.
  bool run_one();

  // Run fn(chunk_begin, chunk_end) over [begin, end) split into roughly
  // equal contiguous chunks, one per worker.  Blocks until all chunks are
  // done.  Exceptions thrown by fn are rethrown on the calling thread
  // (first one wins).  The three-argument form inherits the calling
  // thread's current task class.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t, std::size_t)>& fn);
  void parallel_for(TaskClass cls, std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t, std::size_t)>& fn);

  // Queued (not yet running) tasks of one class.
  std::size_t queue_depth(TaskClass cls) const;

  // Bulk pops forced by the aging bound (interactive work was queued but
  // the bulk head had waited kBulkAgingLimit pops).  Monotonic.
  std::uint64_t aged_bulk_pops() const noexcept {
    return aged_bulk_pops_.load(std::memory_order_relaxed);
  }

  // The calling thread's current task class (kInteractive outside pool
  // work unless overridden by a TaskClassScope).
  static TaskClass current_task_class() noexcept;

  // RAII override of the calling thread's task class: work submitted in
  // scope (and, transitively, work submitted by that work) inherits it.
  class TaskClassScope {
   public:
    explicit TaskClassScope(TaskClass cls) noexcept;
    ~TaskClassScope();
    TaskClassScope(const TaskClassScope&) = delete;
    TaskClassScope& operator=(const TaskClassScope&) = delete;

   private:
    TaskClass saved_;
  };

  // Process-wide pool, created on first use.  Sized to hardware
  // concurrency unless the APPROX_THREADS environment variable names a
  // positive thread count (clamped to [1, 1024]).
  static ThreadPool& global();

 private:
  struct QueuedTask {
    std::function<void()> fn;
    std::shared_ptr<Task::State> state;  // null for parallel_for chunks
    TraceContext ctx;   // submitter's context, installed around fn
    TaskClass cls = TaskClass::kInteractive;  // installed around fn too
  };

  void worker_loop();
  static void run_task(QueuedTask& task);
  // mu_ must be held.  Applies the two-level policy (interactive first,
  // bulk under aging); returns false when both queues are empty.
  bool pop_locked(QueuedTask& out);
  bool queues_empty_locked() const {
    return queue_[0].empty() && queue_[1].empty();
  }

  std::vector<std::thread> workers_;
  std::queue<QueuedTask> queue_[kNumClasses];
  // Interactive pops since the last bulk pop, counted only while bulk
  // work waits (the aging clock).
  unsigned interactive_streak_ = 0;
  std::atomic<std::uint64_t> aged_bulk_pops_{0};
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace approx
