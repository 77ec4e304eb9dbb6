// Persistent worker-thread pool for the training hot path. Built once per
// Trainer::train call and reused across every tree, so thread start-up cost
// never lands inside the timed loop. The calling thread always participates
// in the work, so a pool of size 1 runs everything inline with zero
// synchronization overhead.
//
// Dispatch is allocation-free: callables are passed as a {context pointer,
// trampoline} pair (the callable lives on the caller's stack for the
// duration of the blocking call), never as a std::function.
//
// Spin-then-park. A training job forks and joins thousands of times on
// kernels that run for tens of microseconds, so a futex wake per fork
// would cost as much as the work. The caller publishes each task set as a
// new generation of an atomic sequence word (a seqlock: a worker takes
// {ctx, fn, num_tasks} and the generation as one consistent snapshot, so
// it can never pair one generation's number with the next one's tasks).
// Idle workers spin on that word for a bounded window (pause, then
// sched_yield, about two futex wakes long) and only then park on a
// condition variable; the caller notifies only when a worker is actually
// parked. The join is the same: the caller spins on the done count under
// the same bound, then parks, and the worker that finishes the last task
// wakes it only if it parked. The destructor stops spinning and parked
// workers at once.
//
// CPU reservation. Spinning threads only pay off when each has a CPU of
// its own. A pool spins only if its num_threads() fit in the CPUs the
// constructing thread's affinity mask allows, counting the CPUs already
// reserved by every other live spinning pool in the process; the pool
// reserves that many for its lifetime. Any other pool (nested pools,
// in-process rank worlds past the CPU count, a pool wider than its mask)
// parks immediately, which is the plain condition-variable pool. spins()
// reports which one a pool is. There is no knob.
//
// Determinism is unchanged by how a worker waits: task t always runs on
// participant t mod num_threads(). parallel_for partitions a range into at
// most num_threads() contiguous chunks whose boundaries depend only on
// (range, num_threads) -- results of chunk-wise reductions are therefore
// deterministic for a fixed thread count, which the hot-path equivalence
// tests rely on.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace booster::util {

class ThreadPool {
 public:
  /// Hard cap on pool size: protects against absurd requests (a negative
  /// count cast to unsigned, a fat-fingered BOOSTER_THREADS) turning into
  /// millions of std::thread constructions and a std::system_error.
  static constexpr unsigned kMaxThreads = 256;

  /// `num_threads` counts the calling thread: a pool of size T spawns T-1
  /// workers. 0 means default_threads(). Clamped to kMaxThreads.
  explicit ThreadPool(unsigned num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned num_threads() const { return num_threads_; }

  /// True when this pool holds a CPU reservation and its threads spin
  /// before parking (see the header comment); false for a park-only pool.
  bool spins() const { return spins_; }

  /// Runs fn(task) for every task in [0, num_tasks), distributed over the
  /// workers plus the calling thread; blocks until all tasks finished.
  /// Not reentrant: fn must not call back into the same pool. fn is
  /// borrowed, not copied -- no allocation.
  template <typename Fn>
  void run_tasks(unsigned num_tasks, Fn&& fn) {
    run_tasks_impl(num_tasks, const_cast<void*>(static_cast<const void*>(&fn)),
                   [](void* ctx, unsigned t) {
                     (*static_cast<std::remove_reference_t<Fn>*>(ctx))(t);
                   });
  }

  /// Chunked parallel loop over [begin, end): calls
  /// fn(chunk_begin, chunk_end, chunk_index) for num_chunks(end - begin,
  /// min_grain) contiguous, near-equal chunks covering the range in order.
  /// With one chunk the body is invoked directly on the calling thread.
  template <typename Fn>
  void parallel_for(std::uint64_t begin, std::uint64_t end,
                    std::uint64_t min_grain, Fn&& fn) {
    if (begin >= end) return;
    const std::uint64_t count = end - begin;
    const unsigned chunks = num_chunks(count, min_grain);
    if (chunks <= 1) {
      fn(begin, end, 0u);
      return;
    }
    run_tasks(chunks, [&](unsigned c) {
      const std::uint64_t c_begin = begin + count * c / chunks;
      const std::uint64_t c_end = begin + count * (c + 1) / chunks;
      fn(c_begin, c_end, c);
    });
  }

  /// Number of chunks parallel_for uses for `count` items: capped by the
  /// thread count and by floor(count / min_grain), so every chunk gets at
  /// least min_grain items (small ranges stay serial). Callers sizing
  /// per-chunk scratch (partial histograms, partition counters) use this
  /// to pre-allocate.
  unsigned num_chunks(std::uint64_t count, std::uint64_t min_grain) const;

  /// Thread count used when the constructor argument is 0: the
  /// BOOSTER_THREADS environment variable when set to a positive integer,
  /// otherwise std::thread::hardware_concurrency() (min 1).
  static unsigned default_threads();

 private:
  using TaskFn = void (*)(void* ctx, unsigned task);

  /// One generation's work as a worker sees it.
  struct Snapshot {
    std::uint64_t seq = 0;
    void* ctx = nullptr;
    TaskFn fn = nullptr;
    unsigned num_tasks = 0;
  };

  void run_tasks_impl(unsigned num_tasks, void* ctx, TaskFn fn);
  void worker_loop(unsigned worker_id);
  /// Blocks until a generation newer than `seen_seq` is published and
  /// returns its snapshot; false once the pool is stopping.
  bool await_generation(std::uint64_t seen_seq, Snapshot* out);
  bool try_snapshot(std::uint64_t seen_seq, Snapshot* out) const;
  void await_done(unsigned num_tasks);

  unsigned num_threads_ = 1;
  bool spins_ = false;

  // Seqlock over the published task: odd while the caller writes the three
  // fields below, 2 * generation once they are consistent. Only the caller
  // writes; workers read the fields as relaxed atomics between two reads
  // of seq_.
  std::atomic<std::uint64_t> seq_{0};
  std::atomic<void*> task_ctx_{nullptr};
  std::atomic<TaskFn> task_fn_{nullptr};
  std::atomic<unsigned> num_tasks_{0};
  std::atomic<unsigned> done_tasks_{0};
  std::atomic<bool> stop_{false};

  // Parking. A waiter registers itself (parked_workers_ / caller_parked_)
  // under mutex_ before it re-checks its predicate and sleeps; the waking
  // side updates seq_ / done_tasks_ first and then reads the registration,
  // all sequentially consistent, so one of the two always sees the other.
  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::atomic<unsigned> parked_workers_{0};
  std::atomic<bool> caller_parked_{false};

  std::vector<std::thread> workers_;
};

}  // namespace booster::util
