#include "util/thread_pool.h"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>

namespace booster::util {

namespace {

// How long an idle thread spins before it parks: about two futex wakes, so
// a kernel that forks again within that window never pays one.
constexpr std::chrono::microseconds kSpinWindow{50};
// Pauses between two clock reads (and sched_yield calls) while spinning.
constexpr unsigned kPausesPerYield = 64;

// CPUs reserved by the live spinning pools of this process.
std::atomic<unsigned> g_reserved_cpus{0};

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

// Polls ready() with pause, yielding between rounds, until it holds (true)
// or kSpinWindow has passed (false).
template <typename Ready>
bool spin_until(Ready&& ready) {
  const auto deadline = std::chrono::steady_clock::now() + kSpinWindow;
  for (;;) {
    for (unsigned i = 0; i < kPausesPerYield; ++i) {
      if (ready()) return true;
      cpu_relax();
    }
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::yield();
  }
}

// Reserves `n` CPUs for a spinning pool if they fit, together with every
// live reservation, in the calling thread's affinity mask.
bool reserve_cpus(unsigned n) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return false;
  const unsigned allowed = static_cast<unsigned>(CPU_COUNT(&set));
  unsigned reserved = g_reserved_cpus.load(std::memory_order_relaxed);
  do {
    if (reserved + n > allowed) return false;
  } while (!g_reserved_cpus.compare_exchange_weak(reserved, reserved + n));
  return true;
}

}  // namespace

unsigned ThreadPool::default_threads() {
  if (const char* env = std::getenv("BOOSTER_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<unsigned>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool::ThreadPool(unsigned num_threads)
    : num_threads_(std::min(num_threads == 0 ? default_threads() : num_threads,
                            kMaxThreads)) {
  spins_ = num_threads_ > 1 && reserve_cpus(num_threads_);
  workers_.reserve(num_threads_ - 1);
  for (unsigned i = 0; i + 1 < num_threads_; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_.store(true);
  }
  start_cv_.notify_all();
  for (auto& w : workers_) w.join();
  if (spins_) g_reserved_cpus.fetch_sub(num_threads_);
}

bool ThreadPool::try_snapshot(std::uint64_t seen_seq, Snapshot* out) const {
  const std::uint64_t seq = seq_.load(std::memory_order_acquire);
  if (seq == seen_seq || (seq & 1) != 0) return false;
  // The acquire loads keep the re-read of seq_ after them: a field written
  // for a later generation implies that re-read sees its odd sequence.
  const Snapshot snap{seq, task_ctx_.load(std::memory_order_acquire),
                      task_fn_.load(std::memory_order_acquire),
                      num_tasks_.load(std::memory_order_acquire)};
  if (seq_.load(std::memory_order_relaxed) != seq) return false;
  *out = snap;
  return true;
}

bool ThreadPool::await_generation(std::uint64_t seen_seq, Snapshot* out) {
  bool got = false;
  const auto ready = [&] {
    got = try_snapshot(seen_seq, out);
    return got || stop_.load(std::memory_order_relaxed);
  };
  for (;;) {
    if (spins_ && spin_until(ready)) return got;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      parked_workers_.fetch_add(1);
      start_cv_.wait(lock, [&] {
        const std::uint64_t seq = seq_.load();
        return stop_.load() || (seq != seen_seq && (seq & 1) == 0);
      });
      parked_workers_.fetch_sub(1);
    }
    if (ready()) return got;
  }
}

// Tasks are statically assigned: task t belongs to participant (t mod
// num_threads); workers take ids 0..T-2, the calling thread id T-1. A new
// generation only starts after the previous one's done-count completed,
// and a worker runs only tasks of the generation its snapshot names, so no
// late claim can touch a finished generation's (stack-resident, already
// out-of-scope) callable, and no task runs twice.
void ThreadPool::worker_loop(unsigned worker_id) {
  Snapshot snap;
  while (await_generation(snap.seq, &snap)) {
    for (unsigned t = worker_id; t < snap.num_tasks; t += num_threads_) {
      snap.fn(snap.ctx, t);
      if (done_tasks_.fetch_add(1) + 1 == snap.num_tasks &&
          caller_parked_.load()) {
        std::lock_guard<std::mutex> lock(mutex_);
        done_cv_.notify_one();
      }
    }
  }
}

void ThreadPool::await_done(unsigned num_tasks) {
  const auto done = [&] {
    return done_tasks_.load(std::memory_order_acquire) == num_tasks;
  };
  if (spins_ && spin_until(done)) return;
  std::unique_lock<std::mutex> lock(mutex_);
  caller_parked_.store(true);
  done_cv_.wait(lock, [&] { return done_tasks_.load() == num_tasks; });
  caller_parked_.store(false);
}

void ThreadPool::run_tasks_impl(unsigned num_tasks, void* ctx, TaskFn fn) {
  if (num_tasks == 0) return;
  if (workers_.empty() || num_tasks == 1) {
    for (unsigned t = 0; t < num_tasks; ++t) fn(ctx, t);
    return;
  }
  const std::uint64_t seq = seq_.load(std::memory_order_relaxed);
  seq_.store(seq + 1, std::memory_order_relaxed);
  task_ctx_.store(ctx, std::memory_order_release);
  task_fn_.store(fn, std::memory_order_release);
  num_tasks_.store(num_tasks, std::memory_order_release);
  done_tasks_.store(0, std::memory_order_relaxed);
  seq_.store(seq + 2);
  if (parked_workers_.load() != 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    start_cv_.notify_all();
  }
  // The calling thread runs its own share alongside the workers.
  for (unsigned t = num_threads_ - 1; t < num_tasks; t += num_threads_) {
    fn(ctx, t);
    done_tasks_.fetch_add(1, std::memory_order_acq_rel);
  }
  await_done(num_tasks);
}

unsigned ThreadPool::num_chunks(std::uint64_t count,
                                std::uint64_t min_grain) const {
  if (count == 0) return 0;
  const std::uint64_t grain = std::max<std::uint64_t>(1, min_grain);
  // Floor division: parallelize only when every chunk gets at least
  // min_grain items; a range barely over the grain stays serial.
  const std::uint64_t by_grain = std::max<std::uint64_t>(1, count / grain);
  return static_cast<unsigned>(
      std::min<std::uint64_t>(num_threads_, by_grain));
}

}  // namespace booster::util
