#include "util/thread_pool.h"

#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <thread>
#include <vector>

namespace booster::util {
namespace {

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.num_threads(), threads);
    constexpr unsigned kTasks = 64;
    std::vector<std::atomic<int>> hits(kTasks);
    for (auto& h : hits) h.store(0);
    pool.run_tasks(kTasks, [&](unsigned t) { hits[t].fetch_add(1); });
    for (unsigned t = 0; t < kTasks; ++t) {
      EXPECT_EQ(hits[t].load(), 1) << "task " << t << " @" << threads;
    }
  }
}

// The hand-off under load: back-to-back generations with every task count
// from 1 to 2T (fewer tasks than threads included) must run each task of
// each generation exactly once. A worker that paired one generation's
// number with the next one's tasks would run the later tasks twice. Every
// 500 rounds the caller sleeps past the spin window so the workers park and
// the wake path runs too.
TEST(ThreadPool, BackToBackGenerationsRunEachTaskOnce) {
  constexpr unsigned kRounds = 20000;
  for (const unsigned threads : {2u, 4u, 8u}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<unsigned>> hits(2 * threads);
    for (auto& h : hits) h.store(0);
    unsigned bad_rounds = 0;
    for (unsigned round = 0; round < kRounds; ++round) {
      const unsigned tasks = 1 + round % (2 * threads);
      pool.run_tasks(tasks, [&](unsigned t) { hits[t].fetch_add(1); });
      bool ok = true;
      for (unsigned t = 0; t < hits.size(); ++t) {
        ok &= hits[t].exchange(0) == (t < tasks ? 1u : 0u);
      }
      bad_rounds += ok ? 0 : 1;
      if (round % 500 == 499) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    EXPECT_EQ(bad_rounds, 0u) << "@" << threads << " threads";
  }
}

// Shutdown right after a generation, while the workers still spin (or
// are parking): the destructor must wake and join them every time.
TEST(ThreadPool, DestroyWhileWorkersSpin) {
  for (int i = 0; i < 1000; ++i) {
    ThreadPool pool(4);
    std::atomic<unsigned> sum{0};
    pool.run_tasks(4, [&](unsigned t) { sum.fetch_add(t); });
    ASSERT_EQ(sum.load(), 6u) << "iteration " << i;
  }
}

// Spinning is gated on CPUs: a pool spins only while its threads fit in the
// constructing thread's affinity mask beside every other live spinning
// pool. The test narrows its own mask to two CPUs (or one on a one-CPU
// host) and restores it afterwards.
TEST(ThreadPool, SpinsOnlyWithinTheCallersCpus) {
  cpu_set_t saved;
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  cpu_set_t narrow;
  CPU_ZERO(&narrow);
  unsigned cpus = 0;
  for (int c = 0; c < CPU_SETSIZE && cpus < 2; ++c) {
    if (CPU_ISSET(c, &saved)) {
      CPU_SET(c, &narrow);
      ++cpus;
    }
  }
  ASSERT_EQ(sched_setaffinity(0, sizeof(narrow), &narrow), 0);

  EXPECT_FALSE(ThreadPool(1).spins()) << "no workers, nothing to spin";
  EXPECT_FALSE(ThreadPool(cpus + 1).spins()) << "wider than the mask";
  if (cpus == 2) {
    {
      ThreadPool first(2);
      EXPECT_TRUE(first.spins());
      ThreadPool second(2);
      EXPECT_FALSE(second.spins()) << "together they exceed the mask";
      std::atomic<unsigned> sum{0};
      second.run_tasks(8, [&](unsigned t) { sum.fetch_add(t); });
      first.run_tasks(8, [&](unsigned t) { sum.fetch_add(t); });
      EXPECT_EQ(sum.load(), 56u);
    }
    EXPECT_TRUE(ThreadPool(2).spins()) << "the reservation was released";
  }

  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
}

TEST(ThreadPool, ZeroTasksIsANoop) {
  ThreadPool pool(4);
  pool.run_tasks(0, [&](unsigned) { FAIL() << "no task should run"; });
}

TEST(ThreadPool, PoolIsReusableAcrossCalls) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<unsigned> sum{0};
    pool.run_tasks(10, [&](unsigned t) { sum.fetch_add(t); });
    EXPECT_EQ(sum.load(), 45u);
  }
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  for (const unsigned threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    constexpr std::uint64_t kBegin = 17, kEnd = 12345;
    std::vector<std::atomic<int>> hits(kEnd);
    for (auto& h : hits) h.store(0);
    pool.parallel_for(kBegin, kEnd, 1,
                      [&](std::uint64_t b, std::uint64_t e, unsigned) {
                        for (std::uint64_t i = b; i < e; ++i)
                          hits[i].fetch_add(1);
                      });
    for (std::uint64_t i = 0; i < kEnd; ++i) {
      EXPECT_EQ(hits[i].load(), i >= kBegin ? 1 : 0) << i;
    }
  }
}

TEST(ThreadPool, ParallelForChunkIndicesAreDenseAndOrdered) {
  ThreadPool pool(4);
  const unsigned chunks = pool.num_chunks(10000, 1);
  EXPECT_EQ(chunks, 4u);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> bounds(chunks);
  pool.parallel_for(0, 10000, 1,
                    [&](std::uint64_t b, std::uint64_t e, unsigned c) {
                      bounds[c] = {b, e};
                    });
  std::uint64_t expect_begin = 0;
  for (unsigned c = 0; c < chunks; ++c) {
    EXPECT_EQ(bounds[c].first, expect_begin);
    EXPECT_LT(bounds[c].first, bounds[c].second);
    expect_begin = bounds[c].second;
  }
  EXPECT_EQ(expect_begin, 10000u);
}

TEST(ThreadPool, MinGrainKeepsSmallRangesSerial) {
  ThreadPool pool(8);
  EXPECT_EQ(pool.num_chunks(100, 1024), 1u);
  EXPECT_EQ(pool.num_chunks(0, 1024), 0u);
  EXPECT_EQ(pool.num_chunks(2048, 1024), 2u);
  EXPECT_EQ(pool.num_chunks(1u << 20, 1024), 8u);
  unsigned calls = 0;
  pool.parallel_for(0, 100, 1024,
                    [&](std::uint64_t b, std::uint64_t e, unsigned c) {
                      ++calls;
                      EXPECT_EQ(b, 0u);
                      EXPECT_EQ(e, 100u);
                      EXPECT_EQ(c, 0u);
                    });
  EXPECT_EQ(calls, 1u);
}

TEST(ThreadPool, DefaultThreadsHonorsEnvOverride) {
  ::setenv("BOOSTER_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::default_threads(), 3u);
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 3u);
  ::setenv("BOOSTER_THREADS", "bogus", 1);
  EXPECT_GE(ThreadPool::default_threads(), 1u);
  ::unsetenv("BOOSTER_THREADS");
  EXPECT_GE(ThreadPool::default_threads(), 1u);
}

}  // namespace
}  // namespace booster::util
