#include "common/thread_pool.hpp"

#include <atomic>
#include <cstdlib>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/env.hpp"

namespace gred {
namespace {

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(), 7, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen;
  pool.parallel_for(0, 10, 3, [&](std::size_t, std::size_t) {
    seen.push_back(std::this_thread::get_id());
  });
  ASSERT_FALSE(seen.empty());
  for (const auto& id : seen) EXPECT_EQ(id, caller);
}

TEST(ThreadPoolTest, EmptyRangeIsANoOp) {
  ThreadPool pool(4);
  bool called = false;
  pool.parallel_for(5, 5, 1, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, GrainLargerThanRangeRunsOneChunk) {
  ThreadPool pool(4);
  std::atomic<int> chunks{0};
  std::atomic<std::size_t> items{0};
  pool.parallel_for(0, 5, 100, [&](std::size_t lo, std::size_t hi) {
    chunks.fetch_add(1);
    items.fetch_add(hi - lo);
  });
  EXPECT_EQ(chunks.load(), 1);
  EXPECT_EQ(items.load(), 5u);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(4);
  std::atomic<std::size_t> total{0};
  pool.parallel_for(0, 8, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      pool.parallel_for(0, 100, 10, [&](std::size_t jlo, std::size_t jhi) {
        total.fetch_add(jhi - jlo);
      });
    }
  });
  EXPECT_EQ(total.load(), 800u);
}

TEST(ThreadPoolTest, RunAllExecutesEveryTask) {
  ThreadPool pool(3);
  std::atomic<int> a{0}, b{0}, c{0};
  pool.run_all({[&] { a.fetch_add(1); }, [&] { b.fetch_add(2); },
                [&] { c.fetch_add(3); }});
  EXPECT_EQ(a.load(), 1);
  EXPECT_EQ(b.load(), 2);
  EXPECT_EQ(c.load(), 3);
}

TEST(ThreadPoolTest, ConcurrentExternalCallersBothComplete) {
  ThreadPool pool(4);
  std::atomic<std::size_t> t1{0}, t2{0};
  std::thread first([&] {
    pool.parallel_for(0, 500, 13, [&](std::size_t lo, std::size_t hi) {
      t1.fetch_add(hi - lo);
    });
  });
  std::thread second([&] {
    pool.parallel_for(0, 300, 7, [&](std::size_t lo, std::size_t hi) {
      t2.fetch_add(hi - lo);
    });
  });
  first.join();
  second.join();
  EXPECT_EQ(t1.load(), 500u);
  EXPECT_EQ(t2.load(), 300u);
}

TEST(ThreadPoolTest, DefaultThreadCountReadsEnvironment) {
  ASSERT_EQ(setenv("GRED_THREADS", "3", 1), 0);
  EXPECT_EQ(ThreadPool::default_thread_count(), 3u);
  ASSERT_EQ(setenv("GRED_THREADS", "bogus", 1), 0);
  EXPECT_GE(ThreadPool::default_thread_count(), 1u);
  ASSERT_EQ(setenv("GRED_THREADS", "0", 1), 0);
  EXPECT_GE(ThreadPool::default_thread_count(), 1u);
  ASSERT_EQ(unsetenv("GRED_THREADS"), 0);
  EXPECT_GE(ThreadPool::default_thread_count(), 1u);
}

// --- Validated parallelism knob parsing (common/env.hpp) ---------------

TEST(EnvParallelism, AcceptsPlainIntegersInRange) {
  ::setenv("GRED_TEST_PAR", "16", 1);
  EXPECT_EQ(env_parallelism("GRED_TEST_PAR"), 16u);
  ::setenv("GRED_TEST_PAR", "1", 1);
  EXPECT_EQ(env_parallelism("GRED_TEST_PAR"), 1u);
  ::unsetenv("GRED_TEST_PAR");
  EXPECT_EQ(env_parallelism("GRED_TEST_PAR"), 0u);  // unset: use fallback
}

TEST(EnvParallelism, RejectsGarbageZeroAndAbsurd) {
  for (const char* bad : {"8x", "x8", "-3", "+4", " 5", "5 ", "", "0",
                          "1e3", "0x10", "99999999"}) {
    ::setenv("GRED_TEST_PAR", bad, 1);
    EXPECT_EQ(env_parallelism("GRED_TEST_PAR"), 0u) << "'" << bad << "'";
  }
  ::setenv("GRED_TEST_PAR", "junk", 1);
  EXPECT_GE(env_parallelism_or_hardware("GRED_TEST_PAR"), 1u);
  ::unsetenv("GRED_TEST_PAR");
}

}  // namespace
}  // namespace gred
