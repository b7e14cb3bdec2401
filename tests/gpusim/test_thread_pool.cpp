#include "gpusim/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace mcmm::gpusim {
namespace {

TEST(ThreadPool, HasAtLeastTwoWorkers) {
  ThreadPool pool;
  EXPECT_GE(pool.worker_count(), 2u);
}

TEST(ThreadPool, ExplicitWorkerCount) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.worker_count(), 3u);
}

TEST(ThreadPool, CoversWholeRangeExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::uint64_t n = 100000;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for_chunks(n, [&](std::uint64_t b, std::uint64_t e) {
    for (std::uint64_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (std::uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for_chunks(0, [&](std::uint64_t, std::uint64_t) {
    called = true;
  });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, SingleItemRunsInline) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  pool.parallel_for_chunks(1, [&](std::uint64_t b, std::uint64_t e) {
    EXPECT_EQ(b, 0u);
    EXPECT_EQ(e, 1u);
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, SumReduction) {
  ThreadPool pool(4);
  constexpr std::uint64_t n = 1 << 16;
  std::atomic<std::uint64_t> sum{0};
  pool.parallel_for_chunks(n, [&](std::uint64_t b, std::uint64_t e) {
    std::uint64_t local = 0;
    for (std::uint64_t i = b; i < e; ++i) local += i;
    sum.fetch_add(local);
  });
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for_chunks(100,
                               [](std::uint64_t b, std::uint64_t) {
                                 if (b == 0) {
                                   throw std::runtime_error("chunk failed");
                                 }
                               }),
      std::runtime_error);
}

TEST(ThreadPool, UsableAfterException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for_chunks(
                   100,
                   [](std::uint64_t, std::uint64_t) {
                     throw std::runtime_error("fail");
                   }),
               std::runtime_error);
  // The pool must still work afterwards, with no stale error.
  std::atomic<int> count{0};
  pool.parallel_for_chunks(100, [&](std::uint64_t b, std::uint64_t e) {
    count.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ManyConsecutiveBatches) {
  ThreadPool pool(3);
  std::uint64_t total = 0;
  for (int round = 0; round < 200; ++round) {
    std::atomic<std::uint64_t> sum{0};
    pool.parallel_for_chunks(500, [&](std::uint64_t b, std::uint64_t e) {
      sum.fetch_add(e - b);
    });
    total += sum.load();
  }
  EXPECT_EQ(total, 200u * 500u);
}

// Retire-race stress: several threads submit tiny multi-chunk batches
// back to back, so descriptors on the submitters' stacks are retired and
// reused at a high rate while workers pin and re-read the slots. A worker
// that ran a retired descriptor would double-run (or skip) a chunk, or
// crash or hang. With release/acquire retire ordering, 3 of 6 runs of
// this test failed or hung on a 4-core x86 host. Runs to a fixed deadline.
TEST(ThreadPool, ConcurrentTinyBatchesRetireSafely) {
  ThreadPool pool(2);
  constexpr int kSubmitters = 4;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(800);
  std::atomic<std::uint64_t> batches{0};
  std::atomic<std::uint64_t> bad_batches{0};
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      for (std::uint64_t round = 0;; ++round) {
        if (round % 64 == 0 && std::chrono::steady_clock::now() > deadline) {
          break;
        }
        const std::uint64_t n = 2 + (round + s) % 7;
        std::atomic<std::uint64_t> covered{0};
        pool.parallel_for_chunks(
            n,
            [&](std::uint64_t b, std::uint64_t e) {
              covered.fetch_add(e - b, std::memory_order_relaxed);
            },
            Schedule::Dynamic, 1);
        if (covered.load() != n) bad_batches.fetch_add(1);
        batches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  EXPECT_EQ(bad_batches.load(), 0u);
  EXPECT_GT(batches.load(), 0u);
}

TEST(ThreadPool, GlobalPoolIsSingleton) {
  EXPECT_EQ(&ThreadPool::global(), &ThreadPool::global());
}

// Partition property: every chunk handed to the body must be non-empty,
// and together the chunks must tile [0, n) exactly. Probes the edge cases
// around the worker count, where the seed partitioner produced degenerate
// empty chunks (begin >= end) that it silently skipped.
TEST(ThreadPool, PartitionCoversExactlyWithNoEmptyChunks) {
  ThreadPool pool(4);
  const std::uint64_t w = pool.worker_count() + 1;  // submitter participates
  const std::uint64_t sizes[] = {0, 1, w - 1, w, w + 1, 104729};
  for (const Schedule schedule : {Schedule::Static, Schedule::Dynamic}) {
    for (const std::uint64_t grain :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{7}}) {
      for (const std::uint64_t n : sizes) {
        std::vector<std::atomic<int>> hits(n);
        std::atomic<int> empty_chunks{0};
        std::atomic<std::uint64_t> chunk_items{0};
        pool.parallel_for_chunks(
            n,
            [&](std::uint64_t b, std::uint64_t e) {
              if (b >= e || e > n) empty_chunks.fetch_add(1);
              chunk_items.fetch_add(e - b);
              for (std::uint64_t i = b; i < e; ++i) hits[i].fetch_add(1);
            },
            schedule, grain);
        EXPECT_EQ(empty_chunks.load(), 0)
            << "n=" << n << " schedule=" << static_cast<int>(schedule)
            << " grain=" << grain;
        EXPECT_EQ(chunk_items.load(), n)
            << "n=" << n << " schedule=" << static_cast<int>(schedule)
            << " grain=" << grain;
        for (std::uint64_t i = 0; i < n; ++i) {
          ASSERT_EQ(hits[i].load(), 1)
              << "n=" << n << " schedule=" << static_cast<int>(schedule)
              << " grain=" << grain << " index " << i;
        }
      }
    }
  }
}

TEST(ThreadPool, StaticChunksAreBalancedWithinOne) {
  // Static partition: chunk sizes may differ by at most one item.
  ThreadPool pool(4);
  for (const std::uint64_t n : {5ull, 6ull, 100ull, 101ull, 9973ull}) {
    std::atomic<std::uint64_t> min_size{~0ull};
    std::atomic<std::uint64_t> max_size{0};
    pool.parallel_for_chunks(n, [&](std::uint64_t b, std::uint64_t e) {
      const std::uint64_t size = e - b;
      std::uint64_t cur = min_size.load();
      while (size < cur && !min_size.compare_exchange_weak(cur, size)) {
      }
      cur = max_size.load();
      while (size > cur && !max_size.compare_exchange_weak(cur, size)) {
      }
    });
    EXPECT_LE(max_size.load() - min_size.load(), 1u) << "n=" << n;
  }
}

}  // namespace
}  // namespace mcmm::gpusim
