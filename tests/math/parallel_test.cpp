#include "photecc/math/parallel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

namespace photecc::math {
namespace {

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (const std::size_t threads : {1u, 2u, 4u, 7u}) {
    constexpr std::size_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    parallel_for(kN, threads, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < kN; ++i)
      EXPECT_EQ(hits[i].load(), 1) << "i=" << i << " threads=" << threads;
  }
}

TEST(ParallelFor, SlotWritesAreIndependentOfThreadCount) {
  constexpr std::size_t kN = 257;
  const auto run = [](std::size_t threads) {
    std::vector<double> out(kN);
    parallel_for(kN, threads, [&](std::size_t i) {
      out[i] = static_cast<double>(i) * 1.5 + 1.0;
    });
    return out;
  };
  const auto sequential = run(1);
  EXPECT_EQ(sequential, run(3));
  EXPECT_EQ(sequential, run(8));
}

TEST(ParallelFor, EmptyRangeIsANoop) {
  bool called = false;
  parallel_for(0, 4, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, MoreThreadsThanWorkIsFine) {
  std::vector<int> out(3, 0);
  parallel_for(3, 16, [&](std::size_t i) { out[i] = 1; });
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 3);
}

TEST(ParallelFor, ZeroThreadsMeansHardwareDefault) {
  std::vector<int> out(10, 0);
  parallel_for(10, 0, [&](std::size_t i) { out[i] = 1; });
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 10);
  EXPECT_GE(default_thread_count(), 1u);
}

TEST(ParallelFor, ExceptionPropagatesToCaller) {
  for (const std::size_t threads : {1u, 4u}) {
    EXPECT_THROW(
        parallel_for(100, threads,
                     [](std::size_t i) {
                       if (i == 42) throw std::runtime_error("cell 42");
                     }),
        std::runtime_error)
        << "threads=" << threads;
  }
}

TEST(ParallelFor, FirstExceptionIsRethrownWithItsMessage) {
  // Several workers throw; exactly one exception must surface, carrying
  // the message of whichever cell threw first (not a mangled mixture).
  for (const std::size_t threads : {1u, 4u}) {
    std::string caught;
    try {
      parallel_for(64, threads, [](std::size_t i) {
        if (i % 8 == 0)
          throw std::runtime_error("cell " + std::to_string(i));
      });
      FAIL() << "no exception at threads=" << threads;
    } catch (const std::runtime_error& e) {
      caught = e.what();
    }
    EXPECT_EQ(caught.rfind("cell ", 0), 0u) << caught;
  }
}

TEST(ParallelFor, WorkersJoinAfterThrowAndPoolIsReusable) {
  // After a worker throws, the call must join every worker (no leaked
  // threads touching dead stack frames) and abandon remaining cells;
  // subsequent parallel_for calls on the same thread must still work.
  std::atomic<int> started{0}, finished{0};
  try {
    parallel_for(1000, 4, [&](std::size_t i) {
      ++started;
      if (i == 3) throw std::logic_error("abort sweep");
      ++finished;
    });
    FAIL() << "no exception";
  } catch (const std::logic_error&) {
  }
  // The counters are stable after the call returns: if a worker were
  // still running it could race these reads (TSan would flag it).
  // How many cells started before the others saw the failure depends
  // on scheduling (on several cores they may drain all 1000), so only
  // the throwing cell's own count is asserted.
  const int started_now = started.load();
  const int finished_now = finished.load();
  EXPECT_EQ(started_now, started.load());
  EXPECT_EQ(finished_now, finished.load());
  EXPECT_LT(finished_now, started_now);  // cell 3 started, never finished

  // The primitive is stateless across calls: a fresh run completes.
  std::vector<int> out(50, 0);
  parallel_for(50, 4, [&](std::size_t i) { out[i] = 1; });
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 50);
}

TEST(ParallelFor, NonStandardExceptionDoesNotDeadlock) {
  for (const std::size_t threads : {1u, 4u}) {
    EXPECT_THROW(parallel_for(16, threads,
                              [](std::size_t i) {
                                if (i == 0) throw 42;  // not std::exception
                              }),
                 int)
        << "threads=" << threads;
  }
}

TEST(ParallelForBlocksOrdered, DeliversCompleteRangesInAscendingOrder) {
  // Compute granularity (1 or 5) and delivery granularity (3 or 5)
  // differ or coincide; either way every range arrives once, in order,
  // after all of its slots were written.
  constexpr std::size_t n = 23;
  for (const std::size_t block : {std::size_t{1}, std::size_t{5}}) {
    for (const std::size_t deliver : {std::size_t{3}, std::size_t{5}}) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        std::vector<int> slots(n, 0);
        std::vector<std::pair<std::size_t, std::size_t>> ranges;
        parallel_for_blocks_ordered(
            n, block, deliver, threads,
            [&](std::size_t begin, std::size_t end) {
              for (std::size_t i = begin; i < end; ++i) slots[i] = 1;
            },
            [&](std::size_t begin, std::size_t end) {
              for (std::size_t i = begin; i < end; ++i)
                EXPECT_EQ(slots[i], 1) << i;
              ranges.emplace_back(begin, end);
            });
        ASSERT_EQ(ranges.size(), (n + deliver - 1) / deliver);
        for (std::size_t r = 0; r < ranges.size(); ++r) {
          EXPECT_EQ(ranges[r].first, r * deliver);
          EXPECT_EQ(ranges[r].second, std::min(n, (r + 1) * deliver));
        }
      }
    }
  }
}

}  // namespace
}  // namespace photecc::math
