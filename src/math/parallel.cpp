#include "photecc/math/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace photecc::math {

std::size_t default_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw ? hw : 1;
}

void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (threads == 0) threads = default_thread_count();
  if (threads > n) threads = n;
  if (threads <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex error_mutex;
  const auto worker = [&] {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (auto& thread : pool) thread.join();
  if (error) std::rethrow_exception(error);
}

void parallel_for_blocks(
    std::size_t n, std::size_t block_size, std::size_t threads,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  if (block_size == 0) block_size = 1;
  const std::size_t blocks = (n + block_size - 1) / block_size;
  parallel_for(blocks, threads, [&](std::size_t b) {
    const std::size_t begin = b * block_size;
    const std::size_t end = std::min(n, begin + block_size);
    fn(begin, end);
  });
}

void parallel_for_blocks_ordered(
    std::size_t n, std::size_t block_size, std::size_t deliver_size,
    std::size_t threads,
    const std::function<void(std::size_t, std::size_t)>& fn,
    const std::function<void(std::size_t, std::size_t)>& deliver) {
  // Per delivery range, the indices still being computed.  Whichever
  // worker completes the oldest undelivered range drains every
  // consecutive complete one under the mutex, so deliveries are
  // serialised and strictly ascending.
  if (deliver_size == 0) deliver_size = 1;
  const std::size_t ranges = (n + deliver_size - 1) / deliver_size;
  std::vector<std::size_t> pending(ranges, deliver_size);
  if (ranges) pending.back() = n - (ranges - 1) * deliver_size;
  std::size_t next_to_deliver = 0;
  std::mutex mutex;
  parallel_for_blocks(
      n, block_size, threads, [&](std::size_t begin, std::size_t end) {
        fn(begin, end);
        const std::lock_guard<std::mutex> lock(mutex);
        for (std::size_t i = begin; i < end;) {
          const std::size_t r = i / deliver_size;
          const std::size_t stop = std::min(end, (r + 1) * deliver_size);
          pending[r] -= stop - i;
          i = stop;
        }
        while (next_to_deliver < ranges && pending[next_to_deliver] == 0) {
          const std::size_t b = next_to_deliver * deliver_size;
          deliver(b, std::min(n, b + deliver_size));
          ++next_to_deliver;
        }
      });
}

}  // namespace photecc::math
