// Deterministic parallel execution over an index space — the execution
// primitive shared by core::sweep_tradeoff and the explore engine.
//
// Indices are handed out through an atomic counter (work-stealing from a
// shared queue of one-cell tasks), so the *scheduling* is
// nondeterministic; callers MUST write the result of cell i into slot i
// of a pre-sized container.  With that convention the output is
// byte-identical for any thread count, which is what lets the explore
// engine promise "parallel == sequential" exports.
#ifndef PHOTECC_MATH_PARALLEL_HPP
#define PHOTECC_MATH_PARALLEL_HPP

#include <cstddef>
#include <functional>

namespace photecc::math {

/// Worker count used when a caller passes threads == 0:
/// std::thread::hardware_concurrency(), or 1 when it is unknown.
[[nodiscard]] std::size_t default_thread_count();

/// Evaluates fn(i) for every i in [0, n) exactly once using `threads`
/// workers (0 = default_thread_count(); 1 = inline on the calling
/// thread, no spawning).  Blocks until every index has been evaluated.
/// If any invocation throws, remaining indices are abandoned and the
/// first exception is rethrown on the calling thread after the workers
/// join.
void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t)>& fn);

/// Evaluates fn(begin, end) over a FIXED partition of [0, n) into
/// contiguous blocks of `block_size` indices (the last block may be
/// short).  The partition depends only on (n, block_size) — never on
/// the thread count — and blocks are handed to workers through the same
/// atomic queue as parallel_for, so slot-indexed writers stay
/// byte-identical at any thread count while each worker sees an
/// axis-contiguous index range (what keeps sweep warm-starts valid
/// under work stealing).  block_size == 0 is treated as 1.  Exception
/// semantics match parallel_for.
void parallel_for_blocks(std::size_t n, std::size_t block_size,
                         std::size_t threads,
                         const std::function<void(std::size_t, std::size_t)>& fn);

/// parallel_for_blocks(n, block_size, threads, fn) with in-order
/// delivery: deliver(begin, end) runs once per range of the fixed
/// partition of [0, n) into `deliver_size` indices, as soon as fn has
/// finished every index of that range and of all earlier ones.  Ranges
/// are delivered in ascending order and never concurrently, at any
/// thread count, although blocks compute out of order under work
/// stealing — so a caller can stream slot-indexed results while later
/// blocks still compute.  deliver_size == 0 is treated as 1.  A
/// throwing fn or deliver aborts the loop with parallel_for's exception
/// semantics.
void parallel_for_blocks_ordered(
    std::size_t n, std::size_t block_size, std::size_t deliver_size,
    std::size_t threads,
    const std::function<void(std::size_t, std::size_t)>& fn,
    const std::function<void(std::size_t, std::size_t)>& deliver);

}  // namespace photecc::math

#endif  // PHOTECC_MATH_PARALLEL_HPP
