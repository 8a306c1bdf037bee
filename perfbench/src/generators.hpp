// Seeded input generators of the four benchmark workloads.
//
// Every generator is a pure function of its seed: the same seed gives
// byte-identical inputs, and the system under test receives only what
// is generated here (spec documents, request lines, traffic seeds, raw
// error rates) — never the seed itself.
//
// Request sizes are stratified with the base-2 van der Corput sequence
// instead of drawn independently.  A run completes however many
// requests fit in its time budget; with independent draws the median of
// ~100 requests over a two-decade size range moves by tens of percent
// between seeds, while any prefix of a van der Corput ordering covers
// the size distribution almost evenly, so the percentiles of a run
// depend on the distribution, not on the luck of the draw.
#ifndef PERFBENCH_GENERATORS_HPP
#define PERFBENCH_GENERATORS_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "photecc/spec/spec.hpp"

namespace perfbench {

/// Seed used when --seed is omitted; the sweep-export export hashes are
/// pinned for this seed.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// Base-2 radical inverse of `i` (van der Corput): 0, 1/2, 1/4, 3/4, ...
[[nodiscard]] double radical_inverse2(std::uint64_t i);

/// Log-uniform quantile: lo * (hi / lo)^q.
[[nodiscard]] double log_quantile(double lo, double hi, double q);

// --- sweep-export ----------------------------------------------------

/// One link-evaluator spec document over the full 20-code registry.
struct SweepInput {
  std::string document;  ///< ExperimentSpec JSON (spec::from_json input)
  std::size_t cells = 0;  ///< grid size the document declares
};

inline constexpr std::size_t kSweepPoolSize = 64;
inline constexpr double kSweepMinCells = 500;
inline constexpr double kSweepMaxCells = 5e3;

/// Link spec of roughly `target_cells` cells: all 20 registry codes
/// times BER-target, link, ONI-count and modulation axes.  The axis
/// sizes depend on the target only; the seed picks the axis values.
/// The BER-target count absorbs the size and keeps >= 25 values, so the
/// cell count lands within ~2% of the target.  Objectives are
/// {ct, p_channel_w}; threads = 1.
[[nodiscard]] photecc::spec::ExperimentSpec make_link_spec(
    std::uint64_t seed, double target_cells, const std::string& name);

/// Cell count of a spec's grid (product of the declared axis sizes).
[[nodiscard]] std::size_t grid_cells(const photecc::spec::ExperimentSpec& s);

/// The timed pool: kSweepPoolSize documents whose sizes follow a fixed
/// log-uniform ladder from kSweepMinCells to kSweepMaxCells in van der
/// Corput order (the same sizes for every seed; the seed picks the axis
/// values).  Index kSweepPoolSize and beyond are outside the pool (the
/// warm-up request uses one).
[[nodiscard]] SweepInput make_sweep_input(std::uint64_t seed,
                                          std::size_t index);
[[nodiscard]] std::vector<SweepInput> make_sweep_inputs(std::uint64_t seed);

// --- serve-session ---------------------------------------------------

enum class ServeKind {
  kFresh,           ///< a spec not sent before (cache miss)
  kExact,           ///< byte-identical spec of this block (cache hit)
  kThreadsVariant,  ///< a spec of this block with only `threads` changed
};

struct ServeRequest {
  ServeKind kind = ServeKind::kFresh;
  std::string line;  ///< the NDJSON request line handed to the service
  std::string id;    ///< its correlation id
  std::size_t spec_index = 0;  ///< which fresh spec it (re)sends
  std::size_t cells = 0;       ///< grid size of that spec
  bool network = false;        ///< spec carries a `network` section
  std::uint64_t spec_hash = 0;  ///< spec::canonical_hash of this line's spec
};

/// Requests per block: two fresh specs, then (in seeded order) one
/// exact repeat of either and one `threads` variant of each — 40%
/// fresh, 20% exact, 40% threads variants.
inline constexpr std::size_t kServeBlock = 5;
/// One fresh spec in this many carries a network section (16 tiles, 4
/// channels, 4 codes x 2 BER targets x one uniform traffic entry).
inline constexpr std::size_t kServeNetworkEvery = 10;
inline constexpr double kServeMinCells = 500;
inline constexpr double kServeMaxCells = 5e3;

/// `blocks` blocks of requests; fresh link specs follow a log-uniform
/// van der Corput ladder from kServeMinCells to kServeMaxCells.
[[nodiscard]] std::vector<ServeRequest> make_serve_stream(
    std::uint64_t seed, std::size_t blocks);

/// A fresh link spec outside any stream (the serve warm-up request).
[[nodiscard]] std::string make_serve_warmup_line(std::uint64_t seed);

// --- noc-network -----------------------------------------------------

inline constexpr std::size_t kNocTileCounts[] = {16, 64, 256, 1024};

/// Per-tile-count traffic recipe of one run: the hot tile.
struct NocRecipe {
  std::vector<std::size_t> hotspot_tiles;  ///< one per kNocTileCounts entry
};

[[nodiscard]] NocRecipe make_noc_recipe(std::uint64_t seed);

/// One scaling study: how many messages each tile count simulates and
/// the traffic seed of each tile count.
struct NocInput {
  double messages = 0.0;  ///< log-uniform in [kNocMinMessages, kNocMaxMessages]
  std::vector<std::uint64_t> traffic_seeds;  ///< one per kNocTileCounts entry
};

inline constexpr double kNocMinMessages = 1000;
inline constexpr double kNocMaxMessages = 4000;
/// Index of the warm-up study (outside the pool; the middle size).
inline constexpr std::size_t kNocWarmupIndex = ~std::size_t{0};

/// Study `index`: sizes follow a seeded rotation of the van der Corput
/// ladder, so request latencies spread continuously instead of piling
/// up at one value (a median on a single spike jumps with host phases).
[[nodiscard]] NocInput make_noc_input(std::uint64_t seed, std::size_t index);

// --- mc-ber ----------------------------------------------------------

struct McInput {
  double raw_ber = 0.0;  ///< BSC flip probability, in [1e-3, 1e-2]
  double snr = 0.0;      ///< linear SNR with raw_ber_from_snr(snr) == raw_ber
  std::uint64_t mc_seed = 0;
};

/// Index of the warm-up pass (outside the pool; raw BER 10^-2.5).
inline constexpr std::size_t kMcWarmupIndex = ~std::size_t{0};

/// Pass `index`: raw BER log-uniform in [1e-3, 1e-2] by a seeded
/// rotation of the van der Corput ladder.
[[nodiscard]] McInput make_mc_input(std::uint64_t seed, std::size_t index);

}  // namespace perfbench

#endif  // PERFBENCH_GENERATORS_HPP
