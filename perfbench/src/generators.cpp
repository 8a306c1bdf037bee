#include "generators.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "photecc/ecc/registry.hpp"
#include "photecc/math/rng.hpp"
#include "photecc/math/special.hpp"
#include "photecc/serve/protocol.hpp"
#include "photecc/spec/registries.hpp"

namespace perfbench {

namespace spec = photecc::spec;
using photecc::math::derive_seed;
using photecc::math::Xoshiro256;

namespace {

// Stream tags for derive_seed, so no two generators share a stream.
constexpr std::uint64_t kSweepTag = 0x5357454550ULL;
constexpr std::uint64_t kServeTag = 0x5345525645ULL;
constexpr std::uint64_t kNocTag = 0x4e4f43ULL;
constexpr std::uint64_t kMcTag = 0x4d43ULL;
constexpr std::uint64_t kWarmupIndex = ~std::uint64_t{0};

const std::vector<std::string>& registry_code_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const auto& code : photecc::ecc::all_known_codes())
      out.push_back(code->name());
    return out;
  }();
  return names;
}

std::size_t uniform_index(Xoshiro256& rng, std::size_t n) {
  return static_cast<std::size_t>(rng.uniform01() * static_cast<double>(n));
}

/// `k` distinct entries of `pool`, kept in pool order.
template <typename T>
std::vector<T> pick(Xoshiro256& rng, std::vector<T> pool, std::size_t k) {
  std::vector<std::size_t> order(pool.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = 0; i < k; ++i)
    std::swap(order[i], order[i + uniform_index(rng, order.size() - i)]);
  std::sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(k));
  std::vector<T> out;
  for (std::size_t i = 0; i < k; ++i) out.push_back(pool[order[i]]);
  return out;
}

/// `count` log-spaced BER targets between ~1e-3..1e-5 and ~1e-11..1e-15.
std::vector<double> ber_ladder(Xoshiro256& rng, std::size_t count) {
  const double hi_exp = 3.0 + 2.0 * rng.uniform01();
  const double lo_exp = 11.0 + 4.0 * rng.uniform01();
  std::vector<double> out;
  for (std::size_t j = 0; j < count; ++j) {
    const double t = count == 1 ? 0.0
                                : static_cast<double>(j) /
                                      static_cast<double>(count - 1);
    out.push_back(std::pow(10.0, -(hi_exp + (lo_exp - hi_exp) * t)));
  }
  return out;
}

spec::ExperimentSpec network_spec(std::uint64_t seed,
                                  const std::string& name) {
  Xoshiro256 rng(seed);
  spec::ExperimentSpec s;
  s.name = name;
  s.threads = 1;
  s.network = spec::NetworkEntry{};  // tiled, 16 tiles, 4 channels
  s.codes = pick(rng, registry_code_names(), 4);
  s.ber_targets = ber_ladder(rng, 2);
  s.traffic = {spec::TrafficEntry{}};  // uniform, 2e8 msgs/s, 4096 bits
  s.objectives = {{"energy_per_bit_j", true}, {"mean_latency_s", true}};
  return s;
}

std::string request_id(std::size_t index) {
  return "r" + std::to_string(index);
}

/// frac(radical_inverse2(index) + a seeded rotation), or 0.5 for the
/// warm-up index.
double rotated_quantile(std::uint64_t stream, std::size_t index,
                        std::size_t warmup_index) {
  if (index == warmup_index) return 0.5;
  const double q = radical_inverse2(index) + Xoshiro256(stream).uniform01();
  return q >= 1.0 ? q - 1.0 : q;
}

}  // namespace

double radical_inverse2(std::uint64_t i) {
  std::uint64_t r = 0;
  for (int b = 0; b < 64; ++b, i >>= 1) r = (r << 1) | (i & 1u);
  return static_cast<double>(r >> 11) * 0x1.0p-53;
}

double log_quantile(double lo, double hi, double q) {
  return lo * std::pow(hi / lo, q);
}

spec::ExperimentSpec make_link_spec(std::uint64_t seed, double target_cells,
                                    const std::string& name) {
  Xoshiro256 rng(seed);
  const std::vector<std::string>& codes = registry_code_names();
  const double per_code = target_cells / static_cast<double>(codes.size());
  // Axis sizes are a function of the target alone (so every seed gets
  // the same grid shapes and lowering work); the seed picks the values.
  std::size_t room = std::max<std::size_t>(
      1, static_cast<std::size_t>(per_code / 25.0));
  const auto take = [&room](std::size_t limit) {
    const std::size_t k = std::min(limit, room);
    room /= k;
    return k;
  };
  const std::size_t modulations = take(3);
  const std::size_t links = take(4);
  const std::size_t onis = take(4);
  const auto bers = static_cast<std::size_t>(std::max(
      1.0, std::round(per_code /
                      static_cast<double>(modulations * links * onis))));

  spec::ExperimentSpec s;
  s.name = name;
  s.threads = 1;
  s.codes = codes;
  s.ber_targets = ber_ladder(rng, bers);
  s.links = pick(rng, spec::link_registry().names(), links);
  s.oni_counts = pick(rng, std::vector<std::size_t>{4, 6, 8, 12, 16, 24, 32, 48},
                      onis);
  s.modulations = pick(rng, spec::modulation_registry().names(), modulations);
  s.objectives = {{"ct", true}, {"p_channel_w", true}};
  return s;
}

std::size_t grid_cells(const spec::ExperimentSpec& s) {
  const auto axis = [](std::size_t n) { return std::max<std::size_t>(1, n); };
  return axis(s.codes.size()) * axis(s.ber_targets.size()) *
         axis(s.links.size()) * axis(s.oni_counts.size()) *
         axis(s.traffic.size()) * axis(s.laser_gating.size()) *
         axis(s.policies.size()) * axis(s.modulations.size()) *
         axis(s.environments.size());
}

SweepInput make_sweep_input(std::uint64_t seed, std::size_t index) {
  // Midpoints of a kSweepPoolSize-step ladder, visited in van der
  // Corput order; indices outside the pool get the median size.
  const double q =
      index < kSweepPoolSize
          ? radical_inverse2(index) + 0.5 / static_cast<double>(kSweepPoolSize)
          : 0.5;
  const spec::ExperimentSpec s = make_link_spec(
      derive_seed(derive_seed(seed, kSweepTag), index),
      log_quantile(kSweepMinCells, kSweepMaxCells, q),
      "sweep-" + std::to_string(index));
  return SweepInput{s.to_json(), grid_cells(s)};
}

std::vector<SweepInput> make_sweep_inputs(std::uint64_t seed) {
  std::vector<SweepInput> out;
  out.reserve(kSweepPoolSize);
  for (std::size_t i = 0; i < kSweepPoolSize; ++i)
    out.push_back(make_sweep_input(seed, i));
  return out;
}

std::vector<ServeRequest> make_serve_stream(std::uint64_t seed,
                                            std::size_t blocks) {
  const std::uint64_t base = derive_seed(seed, kServeTag);
  Xoshiro256 rng(base);
  std::vector<ServeRequest> out;
  out.reserve(blocks * kServeBlock);
  std::vector<spec::ExperimentSpec> specs;  // fresh specs by spec_index
  std::size_t link_specs = 0;

  const auto add = [&](ServeKind kind, std::size_t spec_index,
                       const spec::ExperimentSpec& s) {
    ServeRequest r;
    r.kind = kind;
    r.id = request_id(out.size());
    r.line = photecc::serve::sweep_request_line(s, r.id);
    r.spec_index = spec_index;
    r.cells = grid_cells(s);
    r.network = s.network.has_value();
    r.spec_hash = spec::canonical_hash(s);
    out.push_back(std::move(r));
  };

  for (std::size_t b = 0; b < blocks; ++b) {
    std::size_t fresh[2] = {0, 0};
    for (std::size_t& f : fresh) {
      f = specs.size();
      const std::uint64_t spec_seed = derive_seed(base, f);
      const std::string name = "serve-" + std::to_string(f);
      if (f % kServeNetworkEvery == kServeNetworkEvery - 1) {
        specs.push_back(network_spec(spec_seed, name));
      } else {
        const double q = radical_inverse2(link_specs++);
        specs.push_back(make_link_spec(
            spec_seed, log_quantile(kServeMinCells, kServeMaxCells, q), name));
      }
      add(ServeKind::kFresh, f, specs[f]);
    }
    // Follow-ups: 0 = exact repeat, 1/2 = threads variant of fresh[0/1].
    std::size_t order[3] = {0, 1, 2};
    for (std::size_t i = 0; i < 2; ++i)
      std::swap(order[i], order[i + uniform_index(rng, 3 - i)]);
    const std::size_t repeated = fresh[uniform_index(rng, 2)];
    for (const std::size_t follow : order) {
      if (follow == 0) {
        add(ServeKind::kExact, repeated, specs[repeated]);
      } else {
        const std::size_t f = fresh[follow - 1];
        spec::ExperimentSpec variant = specs[f];
        variant.threads = uniform_index(rng, 2) == 0 ? 2 : 4;
        add(ServeKind::kThreadsVariant, f, variant);
      }
    }
  }
  return out;
}

std::string make_serve_warmup_line(std::uint64_t seed) {
  const spec::ExperimentSpec s =
      make_link_spec(derive_seed(derive_seed(seed, kServeTag), kWarmupIndex),
                     5000.0, "serve-warmup");
  return photecc::serve::sweep_request_line(s, "warmup");
}

NocRecipe make_noc_recipe(std::uint64_t seed) {
  Xoshiro256 rng(derive_seed(seed, kNocTag));
  NocRecipe recipe;
  for (const std::size_t tiles : kNocTileCounts)
    recipe.hotspot_tiles.push_back(uniform_index(rng, tiles));
  return recipe;
}

NocInput make_noc_input(std::uint64_t seed, std::size_t index) {
  const std::uint64_t base = derive_seed(seed, kNocTag);
  NocInput in;
  in.messages = log_quantile(kNocMinMessages, kNocMaxMessages,
                             rotated_quantile(base, index, kNocWarmupIndex));
  const std::uint64_t request = derive_seed(base, index);
  for (const std::size_t tiles : kNocTileCounts)
    in.traffic_seeds.push_back(derive_seed(request, tiles));
  return in;
}

McInput make_mc_input(std::uint64_t seed, std::size_t index) {
  const std::uint64_t base = derive_seed(seed, kMcTag);
  McInput in;
  in.raw_ber =
      log_quantile(1e-3, 1e-2, rotated_quantile(base, index, kMcWarmupIndex));
  in.snr = photecc::math::snr_from_raw_ber(in.raw_ber);
  in.mc_seed = derive_seed(base, index);
  return in;
}

}  // namespace perfbench
