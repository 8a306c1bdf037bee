// Codec throughput benchmark: the bitsliced word-parallel batch kernels
// against the scalar per-word codec, over the full registry menu.
//
// These gauge the simulation infrastructure itself (how fast bit-true
// Monte-Carlo experiments run), not the hardware — hardware figures
// come from the synthesis model.  The batch kernels process 64
// codewords per BitSlab pass, one uint64_t per bit position, so the
// expected win is roughly the lane count minus bookkeeping.
//
// Usage: bench_codec_throughput [--smoke]
//   full:    per-code scalar vs batch encode/decode timing, JSON record
//            on stdout; asserts >= 20x batch speedup
//            for every Hamming and extended-Hamming code, encode and
//            decode.  Run in Release — timings in Debug are meaningless.
//   --smoke: no timing.  Pins batch == scalar bit-identity (messages
//            and detected/corrected flags, lane for lane) for every
//            registry code plus cooling wraps, on clean and errored
//            words.  Exit code != 0 on any mismatch — CI runs this in
//            both Debug and Release.
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "photecc/codec/batch_mc.hpp"
#include "photecc/codec/bitslab.hpp"
#include "photecc/cooling/cooling_code.hpp"
#include "photecc/ecc/registry.hpp"
#include "photecc/math/parallel.hpp"
#include "photecc/math/rng.hpp"

namespace {

using namespace photecc;

// Keeps the optimizer from discarding the benchmarked calls.
volatile std::uint64_t g_sink = 0;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

ecc::BitVec random_word(std::size_t size, math::Xoshiro256& rng) {
  ecc::BitVec word(size);
  for (std::size_t i = 0; i < size; ++i) word.set(i, rng.bernoulli(0.5));
  return word;
}

/// Median-free steady-state timing: doubles the iteration count until
/// the run takes at least min_s, then reports seconds per call.
template <typename F>
double time_per_call(F&& f, double min_s = 0.05) {
  f();  // warm up caches and lazy tables
  std::size_t iters = 1;
  for (;;) {
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < iters; ++i) f();
    const double s = seconds_since(start);
    if (s >= min_s) return s / static_cast<double>(iters);
    iters *= (s > 0.0 && s < min_s / 8.0) ? 8 : 2;
  }
}

std::vector<std::string> menu_names(bool with_cooling) {
  std::vector<std::string> names;
  for (const auto& code : ecc::all_known_codes())
    names.push_back(code->name());
  if (with_cooling) {
    cooling::register_cooling_codes();
    names.push_back("COOL(8,2)");
    names.push_back("COOL(H(7,4),1)");
    names.push_back("COOL(BCH(15,7,2),3)");
  }
  return names;
}

struct CodeTiming {
  std::string name;
  std::size_t n = 0;
  std::size_t k = 0;
  double encode_speedup = 0.0;
  double decode_speedup = 0.0;
  double batch_encode_mbps = 0.0;  // message bits per second, batch path
  double batch_decode_mbps = 0.0;  // wire bits per second, batch path
};

/// One benchmark unit: 64 codewords, pre-transposed on the batch side
/// (the batch datapath never transposes per word — channel_sim injects
/// errors directly into slab words).
CodeTiming bench_code(const std::string& name) {
  const auto code = ecc::make_code(name);
  math::Xoshiro256 rng(0xBE7C4);

  std::vector<ecc::BitVec> messages;
  std::vector<ecc::BitVec> received;
  for (std::size_t l = 0; l < codec::BitSlab::kLanes; ++l) {
    messages.push_back(random_word(code->message_length(), rng));
    ecc::BitVec word = code->encode(messages.back());
    for (std::size_t i = 0; i < word.size(); ++i)
      if (rng.bernoulli(0.01)) word.flip(i);
    received.push_back(word);
  }
  const codec::BitSlab message_slab = codec::BitSlab::transpose_in(messages);
  const codec::BitSlab received_slab = codec::BitSlab::transpose_in(received);

  const double scalar_encode = time_per_call([&] {
    for (const auto& m : messages) g_sink = g_sink ^ code->encode(m).words()[0];
  });
  const double batch_encode = time_per_call(
      [&] { g_sink = g_sink ^ code->encode_batch(message_slab).word(0); });
  const double scalar_decode = time_per_call([&] {
    for (const auto& r : received) g_sink = g_sink ^ code->decode(r).message.words()[0];
  });
  const double batch_decode = time_per_call(
      [&] { g_sink = g_sink ^ code->decode_batch(received_slab).messages.word(0); });

  CodeTiming t;
  t.name = name;
  t.n = code->block_length();
  t.k = code->message_length();
  t.encode_speedup = scalar_encode / batch_encode;
  t.decode_speedup = scalar_decode / batch_decode;
  const double batch_bits =
      static_cast<double>(codec::BitSlab::kLanes);
  t.batch_encode_mbps =
      batch_bits * static_cast<double>(t.k) / batch_encode / 1e6;
  t.batch_decode_mbps =
      batch_bits * static_cast<double>(t.n) / batch_decode / 1e6;
  return t;
}

bool check(bool condition, const std::string& what) {
  if (!condition) std::cerr << "FAILED: " << what << "\n";
  return condition;
}

bool is_hamming_family(const std::string& name) {
  return name.rfind("H(", 0) == 0 || name.rfind("eH(", 0) == 0;
}

int run_full() {
  bool ok = true;
  std::vector<CodeTiming> timings;
  for (const std::string& name : menu_names(/*with_cooling=*/true))
    timings.push_back(bench_code(name));

  std::cout << "{\n"
            << "  \"benchmark\": \"codec_throughput\",\n"
            << "  \"lanes\": " << codec::BitSlab::kLanes << ",\n"
            << "  \"host_core_count\": " << math::default_thread_count()
            << ",\n"
            << "  \"codes\": [\n";
  for (std::size_t i = 0; i < timings.size(); ++i) {
    const CodeTiming& t = timings[i];
    std::cout << "    {\"name\": \"" << t.name << "\", \"n\": " << t.n
              << ", \"k\": " << t.k
              << ", \"encode_speedup\": " << t.encode_speedup
              << ", \"decode_speedup\": " << t.decode_speedup
              << ", \"batch_encode_mbps\": " << t.batch_encode_mbps
              << ", \"batch_decode_mbps\": " << t.batch_decode_mbps << "}"
              << (i + 1 < timings.size() ? "," : "") << "\n";
  }
  std::cout << "  ]\n}\n";

  for (const CodeTiming& t : timings) {
    if (!is_hamming_family(t.name)) continue;
    ok &= check(t.encode_speedup >= 20.0,
                t.name + " batch encode >= 20x scalar (got " +
                    std::to_string(t.encode_speedup) + "x)");
    ok &= check(t.decode_speedup >= 20.0,
                t.name + " batch decode >= 20x scalar (got " +
                    std::to_string(t.decode_speedup) + "x)");
  }
  return ok ? 0 : 1;
}

/// Identity-only mode: batch kernels bit-identical to the scalar codec
/// for every menu code, lane for lane, clean and at a 5% error rate.
int run_smoke() {
  bool ok = true;
  math::Xoshiro256 rng(0x57A0CE);
  for (const std::string& name : menu_names(/*with_cooling=*/true)) {
    const auto code = ecc::make_code(name);
    std::vector<ecc::BitVec> messages;
    std::vector<ecc::BitVec> received;
    for (std::size_t l = 0; l < codec::BitSlab::kLanes; ++l) {
      messages.push_back(random_word(code->message_length(), rng));
      ecc::BitVec word = code->encode(messages.back());
      if (l % 2 == 1)  // half clean, half errored
        for (std::size_t i = 0; i < word.size(); ++i)
          if (rng.bernoulli(0.05)) word.flip(i);
      received.push_back(word);
    }
    const codec::BitSlab encoded =
        code->encode_batch(codec::BitSlab::transpose_in(messages));
    for (std::size_t l = 0; l < messages.size(); ++l)
      ok &= check(encoded.transpose_out(l) == code->encode(messages[l]),
                  name + " encode lane " + std::to_string(l));
    const ecc::BatchDecodeResult decoded =
        code->decode_batch(codec::BitSlab::transpose_in(received));
    for (std::size_t l = 0; l < received.size(); ++l) {
      const ecc::DecodeResult scalar = code->decode(received[l]);
      ok &= check(decoded.messages.transpose_out(l) == scalar.message,
                  name + " decode lane " + std::to_string(l));
      ok &= check(((decoded.error_detected >> l) & 1u) ==
                      (scalar.error_detected ? 1u : 0u),
                  name + " detected flag lane " + std::to_string(l));
      ok &= check(((decoded.corrected >> l) & 1u) ==
                      (scalar.corrected ? 1u : 0u),
                  name + " corrected flag lane " + std::to_string(l));
    }
  }
  if (ok)
    std::cout << "smoke OK: batch kernels bit-identical to the scalar "
                 "codec over the full menu\n";
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  try {
    return smoke ? run_smoke() : run_full();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
