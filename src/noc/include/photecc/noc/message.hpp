// Message model of the ONoC simulator.
#ifndef PHOTECC_NOC_MESSAGE_HPP
#define PHOTECC_NOC_MESSAGE_HPP

#include <cstdint>
#include <optional>
#include <string>

namespace photecc::noc {

/// Traffic classes with distinct communication requirements (paper
/// Section III-C: real-time tasks need deadlines, multimedia-like tasks
/// can trade BER/time for energy).
enum class TrafficClass : std::uint8_t {
  kRealTime,    ///< latency-critical, deadline-bound
  kMultimedia,  ///< throughput-oriented, energy-saving preferred
  kBestEffort,  ///< background traffic
};

[[nodiscard]] std::string to_string(TrafficClass cls);

/// One end-to-end transfer request.  Sources and destinations are tile
/// indices; the network routes each message to the destination tile's
/// home channel.
struct Message {
  std::uint64_t id = 0;
  std::size_t source = 0;       ///< writer tile
  std::size_t destination = 0;  ///< reader tile (its channel delivers)
  std::uint64_t payload_bits = 0;
  double creation_time_s = 0.0;
  TrafficClass traffic_class = TrafficClass::kBestEffort;
  /// Absolute deadline [s]; empty for no deadline.
  std::optional<double> deadline_s;

  [[nodiscard]] bool operator==(const Message&) const = default;
};

}  // namespace photecc::noc

#endif  // PHOTECC_NOC_MESSAGE_HPP
