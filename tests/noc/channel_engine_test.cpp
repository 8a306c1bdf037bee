// Round-robin arbitration of the channel engine at the edges of its
// writer bitset: writers on 64-bit word boundaries, writer counts that
// are not multiples of 64, the grant pointer wrapping past the last
// writer, unsorted schedules and queues that empty and refill.
//
// Every case runs one shared channel (all messages address tile 1) and
// reads the grant order back from the delivery log, which the engine
// appends in grant order.  Bursts are spaced 1 us apart, far longer
// than the few-ns transfers, so each burst is fully queued before its
// first grant and fully drained before the next burst arrives.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "photecc/noc/network.hpp"

namespace photecc::noc {
namespace {

constexpr std::size_t kReader = 1;

Message message(std::uint64_t id, std::size_t writer, double t) {
  Message m;
  m.id = id;
  m.source = writer;
  m.destination = kReader;
  m.payload_bits = 64;
  m.creation_time_s = t;
  return m;
}

/// Message ids in grant order on a one-channel network of `tiles`.
std::vector<std::uint64_t> grant_order(std::size_t tiles,
                                       std::vector<Message> schedule) {
  NetworkConfig config;
  config.topology.tile_count = tiles;
  config.topology.channel_count = 1;
  config.channels.resize(1);
  config.channels[0].oni_count = 16;
  const std::size_t count = schedule.size();
  const NetworkRunResult result =
      NetworkSimulator(config).run(std::move(schedule), 10e-6, true);
  EXPECT_EQ(result.stats.aggregate.delivered, count);
  std::vector<std::uint64_t> ids;
  for (const DeliveredMessage& d : result.log) ids.push_back(d.message.id);
  return ids;
}

/// Two messages per writer, all at t = 0, on the given writers.
std::vector<Message> two_rounds(const std::vector<std::size_t>& writers) {
  std::vector<Message> schedule;
  for (std::uint64_t round = 0; round < 2; ++round)
    for (const std::size_t w : writers)
      schedule.push_back(message(schedule.size(), w, 0.0));
  return schedule;
}

TEST(ChannelEngineArbitration, GrantPointerWrapsPastTheLastWriter) {
  // Writers straddle every word boundary of a 1024-writer bitset; the
  // second round starts only after the pointer wraps from 1023 to 0.
  const std::vector<std::size_t> writers{1023, 127, 64, 63, 0};
  EXPECT_EQ(grant_order(1024, two_rounds(writers)),
            (std::vector<std::uint64_t>{4, 3, 2, 1, 0, 9, 8, 7, 6, 5}));
}

TEST(ChannelEngineArbitration, WriterCountsThatAreNotMultiplesOf64) {
  // 100 writers: the last word holds bits 64..99 only.
  EXPECT_EQ(grant_order(100, two_rounds({99, 64, 63, 0})),
            (std::vector<std::uint64_t>{3, 2, 1, 0, 7, 6, 5, 4}));
  // 130 writers: a third word with two live bits.
  EXPECT_EQ(grant_order(130, two_rounds({129, 0, 127, 64})),
            (std::vector<std::uint64_t>{1, 3, 2, 0, 5, 7, 6, 4}));
  // 65 writers: the pointer wraps from writer 64, alone in its word.
  EXPECT_EQ(grant_order(65, two_rounds({64, 2})),
            (std::vector<std::uint64_t>{1, 0, 3, 2}));
}

TEST(ChannelEngineArbitration, UnsortedScheduleIsSortedStablyByTime) {
  // Sorted by time, ties in input order: ids 1, 2, 4 at t = 0 and
  // 0, 3 at 1 us.  The t = 0 burst is granted 0 -> 63 -> 64, the
  // pointer then sits at 65 and finds 127 before wrapping to 0.
  std::vector<Message> schedule{
      message(0, 127, 1e-6), message(1, 0, 0.0), message(2, 64, 0.0),
      message(3, 0, 1e-6), message(4, 63, 0.0)};
  EXPECT_EQ(grant_order(1024, schedule),
            (std::vector<std::uint64_t>{1, 4, 2, 0, 3}));
}

TEST(ChannelEngineArbitration, EmptiedQueueRefillsInFifoOrder) {
  // Burst A: writer 64 queues three messages, writer 127 one.  Writer
  // 64's queue empties, then burst B refills it behind writers 1023
  // and 0; the grant pointer (at 65) survives the idle gap.
  std::vector<Message> schedule{
      message(0, 64, 0.0),    message(1, 64, 0.0),   message(2, 127, 0.0),
      message(3, 64, 0.0),    message(4, 64, 1e-6),  message(5, 0, 1e-6),
      message(6, 1023, 1e-6), message(7, 64, 1e-6), message(8, 63, 2e-6)};
  EXPECT_EQ(grant_order(1024, schedule),
            (std::vector<std::uint64_t>{0, 2, 1, 3, 6, 5, 4, 7, 8}));
}

}  // namespace
}  // namespace photecc::noc
