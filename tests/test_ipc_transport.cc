// Transport-contract tests for the src/ipc layer: every Transport must
// deliver frames point-to-point, intact, FIFO per directed pair, with a
// bounded-timeout recv -- the exact (and only) guarantees the reliable
// channel builds on. The shared assertions run against the loopback
// queues here (tests/test_ipc_tcp.cc covers TcpTransport), plus unit
// tests of ReliableChannel's retry machinery over a deterministic
// FaultyTransport.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "ipc/codec.h"
#include "ipc/faulty.h"
#include "ipc/loopback.h"
#include "ipc/reliable.h"
#include "ipc/world.h"

namespace booster::ipc {
namespace {

std::vector<std::uint8_t> frame_of(std::initializer_list<std::uint8_t> b) {
  return std::vector<std::uint8_t>(b);
}

/// The shared contract: FIFO per pair, payload integrity, timeout on an
/// empty channel, per-endpoint stats.
void exercise_pair(Transport& a, Transport& b) {
  const auto f1 = frame_of({1, 2, 3});
  const auto f2 = frame_of({4});
  std::vector<std::uint8_t> big(100000);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 31);
  }

  EXPECT_TRUE(a.send(b.rank(), f1));
  EXPECT_TRUE(a.send(b.rank(), f2));
  EXPECT_TRUE(a.send(b.rank(), big));

  std::vector<std::uint8_t> got;
  ASSERT_EQ(b.recv(a.rank(), &got, std::chrono::milliseconds(2000)),
            RecvStatus::kOk);
  EXPECT_EQ(got, f1);
  ASSERT_EQ(b.recv(a.rank(), &got, std::chrono::milliseconds(2000)),
            RecvStatus::kOk);
  EXPECT_EQ(got, f2);
  // A frame bigger than any internal buffer arrives intact.
  ASSERT_EQ(b.recv(a.rank(), &got, std::chrono::milliseconds(2000)),
            RecvStatus::kOk);
  EXPECT_EQ(got, big);

  // The reverse direction is independent.
  EXPECT_TRUE(b.send(a.rank(), f2));
  ASSERT_EQ(a.recv(b.rank(), &got, std::chrono::milliseconds(2000)),
            RecvStatus::kOk);
  EXPECT_EQ(got, f2);

  // Empty channel: bounded timeout, no frame.
  EXPECT_EQ(b.recv(a.rank(), &got, std::chrono::milliseconds(5)),
            RecvStatus::kTimeout);

  EXPECT_EQ(a.stats().frames_sent, 3u);
  EXPECT_EQ(a.stats().frames_received, 1u);
  EXPECT_EQ(b.stats().frames_received, 3u);
  EXPECT_EQ(b.stats().bytes_received, f1.size() + f2.size() + big.size());
}

TEST(IpcTransport, LoopbackDeliversFifoIntactWithTimeout) {
  LoopbackHub hub(3);
  auto t0 = hub.endpoint(0);
  auto t1 = hub.endpoint(1);
  exercise_pair(*t0, *t1);
  // Self-send and out-of-world sends are rejected.
  EXPECT_FALSE(t0->send(0, frame_of({1})));
  EXPECT_FALSE(t0->send(7, frame_of({1})));
}

TEST(IpcTransport, FaultyTransportInjectsDeterministically) {
  // Two hubs, same seeds, same send sequence => identical fault schedule.
  for (int round = 0; round < 2; ++round) {
    LoopbackHub hub(2);
    auto inner = hub.endpoint(0);
    FaultyTransport faulty(inner.get(), {.drop = 0.3, .bitflip = 0.3}, 99);
    for (std::uint8_t i = 0; i < 100; ++i) {
      faulty.send(1, frame_of({i}));
    }
    static FaultStats first_round;
    if (round == 0) {
      first_round = faulty.fault_stats();
      EXPECT_GT(first_round.dropped, 0u);
      EXPECT_GT(first_round.bitflipped, 0u);
    } else {
      EXPECT_EQ(faulty.fault_stats().dropped, first_round.dropped);
      EXPECT_EQ(faulty.fault_stats().bitflipped, first_round.bitflipped);
    }
  }
}

TEST(IpcTransport, ReliableChannelDeliversInOrderThroughFaults) {
  LoopbackHub hub(2);
  auto raw0 = hub.endpoint(0);
  auto raw1 = hub.endpoint(1);
  FaultyTransport faulty0(raw0.get(),
                          {.drop = 0.15,
                           .truncate = 0.1,
                           .duplicate = 0.1,
                           .reorder = 0.1,
                           .bitflip = 0.1},
                          7);
  ReliableConfig cfg;
  cfg.recv_timeout = std::chrono::milliseconds(10);
  cfg.max_attempts = 200;

  constexpr std::uint32_t kMessages = 60;
  std::thread sender([&] {
    ReliableChannel tx(&faulty0, cfg);
    for (std::uint32_t i = 0; i < kMessages; ++i) {
      std::vector<std::uint8_t> payload = {static_cast<std::uint8_t>(i),
                                           static_cast<std::uint8_t>(i * 3)};
      tx.send(1, MessageType::kShardSummary, payload);
    }
    // Service re-requests until the receiver confirms everything arrived.
    Frame fin;
    ASSERT_TRUE(tx.recv(1, &fin));
    ASSERT_EQ(fin.type, MessageType::kGoodbye);
  });

  ReliableChannel rx(raw1.get(), cfg);
  for (std::uint32_t i = 0; i < kMessages; ++i) {
    Frame frame;
    ASSERT_TRUE(rx.recv(0, &frame)) << "message " << i;
    EXPECT_EQ(frame.type, MessageType::kShardSummary);
    ASSERT_EQ(frame.payload.size(), 2u);
    EXPECT_EQ(frame.payload[0], static_cast<std::uint8_t>(i));
    EXPECT_EQ(frame.payload[1], static_cast<std::uint8_t>(i * 3));
  }
  rx.send(0, MessageType::kGoodbye, {});
  sender.join();
  // The channel actually worked for its retries: some fault fired and was
  // healed (otherwise the rates above silently regressed to zero).
  EXPECT_GT(faulty0.fault_stats().total(), 0u);
  EXPECT_GT(rx.stats().corrupt_frames + rx.stats().duplicates_dropped +
                rx.stats().parked_frames + rx.stats().nacks_sent,
            0u);
}

TEST(IpcTransport, ReliableChannelPacesASlowSenderWithoutDesync) {
  // The receiver times out and nacks *before* the sender has produced the
  // message; the sender must treat the premature re-request as pacing,
  // not as a protocol error, and the message must still arrive.
  LoopbackHub hub(2);
  auto t0 = hub.endpoint(0);
  auto t1 = hub.endpoint(1);
  ReliableConfig cfg;
  cfg.recv_timeout = std::chrono::milliseconds(5);
  cfg.max_attempts = 400;
  std::thread slow_sender([&] {
    ReliableChannel tx(&*t0, cfg);
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    tx.send(1, MessageType::kTreeVerdict, frame_of({1}));
    // Absorb the pacing nacks that queued up while we were "computing".
    Frame fin;
    ASSERT_TRUE(tx.recv(1, &fin));
    ASSERT_EQ(fin.type, MessageType::kGoodbye);
  });
  ReliableChannel rx(&*t1, cfg);
  Frame frame;
  ASSERT_TRUE(rx.recv(0, &frame));
  EXPECT_EQ(frame.type, MessageType::kTreeVerdict);
  EXPECT_GT(rx.stats().nacks_sent, 0u);
  rx.send(0, MessageType::kGoodbye, {});
  slow_sender.join();
}

TEST(IpcTransport, TransportKindNamesRoundTrip) {
  for (const auto kind : {TransportKind::kLoopback, TransportKind::kTcp}) {
    const auto parsed = transport_kind_from_name(transport_kind_name(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(transport_kind_from_name("carrier-pigeon").has_value());
  // The spool-file and AF_UNIX transports are gone; their names no longer
  // parse.
  EXPECT_FALSE(transport_kind_from_name("file").has_value());
  EXPECT_FALSE(transport_kind_from_name("socket").has_value());
}

}  // namespace
}  // namespace booster::ipc
