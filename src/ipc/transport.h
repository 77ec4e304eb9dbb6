// Pluggable byte-frame transports for the distributed trainer. A Transport
// connects `world_size` ranks with point-to-point frame channels: send()
// moves one opaque frame (produced by ipc::HistogramCodec) toward a peer,
// recv() takes the next frame a peer sent to this rank, in the order the
// peer's frames arrive. Transports deliver *frames*, not reliability:
// loss, duplication, reordering, and corruption are tolerated one layer up
// (ipc::ReliableChannel), which is what lets ipc::FaultyTransport inject
// exactly those faults underneath an unchanged protocol.
//
// Implementations (one writer per directed channel):
//   * LoopbackTransport (loopback.h) -- in-memory queues, threads-as-ranks;
//   * TcpTransport (tcp_transport.h) -- TCP star multiplexed on an epoll
//     Poller, across threads or processes, with reconnect/backoff, session
//     nonces, and the membership surface (peer events) rank 0's driver
//     consumes.
// ipc::FaultyTransport (faulty.h) decorates either with injected faults.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <vector>

namespace booster::ipc {

/// Upper bound on one transport frame: the codec's maximum payload plus
/// header slack. The length-prefixed TCP transport rejects a larger
/// prefix *before* allocating -- a desynced stream must surface as a
/// closed channel, not a multi-gigabyte resize.
inline constexpr std::size_t kMaxFrameBytes = (1u << 28) + 256;

enum class RecvStatus : std::uint8_t {
  kOk = 0,
  kTimeout,  // no complete frame from the peer within the timeout
  kClosed,   // the peer's channel is gone (socket EOF, hub shut down)
};

struct TransportStats {
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  /// Successful re-establishments of a lost connection (TCP transports;
  /// 0 elsewhere).
  std::uint64_t reconnects = 0;
};

/// Membership change observed by a connection-oriented transport.
/// Consumed by the distributed trainer on rank 0 via take_peer_events().
enum class PeerEventKind : std::uint8_t {
  kJoined = 0,   // first connection of this rank
  kResumed,      // reconnect presenting the same session nonce
  kNewSession,   // reconnect with a fresh nonce (a new worker incarnation)
  kDisconnected  // connection lost (EOF / error); may yet reconnect
};

struct PeerEvent {
  std::uint32_t rank = 0;
  PeerEventKind kind = PeerEventKind::kJoined;
  std::uint64_t session_nonce = 0;
};

class Transport {
 public:
  virtual ~Transport() = default;

  virtual std::uint32_t world_size() const = 0;
  virtual std::uint32_t rank() const = 0;
  /// Transport kind for logs/benches ("loopback", "tcp", "faulty", ...).
  virtual const char* kind() const = 0;

  /// Sends one frame to rank `dst`. Returns false when the transport
  /// cannot carry it (unknown peer, closed channel); best-effort delivery
  /// otherwise -- the frame may still be lost in transit.
  virtual bool send(std::uint32_t dst, std::span<const std::uint8_t> frame) = 0;

  /// Receives the next frame rank `src` sent to this rank, blocking up to
  /// `timeout`. Frames from one peer arrive in send order on fault-free
  /// transports; the reliable layer never assumes more than that.
  virtual RecvStatus recv(std::uint32_t src, std::vector<std::uint8_t>* frame,
                          std::chrono::milliseconds timeout) = 0;

  // --- membership surface (connection-oriented transports only) ---
  // The distributed trainer drives these on rank 0; queue-backed transports
  // keep the defaults (no membership: every rank is permanently
  // "connected" and no events ever fire).

  /// True when this endpoint observes peer connect/disconnect events.
  virtual bool membership_capable() const { return false; }
  /// Progresses the event loop (accepting, reading, flushing) without
  /// consuming data frames -- lets rank 0 notice joins between recvs.
  virtual void pump(std::chrono::milliseconds /*timeout*/) {}
  /// Drains the queued membership events (oldest first).
  virtual std::vector<PeerEvent> take_peer_events() { return {}; }
  /// True when a live connection to `rank` exists right now.
  virtual bool peer_connected(std::uint32_t /*rank*/) const { return true; }
  /// Forgets `rank`'s connection *and* session, so only a fresh session
  /// can re-join (rank 0 evicting a stale member).
  virtual void drop_peer(std::uint32_t /*rank*/) {}
  /// Abruptly closes this endpoint's channels without any goodbye --
  /// simulated crash for churn tests; no reconnect attempts follow.
  virtual void shutdown_hard() {}

  const TransportStats& stats() const { return stats_; }

 protected:
  TransportStats stats_;
};

}  // namespace booster::ipc
