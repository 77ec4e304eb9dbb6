// TCP star transport around rank 0, multiplexed on the epoll Poller --
// the cross-machine leg of the distributed trainer and the robustness
// tentpole on top of it:
//
//   * rank 0 listens (127.0.0.1 by default; any interface on request)
//     and accepts workers at *any* time, not just at startup -- the
//     live membership rule admits late joiners at tree boundaries;
//   * every connection is non-blocking with TCP_NODELAY; frames carry a
//     4-byte little-endian length prefix, clamped at kMaxFrameBytes
//     before any allocation;
//   * each peer has a bounded send buffer (byte cap): sends flush
//     opportunistically, a frame that would overflow the cap is dropped
//     and counted -- backpressure against a non-draining peer instead of
//     a wedged sender; the reliable layer re-requests dropped frames;
//   * a worker that loses its coordinator reconnects with capped
//     exponential backoff + jitter (ipc::BackoffPolicy), re-presenting
//     its session nonce. The coordinator acks the hello: a matching
//     nonce resumes the stream (ReliableChannel state survives), a fresh
//     nonce is a new worker incarnation (old session state discarded).
//     A worker whose resume is rejected, or that stays disconnected past
//     reconnect_window, reports kClosed;
//   * rank 0 exposes the membership surface (Transport::take_peer_events
//     etc.): joined / resumed / new-session / disconnected events, which
//     the distributed trainer folds into its shard assignment at tree
//     boundaries.
//
// Hello wire format (16 bytes, little-endian): magic 'B','T','C','P',
// u32 rank, u64 session nonce. Ack: one byte, 1 = fresh session,
// 2 = resumed.
//
// Like every transport here, one endpoint is driven from one thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "ipc/membership.h"
#include "ipc/poller.h"
#include "ipc/transport.h"

namespace booster::ipc {

struct TcpOptions {
  /// Budget for the initial connect() (covering a coordinator that has
  /// not bound its port yet).
  std::chrono::milliseconds connect_timeout{10000};
  /// Worker reconnect backoff after a lost coordinator connection.
  BackoffPolicy backoff{};
  /// How long a lost connection may stay down before the endpoint gives
  /// up for good (recv reports kClosed). Applies to the worker's
  /// reconnect loop and to rank 0's patience with a vanished worker.
  std::chrono::milliseconds reconnect_window{10000};
  /// Workers: reconnect automatically after a lost connection. Off, the
  /// first disconnect is final (static-topology behavior).
  bool auto_reconnect = true;
  /// Per-peer send buffer cap in bytes; a frame that would overflow it
  /// is dropped (send returns false, frames_dropped() counts it).
  std::uint64_t send_buffer_cap = 64ull << 20;
  /// This endpoint's session nonce; 0 generates a fresh one. A restarted
  /// worker process gets a fresh nonce by construction, which is exactly
  /// what makes it a *new* session instead of a resumed one.
  std::uint64_t session_nonce = 0;
};

class TcpTransport final : public Transport {
 public:
  /// Rank 0: binds `host`:`port` (port 0 picks an ephemeral one, see
  /// port()) and returns immediately -- workers are accepted during
  /// wait_for_world()/pump()/recv(). nullptr on bind failure.
  static std::unique_ptr<TcpTransport> listen(const std::string& host,
                                              std::uint16_t port,
                                              std::uint32_t world_size,
                                              TcpOptions opts = {});

  /// Worker `rank`: connects (and completes the hello/ack handshake)
  /// within opts.connect_timeout. nullptr on failure.
  static std::unique_ptr<TcpTransport> connect(const std::string& host,
                                               std::uint16_t port,
                                               std::uint32_t world_size,
                                               std::uint32_t rank,
                                               TcpOptions opts = {});

  ~TcpTransport() override;

  /// Rank 0: pumps until `ranks` ranks (rank 0 included) are connected
  /// or the timeout lapses. The initial-world rendezvous.
  bool wait_for_world(std::uint32_t ranks, std::chrono::milliseconds timeout);

  /// The bound port (after listen with port 0: the kernel-assigned one).
  std::uint16_t port() const { return port_; }
  std::uint64_t session_nonce() const { return opts_.session_nonce; }
  /// Frames dropped against the send-buffer cap (backpressure).
  std::uint64_t frames_dropped() const { return frames_dropped_; }

  // --- Transport ---
  std::uint32_t world_size() const override { return world_size_; }
  std::uint32_t rank() const override { return rank_; }
  const char* kind() const override { return "tcp"; }
  bool send(std::uint32_t dst, std::span<const std::uint8_t> frame) override;
  RecvStatus recv(std::uint32_t src, std::vector<std::uint8_t>* frame,
                  std::chrono::milliseconds timeout) override;

  // --- membership surface (rank 0) ---
  bool membership_capable() const override { return rank_ == 0; }
  void pump(std::chrono::milliseconds timeout) override;
  std::vector<PeerEvent> take_peer_events() override;
  bool peer_connected(std::uint32_t rank) const override;
  void drop_peer(std::uint32_t rank) override;
  void shutdown_hard() override;

  /// Test hook: abruptly closes the live connection(s) as a simulated
  /// link cut. A worker with auto_reconnect then heals through the
  /// backoff loop; rank 0 sees a disconnect event per peer.
  void debug_break_connection();

 private:
  struct Conn {
    int fd = -1;
    std::vector<std::uint8_t> rx;
    std::deque<std::vector<std::uint8_t>> tx;  // length-prefixed frames
    std::size_t tx_off = 0;  // bytes of tx.front() already written
    std::uint64_t tx_bytes = 0;
    bool want_write = false;
  };
  /// Accepted connection whose hello has not fully arrived yet.
  struct PendingConn {
    int fd = -1;
    std::vector<std::uint8_t> rx;
  };
  enum class WorkerState : std::uint8_t {
    kDisconnected = 0,  // waiting out the backoff
    kConnecting,        // non-blocking connect in flight
    kHelloSent,         // connected; hello written / ack awaited
    kConnected,
    kFailed,  // resume rejected or reconnect disabled: terminal
  };

  TcpTransport(std::uint32_t world_size, std::uint32_t rank, TcpOptions opts);

  /// One event-loop round: accepts, reads, flushes, progresses the
  /// worker reconnect machine; blocks at most `timeout`.
  void pump_once(std::chrono::milliseconds timeout);
  void handle_listen_ready();
  void handle_pending_ready(std::size_t index);
  void install_hello(int fd, std::uint32_t peer, std::uint64_t nonce);
  void read_conn(std::uint32_t peer);
  void flush_conn(std::uint32_t peer);
  void update_interest(std::uint32_t peer);
  void disconnect(std::uint32_t peer, bool emit_event);
  bool parse_frames(std::uint32_t peer);

  // Worker-side connect machine.
  void progress_connect(std::chrono::steady_clock::time_point now);
  void start_connect();
  void on_connect_ready();
  void handle_ack();
  void fail_connection();

  bool closed_for_good(std::uint32_t src) const;

  std::uint32_t world_size_;
  std::uint32_t rank_;
  TcpOptions opts_;
  Poller poller_;

  // Shared per-peer state (workers only use slot 0).
  std::vector<Conn> conns_;
  std::vector<std::deque<std::vector<std::uint8_t>>> frames_;
  std::uint64_t frames_dropped_ = 0;

  // Rank 0.
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::vector<PendingConn> pending_;
  std::vector<std::uint64_t> sessions_;  // nonce per rank; 0 = none
  std::vector<std::chrono::steady_clock::time_point> down_since_;
  std::vector<PeerEvent> events_;

  // Worker.
  std::string host_;
  WorkerState wstate_ = WorkerState::kDisconnected;
  bool ever_connected_ = false;
  std::uint32_t attempt_ = 0;
  std::chrono::steady_clock::time_point next_attempt_{};
  std::chrono::steady_clock::time_point worker_down_since_{};
  std::vector<std::uint8_t> hello_out_;  // unwritten hello bytes
};

}  // namespace booster::ipc
