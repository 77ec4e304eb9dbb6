// In-memory loopback transport: the whole world lives in one process, one
// thread per rank, frames move through mutex-protected per-pair queues.
// The zero-configuration transport for tests (the fault-injection layer
// wraps it), for bench_distributed's in-process worlds, and for sanitizer
// runs (ASan/UBSan see every byte of the protocol without any kernel
// plumbing in the way).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "ipc/transport.h"

namespace booster::ipc {

/// Shared state of one loopback world. Create the hub, then hand
/// endpoint(r) to rank r's thread. The hub must outlive its endpoints.
class LoopbackHub {
 public:
  explicit LoopbackHub(std::uint32_t world_size);

  std::uint32_t world_size() const { return world_size_; }

  /// The Transport endpoint of rank `rank`. Each rank's endpoint is meant
  /// to be driven by exactly one thread (send and recv are still mutually
  /// thread-safe, as they only touch locked queues).
  std::unique_ptr<Transport> endpoint(std::uint32_t rank);

  /// One directed frame queue. Exposed for the endpoint implementation
  /// only; treat as internal.
  struct Channel {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<std::vector<std::uint8_t>> frames;
  };

  Channel& channel(std::uint32_t src, std::uint32_t dst) {
    return *channels_[static_cast<std::size_t>(src) * world_size_ + dst];
  }

 private:
  std::uint32_t world_size_;
  std::vector<std::unique_ptr<Channel>> channels_;
};

}  // namespace booster::ipc
