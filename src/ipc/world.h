// In-process world assembly for the two transports: one object that hands
// each rank thread its Transport endpoint, whatever the kind -- loopback
// (shared hub) or tcp (rank 0 listens on an ephemeral localhost port,
// workers connect). Optionally wraps every endpoint in a seeded
// ipc::FaultyTransport, which is how the fault-injection tests drive the
// whole training protocol through loss/corruption/reordering without
// touching trainer code. Cross-process worlds (examples/multi_process.cpp)
// construct TcpTransport endpoints directly instead.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <vector>

#include "ipc/faulty.h"
#include "ipc/loopback.h"
#include "ipc/transport.h"

namespace booster::ipc {

enum class TransportKind : std::uint8_t { kLoopback = 0, kTcp };

const char* transport_kind_name(TransportKind kind);
std::optional<TransportKind> transport_kind_from_name(std::string_view name);

class InProcessWorld {
 public:
  /// With `faults`, every endpoint is wrapped in a FaultyTransport seeded
  /// with seed + rank (deterministic per rank).
  InProcessWorld(TransportKind kind, std::uint32_t world_size,
                 std::optional<FaultConfig> faults = std::nullopt,
                 std::uint64_t fault_seed = 0);

  std::uint32_t world_size() const { return world_size_; }
  TransportKind transport_kind() const { return kind_; }

  /// Rank `rank`'s endpoint. For tcp worlds a worker's call *blocks* until
  /// rank 0 published its port and the connect completed, so every rank
  /// must call it from its own thread concurrently -- exactly how the
  /// rank threads start up.
  /// The returned transport is owned by the world; the per-rank fault
  /// stats can be read from it after the run.
  Transport* endpoint(std::uint32_t rank);

  /// Fault counters of `rank`'s FaultyTransport wrapper; nullptr when the
  /// world runs fault-free or the endpoint was never created.
  const FaultStats* fault_stats(std::uint32_t rank) const;

 private:
  TransportKind kind_;
  std::uint32_t world_size_;
  std::optional<FaultConfig> faults_;
  std::uint64_t fault_seed_;
  std::unique_ptr<LoopbackHub> hub_;
  std::mutex mutex_;
  /// TCP worlds: rank 0 publishes its ephemeral port here; workers wait.
  std::uint16_t tcp_port_ = 0;
  std::condition_variable tcp_port_cv_;
  std::vector<std::unique_ptr<Transport>> inner_;
  std::vector<std::unique_ptr<Transport>> wrapped_;
};

}  // namespace booster::ipc
