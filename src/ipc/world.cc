#include "ipc/world.h"

#include "ipc/tcp_transport.h"
#include "util/check.h"

namespace booster::ipc {

const char* transport_kind_name(TransportKind kind) {
  switch (kind) {
    case TransportKind::kLoopback: return "loopback";
    case TransportKind::kTcp: return "tcp";
  }
  return "unknown";
}

std::optional<TransportKind> transport_kind_from_name(std::string_view name) {
  if (name == "loopback") return TransportKind::kLoopback;
  if (name == "tcp") return TransportKind::kTcp;
  return std::nullopt;
}

InProcessWorld::InProcessWorld(TransportKind kind, std::uint32_t world_size,
                               std::optional<FaultConfig> faults,
                               std::uint64_t fault_seed)
    : kind_(kind),
      world_size_(world_size),
      faults_(faults),
      fault_seed_(fault_seed),
      inner_(world_size),
      wrapped_(world_size) {
  BOOSTER_CHECK_MSG(world_size >= 1, "world needs at least one rank");
  // TCP worlds need no shared state up front: rank 0 publishes its
  // ephemeral port from endpoint().
  if (kind_ == TransportKind::kLoopback) {
    hub_ = std::make_unique<LoopbackHub>(world_size);
  }
}

Transport* InProcessWorld::endpoint(std::uint32_t rank) {
  BOOSTER_CHECK_MSG(rank < world_size_, "world rank out of range");
  // TCP workers block on rank 0's port and their connect, so endpoints
  // are constructed outside the lock.
  std::unique_ptr<Transport> t;
  switch (kind_) {
    case TransportKind::kLoopback: {
      std::lock_guard<std::mutex> lock(mutex_);
      t = hub_->endpoint(rank);
      break;
    }
    case TransportKind::kTcp: {
      if (rank == 0) {
        auto t0 = TcpTransport::listen("127.0.0.1", 0, world_size_);
        BOOSTER_CHECK_MSG(t0 != nullptr, "tcp world: listen failed");
        {
          std::lock_guard<std::mutex> lock(mutex_);
          tcp_port_ = t0->port();
        }
        tcp_port_cv_.notify_all();
        t = std::move(t0);
      } else {
        std::uint16_t port = 0;
        {
          std::unique_lock<std::mutex> lock(mutex_);
          const bool ok = tcp_port_cv_.wait_for(
              lock, std::chrono::seconds(30), [&] { return tcp_port_ != 0; });
          BOOSTER_CHECK_MSG(ok, "tcp world: rank 0 never published its port");
          port = tcp_port_;
        }
        t = TcpTransport::connect("127.0.0.1", port, world_size_, rank);
      }
      break;
    }
  }
  BOOSTER_CHECK_MSG(t != nullptr, "transport endpoint failed to assemble");
  std::lock_guard<std::mutex> lock(mutex_);
  inner_[rank] = std::move(t);
  if (faults_.has_value()) {
    wrapped_[rank] = std::make_unique<FaultyTransport>(
        inner_[rank].get(), *faults_, fault_seed_ + rank);
    return wrapped_[rank].get();
  }
  return inner_[rank].get();
}

const FaultStats* InProcessWorld::fault_stats(std::uint32_t rank) const {
  if (rank >= world_size_ || wrapped_[rank] == nullptr) return nullptr;
  return &static_cast<const FaultyTransport*>(wrapped_[rank].get())
              ->fault_stats();
}

}  // namespace booster::ipc
