// Cross-process sharded training, for real: forks worker *processes* and
// trains one ensemble over localhost TCP, then proves the result
// bit-identical to the in-process gbdt::Trainer. This is the end-to-end
// demonstration of the distributed stack -- every catch-up, shard
// assignment, shard histogram, split decision, and finished tree crosses a
// real process boundary through the checksummed wire format and the retry
// protocol.
//
//   ./build/multi_process [--transport tcp|loopback]
//                         [--procs N] [--shards K] [--threads T]
//                         [--records N] [--trees N] [--kill-rejoin]
//                         [--die-rank R] [--die-tree T] [--rejoin-tree T]
//
// Every process synthesizes the same deterministic dataset (data-parallel
// with replicated inputs; a rank executes only its assigned shard range),
// trains through gbdt::DistributedTrainer, and independently verifies its
// copy of the model against a local single-process reference -- so a
// divergence *anywhere* in the world makes the example exit non-zero,
// which is what scripts/check.sh keys off. --transport loopback runs the
// ranks as threads instead (same protocol, no fork), which is the variant
// the sanitizer CI leg executes.
//
// --transport tcp (the default) forks the workers as real processes around
// a rank 0 listening on an ephemeral localhost port. A plain run is a
// fixed world: rank 0 admits every worker at the first tree boundary.
// --kill-rejoin switches to the live membership rule, under which rank 0
// recomputes the shard assignment at every boundary: worker --die-rank
// SIGKILLs itself mid-tree at --die-tree (rank 0 adopts its shards), and a
// fresh incarnation of the same rank connects at --rejoin-tree (admitted
// with a catch-up replay) -- the survivors, the rejoiner, and rank 0 all
// still verify bit-identical to the single-process trainer. This is the
// worker-churn demonstration scripts/check.sh runs.
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "gbdt/binning.h"
#include "gbdt/distributed.h"
#include "gbdt/trainer.h"
#include "ipc/tcp_transport.h"
#include "ipc/world.h"
#include "workloads/spec.h"
#include "workloads/synth.h"

namespace {

using namespace booster;

struct Args {
  ipc::TransportKind transport = ipc::TransportKind::kTcp;
  std::uint32_t procs = 3;
  std::uint32_t shards = 8;
  unsigned threads = 2;
  std::uint64_t records = 20000;
  std::uint32_t trees = 8;
  // tcp-only churn demo: --die-rank SIGKILLs itself mid-tree at
  // --die-tree, a fresh incarnation of the same rank joins at
  // --rejoin-tree.
  bool kill_rejoin = false;
  std::uint32_t die_rank = 2;
  std::uint32_t die_tree = 1;
  std::uint32_t rejoin_tree = 3;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (std::strcmp(argv[i], "--transport") == 0) {
      const auto kind = ipc::transport_kind_from_name(next());
      if (!kind) {
        std::fprintf(stderr, "unknown transport (tcp|loopback)\n");
        std::exit(2);
      }
      a.transport = *kind;
    } else if (std::strcmp(argv[i], "--kill-rejoin") == 0) {
      a.kill_rejoin = true;
    } else if (std::strcmp(argv[i], "--die-rank") == 0) {
      a.die_rank = static_cast<std::uint32_t>(std::atoi(next()));
    } else if (std::strcmp(argv[i], "--die-tree") == 0) {
      a.die_tree = static_cast<std::uint32_t>(std::atoi(next()));
    } else if (std::strcmp(argv[i], "--rejoin-tree") == 0) {
      a.rejoin_tree = static_cast<std::uint32_t>(std::atoi(next()));
    } else if (std::strcmp(argv[i], "--procs") == 0) {
      a.procs = static_cast<std::uint32_t>(std::atoi(next()));
    } else if (std::strcmp(argv[i], "--shards") == 0) {
      a.shards = static_cast<std::uint32_t>(std::atoi(next()));
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      a.threads = static_cast<unsigned>(std::atoi(next()));
    } else if (std::strcmp(argv[i], "--records") == 0) {
      a.records = static_cast<std::uint64_t>(std::atoll(next()));
    } else if (std::strcmp(argv[i], "--trees") == 0) {
      a.trees = static_cast<std::uint32_t>(std::atoi(next()));
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      std::exit(2);
    }
  }
  if (a.procs < 1 || a.shards < 1 || a.trees < 1 || a.records < 10) {
    std::fprintf(stderr, "invalid arguments\n");
    std::exit(2);
  }
  if (a.kill_rejoin &&
      (a.transport != ipc::TransportKind::kTcp || a.die_rank == 0 ||
       a.die_rank >= a.procs || a.die_tree >= a.trees ||
       a.rejoin_tree <= a.die_tree || a.rejoin_tree >= a.trees)) {
    std::fprintf(stderr,
                 "--kill-rejoin needs --transport tcp and "
                 "0 < die-rank < procs, die-tree < rejoin-tree < trees\n");
    std::exit(2);
  }
  return a;
}

/// Bit-identity check against the single-process reference (weights,
/// gains, losses, sampled predictions).
bool verify(const gbdt::TrainResult& got, const gbdt::TrainResult& ref,
            const gbdt::BinnedDataset& data, std::uint32_t rank) {
  if (got.model.num_trees() != ref.model.num_trees()) return false;
  for (std::uint32_t t = 0; t < ref.model.num_trees(); ++t) {
    const gbdt::Tree& x = got.model.trees()[t];
    const gbdt::Tree& y = ref.model.trees()[t];
    if (x.num_nodes() != y.num_nodes()) return false;
    for (std::uint32_t id = 0; id < x.num_nodes(); ++id) {
      const auto& p = x.node(static_cast<std::int32_t>(id));
      const auto& q = y.node(static_cast<std::int32_t>(id));
      if (p.is_leaf != q.is_leaf || p.field != q.field || p.kind != q.kind ||
          p.threshold_bin != q.threshold_bin ||
          p.default_left != q.default_left || p.left != q.left ||
          p.right != q.right || p.depth != q.depth ||
          p.weight != q.weight || p.gain != q.gain) {
        std::fprintf(stderr, "[rank %u] divergence at tree %u node %u\n",
                     rank, t, id);
        return false;
      }
    }
  }
  for (std::size_t t = 0; t < ref.tree_stats.size(); ++t) {
    if (got.tree_stats[t].train_loss != ref.tree_stats[t].train_loss) {
      std::fprintf(stderr, "[rank %u] train_loss diverged at tree %zu\n",
                   rank, t);
      return false;
    }
  }
  for (std::uint64_t r = 0; r < data.num_records(); r += 101) {
    if (got.model.predict_raw(data, r) != ref.model.predict_raw(data, r)) {
      std::fprintf(stderr, "[rank %u] prediction diverged at record %llu\n",
                   rank, static_cast<unsigned long long>(r));
      return false;
    }
  }
  return true;
}

gbdt::BinnedDataset make_data(const Args& args) {
  // Deterministic synthesis: every process rebuilds the identical binned
  // dataset from the seed (data-parallel with replicated inputs).
  workloads::DatasetSpec spec = workloads::fraud_spec();
  const auto raw = workloads::synthesize(spec, args.records, /*seed=*/42);
  return gbdt::Binner().bin(raw);
}

gbdt::DistributedConfig make_config(const Args& args) {
  gbdt::DistributedConfig cfg;
  cfg.trainer.num_trees = args.trees;
  cfg.trainer.max_depth = 6;
  cfg.trainer.loss = "logistic";
  cfg.trainer.num_shards = args.shards;
  cfg.trainer.num_threads = args.threads;
  return cfg;
}

/// TCP timing: production defaults are 10s windows; the demo tightens
/// them so detection and reconnects land in fractions of a second. Only
/// the churn demo needs the live membership rule (its rejoiner is
/// admitted late).
gbdt::DistributedConfig make_tcp_config(const Args& args) {
  gbdt::DistributedConfig cfg = make_config(args);
  cfg.elastic = args.kill_rejoin;
  cfg.channel.recv_timeout = std::chrono::milliseconds(25);
  cfg.channel.liveness_timeout = std::chrono::milliseconds(500);
  cfg.channel.heartbeat_interval = std::chrono::milliseconds(50);
  return cfg;
}

ipc::TcpOptions make_tcp_options() {
  ipc::TcpOptions opts;
  opts.connect_timeout = std::chrono::milliseconds(5000);
  opts.reconnect_window = std::chrono::milliseconds(2000);
  opts.backoff.base = std::chrono::milliseconds(5);
  opts.backoff.cap = std::chrono::milliseconds(50);
  return opts;
}

/// One TCP worker process: optionally parks on `wait_fd` until rank 0
/// signals the rejoin boundary, then connects with a fresh session nonce
/// and follows the assignment stream. `dies` arms the SIGKILL
/// churn hook (mid-tree, after the root histograms shipped).
int run_tcp_worker(const Args& args, std::uint16_t port, std::uint32_t rank,
                   int wait_fd, bool dies) {
  // Data and the local reference come first: once released, the rejoiner
  // must connect within the live workers' liveness deadline, so the slow
  // work cannot sit between the release and the connect.
  const auto data = make_data(args);
  const auto ref = gbdt::Trainer(make_config(args).trainer).train(data);
  if (wait_fd >= 0) {
    char byte = 0;
    if (::read(wait_fd, &byte, 1) != 1) return 1;
    ::close(wait_fd);
  }

  gbdt::DistributedConfig cfg = make_tcp_config(args);
  if (dies) {
    cfg.churn_hook = [&args](std::uint32_t tree,
                             gbdt::ElasticChurnPoint point) {
      if (tree == args.die_tree &&
          point == gbdt::ElasticChurnPoint::kAfterFirstBuild) {
        ::raise(SIGKILL);  // a real crash, not a simulated one
      }
      return gbdt::ElasticChurnAction::kContinue;
    };
  }
  auto transport = ipc::TcpTransport::connect("127.0.0.1", port, args.procs,
                                              rank, make_tcp_options());
  if (transport == nullptr) {
    std::fprintf(stderr, "[rank %u] tcp connect failed\n", rank);
    return 1;
  }
  gbdt::DistributedTrainer trainer(cfg, transport.get());
  const auto got = trainer.train(data);
  if (trainer.stats().orphaned != 0) {
    std::fprintf(stderr, "[rank %u] orphaned mid-run\n", rank);
    return 1;
  }
  return verify(got, ref, data, rank) ? 0 : 1;
}

/// The localhost-TCP world: rank 0 listens, forks the workers
/// (plus a parked rejoin incarnation when --kill-rejoin), trains, and
/// reaps. The rejoiner is forked *before* training so no fork happens
/// while rank 0's thread pool exists; it parks on a pipe until rank 0's
/// boundary hook releases it.
int run_tcp(const Args& args) {
  // Data and the local reference are built before any fork: the reference
  // trainer's thread pool is scoped to train(), so no threads exist at
  // fork time, and rank 0 can enter training the moment the world
  // assembles (workers' liveness clocks start at their first recv).
  const auto data = make_data(args);
  const auto ref = gbdt::Trainer(make_config(args).trainer).train(data);

  auto listener = ipc::TcpTransport::listen("127.0.0.1", 0, args.procs,
                                            make_tcp_options());
  if (listener == nullptr) {
    std::fprintf(stderr, "tcp listen failed\n");
    return 1;
  }
  const std::uint16_t port = listener->port();

  int rejoin_pipe[2] = {-1, -1};
  if (args.kill_rejoin && ::pipe(rejoin_pipe) != 0) {
    std::perror("pipe");
    return 1;
  }

  std::vector<pid_t> children;
  pid_t victim = -1;
  for (std::uint32_t rank = 1; rank < args.procs; ++rank) {
    const bool dies = args.kill_rejoin && rank == args.die_rank;
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("fork");
      return 1;
    }
    if (pid == 0) {
      if (rejoin_pipe[0] >= 0) ::close(rejoin_pipe[0]);
      if (rejoin_pipe[1] >= 0) ::close(rejoin_pipe[1]);
      std::exit(run_tcp_worker(args, port, rank, /*wait_fd=*/-1, dies));
    }
    if (dies) victim = pid;
    children.push_back(pid);
  }
  if (args.kill_rejoin) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("fork");
      return 1;
    }
    if (pid == 0) {
      ::close(rejoin_pipe[1]);
      std::exit(run_tcp_worker(args, port, args.die_rank, rejoin_pipe[0],
                               /*dies=*/false));
    }
    ::close(rejoin_pipe[0]);
    children.push_back(pid);
  }

  if (!listener->wait_for_world(args.procs,
                                std::chrono::milliseconds(15000))) {
    std::fprintf(stderr, "initial world failed to assemble\n");
    return 1;
  }

  gbdt::DistributedConfig cfg = make_tcp_config(args);
  bool released = false;
  cfg.on_tree_boundary = [&](std::uint32_t tree) {
    if (!args.kill_rejoin || tree != args.rejoin_tree || released) return;
    released = true;
    const char byte = 'x';
    if (::write(rejoin_pipe[1], &byte, 1) != 1) return;
    // Pump the listener until the fresh incarnation's handshake lands, so
    // admission happens deterministically at this boundary.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!listener->peer_connected(args.die_rank) &&
           std::chrono::steady_clock::now() < deadline) {
      listener->pump(std::chrono::milliseconds(5));
    }
  };

  gbdt::DistributedTrainer trainer(cfg, listener.get());
  const auto got = trainer.train(data);
  int status = verify(got, ref, data, /*rank=*/0) ? 0 : 1;

  for (const pid_t pid : children) {
    int child_status = 0;
    if (::waitpid(pid, &child_status, 0) < 0) {
      std::perror("waitpid");
      status = 1;
      continue;
    }
    if (pid == victim) {
      if (!WIFSIGNALED(child_status) || WTERMSIG(child_status) != SIGKILL) {
        std::fprintf(stderr, "victim %d did not die by SIGKILL\n", pid);
        status = 1;
      }
    } else if (!WIFEXITED(child_status) || WEXITSTATUS(child_status) != 0) {
      std::fprintf(stderr, "worker process %d failed\n", pid);
      status = 1;
    }
  }

  const auto& st = trainer.stats();
  if (args.kill_rejoin &&
      (st.dead_workers < 1 || st.joins < 1 || st.shards_adopted < 1)) {
    std::fprintf(stderr,
                 "churn not observed: dead=%u joins=%u adopted=%u\n",
                 st.dead_workers, st.joins, st.shards_adopted);
    status = 1;
  }
  if (status == 0) {
    std::printf(
        "multi_process OK: transport=tcp procs=%u shards=%u threads=%u "
        "records=%llu trees=%u%s\n"
        "  rank0: adopted=%u dead_workers=%u joins=%u repartitions=%u "
        "heartbeats_rx=%llu msgs_rx=%llu\n"
        "  bit-identical to in-process Trainer on every surviving rank\n",
        args.procs, args.shards, args.threads,
        static_cast<unsigned long long>(args.records), args.trees,
        args.kill_rejoin ? " kill-rejoin" : "", st.shards_adopted,
        st.dead_workers, st.joins, st.repartitions,
        static_cast<unsigned long long>(st.channel.heartbeats_received),
        static_cast<unsigned long long>(st.channel.messages_received));
  }
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);

  if (args.transport == ipc::TransportKind::kTcp) {
    if (args.procs < 2) {
      std::fprintf(stderr, "--transport tcp needs --procs >= 2\n");
      return 2;
    }
    return run_tcp(args);
  }

  // Threads-as-ranks (the sanitizer leg): same protocol, no fork.
  const auto data = make_data(args);
  const auto ref = gbdt::Trainer(make_config(args).trainer).train(data);
  ipc::InProcessWorld world(ipc::TransportKind::kLoopback, args.procs);
  const auto got = gbdt::train_in_process(make_config(args), world, data);
  if (!verify(got, ref, data, 0)) return 1;
  std::printf("multi_process OK: transport=loopback(threads) procs=%u "
              "shards=%u -- bit-identical to in-process Trainer\n",
              args.procs, args.shards);
  return 0;
}
