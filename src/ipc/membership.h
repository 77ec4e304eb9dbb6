// Liveness and membership primitives for the elastic TCP world:
//
//   * BackoffPolicy -- capped exponential backoff with deterministic
//     jitter for a worker's reconnect loop (jitter decorrelates workers
//     that lost the same coordinator at the same instant);
//   * session nonces -- a reconnecting worker presents the nonce of its
//     previous session; a matching nonce resumes the ReliableChannel
//     sequence state, a fresh nonce is a new incarnation (the old
//     session's state is discarded and the worker re-joins from scratch);
//   * MembershipTracker -- rank 0's view of which worker ranks currently
//     participate in training, versioned by a view epoch that bumps on
//     every change, plus the shard assignment derived from it (the same
//     contiguous near-equal split as shard_row_range, over the ordered
//     live participant list, so any membership view yields a valid
//     partition and the quantized-exact merge keeps the model
//     bit-identical across views);
//   * ChurnSchedule -- the seeded "kill:1@2,join:3@4" grammar the tests
//     and bench_distributed use to script worker churn at tree
//     boundaries.
//
// Deadline-based failure detection itself lives in ipc::ReliableChannel
// (ReliableConfig.liveness_timeout + heartbeats); this header is the
// bookkeeping around it.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace booster::ipc {

/// Capped exponential backoff with multiplicative jitter. delay(k) for
/// attempt k (0-based) is base * 2^k clamped to `cap`, scaled by a
/// deterministic jitter factor in [1 - jitter, 1 + jitter] derived from
/// (seed, k) -- reproducible per worker, decorrelated across workers.
struct BackoffPolicy {
  std::chrono::milliseconds base{10};
  std::chrono::milliseconds cap{500};
  double jitter = 0.2;

  std::chrono::milliseconds delay(std::uint32_t attempt,
                                  std::uint64_t seed) const;
};

/// A 64-bit session nonce: unique per worker incarnation (pid, a
/// process-wide counter, and wall-clock entropy mixed through SplitMix64).
/// Never 0 -- 0 is the "no session" sentinel.
std::uint64_t generate_session_nonce();

/// Rank 0's membership view: which worker ranks are live participants of
/// the shard partition. Rank 0 itself is always participant 0.
class MembershipTracker {
 public:
  explicit MembershipTracker(std::uint32_t world_size);

  /// Adds a worker rank to the live set (no-op when already live).
  /// Returns true when the view changed.
  bool admit(std::uint32_t rank);
  /// Removes a worker rank from the live set (death or departure).
  /// Returns true when the view changed.
  bool remove(std::uint32_t rank);

  bool is_live(std::uint32_t rank) const;
  /// Live participants in assignment order: rank 0 first, then live
  /// worker ranks ascending.
  const std::vector<std::uint32_t>& participants() const {
    return participants_;
  }
  /// Bumped on every successful admit/remove; lets the trainer tell
  /// assignments from different views apart.
  std::uint32_t view_epoch() const { return view_epoch_; }

  /// Shard range [begin, end) of participant index `i` (not rank!) under
  /// the current view: the shard_row_range rule over participants, so
  /// every shard is owned by exactly one live rank.
  std::pair<std::uint32_t, std::uint32_t> assignment(
      std::uint32_t num_shards, std::uint32_t participant_index) const;

 private:
  std::uint32_t world_size_;
  std::vector<std::uint8_t> live_;
  std::vector<std::uint32_t> participants_;
  std::uint32_t view_epoch_ = 0;

  void rebuild_participants();
};

/// One scripted membership change, applied when rank 0 reaches the tree-`
/// tree` boundary (kJoin: a fresh worker incarnation for `rank` connects)
/// or when worker `rank` reaches it (kKill: abrupt close, no goodbye;
/// kHang: goes silent but keeps the connection open -- the half-open
/// case only the liveness deadline can catch).
struct ChurnEvent {
  enum class Kind : std::uint8_t { kKill = 0, kHang, kJoin };
  Kind kind = Kind::kKill;
  std::uint32_t rank = 0;
  std::uint32_t tree = 0;
};

/// "kill:<rank>@<tree>,hang:<rank>@<tree>,join:<rank>@<tree>" -- the
/// churn grammar of bench_distributed and the elastic tests.
/// Whitespace-free; empty string parses to an empty schedule.
struct ChurnSchedule {
  std::vector<ChurnEvent> events;

  static std::optional<ChurnSchedule> parse(std::string_view text);
  std::string to_string() const;

  bool empty() const { return events.empty(); }
};

}  // namespace booster::ipc
