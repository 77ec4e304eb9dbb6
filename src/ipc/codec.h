// Wire format of the cross-process training protocol (gbdt::
// DistributedTrainer): a versioned, length-prefixed, checksummed frame
// carrying one typed message -- per-node shard histograms, split decisions,
// finished trees, per-tree loss terms, and the control traffic of the
// retry protocol (ipc::ReliableChannel).
//
// The layout is *golden*: every integer and every IEEE-754 double is
// serialized little-endian byte by byte (doubles as their uint64 bit
// pattern), so histograms and split decisions cross the wire bit-exactly
// -- the property the distributed trainer's bit-identity contract rests on
// -- and the byte stream is identical on every host. tests/test_ipc_codec.cc
// pins the layout against literal byte arrays.
//
// Frame layout (kHeaderBytes = 24, all little-endian):
//   [0..3]   magic 'B' 'S' 'T' 'R'
//   [4..5]   wire version (kWireVersion)
//   [6]      message type (MessageType)
//   [7]      reserved (0)
//   [8..15]  sequence number (assigned by ReliableChannel; 0 = control)
//   [16..19] payload length in bytes
//   [20..23] CRC-32 (IEEE reflected, poly 0xEDB88320) over header bytes
//            [0..19] followed by the payload -- the checksum covers the
//            sequence number and type, not just the payload bytes
//   [24..]   payload
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "gbdt/histogram.h"
#include "gbdt/split.h"
#include "gbdt/tree.h"

namespace booster::ipc {

inline constexpr std::uint8_t kMagic[4] = {'B', 'S', 'T', 'R'};
inline constexpr std::uint16_t kWireVersion = 1;
inline constexpr std::size_t kHeaderBytes = 24;
/// Upper bound on a frame's payload: large enough for any realistic
/// histogram (a 10k-bin histogram is ~240 KiB), small enough that a
/// corrupted length field is rejected before anyone allocates gigabytes.
inline constexpr std::uint32_t kMaxPayloadBytes = 1u << 28;

/// CRC-32 (IEEE 802.3 reflected polynomial) over `bytes`.
std::uint32_t crc32(std::span<const std::uint8_t> bytes);

enum class MessageType : std::uint8_t {
  /// Worker -> rank 0: one shard's histogram for the current build point.
  kShardHistogram = 1,
  /// Rank 0 -> worker: the find_best outcome for the head frontier node.
  kSplitDecision = 2,
  /// Rank 0 -> worker: the finished tree (structure + weights + gains).
  kTreeComplete = 3,
  /// Worker -> rank 0: per-group hop and quantized-loss sums for one tree.
  kShardSummary = 4,
  /// Rank 0 -> worker: per-tree loss + the step-6 continue/stop decision.
  kTreeVerdict = 5,
  /// Worker -> rank 0: confirms the final assignment arrived.
  /// The shutdown barrier: rank 0 keeps servicing re-requests until every
  /// live worker confirms, so a lost *tail* frame (the one message with
  /// no successor) still heals instead of stranding the worker.
  kGoodbye = 6,
  /// Rank 0 -> worker: the worker's shard range for one tree
  /// under the current membership view -- or, with final_assign set, the
  /// end-of-training signal.
  kShardAssign = 7,
  /// Rank 0 -> admitted worker: every finished tree (warm-start trees
  /// first) plus its per-tree loss, so the worker replays the model and
  /// enters the protocol at the current boundary.
  kCatchUp = 8,
  /// Control (ReliableChannel): re-request of frames from a sequence
  /// number on. Never carries a data sequence number itself.
  kNack = 0xf0,
  /// Control (ReliableChannel): sign of life while blocked in recv.
  /// Carries no payload and no sequence number; receiving one refreshes
  /// the peer's liveness deadline and nothing else.
  kHeartbeat = 0xf1,
};

const char* message_type_name(MessageType type);

/// Why a frame failed to decode. The classes are distinct on purpose: the
/// fault-injection tests assert that every corruption mode is diagnosed as
/// itself, not as a generic failure.
enum class DecodeStatus : std::uint8_t {
  kOk = 0,
  kTruncated,    // shorter than the header or the declared payload
  kBadMagic,     // first four bytes are not 'BSTR'
  kBadVersion,   // version field != kWireVersion
  kBadLength,    // declared payload length exceeds kMaxPayloadBytes
  kBadChecksum,  // payload CRC mismatch
  kTrailing,     // bytes beyond the declared payload (framing error)
};

const char* decode_status_name(DecodeStatus status);

/// One decoded frame.
struct Frame {
  MessageType type = MessageType::kNack;
  std::uint64_t seq = 0;
  std::vector<std::uint8_t> payload;
};

/// Little-endian byte writer (append-only). All multi-byte quantities in
/// the wire format go through these helpers, never through memcpy of host
/// structs -- the layout must not depend on host endianness or padding.
/// The one block path, the histogram bins, copies raw doubles only where a
/// static_assert pins the host to little-endian IEEE doubles, so its bytes
/// equal f64()'s.
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<std::uint8_t>* out) : out_(out) {}

  /// Grows the output by `n` bytes (one resize) and returns where they
  /// start, for a block copy; valid until the next write.
  std::uint8_t* append(std::size_t n);

  void u8(std::uint8_t v) { out_->push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  /// IEEE-754 double as its uint64 bit pattern: bit-exact round-trips.
  void f64(double v);

 private:
  std::vector<std::uint8_t>* out_;
};

/// Little-endian byte reader over a payload span. Reads past the end set a
/// sticky failure flag instead of touching out-of-range memory; callers
/// check ok() once at the end (the frame CRC already vouches for content,
/// so a failed read means a protocol bug or a version mismatch).
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  double f64();
  /// The next `n` bytes as one block, or nullptr (setting the failure
  /// flag) when fewer remain.
  const std::uint8_t* take(std::size_t n);

  bool ok() const { return ok_; }
  /// True when every payload byte was consumed (and no read overran).
  bool exhausted() const { return ok_ && pos_ == bytes_.size(); }
  /// Unconsumed bytes -- lets decoders sanity-check an element count
  /// against the space it would need before allocating.
  std::size_t remaining() const { return ok_ ? bytes_.size() - pos_ : 0; }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// ---------------------------------------------------------------- payloads

/// Worker -> rank 0 shard histogram header: which (tree, build point,
/// shard) the bins belong to. The bins themselves decode into a caller's
/// same-shape histogram (decode_shard_histogram_into). build_seq is the
/// per-tree build counter both sides advance in lock step; a mismatch
/// means the protocol lost sync and is a loud error, not a retryable fault.
struct ShardHistogramMsg {
  std::uint32_t tree = 0;
  std::uint32_t build_seq = 0;
  std::uint32_t shard = 0;
};

/// Rank 0 -> worker split decision for one popped frontier node.
struct SplitDecisionMsg {
  std::uint32_t tree = 0;
  std::uint32_t decision_seq = 0;
  bool has_split = false;
  gbdt::SplitInfo split;
};

struct TreeCompleteMsg {
  std::uint32_t tree = 0;
  std::vector<gbdt::TreeNode> nodes;
};

struct ShardSummaryMsg {
  std::uint32_t tree = 0;
  std::uint32_t shard_begin = 0;
  std::uint32_t shard_end = 0;
  double hops = 0.0;
  double quantized_loss = 0.0;
};

struct TreeVerdictMsg {
  std::uint32_t tree = 0;
  double train_loss = 0.0;
  bool stop_training = false;
  bool early_stopped = false;
};

/// Rank 0 -> worker shard assignment for one tree boundary (any
/// membership rule). With final_assign set, tree is one past the last trained
/// tree, the range is empty, and early_stopped carries the run verdict --
/// the worker's cue to send its goodbye and return.
struct ShardAssignMsg {
  std::uint32_t tree = 0;
  std::uint32_t view_epoch = 0;
  std::uint32_t num_shards = 0;
  std::uint32_t shard_begin = 0;
  std::uint32_t shard_end = 0;
  bool final_assign = false;
  bool early_stopped = false;
};

/// Rank 0 -> joining worker: the finished prefix of the model. One entry
/// per tree, in training order.
struct CatchUpMsg {
  struct TreeEntry {
    std::vector<gbdt::TreeNode> nodes;
    double train_loss = 0.0;
  };
  std::vector<TreeEntry> trees;
};

/// Encoder/decoder of the distributed-training wire format. Frame-level
/// encode/decode is symmetric (encode -> decode is the identity); payload
/// codecs are fixpoints on their message structs, bit for bit.
class HistogramCodec {
 public:
  /// Assembles a complete frame (header + payload) ready for a Transport.
  static std::vector<std::uint8_t> encode_frame(
      MessageType type, std::uint64_t seq,
      std::span<const std::uint8_t> payload);

  /// Validates and splits a frame. On kOk fills *out; any other status
  /// leaves *out unspecified.
  static DecodeStatus decode_frame(std::span<const std::uint8_t> frame,
                                   Frame* out);

  // -- payload encoders (append to *out) and decoders (read via reader).
  // Decoders return false when the payload does not parse or does not use
  // every byte; they never abort, so corrupt-but-checksum-valid payloads
  // (a protocol-version bug, not line noise) surface as errors.

  static void encode_histogram(const gbdt::Histogram& h,
                               std::vector<std::uint8_t>* out);
  /// Decodes into an existing histogram whose shape must match the
  /// encoded one -- the receiver decodes into pooled buffers, so the
  /// merge rank stays allocation-free in steady state.
  static bool decode_histogram_into(ByteReader& r, gbdt::Histogram* out);

  /// The shard-histogram payload: the ShardHistogramMsg header, then the
  /// encode_histogram bytes of `histogram` (the golden-pinned layout).
  static std::vector<std::uint8_t> encode_shard_histogram(
      std::uint32_t tree, std::uint32_t build_seq, std::uint32_t shard,
      const gbdt::Histogram& histogram);
  /// Fills the header fields of *out and decodes the bins into *into
  /// (shape-checked, as decode_histogram_into).
  static bool decode_shard_histogram_into(std::span<const std::uint8_t> payload,
                                          ShardHistogramMsg* out,
                                          gbdt::Histogram* into);

  static std::vector<std::uint8_t> encode_split_decision(
      const SplitDecisionMsg& msg);
  static bool decode_split_decision(std::span<const std::uint8_t> payload,
                                    SplitDecisionMsg* out);

  static std::vector<std::uint8_t> encode_tree_complete(
      const TreeCompleteMsg& msg);
  static bool decode_tree_complete(std::span<const std::uint8_t> payload,
                                   TreeCompleteMsg* out);

  static std::vector<std::uint8_t> encode_shard_summary(
      const ShardSummaryMsg& msg);
  static bool decode_shard_summary(std::span<const std::uint8_t> payload,
                                   ShardSummaryMsg* out);

  static std::vector<std::uint8_t> encode_tree_verdict(
      const TreeVerdictMsg& msg);
  static bool decode_tree_verdict(std::span<const std::uint8_t> payload,
                                  TreeVerdictMsg* out);

  static std::vector<std::uint8_t> encode_shard_assign(
      const ShardAssignMsg& msg);
  static bool decode_shard_assign(std::span<const std::uint8_t> payload,
                                  ShardAssignMsg* out);

  static std::vector<std::uint8_t> encode_catch_up(const CatchUpMsg& msg);
  static bool decode_catch_up(std::span<const std::uint8_t> payload,
                              CatchUpMsg* out);

  /// Encoded size of one histogram payload of `h`'s shape -- what one
  /// shard merge moves over the wire (bench_sharded's merge-bytes column).
  static std::uint64_t encoded_histogram_bytes(const gbdt::Histogram& h);
};

}  // namespace booster::ipc
