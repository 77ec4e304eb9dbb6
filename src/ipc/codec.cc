#include "ipc/codec.h"

#include <array>
#include <bit>
#include <cstring>
#include <limits>

#include "util/check.h"

namespace booster::ipc {

namespace {

/// CRC-32 lookup table for the reflected IEEE polynomial, built once.
std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

namespace {

std::uint32_t crc32_update(std::uint32_t c, std::span<const std::uint8_t> bytes) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  for (const std::uint8_t b : bytes) {
    c = table[(c ^ b) & 0xffu] ^ (c >> 8);
  }
  return c;
}

/// Frame checksum: all header bytes before the CRC field itself, then the
/// payload. Covering the header means a bit flip in the *sequence number*
/// (or type, or length) is caught exactly like one in the payload --
/// otherwise a corrupted seq could poison the receiver's reorder buffer
/// with a frame that later delivers in the wrong slot.
std::uint32_t frame_crc(std::span<const std::uint8_t> frame) {
  std::uint32_t c = 0xffffffffu;
  c = crc32_update(c, frame.subspan(0, 20));
  c = crc32_update(c, frame.subspan(kHeaderBytes));
  return c ^ 0xffffffffu;
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> bytes) {
  return crc32_update(0xffffffffu, bytes) ^ 0xffffffffu;
}

const char* message_type_name(MessageType type) {
  switch (type) {
    case MessageType::kShardHistogram: return "shard-histogram";
    case MessageType::kSplitDecision: return "split-decision";
    case MessageType::kTreeComplete: return "tree-complete";
    case MessageType::kShardSummary: return "shard-summary";
    case MessageType::kTreeVerdict: return "tree-verdict";
    case MessageType::kGoodbye: return "goodbye";
    case MessageType::kShardAssign: return "shard-assign";
    case MessageType::kCatchUp: return "catch-up";
    case MessageType::kNack: return "nack";
    case MessageType::kHeartbeat: return "heartbeat";
  }
  return "unknown";
}

const char* decode_status_name(DecodeStatus status) {
  switch (status) {
    case DecodeStatus::kOk: return "ok";
    case DecodeStatus::kTruncated: return "truncated";
    case DecodeStatus::kBadMagic: return "bad-magic";
    case DecodeStatus::kBadVersion: return "bad-version";
    case DecodeStatus::kBadLength: return "bad-length";
    case DecodeStatus::kBadChecksum: return "bad-checksum";
    case DecodeStatus::kTrailing: return "trailing-bytes";
  }
  return "unknown";
}

void ByteWriter::u16(std::uint16_t v) {
  out_->push_back(static_cast<std::uint8_t>(v));
  out_->push_back(static_cast<std::uint8_t>(v >> 8));
}

void ByteWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out_->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void ByteWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out_->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void ByteWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

std::uint8_t* ByteWriter::append(std::size_t n) {
  const std::size_t at = out_->size();
  out_->resize(at + n);
  return out_->data() + at;
}

std::uint8_t ByteReader::u8() {
  if (pos_ + 1 > bytes_.size()) {
    ok_ = false;
    return 0;
  }
  return bytes_[pos_++];
}

std::uint16_t ByteReader::u16() {
  if (pos_ + 2 > bytes_.size()) {
    ok_ = false;
    return 0;
  }
  std::uint16_t v = 0;
  for (int i = 0; i < 2; ++i) {
    v = static_cast<std::uint16_t>(v | (static_cast<std::uint16_t>(bytes_[pos_++]) << (8 * i)));
  }
  return v;
}

std::uint32_t ByteReader::u32() {
  if (pos_ + 4 > bytes_.size()) {
    ok_ = false;
    return 0;
  }
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(bytes_[pos_++]) << (8 * i);
  }
  return v;
}

std::uint64_t ByteReader::u64() {
  if (pos_ + 8 > bytes_.size()) {
    ok_ = false;
    return 0;
  }
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(bytes_[pos_++]) << (8 * i);
  }
  return v;
}

double ByteReader::f64() { return std::bit_cast<double>(u64()); }

const std::uint8_t* ByteReader::take(std::size_t n) {
  if (!ok_ || n > bytes_.size() - pos_) {
    ok_ = false;
    return nullptr;
  }
  const std::uint8_t* at = bytes_.data() + pos_;
  pos_ += n;
  return at;
}

std::vector<std::uint8_t> HistogramCodec::encode_frame(
    MessageType type, std::uint64_t seq,
    std::span<const std::uint8_t> payload) {
  BOOSTER_CHECK_MSG(payload.size() <= kMaxPayloadBytes,
                    "ipc frame payload exceeds kMaxPayloadBytes");
  std::vector<std::uint8_t> frame;
  frame.reserve(kHeaderBytes + payload.size());
  ByteWriter w(&frame);
  for (const std::uint8_t m : kMagic) w.u8(m);
  w.u16(kWireVersion);
  w.u8(static_cast<std::uint8_t>(type));
  w.u8(0);  // reserved
  w.u64(seq);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u32(0);  // CRC placeholder, patched below
  frame.insert(frame.end(), payload.begin(), payload.end());
  const std::uint32_t crc = frame_crc(frame);
  for (int i = 0; i < 4; ++i) {
    frame[20 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
  return frame;
}

DecodeStatus HistogramCodec::decode_frame(std::span<const std::uint8_t> frame,
                                          Frame* out) {
  if (frame.size() < kHeaderBytes) return DecodeStatus::kTruncated;
  for (int i = 0; i < 4; ++i) {
    if (frame[i] != kMagic[i]) return DecodeStatus::kBadMagic;
  }
  ByteReader r(frame.subspan(4));
  const std::uint16_t version = r.u16();
  const std::uint8_t type = r.u8();
  r.u8();  // reserved
  const std::uint64_t seq = r.u64();
  const std::uint32_t payload_len = r.u32();
  const std::uint32_t crc = r.u32();
  if (version != kWireVersion) return DecodeStatus::kBadVersion;
  if (payload_len > kMaxPayloadBytes) return DecodeStatus::kBadLength;
  if (frame.size() < kHeaderBytes + payload_len) return DecodeStatus::kTruncated;
  if (frame.size() > kHeaderBytes + payload_len) return DecodeStatus::kTrailing;
  const auto payload = frame.subspan(kHeaderBytes, payload_len);
  if (frame_crc(frame) != crc) return DecodeStatus::kBadChecksum;
  out->type = static_cast<MessageType>(type);
  out->seq = seq;
  out->payload.assign(payload.begin(), payload.end());
  return DecodeStatus::kOk;
}

namespace {

// A bin travels as its {count, g, h} doubles, 8 little-endian bytes each --
// f64()'s bytes, which on a little-endian IEEE host are the doubles' own
// bytes. So a bin is one 24-byte copy of the three adjacent members.
static_assert(std::endian::native == std::endian::little &&
                  std::numeric_limits<double>::is_iec559,
              "the histogram block copy assumes little-endian IEEE doubles");
constexpr std::size_t kWireBinBytes = 24;

/// Copies the bins of every field of `h` into `dst` (total_bins() * 24
/// bytes).
void copy_bins_out(const gbdt::Histogram& h, std::uint8_t* dst) {
  for (std::uint32_t f = 0; f < h.num_fields(); ++f) {
    for (const gbdt::BinStats& b : h.field(f)) {
      std::memcpy(dst, &b.count, 8);
      std::memcpy(dst + 8, &b.g, 8);
      std::memcpy(dst + 16, &b.h, 8);
      dst += kWireBinBytes;
    }
  }
}

/// Overwrites every bin's {count, g, h} of `h` from `src`; pads untouched.
void copy_bins_in(const std::uint8_t* src, gbdt::Histogram* h) {
  for (std::uint32_t f = 0; f < h->num_fields(); ++f) {
    for (gbdt::BinStats& b : h->mutable_field(f)) {
      std::memcpy(&b.count, src, 8);
      std::memcpy(&b.g, src + 8, 8);
      std::memcpy(&b.h, src + 16, 8);
      src += kWireBinBytes;
    }
  }
}

}  // namespace

void HistogramCodec::encode_histogram(const gbdt::Histogram& h,
                                      std::vector<std::uint8_t>* out) {
  ByteWriter w(out);
  const std::uint32_t num_fields = h.num_fields();
  w.u32(num_fields);
  for (std::uint32_t f = 0; f < num_fields; ++f) {
    w.u32(static_cast<std::uint32_t>(h.field(f).size()));
  }
  copy_bins_out(h, w.append(h.total_bins() * kWireBinBytes));
}

bool HistogramCodec::decode_histogram(ByteReader& r, gbdt::Histogram* out) {
  const std::uint32_t num_fields = r.u32();
  // A corrupt-free payload always fits the declared field count; guard the
  // multiplication anyway so a protocol bug cannot request a huge resize.
  if (!r.ok() || num_fields > (1u << 20)) return false;
  std::vector<std::uint32_t> bins_per_field(num_fields);
  std::uint64_t total_bins = 0;
  for (std::uint32_t f = 0; f < num_fields; ++f) {
    bins_per_field[f] = r.u32();
    total_bins += bins_per_field[f];
  }
  if (!r.ok() || total_bins * kWireBinBytes > kMaxPayloadBytes) return false;
  const std::uint8_t* bins = r.take(total_bins * kWireBinBytes);
  if (bins == nullptr) return false;
  *out = gbdt::Histogram(bins_per_field);
  copy_bins_in(bins, out);
  return true;
}

bool HistogramCodec::decode_histogram_into(ByteReader& r,
                                           gbdt::Histogram* out) {
  const std::uint32_t num_fields = r.u32();
  if (!r.ok() || num_fields != out->num_fields()) return false;
  for (std::uint32_t f = 0; f < num_fields; ++f) {
    if (r.u32() != out->field(f).size()) return false;
  }
  if (!r.ok()) return false;
  const std::uint8_t* bins = r.take(out->total_bins() * kWireBinBytes);
  if (bins == nullptr) return false;
  copy_bins_in(bins, out);
  return true;
}

std::vector<std::uint8_t> HistogramCodec::encode_shard_histogram(
    const ShardHistogramMsg& msg) {
  return encode_shard_histogram(msg.tree, msg.build_seq, msg.shard,
                                msg.histogram);
}

std::vector<std::uint8_t> HistogramCodec::encode_shard_histogram(
    std::uint32_t tree, std::uint32_t build_seq, std::uint32_t shard,
    const gbdt::Histogram& histogram) {
  std::vector<std::uint8_t> out;
  ByteWriter w(&out);
  w.u32(tree);
  w.u32(build_seq);
  w.u32(shard);
  encode_histogram(histogram, &out);
  return out;
}

bool HistogramCodec::decode_shard_histogram(
    std::span<const std::uint8_t> payload, ShardHistogramMsg* out) {
  ByteReader r(payload);
  out->tree = r.u32();
  out->build_seq = r.u32();
  out->shard = r.u32();
  if (!decode_histogram(r, &out->histogram)) return false;
  return r.exhausted();
}

bool HistogramCodec::decode_shard_histogram_into(
    std::span<const std::uint8_t> payload, ShardHistogramMsg* out,
    gbdt::Histogram* into) {
  ByteReader r(payload);
  out->tree = r.u32();
  out->build_seq = r.u32();
  out->shard = r.u32();
  if (!decode_histogram_into(r, into)) return false;
  return r.exhausted();
}

namespace {

void encode_split_info(ByteWriter& w, const gbdt::SplitInfo& s) {
  w.u32(s.field);
  w.u8(static_cast<std::uint8_t>(s.kind));
  w.u16(s.threshold_bin);
  w.u8(s.default_left ? 1 : 0);
  w.f64(s.gain);
  for (const gbdt::BinStats* b : {&s.left, &s.right}) {
    w.f64(b->count);
    w.f64(b->g);
    w.f64(b->h);
  }
}

bool decode_split_info(ByteReader& r, gbdt::SplitInfo* s) {
  s->field = r.u32();
  const std::uint8_t kind = r.u8();
  if (kind > static_cast<std::uint8_t>(gbdt::PredicateKind::kCategoryEqual)) {
    return false;
  }
  s->kind = static_cast<gbdt::PredicateKind>(kind);
  s->threshold_bin = r.u16();
  s->default_left = r.u8() != 0;
  s->gain = r.f64();
  for (gbdt::BinStats* b : {&s->left, &s->right}) {
    b->count = r.f64();
    b->g = r.f64();
    b->h = r.f64();
  }
  return r.ok();
}

}  // namespace

std::vector<std::uint8_t> HistogramCodec::encode_split_decision(
    const SplitDecisionMsg& msg) {
  std::vector<std::uint8_t> out;
  ByteWriter w(&out);
  w.u32(msg.tree);
  w.u32(msg.decision_seq);
  w.u8(msg.has_split ? 1 : 0);
  if (msg.has_split) encode_split_info(w, msg.split);
  return out;
}

bool HistogramCodec::decode_split_decision(
    std::span<const std::uint8_t> payload, SplitDecisionMsg* out) {
  ByteReader r(payload);
  out->tree = r.u32();
  out->decision_seq = r.u32();
  out->has_split = r.u8() != 0;
  if (out->has_split && !decode_split_info(r, &out->split)) return false;
  return r.exhausted();
}

namespace {

/// One tree's node list: count-prefixed, 37 bytes per node. Shared by
/// kTreeComplete and kCatchUp so the golden node layout exists once.
void write_tree_nodes(const std::vector<gbdt::TreeNode>& nodes,
                      ByteWriter* w) {
  w->u32(static_cast<std::uint32_t>(nodes.size()));
  for (const gbdt::TreeNode& n : nodes) {
    w->u8(n.is_leaf ? 1 : 0);
    w->u8(static_cast<std::uint8_t>(n.kind));
    w->u16(n.threshold_bin);
    w->u32(n.field);
    w->u8(n.default_left ? 1 : 0);
    w->i32(n.left);
    w->i32(n.right);
    w->i32(n.depth);
    w->f64(n.weight);
    w->f64(n.gain);
  }
}

bool read_tree_nodes(ByteReader& r, std::vector<gbdt::TreeNode>* nodes) {
  const std::uint32_t count = r.u32();
  // Each node encodes to 37 bytes, so a count the payload cannot hold is
  // rejected before the allocation, not after a huge assign.
  if (!r.ok() || count > r.remaining() / 37) return false;
  nodes->assign(count, gbdt::TreeNode{});
  for (gbdt::TreeNode& n : *nodes) {
    n.is_leaf = r.u8() != 0;
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(gbdt::PredicateKind::kCategoryEqual)) {
      return false;
    }
    n.kind = static_cast<gbdt::PredicateKind>(kind);
    n.threshold_bin = r.u16();
    n.field = r.u32();
    n.default_left = r.u8() != 0;
    n.left = r.i32();
    n.right = r.i32();
    n.depth = r.i32();
    n.weight = r.f64();
    n.gain = r.f64();
  }
  return r.ok();
}

}  // namespace

std::vector<std::uint8_t> HistogramCodec::encode_tree_complete(
    const TreeCompleteMsg& msg) {
  std::vector<std::uint8_t> out;
  ByteWriter w(&out);
  w.u32(msg.tree);
  write_tree_nodes(msg.nodes, &w);
  return out;
}

bool HistogramCodec::decode_tree_complete(std::span<const std::uint8_t> payload,
                                          TreeCompleteMsg* out) {
  ByteReader r(payload);
  out->tree = r.u32();
  if (!read_tree_nodes(r, &out->nodes)) return false;
  return r.exhausted();
}

std::vector<std::uint8_t> HistogramCodec::encode_shard_summary(
    const ShardSummaryMsg& msg) {
  std::vector<std::uint8_t> out;
  ByteWriter w(&out);
  w.u32(msg.tree);
  w.u32(msg.shard_begin);
  w.u32(msg.shard_end);
  w.f64(msg.hops);
  w.f64(msg.quantized_loss);
  return out;
}

bool HistogramCodec::decode_shard_summary(std::span<const std::uint8_t> payload,
                                          ShardSummaryMsg* out) {
  ByteReader r(payload);
  out->tree = r.u32();
  out->shard_begin = r.u32();
  out->shard_end = r.u32();
  out->hops = r.f64();
  out->quantized_loss = r.f64();
  return r.exhausted();
}

std::vector<std::uint8_t> HistogramCodec::encode_tree_verdict(
    const TreeVerdictMsg& msg) {
  std::vector<std::uint8_t> out;
  ByteWriter w(&out);
  w.u32(msg.tree);
  w.f64(msg.train_loss);
  w.u8(msg.stop_training ? 1 : 0);
  w.u8(msg.early_stopped ? 1 : 0);
  return out;
}

bool HistogramCodec::decode_tree_verdict(std::span<const std::uint8_t> payload,
                                         TreeVerdictMsg* out) {
  ByteReader r(payload);
  out->tree = r.u32();
  out->train_loss = r.f64();
  out->stop_training = r.u8() != 0;
  out->early_stopped = r.u8() != 0;
  return r.exhausted();
}

std::vector<std::uint8_t> HistogramCodec::encode_shard_assign(
    const ShardAssignMsg& msg) {
  std::vector<std::uint8_t> out;
  ByteWriter w(&out);
  w.u32(msg.tree);
  w.u32(msg.view_epoch);
  w.u32(msg.num_shards);
  w.u32(msg.shard_begin);
  w.u32(msg.shard_end);
  w.u8(msg.final_assign ? 1 : 0);
  w.u8(msg.early_stopped ? 1 : 0);
  return out;
}

bool HistogramCodec::decode_shard_assign(std::span<const std::uint8_t> payload,
                                         ShardAssignMsg* out) {
  ByteReader r(payload);
  out->tree = r.u32();
  out->view_epoch = r.u32();
  out->num_shards = r.u32();
  out->shard_begin = r.u32();
  out->shard_end = r.u32();
  out->final_assign = r.u8() != 0;
  out->early_stopped = r.u8() != 0;
  return r.exhausted() && out->shard_begin <= out->shard_end &&
         out->shard_end <= out->num_shards;
}

std::vector<std::uint8_t> HistogramCodec::encode_catch_up(
    const CatchUpMsg& msg) {
  std::vector<std::uint8_t> out;
  ByteWriter w(&out);
  w.u32(static_cast<std::uint32_t>(msg.trees.size()));
  for (const CatchUpMsg::TreeEntry& entry : msg.trees) {
    write_tree_nodes(entry.nodes, &w);
    w.f64(entry.train_loss);
  }
  return out;
}

bool HistogramCodec::decode_catch_up(std::span<const std::uint8_t> payload,
                                     CatchUpMsg* out) {
  ByteReader r(payload);
  const std::uint32_t count = r.u32();
  // Every tree entry needs at least its node count and loss (12 bytes).
  if (!r.ok() || count > r.remaining() / 12) return false;
  out->trees.assign(count, CatchUpMsg::TreeEntry{});
  for (CatchUpMsg::TreeEntry& entry : out->trees) {
    if (!read_tree_nodes(r, &entry.nodes)) return false;
    entry.train_loss = r.f64();
  }
  return r.exhausted();
}

std::uint64_t HistogramCodec::encoded_histogram_bytes(
    const gbdt::Histogram& h) {
  return 4 + 4ull * h.num_fields() + 24ull * h.total_bins();
}

}  // namespace booster::ipc
