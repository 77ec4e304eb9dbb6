// Property and golden tests of the distributed-training wire format
// (ipc::HistogramCodec). Three layers of guarantee:
//   * encode -> decode is a *fixpoint* on randomized histograms -- prime
//     bin counts, zero/negative/denormal gradient sums, values at the
//     quantized-exact capacity -- compared bit for bit (doubles via their
//     uint64 patterns, so -0.0 and denormals cannot hide);
//   * the byte layout is pinned against a literal golden frame: any
//     accidental layout change (endianness, field order, header size,
//     checksum definition) fails loudly instead of silently versioning;
//   * every malformed-frame class is rejected with its own distinct
//     DecodeStatus -- truncated, oversized, bad checksum, bad version,
//     bad magic, trailing bytes -- which is what the retry protocol's
//     diagnostics (and the fault-injection tests) key off.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "gbdt/histogram.h"
#include "ipc/codec.h"
#include "util/rng.h"

namespace booster::ipc {
namespace {

using gbdt::BinStats;
using gbdt::Histogram;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_histograms_bit_equal(const Histogram& a, const Histogram& b) {
  ASSERT_EQ(a.num_fields(), b.num_fields());
  for (std::uint32_t f = 0; f < a.num_fields(); ++f) {
    ASSERT_EQ(a.field(f).size(), b.field(f).size()) << "field " << f;
    for (std::size_t i = 0; i < a.field(f).size(); ++i) {
      EXPECT_EQ(bits(a.field(f)[i].count), bits(b.field(f)[i].count))
          << "field " << f << " bin " << i;
      EXPECT_EQ(bits(a.field(f)[i].g), bits(b.field(f)[i].g))
          << "field " << f << " bin " << i;
      EXPECT_EQ(bits(a.field(f)[i].h), bits(b.field(f)[i].h))
          << "field " << f << " bin " << i;
    }
  }
}

TEST(IpcCodec, FrameEncodeDecodeIsFixpoint) {
  const std::vector<std::uint8_t> payload = {1, 2, 3, 0xff, 0, 42};
  const auto frame =
      HistogramCodec::encode_frame(MessageType::kSplitDecision, 12345, payload);
  EXPECT_EQ(frame.size(), kHeaderBytes + payload.size());
  Frame out;
  ASSERT_EQ(HistogramCodec::decode_frame(frame, &out), DecodeStatus::kOk);
  EXPECT_EQ(out.type, MessageType::kSplitDecision);
  EXPECT_EQ(out.seq, 12345u);
  EXPECT_EQ(out.payload, payload);
}

TEST(IpcCodec, EmptyPayloadFrameRoundTrips) {
  const auto frame =
      HistogramCodec::encode_frame(MessageType::kGoodbye, 1, {});
  Frame out;
  ASSERT_EQ(HistogramCodec::decode_frame(frame, &out), DecodeStatus::kOk);
  EXPECT_EQ(out.type, MessageType::kGoodbye);
  EXPECT_TRUE(out.payload.empty());
}

TEST(IpcCodec, HistogramEncodeDecodeFixpointOnRandomizedShapes) {
  util::Rng rng(20260728);
  // Prime bin counts on purpose: no power-of-two alignment accident can
  // make a layout bug invisible.
  const std::vector<std::vector<std::uint32_t>> shapes = {
      {2}, {7, 13}, {31, 2, 5}, {3, 3, 3, 3, 101}, {257, 11}};
  for (const auto& shape : shapes) {
    Histogram h(shape);
    for (std::uint32_t f = 0; f < h.num_fields(); ++f) {
      for (BinStats& b : h.mutable_field(f)) {
        b.count = static_cast<double>(rng.next_below(1000));
        b.g = gbdt::quantize_stat(rng.uniform(-100.0, 100.0));
        b.h = gbdt::quantize_stat(rng.uniform(0.0, 100.0));
      }
    }
    // Edge values in fixed bins: zero, negative zero, denormal, the
    // quantized-exact capacity, and a max-magnitude negative sum.
    h.mutable_field(0)[0] = BinStats{0.0, -0.0, 4.9406564584124654e-324};
    h.mutable_field(0)[shape[0] - 1] =
        BinStats{9007199254740992.0, gbdt::kStatSumCapacity,
                 -gbdt::kStatSumCapacity};

    std::vector<std::uint8_t> payload;
    HistogramCodec::encode_histogram(h, &payload);
    EXPECT_EQ(payload.size(), HistogramCodec::encoded_histogram_bytes(h));

    ByteReader r(payload);
    Histogram decoded;
    ASSERT_TRUE(HistogramCodec::decode_histogram(r, &decoded));
    EXPECT_TRUE(r.exhausted());
    expect_histograms_bit_equal(h, decoded);

    // The pooled variant decodes into a same-shape buffer...
    Histogram into(shape);
    ByteReader r2(payload);
    ASSERT_TRUE(HistogramCodec::decode_histogram_into(r2, &into));
    expect_histograms_bit_equal(h, into);
    // The pad lane never crosses the wire: decoded bins keep it +0.0.
    for (const Histogram* d : {&decoded, &into}) {
      for (std::uint32_t f = 0; f < d->num_fields(); ++f) {
        for (const BinStats& b : d->field(f)) {
          EXPECT_TRUE(b.pad == 0.0 && !std::signbit(b.pad));
        }
      }
    }
  }
  // ...and rejects a shape mismatch instead of writing out of shape.
  Histogram h(std::vector<std::uint32_t>{2, 3});
  std::vector<std::uint8_t> payload;
  HistogramCodec::encode_histogram(h, &payload);
  Histogram wrong_shape(std::vector<std::uint32_t>{3, 2});
  ByteReader r(payload);
  EXPECT_FALSE(HistogramCodec::decode_histogram_into(r, &wrong_shape));
}

TEST(IpcCodec, GoldenFrameLayoutIsPinned) {
  // A shard-histogram frame built from fixed inputs must serialize to
  // exactly these bytes: 'BSTR' magic, version 1, type 1, seq 7, length
  // 0x90, CRC, then {tree=1, build_seq=2, shard=3} and the 2-field
  // [2, 3]-bin histogram, every double little-endian by bit pattern.
  std::vector<std::uint32_t> bins = {2, 3};
  Histogram h(bins);
  h.mutable_field(0)[0] = BinStats{1.0, 0.5, 0.25};
  h.mutable_field(0)[1] = BinStats{2.0, -0.5, 1.0};
  h.mutable_field(1)[0] = BinStats{0.0, 0.0, 0.0};
  h.mutable_field(1)[1] = BinStats{3.0, 1.5, 0.75};
  h.mutable_field(1)[2] = BinStats{1.0, -1.0, 2.0};
  ShardHistogramMsg msg;
  msg.tree = 1;
  msg.build_seq = 2;
  msg.shard = 3;
  msg.histogram = std::move(h);
  const auto frame = HistogramCodec::encode_frame(
      MessageType::kShardHistogram, 7,
      HistogramCodec::encode_shard_histogram(msg));

  const std::vector<std::uint8_t> golden = {
      0x42, 0x53, 0x54, 0x52, 0x01, 0x00, 0x01, 0x00, 0x07, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x90, 0x00, 0x00, 0x00, 0xb1, 0x7b, 0x23, 0xb5,
      0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
      0x02, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0xe0, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xd0, 0x3f,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x40, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0xe0, 0xbf, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x08, 0x40, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0xf8, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe8, 0x3f,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0xf0, 0xbf, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x40,
  };
  EXPECT_EQ(frame, golden);

  // And the golden bytes decode back to the original message.
  Frame decoded;
  ASSERT_EQ(HistogramCodec::decode_frame(golden, &decoded), DecodeStatus::kOk);
  ShardHistogramMsg out;
  ASSERT_TRUE(HistogramCodec::decode_shard_histogram(decoded.payload, &out));
  EXPECT_EQ(out.tree, 1u);
  EXPECT_EQ(out.build_seq, 2u);
  EXPECT_EQ(out.shard, 3u);
  expect_histograms_bit_equal(out.histogram, msg.histogram);
}

TEST(IpcCodec, MalformedFramesAreRejectedWithDistinctErrors) {
  const std::vector<std::uint8_t> payload = {10, 20, 30, 40};
  const auto good =
      HistogramCodec::encode_frame(MessageType::kShardSummary, 9, payload);
  Frame out;
  ASSERT_EQ(HistogramCodec::decode_frame(good, &out), DecodeStatus::kOk);

  // Truncated: shorter than the header, and shorter than the declared
  // payload.
  for (const std::size_t cut : {std::size_t{0}, std::size_t{5},
                                kHeaderBytes - 1, good.size() - 1}) {
    std::vector<std::uint8_t> frame(good.begin(), good.begin() + cut);
    EXPECT_EQ(HistogramCodec::decode_frame(frame, &out),
              DecodeStatus::kTruncated)
        << "cut at " << cut;
  }

  // Bad magic.
  {
    auto frame = good;
    frame[0] ^= 0xff;
    EXPECT_EQ(HistogramCodec::decode_frame(frame, &out),
              DecodeStatus::kBadMagic);
  }

  // Bad (future) version.
  {
    auto frame = good;
    frame[4] = 0x7f;
    EXPECT_EQ(HistogramCodec::decode_frame(frame, &out),
              DecodeStatus::kBadVersion);
  }

  // Oversized: a length field beyond kMaxPayloadBytes is rejected before
  // any allocation, whatever the actual frame size.
  {
    auto frame = good;
    frame[16] = 0xff;
    frame[17] = 0xff;
    frame[18] = 0xff;
    frame[19] = 0xff;
    EXPECT_EQ(HistogramCodec::decode_frame(frame, &out),
              DecodeStatus::kBadLength);
  }

  // Bad checksum: a single flipped payload bit.
  {
    auto frame = good;
    frame[kHeaderBytes + 1] ^= 0x04;
    EXPECT_EQ(HistogramCodec::decode_frame(frame, &out),
              DecodeStatus::kBadChecksum);
  }

  // Bad checksum: a flipped *header* bit (the sequence number) -- the CRC
  // covers the header, so a corrupted seq cannot poison reordering.
  {
    auto frame = good;
    frame[8] ^= 0x01;
    EXPECT_EQ(HistogramCodec::decode_frame(frame, &out),
              DecodeStatus::kBadChecksum);
  }

  // Trailing bytes beyond the declared payload.
  {
    auto frame = good;
    frame.push_back(0);
    EXPECT_EQ(HistogramCodec::decode_frame(frame, &out),
              DecodeStatus::kTrailing);
  }

  // Every status has a distinct diagnostic name.
  EXPECT_STRNE(decode_status_name(DecodeStatus::kTruncated),
               decode_status_name(DecodeStatus::kBadChecksum));
  EXPECT_STRNE(decode_status_name(DecodeStatus::kBadVersion),
               decode_status_name(DecodeStatus::kBadMagic));
  EXPECT_STRNE(decode_status_name(DecodeStatus::kBadLength),
               decode_status_name(DecodeStatus::kTrailing));
}

TEST(IpcCodec, SplitDecisionRoundTripsBitExactly) {
  SplitDecisionMsg msg;
  msg.tree = 11;
  msg.decision_seq = 42;
  msg.has_split = true;
  msg.split.field = 5;
  msg.split.kind = gbdt::PredicateKind::kCategoryEqual;
  msg.split.threshold_bin = 199;
  msg.split.default_left = true;
  msg.split.gain = 0.1234567890123456789;
  msg.split.left = BinStats{101.0, -3.0000000596046448, 7.25};
  msg.split.right = BinStats{899.0, 2.5, 0.0};
  const auto payload = HistogramCodec::encode_split_decision(msg);
  SplitDecisionMsg out;
  ASSERT_TRUE(HistogramCodec::decode_split_decision(payload, &out));
  EXPECT_EQ(out.tree, msg.tree);
  EXPECT_EQ(out.decision_seq, msg.decision_seq);
  EXPECT_TRUE(out.has_split);
  EXPECT_EQ(out.split.field, msg.split.field);
  EXPECT_EQ(out.split.kind, msg.split.kind);
  EXPECT_EQ(out.split.threshold_bin, msg.split.threshold_bin);
  EXPECT_EQ(out.split.default_left, msg.split.default_left);
  EXPECT_EQ(bits(out.split.gain), bits(msg.split.gain));
  EXPECT_EQ(bits(out.split.left.g), bits(msg.split.left.g));
  EXPECT_EQ(bits(out.split.right.h), bits(msg.split.right.h));

  // The no-split decision is the one-byte-shorter form.
  SplitDecisionMsg leaf;
  leaf.tree = 11;
  leaf.decision_seq = 43;
  leaf.has_split = false;
  const auto leaf_payload = HistogramCodec::encode_split_decision(leaf);
  EXPECT_LT(leaf_payload.size(), payload.size());
  SplitDecisionMsg leaf_out;
  ASSERT_TRUE(HistogramCodec::decode_split_decision(leaf_payload, &leaf_out));
  EXPECT_FALSE(leaf_out.has_split);

  // A truncated payload (CRC-valid but short -- i.e. a protocol bug, not
  // line noise) is rejected, not misread.
  std::vector<std::uint8_t> short_payload(payload.begin(), payload.end() - 3);
  EXPECT_FALSE(HistogramCodec::decode_split_decision(short_payload, &out));
}

TEST(IpcCodec, TreeSummaryAndVerdictRoundTripBitExactly) {
  TreeCompleteMsg tree;
  tree.tree = 3;
  gbdt::TreeNode interior;
  interior.is_leaf = false;
  interior.field = 7;
  interior.kind = gbdt::PredicateKind::kNumericLE;
  interior.threshold_bin = 88;
  interior.default_left = true;
  interior.left = 1;
  interior.right = 2;
  interior.depth = 0;
  interior.gain = 17.125;
  gbdt::TreeNode leaf;
  leaf.is_leaf = true;
  leaf.depth = 1;
  leaf.weight = -0.0625;
  tree.nodes = {interior, leaf, leaf};
  const auto payload = HistogramCodec::encode_tree_complete(tree);
  TreeCompleteMsg tree_out;
  ASSERT_TRUE(HistogramCodec::decode_tree_complete(payload, &tree_out));
  ASSERT_EQ(tree_out.nodes.size(), 3u);
  EXPECT_EQ(tree_out.nodes[0].field, 7u);
  EXPECT_EQ(tree_out.nodes[0].threshold_bin, 88);
  EXPECT_EQ(bits(tree_out.nodes[0].gain), bits(17.125));
  EXPECT_EQ(bits(tree_out.nodes[1].weight), bits(-0.0625));
  EXPECT_EQ(tree_out.nodes[1].depth, 1);

  ShardSummaryMsg summary{9, 2, 5, 123456.0, 78.9050292968750};
  const auto spayload = HistogramCodec::encode_shard_summary(summary);
  ShardSummaryMsg summary_out;
  ASSERT_TRUE(HistogramCodec::decode_shard_summary(spayload, &summary_out));
  EXPECT_EQ(summary_out.shard_begin, 2u);
  EXPECT_EQ(summary_out.shard_end, 5u);
  EXPECT_EQ(bits(summary_out.hops), bits(summary.hops));
  EXPECT_EQ(bits(summary_out.quantized_loss), bits(summary.quantized_loss));

  TreeVerdictMsg verdict{7, 0.034245967864990234, true, false};
  const auto vpayload = HistogramCodec::encode_tree_verdict(verdict);
  TreeVerdictMsg verdict_out;
  ASSERT_TRUE(HistogramCodec::decode_tree_verdict(vpayload, &verdict_out));
  EXPECT_EQ(verdict_out.tree, 7u);
  EXPECT_EQ(bits(verdict_out.train_loss), bits(verdict.train_loss));
  EXPECT_TRUE(verdict_out.stop_training);
  EXPECT_FALSE(verdict_out.early_stopped);
}

TEST(IpcCodec, ShardAssignRoundTripsBitExactly) {
  ShardAssignMsg msg;
  msg.tree = 13;
  msg.view_epoch = 5;
  msg.num_shards = 8;
  msg.shard_begin = 3;
  msg.shard_end = 6;
  msg.final_assign = false;
  msg.early_stopped = false;
  const auto payload = HistogramCodec::encode_shard_assign(msg);
  ShardAssignMsg out;
  ASSERT_TRUE(HistogramCodec::decode_shard_assign(payload, &out));
  EXPECT_EQ(out.tree, 13u);
  EXPECT_EQ(out.view_epoch, 5u);
  EXPECT_EQ(out.num_shards, 8u);
  EXPECT_EQ(out.shard_begin, 3u);
  EXPECT_EQ(out.shard_end, 6u);
  EXPECT_FALSE(out.final_assign);
  EXPECT_FALSE(out.early_stopped);

  // The final assignment (the elastic exit signal) keeps its flags.
  msg.final_assign = true;
  msg.early_stopped = true;
  msg.shard_begin = msg.shard_end = 0;
  const auto fin = HistogramCodec::encode_shard_assign(msg);
  ASSERT_TRUE(HistogramCodec::decode_shard_assign(fin, &out));
  EXPECT_TRUE(out.final_assign);
  EXPECT_TRUE(out.early_stopped);

  std::vector<std::uint8_t> short_payload(payload.begin(), payload.end() - 1);
  EXPECT_FALSE(HistogramCodec::decode_shard_assign(short_payload, &out));
}

TEST(IpcCodec, CatchUpRoundTripsBitExactly) {
  CatchUpMsg msg;
  gbdt::TreeNode interior;
  interior.is_leaf = false;
  interior.field = 2;
  interior.kind = gbdt::PredicateKind::kNumericLE;
  interior.threshold_bin = 41;
  interior.default_left = false;
  interior.left = 1;
  interior.right = 2;
  interior.depth = 0;
  interior.gain = 3.0517578125e-05;
  gbdt::TreeNode leaf;
  leaf.is_leaf = true;
  leaf.depth = 1;
  leaf.weight = 0.30000000000000004;  // not representable exactly: bit test
  CatchUpMsg::TreeEntry entry;
  entry.nodes = {interior, leaf, leaf};
  entry.train_loss = 0.6931471805599453;
  msg.trees.push_back(entry);
  entry.train_loss = 0.5772156649015329;
  msg.trees.push_back(entry);

  const auto payload = HistogramCodec::encode_catch_up(msg);
  CatchUpMsg out;
  ASSERT_TRUE(HistogramCodec::decode_catch_up(payload, &out));
  ASSERT_EQ(out.trees.size(), 2u);
  ASSERT_EQ(out.trees[0].nodes.size(), 3u);
  EXPECT_EQ(out.trees[0].nodes[0].field, 2u);
  EXPECT_EQ(out.trees[0].nodes[0].threshold_bin, 41);
  EXPECT_EQ(bits(out.trees[0].nodes[0].gain), bits(interior.gain));
  EXPECT_EQ(bits(out.trees[0].nodes[1].weight), bits(leaf.weight));
  EXPECT_EQ(bits(out.trees[0].train_loss), bits(0.6931471805599453));
  EXPECT_EQ(bits(out.trees[1].train_loss), bits(0.5772156649015329));

  // The empty catch-up (joining a world with no finished trees yet) is
  // valid and distinct from a decode failure.
  const auto empty_payload = HistogramCodec::encode_catch_up(CatchUpMsg{});
  ASSERT_TRUE(HistogramCodec::decode_catch_up(empty_payload, &out));
  EXPECT_TRUE(out.trees.empty());

  std::vector<std::uint8_t> short_payload(payload.begin(), payload.end() - 2);
  EXPECT_FALSE(HistogramCodec::decode_catch_up(short_payload, &out));
}

}  // namespace
}  // namespace booster::ipc
