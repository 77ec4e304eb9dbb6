#include "gbdt/model_io.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "gbdt/metrics.h"
#include "gbdt/trainer.h"
#include "workloads/synth.h"

namespace booster::gbdt {
namespace {

struct Trained {
  BinnedDataset data;
  Model model;
};

Trained train_small(const std::string& loss, std::uint32_t trees = 5) {
  workloads::DatasetSpec spec;
  spec.name = "io-test";
  spec.nominal_records = 1500;
  spec.numeric_fields = 5;
  spec.categorical_cardinalities = {6};
  spec.missing_rate = 0.05;
  spec.loss = loss;
  auto binned = Binner().bin(workloads::synthesize(spec, 1500, 17));
  TrainerConfig cfg;
  cfg.num_trees = trees;
  cfg.max_depth = 4;
  cfg.loss = loss;
  auto result = Trainer(cfg).train(binned);
  return Trained{std::move(binned), std::move(result.model)};
}

TEST(ModelIo, RoundTripPreservesPredictions) {
  const auto t = train_small("logistic");
  std::stringstream buffer;
  save_model(t.model, buffer);
  const Model loaded = load_model(buffer);
  ASSERT_EQ(loaded.num_trees(), t.model.num_trees());
  EXPECT_DOUBLE_EQ(loaded.base_score(), t.model.base_score());
  for (std::uint64_t r = 0; r < t.data.num_records(); ++r) {
    EXPECT_DOUBLE_EQ(loaded.predict_raw(t.data, r),
                     t.model.predict_raw(t.data, r));
  }
}

TEST(ModelIo, RoundTripPreservesLossTransform) {
  const auto t = train_small("logistic");
  std::stringstream buffer;
  save_model(t.model, buffer);
  const Model loaded = load_model(buffer);
  EXPECT_EQ(loaded.loss().name(), "logistic");
  for (std::uint64_t r = 0; r < 50; ++r) {
    EXPECT_DOUBLE_EQ(loaded.predict(t.data, r), t.model.predict(t.data, r));
  }
}

TEST(ModelIo, RoundTripAllLossKinds) {
  for (const char* loss : {"squared", "logistic", "ranking"}) {
    const auto t = train_small(loss, 3);
    std::stringstream buffer;
    save_model(t.model, buffer);
    const Model loaded = load_model(buffer);
    for (std::uint64_t r = 0; r < 20; ++r) {
      EXPECT_DOUBLE_EQ(loaded.predict_raw(t.data, r),
                       t.model.predict_raw(t.data, r))
          << loss;
    }
  }
}

TEST(ModelIo, PreservesTreeStructure) {
  const auto t = train_small("squared");
  std::stringstream buffer;
  save_model(t.model, buffer);
  const Model loaded = load_model(buffer);
  for (std::uint32_t i = 0; i < loaded.num_trees(); ++i) {
    EXPECT_EQ(loaded.trees()[i].num_nodes(), t.model.trees()[i].num_nodes());
    EXPECT_EQ(loaded.trees()[i].num_leaves(), t.model.trees()[i].num_leaves());
    EXPECT_EQ(loaded.trees()[i].max_depth(), t.model.trees()[i].max_depth());
    EXPECT_EQ(loaded.trees()[i].relevant_fields(),
              t.model.trees()[i].relevant_fields());
  }
}

TEST(ModelIo, FileRoundTrip) {
  const auto t = train_small("logistic", 2);
  const std::string path = "/tmp/booster_test_model.txt";
  ASSERT_TRUE(save_model_file(t.model, path));
  const Model loaded = load_model_file(path);
  EXPECT_DOUBLE_EQ(rmse(loaded, t.data), rmse(t.model, t.data));
}

TEST(ModelIo, SaveToUnwritablePathFails) {
  const auto t = train_small("squared", 1);
  EXPECT_FALSE(save_model_file(t.model, "/nonexistent-dir/model.txt"));
}

TEST(ModelIo, SingleLeafModel) {
  // An ensemble whose trees never split must round-trip too.
  Model m(0.25, make_loss("squared"));
  Tree stump;
  stump.set_leaf_weight(stump.root(), 1.5);
  m.add_tree(std::move(stump));
  std::stringstream buffer;
  save_model(m, buffer);
  const Model loaded = load_model(buffer);
  EXPECT_EQ(loaded.num_trees(), 1u);
  EXPECT_DOUBLE_EQ(loaded.trees()[0].node(0).weight, 1.5);
}

TEST(ModelIo, FormatIsVersioned) {
  Model m(0.0, make_loss("squared"));
  std::stringstream buffer;
  save_model(m, buffer);
  EXPECT_EQ(buffer.str().rfind("booster-model v1", 0), 0u);
}

// --- Checked container: header + CRC-32 over the payload. ---------------

TEST(ModelIoChecked, GoldenBytesForStumpModel) {
  // Pins the exact container bytes of a deterministic single-stump model:
  // any accidental format drift (header spelling, payload framing, CRC
  // polynomial or byte order) breaks this test before it breaks a
  // cross-version serving fleet.
  Model m(0.25, make_loss("squared"));
  Tree stump;
  stump.set_leaf_weight(stump.root(), 1.5);
  m.add_tree(std::move(stump));
  std::ostringstream out;
  save_model_checked(m, out);
  const std::string expected_payload =
      "booster-model v1\n"
      "base_score 0.25\n"
      "loss squared\n"
      "trees 1\n"
      "tree 0 nodes 1\n"
      "node 0 leaf 1.5\n";
  EXPECT_EQ(out.str(),
            "booster-model-container v1 bytes 85 crc32 cb61c094\n" +
                expected_payload);
  ASSERT_EQ(expected_payload.size(), 85u);
}

TEST(ModelIoChecked, RoundTripPreservesPredictions) {
  const auto t = train_small("logistic", 3);
  std::stringstream buffer;
  save_model_checked(t.model, buffer);
  std::optional<Model> loaded;
  ASSERT_EQ(load_model_checked(buffer, &loaded), ModelFileStatus::kOk);
  ASSERT_TRUE(loaded.has_value());
  for (std::uint64_t r = 0; r < t.data.num_records(); ++r) {
    EXPECT_EQ(loaded->predict(t.data, r), t.model.predict(t.data, r));
  }
}

TEST(ModelIoChecked, FileRoundTripAndDistinctFailureModes) {
  const auto t = train_small("squared", 2);
  const std::string path = "/tmp/booster_test_model_checked.bin";
  ASSERT_TRUE(save_model_checked_file(t.model, path));
  std::optional<Model> loaded;
  ASSERT_EQ(load_model_checked_file(path, &loaded), ModelFileStatus::kOk);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(rmse(*loaded, t.data), rmse(t.model, t.data));

  std::ifstream in(path, std::ios::binary);
  std::stringstream good;
  good << in.rdbuf();
  const std::string bytes = good.str();

  // Missing file: kIoError, *out untouched.
  std::optional<Model> untouched;
  EXPECT_EQ(load_model_checked_file("/nonexistent/model.bin", &untouched),
            ModelFileStatus::kIoError);
  EXPECT_FALSE(untouched.has_value());

  // A bare v1 file (no container header): kBadMagic.
  {
    std::istringstream bad("booster-model v1\nbase_score 0\n");
    EXPECT_EQ(load_model_checked(bad, &untouched),
              ModelFileStatus::kBadMagic);
  }

  // Future container version: kBadVersion.
  {
    std::string v2 = bytes;
    v2.replace(v2.find(" v1 "), 4, " v9 ");
    std::istringstream bad(v2);
    EXPECT_EQ(load_model_checked(bad, &untouched),
              ModelFileStatus::kBadVersion);
  }

  // Torn write: payload shorter than the header's byte count.
  {
    std::istringstream bad(bytes.substr(0, bytes.size() - 7));
    EXPECT_EQ(load_model_checked(bad, &untouched),
              ModelFileStatus::kTruncated);
  }

  // Bit rot inside the payload: right length, wrong CRC.
  {
    std::string flipped = bytes;
    flipped[flipped.size() - 2] ^= 0x01;
    std::istringstream bad(flipped);
    EXPECT_EQ(load_model_checked(bad, &untouched),
              ModelFileStatus::kBadChecksum);
  }
  EXPECT_FALSE(untouched.has_value());

  // Status names are stable (they appear in serve /reload error bodies).
  EXPECT_STREQ(model_file_status_name(ModelFileStatus::kOk), "ok");
  EXPECT_STREQ(model_file_status_name(ModelFileStatus::kBadChecksum),
               "bad-checksum");
}

TEST(ModelIoChecked, OverwriteReplacesTheFileInsteadOfRewritingIt) {
  // A reader that opened the old file before an overwrite must still read
  // the old model intact: the save writes a sibling temp file and renames
  // it over the target instead of truncating the target in place (where a
  // crash mid-write would leave no loadable model). No temp file may be
  // left behind.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("booster_test_atomic_save." + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(std::filesystem::create_directories(dir));
  const std::string path = (dir / "model.bin").string();

  const auto old_model = train_small("squared", 2);
  const auto new_model = train_small("squared", 4);
  ASSERT_TRUE(save_model_checked_file(old_model.model, path));
  std::ifstream old_reader(path, std::ios::binary);
  ASSERT_TRUE(old_reader.is_open());
  ASSERT_TRUE(save_model_checked_file(new_model.model, path));

  std::optional<Model> from_old_reader;
  ASSERT_EQ(load_model_checked(old_reader, &from_old_reader),
            ModelFileStatus::kOk);
  EXPECT_EQ(from_old_reader->num_trees(), 2u);
  for (std::uint64_t r = 0; r < old_model.data.num_records(); r += 7) {
    EXPECT_EQ(from_old_reader->predict(old_model.data, r),
              old_model.model.predict(old_model.data, r));
  }
  std::optional<Model> from_path;
  ASSERT_EQ(load_model_checked_file(path, &from_path), ModelFileStatus::kOk);
  EXPECT_EQ(from_path->num_trees(), 4u);

  std::vector<std::string> entries;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    entries.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(entries, std::vector<std::string>{"model.bin"});
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace booster::gbdt
