#include "gbdt/model_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <fstream>
#include <iomanip>
#include <span>
#include <sstream>

#include "ipc/codec.h"  // ipc::crc32 -- the transport's checksum, reused
#include "util/check.h"

namespace booster::gbdt {

namespace {

/// Serializable view of a tree: nodes are written in index order; child
/// links are indices into the same table. Leaves reconstructed via
/// split_leaf replay would renumber nodes, so loading rebuilds the node
/// table directly through a builder tree and weight fix-up pass.
void save_tree(const Tree& tree, std::uint32_t index, std::ostream& out) {
  out << "tree " << index << " nodes " << tree.num_nodes() << "\n";
  for (std::uint32_t id = 0; id < tree.num_nodes(); ++id) {
    const TreeNode& n = tree.node(static_cast<std::int32_t>(id));
    if (n.is_leaf) {
      out << "node " << id << " leaf " << std::setprecision(17) << n.weight
          << "\n";
    } else {
      out << "node " << id << " split " << n.field << " "
          << (n.kind == PredicateKind::kNumericLE ? "le" : "eq") << " "
          << n.threshold_bin << " " << (n.default_left ? 1 : 0) << " "
          << n.left << " " << n.right << " " << std::setprecision(17)
          << n.gain << "\n";
    }
  }
}

struct ParsedNode {
  bool is_leaf = true;
  double weight = 0.0;
  SplitInfo split;
  std::int32_t left = -1;
  std::int32_t right = -1;
};

/// Rebuilds a Tree from parsed nodes by replaying splits in DFS order.
/// Replay preserves the invariant that split_leaf allocates children
/// contiguously, which holds for trees produced by the trainer; arbitrary
/// node orders are normalized by the recursion.
class TreeRebuilder {
 public:
  explicit TreeRebuilder(const std::vector<ParsedNode>& nodes)
      : nodes_(nodes) {}

  Tree build() {
    Tree tree;
    rebuild(tree, tree.root(), 0);
    return tree;
  }

 private:
  void rebuild(Tree& tree, std::int32_t dst, std::int32_t src) {
    const ParsedNode& n = nodes_[src];
    if (n.is_leaf) {
      tree.set_leaf_weight(dst, n.weight);
      return;
    }
    const auto [l, r] = tree.split_leaf(dst, n.split);
    rebuild(tree, l, n.left);
    rebuild(tree, r, n.right);
  }

  const std::vector<ParsedNode>& nodes_;
};

}  // namespace

void save_model(const Model& model, std::ostream& out) {
  out << "booster-model v1\n";
  out << "base_score " << std::setprecision(17) << model.base_score() << "\n";
  out << "loss " << model.loss().name() << "\n";
  out << "trees " << model.num_trees() << "\n";
  for (std::uint32_t t = 0; t < model.num_trees(); ++t) {
    save_tree(model.trees()[t], t, out);
  }
}

bool save_model_file(const Model& model, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  save_model(model, out);
  return static_cast<bool>(out);
}

Model load_model(std::istream& in) {
  std::string token;
  std::string version;
  in >> token >> version;
  BOOSTER_CHECK_MSG(token == "booster-model" && version == "v1",
                    "unsupported model format");
  double base_score = 0.0;
  in >> token >> base_score;
  BOOSTER_CHECK(token == "base_score");
  std::string loss_name;
  in >> token >> loss_name;
  BOOSTER_CHECK(token == "loss");
  // The serialized loss name may carry a variant suffix (e.g.
  // "ranking-pointwise"); map back to the factory name.
  if (loss_name.rfind("ranking", 0) == 0) loss_name = "ranking";
  std::uint32_t num_trees = 0;
  in >> token >> num_trees;
  BOOSTER_CHECK(token == "trees");

  Model model(base_score, make_loss(loss_name));
  for (std::uint32_t t = 0; t < num_trees; ++t) {
    std::uint32_t index = 0;
    std::uint32_t num_nodes = 0;
    in >> token >> index;
    BOOSTER_CHECK(token == "tree" && index == t);
    in >> token >> num_nodes;
    BOOSTER_CHECK(token == "nodes" && num_nodes >= 1);

    std::vector<ParsedNode> nodes(num_nodes);
    for (std::uint32_t i = 0; i < num_nodes; ++i) {
      std::uint32_t id = 0;
      std::string kind;
      in >> token >> id >> kind;
      BOOSTER_CHECK(token == "node" && id < num_nodes);
      ParsedNode& n = nodes[id];
      if (kind == "leaf") {
        n.is_leaf = true;
        in >> n.weight;
      } else {
        BOOSTER_CHECK_MSG(kind == "split", "unknown node kind");
        n.is_leaf = false;
        std::string pred;
        int default_left = 0;
        in >> n.split.field >> pred >> n.split.threshold_bin >> default_left >>
            n.left >> n.right >> n.split.gain;
        n.split.kind = pred == "le" ? PredicateKind::kNumericLE
                                    : PredicateKind::kCategoryEqual;
        n.split.default_left = default_left != 0;
        BOOSTER_CHECK(n.left >= 0 &&
                      n.left < static_cast<std::int32_t>(num_nodes));
        BOOSTER_CHECK(n.right >= 0 &&
                      n.right < static_cast<std::int32_t>(num_nodes));
      }
    }
    BOOSTER_CHECK_MSG(static_cast<bool>(in), "truncated model file");
    model.add_tree(TreeRebuilder(nodes).build());
  }
  return model;
}

Model load_model_file(const std::string& path) {
  std::ifstream in(path);
  BOOSTER_CHECK_MSG(static_cast<bool>(in), ("cannot open " + path).c_str());
  return load_model(in);
}

namespace {

constexpr const char kContainerMagic[] = "booster-model-container";

std::uint32_t payload_crc(const std::string& payload) {
  return ipc::crc32(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(payload.data()),
      payload.size()));
}

}  // namespace

const char* model_file_status_name(ModelFileStatus status) {
  switch (status) {
    case ModelFileStatus::kOk:
      return "ok";
    case ModelFileStatus::kIoError:
      return "io-error";
    case ModelFileStatus::kBadMagic:
      return "bad-magic";
    case ModelFileStatus::kBadVersion:
      return "bad-version";
    case ModelFileStatus::kTruncated:
      return "truncated";
    case ModelFileStatus::kBadChecksum:
      return "bad-checksum";
  }
  return "unknown";
}

void save_model_checked(const Model& model, std::ostream& out) {
  std::ostringstream payload_stream;
  save_model(model, payload_stream);
  const std::string payload = payload_stream.str();
  out << kContainerMagic << " v1 bytes " << payload.size() << " crc32 "
      << std::hex << std::setw(8) << std::setfill('0') << payload_crc(payload)
      << std::dec << std::setfill(' ') << "\n";
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
}

bool save_model_checked_file(const Model& model, const std::string& path) {
  std::ostringstream container;
  save_model_checked(model, container);
  const std::string bytes = container.str();
  // A sibling temp file (same directory, so the rename stays on one file
  // system), unique per process and per call.
  static std::atomic<std::uint64_t> next_tmp{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(next_tmp.fetch_add(1));
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC,
                        0666);
  if (fd < 0) return false;
  bool ok = true;
  for (std::size_t done = 0; ok && done < bytes.size();) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0 && errno == EINTR) continue;
    ok = n > 0;
    if (ok) done += static_cast<std::size_t>(n);
  }
  ok = ok && ::fsync(fd) == 0;
  ok = ::close(fd) == 0 && ok;
  ok = ok && ::rename(tmp.c_str(), path.c_str()) == 0;
  if (!ok) {
    ::unlink(tmp.c_str());
    return false;
  }
  // Make the rename itself durable.
  const std::size_t slash = path.rfind('/');
  const std::string dir = slash == std::string::npos ? "."
                          : slash == 0               ? "/"
                                                     : path.substr(0, slash);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd < 0) return false;
  ok = ::fsync(dir_fd) == 0;
  ::close(dir_fd);
  return ok;
}

ModelFileStatus load_model_checked(std::istream& in,
                                   std::optional<Model>* out) {
  std::string header;
  if (!std::getline(in, header)) return ModelFileStatus::kIoError;
  std::istringstream fields(header);
  std::string magic, version, bytes_key, crc_key, crc_hex;
  std::uint64_t byte_count = 0;
  fields >> magic;
  if (magic != kContainerMagic) return ModelFileStatus::kBadMagic;
  fields >> version;
  if (version != "v1") return ModelFileStatus::kBadVersion;
  fields >> bytes_key >> byte_count >> crc_key >> crc_hex;
  if (!fields || bytes_key != "bytes" || crc_key != "crc32" ||
      crc_hex.size() != 8) {
    return ModelFileStatus::kBadMagic;  // header shape, not a version skew
  }
  std::uint32_t expected_crc = 0;
  for (const char c : crc_hex) {
    const int digit = c >= '0' && c <= '9'   ? c - '0'
                      : c >= 'a' && c <= 'f' ? c - 'a' + 10
                                             : -1;
    if (digit < 0) return ModelFileStatus::kBadMagic;
    expected_crc = expected_crc << 4 | static_cast<std::uint32_t>(digit);
  }

  std::string payload(byte_count, '\0');
  in.read(payload.data(), static_cast<std::streamsize>(byte_count));
  if (static_cast<std::uint64_t>(in.gcount()) != byte_count) {
    return ModelFileStatus::kTruncated;
  }
  if (payload_crc(payload) != expected_crc) {
    return ModelFileStatus::kBadChecksum;
  }
  // The payload is now CRC-verified: load_model's abort-on-malformed
  // contract is safe to rely on (only a deliberately crafted file can
  // both pass the CRC and be unparsable).
  std::istringstream payload_stream(payload);
  out->emplace(load_model(payload_stream));
  return ModelFileStatus::kOk;
}

ModelFileStatus load_model_checked_file(const std::string& path,
                                        std::optional<Model>* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return ModelFileStatus::kIoError;
  return load_model_checked(in, out);
}

}  // namespace booster::gbdt
