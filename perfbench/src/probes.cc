#include "probes.h"

#include <numeric>
#include <string>
#include <vector>

#include "data.h"
#include "gbdt/flat_ensemble.h"
#include "gbdt/histogram.h"
#include "gbdt/hotpath.h"
#include "gbdt/split.h"
#include "ipc/codec.h"
#include "serve/client.h"
#include "serve/http.h"
#include "serve/model_slot.h"
#include "serve/row_binner.h"
#include "spans.h"
#include "stream/chunk_window.h"
#include "stream/frozen_bin_map.h"
#include "util/thread_pool.h"

namespace perfbench {

using namespace booster;

namespace {

/// Median over `rounds` rounds of the time per call of `fn`, each round
/// calling it `calls` times back to back.
template <typename Fn>
double median_call_ns(int rounds, int calls, Fn&& fn) {
  std::vector<double> per_call;
  for (int r = 0; r < rounds; ++r) {
    const auto start = Clock::now();
    for (int c = 0; c < calls; ++c) fn();
    per_call.push_back(1e9 * seconds_since(start) / calls);
  }
  return median(per_call);
}

double per(double total, double units) {
  return units > 0.0 ? total / units : 0.0;
}

}  // namespace

UnitCosts run_probes(const ProbeInputs& in, std::uint32_t parent_span,
                     RunResult* out) {
  const ScopedSpan probes_span("probes", parent_span);
  const std::uint32_t parent = probes_span.id();
  const gbdt::BinnedDataset& train = *in.train;
  const std::uint64_t n = train.num_records();
  const double fields = train.num_fields();
  train.ensure_row_major();
  UnitCosts costs;

  util::ThreadPool pool(in.threads);
  gbdt::HistogramPool hist_pool(train);
  std::vector<gbdt::Histogram> partials;
  std::vector<std::uint32_t> all_rows(n);
  std::iota(all_rows.begin(), all_rows.end(), 0u);
  // Gradients of the logistic loss at p = 0.5, as at the first tree.
  std::vector<gbdt::GradientPair> gradients(n);
  for (std::uint64_t r = 0; r < n; ++r) {
    gradients[r] = {0.5f - train.labels()[r], 0.25f};
  }

  // Step 1: histogram build at the root (all rows, threaded), on a
  // 4096-row node (threaded), and the same node serially.
  gbdt::Histogram root(train);
  {
    const ScopedSpan span("probe.gbdt.hist_build", parent);
    const double root_ns = median_call_ns(7, 1, [&] {
      root.clear();
      gbdt::build_histogram_parallel(root, train, all_rows, gradients, pool,
                                     hist_pool, partials);
    });
    const std::uint64_t node_rows = std::min<std::uint64_t>(4096, n);
    std::vector<std::uint32_t> node(node_rows);
    for (std::uint64_t i = 0; i < node_rows; ++i) {
      node[i] = static_cast<std::uint32_t>(i * (n / node_rows));
    }
    gbdt::Histogram small(train);
    const double small_ns = median_call_ns(9, 20, [&] {
      small.clear();
      gbdt::build_histogram_parallel(small, train, node, gradients, pool,
                                     hist_pool, partials);
    });
    const double small_1t_ns = median_call_ns(9, 20, [&] {
      small.clear();
      small.build(train, node, gradients);
    });
    costs.hist_root_ns_per_update = per(root_ns, n * fields);
    costs.hist_small_ns_per_update = per(small_ns, node_rows * fields);
    out->layer("gbdt.hist_build.ns_per_update.root",
               costs.hist_root_ns_per_update, "ns");
    out->layer("gbdt.hist_build.ns_per_update.small",
               costs.hist_small_ns_per_update, "ns");
    out->layer("gbdt.hist_build.ns_per_update.small_1t",
               per(small_1t_ns, node_rows * fields), "ns");
  }

  // Step 2: split scan of the root histogram, threaded and serial.
  const gbdt::SplitFinder finder;
  std::optional<gbdt::SplitInfo> best;
  {
    const ScopedSpan span("probe.gbdt.split_scan", parent);
    std::uint64_t bins = 0;
    const double threaded_ns = median_call_ns(
        9, 20, [&] { best = finder.find_best(root, train, &pool, &bins); });
    const double serial_ns = median_call_ns(
        9, 20, [&] { best = finder.find_best(root, train, &bins); });
    costs.split_ns_per_bin = per(threaded_ns, static_cast<double>(bins));
    out->layer("gbdt.split_scan.ns_per_bin", costs.split_ns_per_bin, "ns");
    out->layer("gbdt.split_scan.ns_per_bin_1t",
               per(serial_ns, static_cast<double>(bins)), "ns");
  }

  // Step 3: partition of all rows by the root's best split.
  if (best.has_value()) {
    const ScopedSpan span("probe.gbdt.partition", parent);
    std::vector<std::uint32_t> dst(n);
    std::vector<std::uint64_t> chunk_counts(pool.num_threads() + 1);
    const std::uint64_t n_left = best->left.count_u64();
    const double ns = median_call_ns(7, 1, [&] {
      gbdt::partition_to(all_rows, dst, 0, n, n_left, train, *best, pool,
                         chunk_counts);
    });
    costs.partition_ns_per_record = per(ns, static_cast<double>(n));
  }
  out->layer("gbdt.partition.ns_per_record", costs.partition_ns_per_record,
             "ns");

  // Histogram merge (chunk partials, shard merges, sibling subtraction).
  {
    const ScopedSpan span("probe.gbdt.hist_add", parent);
    gbdt::Histogram sum(train);
    const double ns = median_call_ns(9, 50, [&] { sum.add(root); });
    costs.hist_add_ns_per_bin =
        per(ns, static_cast<double>(root.total_bins()));
    out->layer("gbdt.hist_add.ns_per_bin", costs.hist_add_ns_per_bin, "ns");
  }

  // Step 5 / inference: blocked traversal of the workload's model.
  const gbdt::FlatEnsemble flat(*in.model);
  const gbdt::BinnedDataset& holdout = *in.holdout;
  const std::uint64_t m = holdout.num_records();
  {
    const ScopedSpan span("probe.gbdt.traverse", parent);
    std::vector<double> raw(m);
    const double ns = median_call_ns(
        5, 1, [&] { flat.predict_raw_many(holdout, 0, m, raw); });
    costs.traverse_ns_per_row_tree =
        per(ns, static_cast<double>(m) * flat.num_trees());
    out->layer("gbdt.traverse.ns_per_row_tree",
               costs.traverse_ns_per_row_tree, "ns");
  }

  {
    const ScopedSpan span("probe.util.thread_pool", parent);
    const double ns = median_call_ns(9, 200, [&] {
      pool.run_tasks(pool.num_threads(), [](unsigned) {});
    });
    out->layer("util.thread_pool.fork_join_us", ns / 1e3, "us");
  }

  // ipc: one root-shaped shard histogram through the codec, and the
  // frame checksum over its bytes.
  {
    const ScopedSpan span("probe.ipc.codec", parent);
    std::vector<std::uint8_t> payload;
    const double encode_ns = median_call_ns(9, 10, [&] {
      payload.clear();
      ipc::HistogramCodec::encode_histogram(root, &payload);
    });
    gbdt::Histogram decoded(train);
    bool decoded_ok = true;
    const double decode_ns = median_call_ns(9, 10, [&] {
      ipc::ByteReader reader(payload);
      decoded_ok = ipc::HistogramCodec::decode_histogram_into(reader, &decoded) &&
                   decoded_ok;
    });
    out->check(decoded_ok, "ipc codec round trip of a probe histogram");
    std::uint32_t crc = 0;
    const double crc_ns =
        median_call_ns(9, 10, [&] { crc ^= ipc::crc32(payload); });
    out->layer("ipc.encode_us_per_histogram", encode_ns / 1e3, "us");
    out->layer("ipc.decode_us_per_histogram", decode_ns / 1e3, "us");
    out->layer("ipc.crc_ns_per_byte",
               per(crc_ns, static_cast<double>(payload.size())), "ns");
  }

  // serve: request parse, CSV row binning, and column-pointer prediction
  // at the 8-row request size and the 1024-row batch tile.
  {
    const ScopedSpan span("probe.serve", parent);
    const std::string body = serve::csv_rows(*in.train_raw, 0, 8);
    const std::string request = "POST /predict HTTP/1.1\r\nHost: bench\r\n"
                                "Content-Length: " +
                                std::to_string(body.size()) + "\r\n\r\n" + body;
    serve::RequestParser parser;
    serve::Request parsed;
    bool parsed_ok = true;
    const double parse_ns = median_call_ns(9, 2000, [&] {
      std::size_t consumed = 0;
      parsed_ok = parser.consume(request, &consumed, &parsed) ==
                      serve::ParseStatus::kRequest &&
                  parsed_ok;
    });
    out->check(parsed_ok, "serve parser probe request");
    out->layer("serve.parse_ns_per_request", parse_ns, "ns");

    const std::uint64_t lines_n = std::min<std::uint64_t>(1024, n);
    const std::string csv = serve::csv_rows(*in.train_raw, 0, lines_n);
    std::vector<std::string_view> lines;
    for (std::size_t pos = 0; pos < csv.size();) {
      std::size_t eol = csv.find('\n', pos);
      if (eol == std::string::npos) eol = csv.size();
      lines.emplace_back(csv.data() + pos, eol - pos);
      pos = eol + 1;
    }
    const serve::RowBinner binner(train);
    std::vector<std::vector<gbdt::BinIndex>> columns;
    bool binned_ok = true;
    const double bin_ns = median_call_ns(9, 5, [&] {
      binner.reset_columns(&columns);
      for (const auto line : lines) {
        binned_ok = binner.append_csv(line, &columns) && binned_ok;
      }
    });
    out->check(binned_ok, "serve row binner probe rows");
    out->layer("serve.bin_ns_per_row",
               per(bin_ns, static_cast<double>(lines.size())), "ns");

    const std::vector<const gbdt::BinIndex*> base =
        gbdt::column_pointers(holdout);
    std::vector<const gbdt::BinIndex*> ptrs(base.size());
    for (const std::uint64_t batch : {std::uint64_t{8}, std::uint64_t{1024}}) {
      const std::uint64_t b = std::min(batch, m);
      std::vector<double> preds(b);
      std::uint64_t offset = 0;
      const double ns = median_call_ns(9, 40, [&] {
        for (std::size_t f = 0; f < base.size(); ++f) ptrs[f] = base[f] + offset;
        flat.predict_many(ptrs.data(), b, preds);
        offset = offset + 2 * b <= m ? offset + b : 0;
      });
      out->layer(batch == 8 ? "serve.predict_ns_per_row.b8"
                            : "serve.predict_ns_per_row.b1024",
                 per(ns, static_cast<double>(b)), "ns");
    }
  }

  // stream: chunk binning against frozen metadata, window materialize,
  // and the slot install (flatten included) of the workload's model.
  {
    const ScopedSpan span("probe.stream", parent);
    const stream::FrozenBinMap map(train);
    const gbdt::Dataset chunk =
        take_rows(*in.train_raw, 0, std::min(in.chunk_rows, n));
    gbdt::BinnedDataset binned_chunk;
    const double bin_ns =
        median_call_ns(5, 1, [&] { map.bin_chunk(chunk, &binned_chunk); });
    stream::ChunkWindow window(map, in.window_chunks);
    for (std::uint32_t c = 0; c < in.window_chunks; ++c) window.push(chunk);
    gbdt::BinnedDataset materialized;
    const double materialize_ns =
        median_call_ns(5, 1, [&] { window.materialize(&materialized); });
    serve::ModelSlot slot;
    std::vector<double> install_ns;
    for (int r = 0; r < 5; ++r) {
      gbdt::Model copy = in.model->clone();
      const auto start = Clock::now();
      slot.install(std::move(copy));
      install_ns.push_back(1e9 * seconds_since(start));
    }
    out->layer("stream.bin_chunk_ms", bin_ns / 1e6, "ms");
    out->layer("stream.materialize_ms", materialize_ns / 1e6, "ms");
    out->layer("stream.install_ms", median(install_ns) / 1e6, "ms");
  }
  return costs;
}

}  // namespace perfbench
