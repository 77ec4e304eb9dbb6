// Serving bench: a closed-loop load generator over real localhost TCP
// against the epoll prediction server, sweeping concurrency x batch
// window. One machine-readable JSON object on stdout
// (see bench/README.md): per sweep point {connections, batch_window_us,
// qps, rows_per_sec, p50/p99/p999 latency, bytes/request} plus the
// server's batch-size histogram (GET /stats), which is the evidence that
// rows from concurrent connections actually coalesce into blocked
// FlatEnsemble traversals.
//
// Every sweep point is gated on bit-identity: each served prediction is
// compared bitwise against local Model::predict inside the harness, and
// any mismatch or transport error exits non-zero -- throughput numbers
// from a diverging server are worthless, so they are never printed.
// Overload behaviour (shedding under /reload churn) is tested by
// test_serve's ServeOverload.* cases, not measured here.
//
//   ./bench_serve [--quick]
#include <cstdio>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "gbdt/binning.h"
#include "gbdt/model_io.h"
#include "gbdt/trainer.h"
#include "serve/client.h"
#include "serve/model_slot.h"
#include "serve/server.h"
#include "sim/json.h"
#include "sim/runner.h"
#include "workloads/spec.h"
#include "workloads/synth.h"

using namespace booster;

namespace {

// Clone through the serializer: Model is move-only and the bench keeps
// its local copy for the expected-prediction vector.
gbdt::Model clone_model(const gbdt::Model& model) {
  std::stringstream buf;
  gbdt::save_model(model, buf);
  return gbdt::load_model(buf);
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = sim::parse_run_options(argc, argv);

  // The paper's IoT shape (binary sensor features dominate) is the
  // serving-friendliest of the Table III set; sized down so the bench is
  // a latency measurement, not a training one.
  workloads::DatasetSpec spec = workloads::spec_by_name("IoT");
  const std::uint64_t records = opt.quick ? 4000 : 20000;
  const gbdt::Dataset raw = workloads::synthesize(spec, records, /*seed=*/11);
  const gbdt::BinnedDataset binned = gbdt::Binner().bin(raw);

  gbdt::TrainerConfig tcfg;
  tcfg.num_trees = opt.quick ? 16 : 64;
  tcfg.max_depth = 6;
  tcfg.loss = spec.loss;
  const gbdt::TrainResult trained = gbdt::Trainer(tcfg).train(binned);

  std::vector<double> expected(binned.num_records());
  for (std::uint64_t r = 0; r < binned.num_records(); ++r) {
    expected[r] = trained.model.predict(binned, r);
  }

  const std::vector<std::uint32_t> connection_points =
      opt.quick ? std::vector<std::uint32_t>{1, 4}
                : std::vector<std::uint32_t>{1, 2, 4, 8, 16};
  const std::vector<std::uint64_t> window_points =
      opt.quick ? std::vector<std::uint64_t>{0, 200}
                : std::vector<std::uint64_t>{0, 200, 1000};
  const std::uint32_t requests_per_connection = opt.quick ? 50 : 400;
  const std::uint32_t rows_per_request = 8;

  std::printf("{\n  \"bench\": \"serve\",\n");
  std::printf("  \"workload\": \"%s\",\n", spec.name.c_str());
  std::printf("  \"records\": %llu,\n",
              static_cast<unsigned long long>(records));
  std::printf("  \"trees\": %u,\n", tcfg.num_trees);
  std::printf("  \"rows_per_request\": %u,\n", rows_per_request);
  std::printf("  \"requests_per_connection\": %u,\n", requests_per_connection);
  std::printf("  \"points\": [\n");

  bool diverged = false;
  std::size_t point = 0;
  const std::size_t total_points =
      connection_points.size() * window_points.size();
  for (const std::uint64_t window_us : window_points) {
    for (const std::uint32_t connections : connection_points) {
      // Fresh server per point: the /stats batch histogram then describes
      // exactly this (connections, window) combination.
      serve::ModelSlot slot;
      slot.install(clone_model(trained.model));
      serve::ServerConfig scfg;
      scfg.batch_window = std::chrono::microseconds(window_us);
      serve::Server server(scfg, &slot, binned);
      std::thread loop([&server] { server.run(); });

      serve::LoadConfig load;
      load.port = server.port();
      load.connections = connections;
      load.requests_per_connection = requests_per_connection;
      load.rows_per_request = rows_per_request;
      const serve::LoadResult r = serve::run_closed_loop(load, raw, expected);

      // The histogram must be read before stop(): /stats runs on-loop.
      serve::BlockingClient stats_client;
      std::string hist = "[]";
      unsigned long long batches = 0;
      if (stats_client.connect(server.port())) {
        serve::Response resp;
        std::string parse_error;
        std::optional<sim::Json> stats;
        if (stats_client.request("GET", "/stats", "", &resp) &&
            resp.status == 200) {
          stats = sim::Json::parse(resp.body, &parse_error);
        }
        if (stats.has_value()) {
          if (const sim::Json* h = stats->find("batch_size_hist")) {
            hist = h->dump();
            while (!hist.empty() &&
                   (hist.back() == '\n' || hist.back() == ' ')) {
              hist.pop_back();
            }
          }
          if (const sim::Json* b = stats->find("batches")) {
            batches = static_cast<unsigned long long>(b->as_double());
          }
        }
      }
      server.stop();
      loop.join();

      if (r.errors != 0 || r.mismatches != 0) diverged = true;
      std::printf("    {\"connections\": %u, \"batch_window_us\": %llu,"
                  " \"qps\": %.1f, \"rows_per_sec\": %.1f,"
                  " \"p50_us\": %.1f, \"p99_us\": %.1f, \"p999_us\": %.1f,"
                  " \"mean_us\": %.1f, \"bytes_per_request\": %.1f,"
                  " \"requests\": %llu, \"errors\": %llu,"
                  " \"mismatches\": %llu, \"batches\": %llu,"
                  " \"batch_size_hist\": %s}%s\n",
                  connections, static_cast<unsigned long long>(window_us),
                  r.qps, r.rows_per_sec, r.p50_us, r.p99_us, r.p999_us,
                  r.mean_us, r.bytes_per_request,
                  static_cast<unsigned long long>(r.requests),
                  static_cast<unsigned long long>(r.errors),
                  static_cast<unsigned long long>(r.mismatches), batches,
                  hist.c_str(), ++point < total_points ? "," : "");
    }
  }
  std::printf("  ],\n");
  std::printf("  \"bit_identity\": \"%s\"\n}\n",
              diverged ? "FAIL" : "pass");
  if (diverged) {
    std::fprintf(stderr,
                 "bench_serve: served predictions diverged from local"
                 " Model::predict (or transport errors occurred)\n");
    return 1;
  }
  return 0;
}
