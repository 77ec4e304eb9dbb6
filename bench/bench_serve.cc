// Serving bench (ISSUE 8 acceptance): a closed-loop load generator over
// real localhost TCP against the epoll prediction server, sweeping
// concurrency x batch window. One machine-readable JSON object on stdout
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
//
// After the sweep, an overload leg re-runs the harness against a server
// with tight admission watermarks at an offered load far past saturation,
// with a concurrent /reload churn thread: it demonstrates load shedding
// (503s, zero transport errors), bounded reload stall on the loop, and
// bit-identity for every admitted prediction through hot swaps.
//
//   ./bench_serve [--quick]
#include <atomic>
#include <cstdio>
#include <cstdlib>
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
#include "sim/scenario.h"
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

  // ---------------------------------------------------------- overload leg
  // One server with watermarks sized so a pipelined open-ish load must
  // shed: first a at-saturation baseline (closed loop, depth 1, below the
  // watermarks), then 2x+ the saturation concurrency at pipeline depth 8
  // while a side thread hammers /reload with the same model container.
  bool overload_failed = false;
  {
    serve::ModelSlot slot;
    slot.install(clone_model(trained.model));
    serve::ServerConfig scfg;
    scfg.shed_requests_watermark = 16;
    scfg.shed_rows_watermark = 16 * rows_per_request;
    serve::Server server(scfg, &slot, binned);
    std::thread loop([&server] { server.run(); });

    serve::LoadConfig sat;
    sat.port = server.port();
    sat.connections = 4;
    sat.requests_per_connection = requests_per_connection;
    sat.rows_per_request = rows_per_request;
    const serve::LoadResult sat_r = serve::run_closed_loop(sat, raw, expected);

    const std::string reload_path = "/tmp/bench_serve_overload.model";
    const bool reload_saved =
        gbdt::save_model_checked_file(trained.model, reload_path);
    std::atomic<bool> reloads_done{false};
    std::thread reloader([&] {
      if (!reload_saved) return;
      serve::BlockingClient c;
      if (!c.connect(server.port())) return;
      while (!reloads_done.load(std::memory_order_relaxed)) {
        serve::Response resp;
        // 409 (a previous reload still in flight) is expected churn here;
        // only a dead connection ends the thread early.
        if (!c.request("POST", "/reload", reload_path, &resp)) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });

    serve::LoadConfig over = sat;
    over.connections = opt.quick ? 8 : 16;
    over.pipeline_depth = 8;
    const serve::LoadResult over_r =
        serve::run_closed_loop(over, raw, expected);
    reloads_done.store(true, std::memory_order_relaxed);
    reloader.join();

    double reloads = 0.0, stall_max_us = 0.0;
    serve::BlockingClient stats_client;
    if (stats_client.connect(server.port())) {
      serve::Response resp;
      std::string parse_error;
      if (stats_client.request("GET", "/stats", "", &resp) &&
          resp.status == 200) {
        if (const auto stats = sim::Json::parse(resp.body, &parse_error)) {
          if (const sim::Json* v = stats->find("reloads")) {
            reloads = v->as_double();
          }
          if (const sim::Json* v = stats->find("reload_stall_us_max")) {
            stall_max_us = v->as_double();
          }
        }
      }
    }
    server.stop();
    loop.join();
    std::remove(reload_path.c_str());

    const std::uint64_t offered =
        static_cast<std::uint64_t>(over.connections) *
        over.requests_per_connection;
    const double shed_rate =
        offered > 0 ? static_cast<double>(over_r.shed) /
                          static_cast<double>(offered)
                    : 0.0;
    const double p999_ratio =
        sat_r.p999_us > 0.0 ? over_r.p999_us / sat_r.p999_us : 0.0;
    // A p99.9 says something about a tail only when the tail holds
    // samples: each leg needs at least ten admitted requests beyond its
    // p99.9 (10,000 requests) before the ratio gets a verdict. Below that
    // the p99.9 is a leg's few slowest requests, and scheduler noise alone
    // flips it.
    const auto beyond_p999 = [](std::uint64_t n) { return n / 1000; };
    const char* p999_verdict =
        beyond_p999(sat_r.requests) < 10 || beyond_p999(over_r.requests) < 10
            ? "insufficient_samples"
        : p999_ratio <= 5.0 ? "pass"
                            : "FAIL";
    std::printf("  \"overload\": {\"saturation_connections\": %u,"
                " \"overload_connections\": %u, \"pipeline_depth\": %u,\n",
                sat.connections, over.connections, over.pipeline_depth);
    std::printf("    \"saturation_qps\": %.1f, \"saturation_p999_us\": %.1f,"
                " \"overload_qps\": %.1f, \"overload_p999_us\": %.1f,\n",
                sat_r.qps, sat_r.p999_us, over_r.qps, over_r.p999_us);
    std::printf("    \"saturation_admitted\": %llu, \"admitted\": %llu,"
                " \"shed\": %llu, \"shed_rate\": %.3f,"
                " \"p999_ratio\": %.2f, \"p999_bounded_5x\": \"%s\",\n",
                static_cast<unsigned long long>(sat_r.requests),
                static_cast<unsigned long long>(over_r.requests),
                static_cast<unsigned long long>(over_r.shed), shed_rate,
                p999_ratio, p999_verdict);
    std::printf("    \"reloads\": %.0f, \"reload_stall_us_max\": %.1f,"
                " \"errors\": %llu, \"mismatches\": %llu},\n",
                reloads, stall_max_us,
                static_cast<unsigned long long>(sat_r.errors + over_r.errors),
                static_cast<unsigned long long>(sat_r.mismatches +
                                                over_r.mismatches));

    // Gates: clean transport + bit-identity in both runs, shedding actually
    // engaged under overload, and (when reloads landed) the on-loop stall
    // stayed far under a batch window. The 5x p999 bound is reported but
    // not gated: single-core CI boxes make tail ratios too noisy to fail
    // the build on.
    overload_failed = sat_r.errors != 0 || sat_r.mismatches != 0 ||
                      over_r.errors != 0 || over_r.mismatches != 0 ||
                      over_r.shed == 0 ||
                      (reloads > 0.0 && stall_max_us >= 10000.0);
  }

  std::printf("  \"bit_identity\": \"%s\"\n}\n",
              diverged ? "FAIL" : "pass");
  if (overload_failed) {
    std::fprintf(stderr,
                 "bench_serve: overload leg failed (transport errors,"
                 " divergence, no shedding at 2x saturation, or reload"
                 " stall >= 10ms on the event loop)\n");
    return 1;
  }
  if (diverged) {
    std::fprintf(stderr,
                 "bench_serve: served predictions diverged from local"
                 " Model::predict (or transport errors occurred)\n");
    return 1;
  }
  return 0;
}
