// stream-serve-fraud: a stream::Retrainer ingests chunks and installs every
// refreshed generation into the ModelSlot of a live serve::Server, which
// the single-thread LoadGenerator reads over localhost TCP at a fixed
// rate. Every served prediction is checked bitwise against a local copy
// of the generation its X-Model-Version names.
#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <thread>

#include "data.h"
#include "gbdt/trainer.h"
#include "loadgen.h"
#include "serve/client.h"
#include "serve/model_slot.h"
#include "serve/server.h"
#include "sim/json.h"
#include "spans.h"
#include "stream/frozen_bin_map.h"
#include "stream/retrainer.h"
#include "workloads.h"
#include "workloads/split.h"

namespace perfbench {

using namespace booster;

namespace {

constexpr std::uint32_t kRowsPerRequest = 8;
constexpr std::uint32_t kConnections = 2;
// Requests in flight per connection in the saturation phase: 256 x 8 rows
// keeps more than max_batch_rows staged, so batches flush full instead of
// waiting out the batch window.
constexpr std::uint32_t kSaturationDepth = 128;
// CPU slots (see CpuPin): the server's event loop and the load generator
// get one CPU each; the stream's trainer threads share the other two.
constexpr unsigned kServerCpu = 2;
constexpr unsigned kGeneratorCpu = 3;

/// serve::Server plus the thread running its event loop.
class RunningServer {
 public:
  RunningServer(const serve::ServerConfig& cfg, serve::ModelSlot* slot,
                const gbdt::BinnedDataset& binning_reference)
      : server_(cfg, slot, binning_reference),
        thread_([this] {
          const CpuPin pin({kServerCpu});
          server_.run();
        }) {}
  ~RunningServer() {
    server_.stop();
    thread_.join();
  }
  RunningServer(const RunningServer&) = delete;
  RunningServer& operator=(const RunningServer&) = delete;

  std::uint16_t port() const { return server_.port(); }

 private:
  serve::Server server_;
  std::thread thread_;  // after server_: it runs server_.run()
};

serve::ServerConfig server_config() {
  serve::ServerConfig cfg;  // the serving scenario's defaults
  cfg.batch_window = std::chrono::microseconds(200);
  cfg.max_batch_rows = 1024;
  return cfg;
}

/// One GET against the server; the parsed JSON body, or nullopt.
std::optional<sim::Json> get_json(std::uint16_t port, const char* target) {
  serve::BlockingClient client;
  serve::Response resp;
  if (!client.connect(port) || !client.request("GET", target, "", &resp) ||
      resp.status != 200) {
    return std::nullopt;
  }
  std::string error;
  return sim::Json::parse(resp.body, &error);
}

bool healthy(std::uint16_t port) {
  serve::BlockingClient client;
  serve::Response resp;
  return client.connect(port) && client.request("GET", "/healthz", "", &resp) &&
         resp.status == 200;
}

/// Server counters of one phase: the difference of two GET /stats.
struct StatsDelta {
  double batches = 0, rows = 0, requests = 0, shed = 0, r5xx = 0,
         bytes_out = 0;
};

struct StatsSnapshot {
  std::optional<sim::Json> json;
  double get(const char* key) const {
    const sim::Json* v = json ? json->find(key) : nullptr;
    return v == nullptr ? 0.0 : v->as_double();
  }
};

StatsDelta delta(const StatsSnapshot& a, const StatsSnapshot& b) {
  const auto d = [&](const char* key) { return b.get(key) - a.get(key); };
  return {d("batches"),       d("predict_rows"),  d("requests"),
          d("requests_shed"), d("responses_5xx"), d("bytes_out")};
}

void add_phase_layers(const char* phase, const StatsDelta& d,
                      std::vector<Metric>* layers) {
  const std::string p = std::string("serve.") + phase + ".";
  layers->push_back({p + "batches", d.batches, "count"});
  layers->push_back(
      {p + "rows_per_batch", d.batches > 0 ? d.rows / d.batches : 0.0, "rows"});
  layers->push_back({p + "requests_shed", d.shed, "count"});
  layers->push_back({p + "responses_5xx", d.r5xx, "count"});
  layers->push_back({p + "bytes_out_per_request",
                     d.requests > 0 ? d.bytes_out / d.requests : 0.0, "bytes"});
}

/// Staleness samples: for each (version, handed-over time), the delay
/// until the first response naming that version or a later one.
std::vector<double> staleness_ms(
    const std::vector<std::pair<std::uint64_t, Clock::time_point>>& handed,
    const LoadGenerator& gen) {
  std::vector<double> out;
  for (const auto& [version, at] : handed) {
    for (const auto& [seen, arrival] : gen.version_arrivals()) {
      if (seen >= version) {
        out.push_back(
            std::chrono::duration<double, std::milli>(arrival - at).count());
        break;
      }
    }
  }
  return out;
}

/// Prebuilt /predict requests, one per 8-row block of the query rows.
std::vector<std::string> build_requests(const gbdt::Dataset& queries) {
  std::vector<std::string> out;
  const std::uint64_t blocks =
      (queries.num_records() + kRowsPerRequest - 1) / kRowsPerRequest;
  for (std::uint64_t b = 0; b < blocks; ++b) {
    const std::string body =
        serve::csv_rows(queries, b * kRowsPerRequest, kRowsPerRequest);
    out.push_back("POST /predict HTTP/1.1\r\nHost: bench\r\n"
                  "Content-Type: text/plain\r\nContent-Length: " +
                  std::to_string(body.size()) + "\r\n\r\n" + body);
  }
  return out;
}

void add_generator_layers(const PhaseStats& reads,
                          std::vector<Metric>* layers) {
  layers->push_back({"serve.sent", static_cast<double>(reads.sent), "count"});
  layers->push_back(
      {"serve.failed", static_cast<double>(reads.failed), "count"});
  layers->push_back({"serve.gen_late_ms_max", reads.late_ms_max, "ms"});
  layers->push_back(
      {"serve.latency_p90_ms", quantile(reads.latency_ms, 0.9), "ms"});
  layers->push_back(
      {"serve.latency_p99_ms", quantile(reads.latency_ms, 0.99), "ms"});
}

struct StreamSizes {
  std::uint64_t population_rows = 420000;
  double holdout_fraction = 0.1;
  std::uint64_t bootstrap_rows = 50000;
  std::uint64_t chunk_rows = 20000;
  // 8 refreshes per pass, 5 of them on a full window: the median staleness
  // then falls inside the full-window refreshes instead of in the gap
  // between them and the smaller early windows.
  std::uint32_t pass_chunks = 16;
  std::uint32_t window_chunks = 8;
  std::uint32_t refresh_every = 2;
  std::uint32_t refresh_trees = 10;
  std::uint32_t depth = 6;
  unsigned trainer_threads = 2;
  unsigned bootstrap_threads = 4;
  std::uint64_t query_rows = 2000;
  double rate = 1000.0;  // reads, requests/s
};

StreamSizes stream_sizes(Size size) {
  StreamSizes z;
  if (size == Size::kSmoke) {
    z.population_rows = 30000;
    z.bootstrap_rows = 4000;
    z.chunk_rows = 2000;
    z.pass_chunks = 4;
    z.window_chunks = 3;
    z.refresh_trees = 2;
    z.query_rows = 800;
    z.rate = 200.0;
  }
  return z;
}

gbdt::TrainerConfig stream_trainer(const StreamSizes& z, unsigned threads) {
  gbdt::TrainerConfig cfg;
  cfg.num_trees = z.refresh_trees;
  cfg.max_depth = z.depth;
  cfg.loss = "logistic";
  cfg.num_threads = threads;
  return cfg;
}

struct StreamSetup {
  gbdt::Dataset bootstrap_raw;
  gbdt::BinnedDataset bootstrap;
  std::unique_ptr<stream::FrozenBinMap> map;
  std::vector<gbdt::Dataset> chunks;  // one pass
  gbdt::BinnedDataset holdout;
  gbdt::BinnedDataset queries;
  std::optional<gbdt::Model> bootstrap_model;
  std::vector<std::string> requests;
  std::unique_ptr<serve::ModelSlot> slot;
  std::unique_ptr<RunningServer> server;  // declared after slot: dies first
  SetupTimes times;
};

void stream_setup_once(const StreamSizes& z, std::uint64_t seed,
                       StreamSetup* s, RunResult* out) {
  const ScopedSpan span("setup", Spans::kNone);
  const auto start = Clock::now();
  gbdt::Dataset raw;
  {
    const ScopedSpan call("workloads.synthesize", span.id());
    raw = synthesize_population(z.population_rows);
    s->times.synth_s = seconds_since(start);
  }
  workloads::TrainTestSplit split;
  {
    const ScopedSpan call("workloads.train_test_split", span.id());
    split = workloads::train_test_split(raw, z.holdout_fraction, seed);
  }
  s->bootstrap_raw = take_rows(split.train, 0, z.bootstrap_rows);
  for (std::uint32_t c = 0; c < z.pass_chunks; ++c) {
    s->chunks.push_back(take_rows(
        split.train, z.bootstrap_rows + c * z.chunk_rows, z.chunk_rows));
  }
  {
    const ScopedSpan call("gbdt.Binner::bin", span.id());
    const auto t = Clock::now();
    s->bootstrap = gbdt::Binner().bin(s->bootstrap_raw);
    s->times.bin_s = seconds_since(t);
  }
  {
    const ScopedSpan call("gbdt.BinnedDataset::ensure_row_major", span.id());
    const auto t = Clock::now();
    s->bootstrap.ensure_row_major();
    s->times.row_major_s = seconds_since(t);
  }
  s->map = std::make_unique<stream::FrozenBinMap>(s->bootstrap);
  {
    const ScopedSpan call("stream.FrozenBinMap::bin_chunk", span.id());
    s->map->bin_chunk(split.test, &s->holdout);
    const gbdt::Dataset queries = take_rows(
        split.test, 0, std::min(z.query_rows, split.test.num_records()));
    s->map->bin_chunk(queries, &s->queries);
    s->requests = build_requests(queries);
  }
  {
    const ScopedSpan call("gbdt.Trainer::train", span.id());
    s->bootstrap_model.emplace(
        gbdt::Trainer(stream_trainer(z, z.bootstrap_threads))
            .train(s->bootstrap)
            .model);
  }
  {
    const ScopedSpan call("serve.Server", span.id());
    s->slot = std::make_unique<serve::ModelSlot>();
    s->slot->install(s->bootstrap_model->clone());
    s->server = std::make_unique<RunningServer>(server_config(), s->slot.get(),
                                                s->bootstrap);
    out->check(healthy(s->server->port()),
               "stream-serve-fraud server answers /healthz");
  }
  s->times.total_s = seconds_since(start);
}

}  // namespace

void run_stream_serve_fraud(const RunOptions& opt, Provenance* prov,
                            RunResult* out) {
  const StreamSizes z = stream_sizes(opt.size);
  StreamSetup s;
  std::vector<SetupTimes> setups;
  for (int k = 0; k < kSetups; ++k) {
    s.server.reset();  // the old server reads the old slot: stop it first
    s = StreamSetup{};
    stream_setup_once(z, opt.seed, &s, out);
    setups.push_back(s.times);
  }
  report_setups(setups, out);
  prov->put("rows", static_cast<double>(z.chunk_rows * z.pass_chunks));
  prov->put("bootstrap_rows", static_cast<double>(z.bootstrap_rows));
  prov->put("chunk_rows", static_cast<double>(z.chunk_rows));
  prov->put("chunks_per_pass", z.pass_chunks);
  prov->put("window_chunks", z.window_chunks);
  prov->put("refresh_every_chunks", z.refresh_every);
  prov->put("trees", z.refresh_trees);
  prov->put("depth", z.depth);
  prov->put("threads", z.trainer_threads);
  prov->put("shards", 1);
  prov->put("ranks", 1);
  prov->put("connections", kConnections);
  prov->put("rows_per_request", kRowsPerRequest);
  prov->put("read_rate_req_per_s", z.rate);

  ExpectedBook book;
  book.put(s.slot->current()->version,
           std::make_shared<const std::vector<double>>(
               reference_predictions(*s.bootstrap_model, s.queries)));
  const std::uint16_t port = s.server->port();
  std::vector<Metric> layers;
  std::string pass_reference;  // every pass must end on these model bytes
  std::optional<gbdt::Model> final_model;
  std::uint64_t handoff_failures = 0;
  std::uint64_t refreshes_total = 0;
  const std::uint64_t first_version = s.slot->current()->version;
  std::uint64_t pass_id = 0;

  stream::RetrainerConfig rcfg;
  rcfg.trainer = stream_trainer(z, z.trainer_threads);
  rcfg.refresh_every_chunks = z.refresh_every;
  rcfg.window_chunks = z.window_chunks;
  rcfg.slot = s.slot.get();

  const auto measure = [&](double seconds, bool traced) {
    const ScopedSpan phase(traced ? "measure.traced" : "measure.untraced",
                           Spans::kNone);
    LoadGenerator gen(port, kConnections, &s.requests, kRowsPerRequest,
                      &book);
    out->check(gen.connect(), "load generator connects");
    const StatsSnapshot before{get_json(port, "/stats")};
    std::atomic<bool> stop{false};
    PhaseStats reads;
    std::thread reader([&] {
      const CpuPin reader_pin({kGeneratorCpu});
      const ScopedSpan span("serve.fixed_rate", phase.id());
      reads = gen.open_loop(z.rate, 1e6, &stop, span.id());
    });

    // The Retrainer's trainer threads inherit this thread's two CPUs.
    const CpuPin trainer_pin({0, 1});
    std::vector<double> pass_rows_per_s, pass_walls, refresh_ms, ingest_ms;
    std::vector<std::pair<std::uint64_t, Clock::time_point>> handed;
    std::uint64_t refreshes = 0, latest_trees = 0, arena_allocations = 0;
    const auto start = Clock::now();
    // Whole passes only: a new pass starts while the median pass still
    // fits in the remaining time, so every run mixes the same refreshes.
    while (pass_walls.empty() ||
           seconds_since(start) + median(pass_walls) <= seconds) {
      const ScopedSpan pass_span("stream.pass", phase.id(), pass_id++);
      const auto pass_start = Clock::now();
      stream::Retrainer retrainer(*s.map, rcfg);
      double ingest_s = 0.0;
      for (const gbdt::Dataset& chunk : s.chunks) {
        const auto t0 = Clock::now();
        bool refreshed = false;
        {
          const ScopedSpan call("stream.Retrainer::ingest", pass_span.id());
          refreshed = retrainer.ingest(chunk);
        }
        const double dt = seconds_since(t0);
        ingest_s += dt;
        (refreshed ? refresh_ms : ingest_ms).push_back(1e3 * dt);
        if (refreshed) {
          const std::uint64_t version = s.slot->current()->version;
          handed.emplace_back(version, t0);
          const ScopedSpan call("gbdt.Model::predict", pass_span.id());
          book.put(version,
                   std::make_shared<const std::vector<double>>(
                       reference_predictions(*retrainer.latest(), s.queries)));
        }
      }
      pass_walls.push_back(seconds_since(pass_start));
      pass_rows_per_s.push_back(
          static_cast<double>(z.chunk_rows) * z.pass_chunks / ingest_s);
      const stream::RetrainerStats& st = retrainer.stats();
      refreshes = st.refreshes;
      refreshes_total += st.refreshes;
      latest_trees = st.latest_trees;
      handoff_failures += st.handoff_failures;
      arena_allocations = retrainer.window().arena_allocations();
      const std::string bytes = model_bytes(*retrainer.latest());
      if (pass_reference.empty()) pass_reference = bytes;
      out->check(bytes == pass_reference,
                 "stream pass ends on the same model as the first pass");
      final_model.emplace(retrainer.latest()->clone());
    }
    // Let the reads pick up the last generation before they stop.
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    stop = true;
    reader.join();
    const StatsSnapshot after{get_json(port, "/stats")};
    out->check(before.json && after.json, "GET /stats answers");

    out->count(reads.sent, reads.failed, "stream reads answered 200");
    gen.finish_checks();
    out->count(gen.checked(), gen.mismatched(),
               "stream reads bitwise equal to Model::predict of their "
               "generation");
    const std::vector<double> stale = staleness_ms(handed, gen);
    out->check(stale.size() == handed.size(),
               "every refreshed generation was served");

    layers.clear();
    add_phase_layers("fixed_rate", delta(before, after), &layers);
    add_generator_layers(reads, &layers);
    layers.push_back({"stream.refresh_ms_p50", median(refresh_ms), "ms"});
    layers.push_back({"stream.ingest_ms_p50", median(ingest_ms), "ms"});
    layers.push_back(
        {"stream.refreshes", static_cast<double>(refreshes), "count"});
    layers.push_back(
        {"stream.latest_trees", static_cast<double>(latest_trees), "count"});
    layers.push_back({"stream.arena_allocations",
                      static_cast<double>(arena_allocations), "count"});

    PassFigures f;
    f.rows_per_s = median(pass_rows_per_s);
    f.latency_p50_ms = median(reads.latency_ms);
    f.latency_p90_ms = quantile(reads.latency_ms, 0.9);
    f.latency_p99_ms = quantile(reads.latency_ms, 0.99);
    f.staleness_p50_ms = median(stale);
    f.samples = stale.size();
    note("stream passes=%zu refreshes=%llu reads=%zu", pass_walls.size(),
         static_cast<unsigned long long>(refreshes_total),
         reads.latency_ms.size());
    return f;
  };
  const PassFigures plain = measure_passes(opt, out, measure);

  // Hand-off gates: every refresh landed in the slot.
  out->check(handoff_failures == 0, "stream hand-offs all landed");
  out->check(s.slot->current()->version == first_version + refreshes_total,
             "slot version == bootstrap version + refresh count");
  out->e2e("rows_per_s", plain.rows_per_s, "rows/s");
  out->e2e("latency_p50_ms", plain.latency_p50_ms, "ms");
  out->e2e("staleness_p50_ms", plain.staleness_p50_ms, "ms");
  out->e2e("holdout_logloss", holdout_logloss(*final_model, s.holdout), "nats");

  if (opt.trace) {
    for (const Metric& m : layers) out->layer(m.name, m.value, m.unit);
    out->layer("stream.handoff_failures", static_cast<double>(handoff_failures),
               "count");
    ProbeInputs in;
    in.train = &s.bootstrap;
    in.train_raw = &s.bootstrap_raw;
    in.holdout = &s.queries;
    in.model = &*final_model;
    in.threads = z.trainer_threads;
    in.chunk_rows = z.chunk_rows;
    in.window_chunks = z.window_chunks;
    run_probes(in, Spans::kNone, out);

    // Serving capacity with the last generation installed: a pipelined
    // saturation phase. Per-layer only -- on a shared host its throughput
    // moves too much between runs to carry a bound (see README).
    const CpuPin pin({kGeneratorCpu});
    LoadGenerator gen(port, kConnections, &s.requests, kRowsPerRequest, &book);
    out->check(gen.connect(), "load generator connects");
    const StatsSnapshot before{get_json(port, "/stats")};
    PhaseStats sat;
    {
      const ScopedSpan span("serve.saturation", Spans::kNone);
      sat = gen.saturate(kSaturationDepth, std::min(2.0, opt.seconds / 4),
                         span.id());
    }
    const StatsSnapshot after{get_json(port, "/stats")};
    out->check(before.json && after.json, "GET /stats answers");
    out->count(sat.sent, sat.failed, "saturation requests answered 200");
    gen.finish_checks();
    out->count(gen.checked(), gen.mismatched(),
               "saturation predictions bitwise equal to Model::predict");
    std::vector<Metric> saturation;
    add_phase_layers("saturation", delta(before, after), &saturation);
    for (const Metric& m : saturation) out->layer(m.name, m.value, m.unit);
    out->layer("serve.saturation.rows_per_s",
               sat.seconds > 0.0
                   ? static_cast<double>(sat.rows_in_window) / sat.seconds
                   : 0.0,
               "rows/s");
  }
}

}  // namespace perfbench
