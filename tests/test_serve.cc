// Serving subsystem contract suite (ISSUE 8 tentpole): the HTTP parser
// under torture (byte-at-a-time arrival, split terminators, pipelining,
// oversized and malformed input), the buffer pool's steady-state
// allocation-free property, and the server end-to-end over real loopback
// sockets -- where the headline assertion is *bit-identity*: every
// prediction served over TCP, in any batch composition, EXPECT_EQ-equals
// local Model::predict on the same rows, and a hot model swap mid-load
// never tears a response (each response is wholly one version, stamped by
// X-Model-Version).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/stat.h>

#include <atomic>
#include <chrono>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "sim/json.h"

#include "gbdt/binning.h"
#include "gbdt/model_io.h"
#include "gbdt/trainer.h"
#include "serve/buffer_pool.h"
#include "serve/client.h"
#include "serve/http.h"
#include "serve/model_slot.h"
#include "serve/row_binner.h"
#include "serve/server.h"
#include "workloads/synth.h"

namespace booster::serve {
namespace {

using gbdt::BinnedDataset;

/// Model is move-only (it owns its Loss); tests that keep a local copy
/// *and* install one into the slot clone through the text format -- which
/// preserves predictions bit-exactly by the model_io round-trip contract.
gbdt::Model clone_model(const gbdt::Model& model) {
  std::stringstream buffer;
  gbdt::save_model(model, buffer);
  return gbdt::load_model(buffer);
}

// ---------------------------------------------------------------- parser

TEST(RequestParser, ByteAtATimeDeliversIdenticalRequest) {
  const std::string wire =
      "POST /predict HTTP/1.1\r\n"
      "Host: x\r\n"
      "Content-Length: 5\r\n"
      "\r\n"
      "a,b,c";
  RequestParser parser;
  Request req;
  std::size_t delivered = 0;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    std::size_t used = 0;
    const ParseStatus status =
        parser.consume(std::string_view(wire).substr(i, 1), &used, &req);
    if (i + 1 < wire.size()) {
      ASSERT_EQ(status, ParseStatus::kNeedMore) << "byte " << i;
    } else {
      ASSERT_EQ(status, ParseStatus::kRequest);
      EXPECT_EQ(used, 1u);
      ++delivered;
    }
  }
  EXPECT_EQ(delivered, 1u);
  EXPECT_EQ(req.method, "POST");
  EXPECT_EQ(req.target, "/predict");
  EXPECT_EQ(req.body, "a,b,c");
  EXPECT_TRUE(req.keep_alive);
  EXPECT_TRUE(parser.idle());
}

TEST(RequestParser, TerminatorSplitAcrossSegmentsParses) {
  // The CRLFCRLF terminator arrives split at every possible point.
  const std::string head = "GET /healthz HTTP/1.1\r\nHost: x\r\n";
  const std::string tail = "\r\n";
  for (std::size_t split = 0; split <= tail.size(); ++split) {
    RequestParser parser;
    Request req;
    std::size_t used = 0;
    const std::string first = head + tail.substr(0, split);
    const ParseStatus s1 = parser.consume(first, &used, &req);
    if (split == tail.size()) {
      ASSERT_EQ(s1, ParseStatus::kRequest);
      continue;
    }
    ASSERT_EQ(s1, ParseStatus::kNeedMore);
    EXPECT_EQ(used, first.size());
    const ParseStatus s2 = parser.consume(tail.substr(split), &used, &req);
    ASSERT_EQ(s2, ParseStatus::kRequest) << "split " << split;
    EXPECT_EQ(req.target, "/healthz");
  }
}

TEST(RequestParser, PipelinedFollowerStaysUnconsumed) {
  const std::string first =
      "POST /predict HTTP/1.1\r\nContent-Length: 3\r\n\r\nxyz";
  const std::string second = "GET /stats HTTP/1.1\r\n\r\n";
  const std::string wire = first + second;
  RequestParser parser;
  Request req;
  std::size_t used = 0;
  ASSERT_EQ(parser.consume(wire, &used, &req), ParseStatus::kRequest);
  EXPECT_EQ(used, first.size());  // follower untouched
  EXPECT_EQ(req.body, "xyz");
  std::size_t used2 = 0;
  ASSERT_EQ(parser.consume(std::string_view(wire).substr(used), &used2, &req),
            ParseStatus::kRequest);
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.target, "/stats");
}

TEST(RequestParser, KeepAliveFoldsVersionAndConnectionHeader) {
  const auto parse_one = [](const std::string& wire) {
    RequestParser parser;
    Request req;
    std::size_t used = 0;
    EXPECT_EQ(parser.consume(wire, &used, &req), ParseStatus::kRequest);
    return req;
  };
  EXPECT_TRUE(parse_one("GET / HTTP/1.1\r\n\r\n").keep_alive);
  EXPECT_FALSE(parse_one("GET / HTTP/1.0\r\n\r\n").keep_alive);
  EXPECT_FALSE(
      parse_one("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").keep_alive);
  EXPECT_TRUE(
      parse_one("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
          .keep_alive);
}

TEST(RequestParser, RejectsLoudlyAndStaysPoisoned) {
  struct Case {
    std::string wire;
    ParseStatus expected;
  };
  ParserLimits limits;
  limits.max_header_bytes = 128;
  limits.max_body_bytes = 64;
  const std::vector<Case> cases = {
      {"garbage\r\n\r\n", ParseStatus::kBadRequest},
      {"GET / HTTP/2\r\n\r\n", ParseStatus::kBadRequest},
      {"GET / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\n",
       ParseStatus::kBadRequest},
      {"GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
       ParseStatus::kBadRequest},
      {"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
       ParseStatus::kUnsupported},
      {"POST / HTTP/1.1\r\nContent-Length: 65\r\n\r\n",
       ParseStatus::kBodyTooLarge},
      {"GET / HTTP/1.1\r\nX-Pad: " + std::string(200, 'a') + "\r\n\r\n",
       ParseStatus::kHeadersTooLarge},
  };
  for (const Case& c : cases) {
    RequestParser parser(limits);
    Request req;
    std::size_t used = 0;
    EXPECT_EQ(parser.consume(c.wire, &used, &req), c.expected) << c.wire;
    // Poisoned: even a pristine request is refused until reset().
    EXPECT_EQ(parser.consume("GET / HTTP/1.1\r\n\r\n", &used, &req),
              ParseStatus::kBadRequest)
        << "parser must stay poisoned";
    parser.reset();
    EXPECT_EQ(parser.consume("GET / HTTP/1.1\r\n\r\n", &used, &req),
              ParseStatus::kRequest);
  }
}

// ----------------------------------------------------------- buffer pool

TEST(BufferPool, SteadyStateIsAllocationFree) {
  BufferPool pool;
  // Warm-up: high-water mark of 2 concurrent buffers.
  std::string a = pool.acquire();
  std::string b = pool.acquire();
  a.append(4096, 'x');
  b.append(4096, 'y');
  pool.release(std::move(a));
  pool.release(std::move(b));
  const std::uint64_t warm_allocations = pool.allocations();
  EXPECT_EQ(warm_allocations, 2u);
  for (int round = 0; round < 1000; ++round) {
    std::string c = pool.acquire();
    std::string d = pool.acquire();
    EXPECT_TRUE(c.empty());
    EXPECT_GE(c.capacity(), 4096u);  // recycled capacity, not a fresh buffer
    c.append(512, 'z');
    pool.release(std::move(c));
    pool.release(std::move(d));
  }
  EXPECT_EQ(pool.allocations(), warm_allocations);  // plateau
  EXPECT_EQ(pool.acquires(), 2u + 2000u);
}

TEST(BufferPool, OversizedReleaseDoesNotPinCapacity) {
  // Regression: release() used to retain arbitrary capacity forever, so a
  // single near-limit request body pinned megabytes in the free list for
  // the server's lifetime.
  BufferPool pool;
  std::string big = pool.acquire();
  big.append(4 * BufferPool::kMaxRetainedCapacity, 'x');
  pool.release(std::move(big));
  EXPECT_EQ(pool.shrunk(), 1u);
  EXPECT_LE(pool.idle_capacity(), BufferPool::kMaxRetainedCapacity);

  // A buffer at the cap is retained with its capacity intact.
  std::string ok = pool.acquire();
  ok.reserve(BufferPool::kMaxRetainedCapacity / 2);
  const std::size_t kept = ok.capacity();
  pool.release(std::move(ok));
  EXPECT_EQ(pool.shrunk(), 1u);
  EXPECT_GE(pool.idle_capacity(), kept);
}

TEST(BufferPool, IdleListIsBounded) {
  // Regression: free_ grew without bound, so a connection burst left its
  // high-water mark of buffers idle forever after draining.
  BufferPool pool;
  std::vector<std::string> burst;
  for (std::size_t i = 0; i < BufferPool::kMaxIdleBuffers + 20; ++i) {
    std::string buf = pool.acquire();
    buf.append(256, 'b');
    burst.push_back(std::move(buf));
  }
  for (auto& buf : burst) pool.release(std::move(buf));
  EXPECT_EQ(pool.idle(), BufferPool::kMaxIdleBuffers);
  EXPECT_EQ(pool.dropped(), 20u);
  EXPECT_LE(pool.idle_capacity(),
            BufferPool::kMaxIdleBuffers * BufferPool::kMaxRetainedCapacity);
}

// ------------------------------------------------------------ end-to-end

struct Fixture {
  static ServerConfig config_with(std::chrono::microseconds window,
                                  std::uint32_t max_batch_rows) {
    ServerConfig scfg;
    scfg.batch_window = window;
    scfg.max_batch_rows = max_batch_rows;
    return scfg;
  }

  explicit Fixture(std::chrono::microseconds window = {},
                   std::uint32_t max_batch_rows = 1024)
      : Fixture(config_with(window, max_batch_rows)) {}

  explicit Fixture(ServerConfig scfg) {
    workloads::DatasetSpec spec;
    spec.name = "serve";
    spec.nominal_records = 400;
    spec.numeric_fields = 5;
    spec.categorical_cardinalities = {6, 3};
    spec.missing_rate = 0.1;
    spec.loss = "logistic";
    raw = workloads::synthesize(spec, 400, 17);
    binned = gbdt::Binner().bin(raw);

    gbdt::TrainerConfig tcfg;
    tcfg.num_trees = 12;
    tcfg.max_depth = 4;
    tcfg.loss = "logistic";
    tcfg.num_threads = 1;
    model.emplace(gbdt::Trainer(tcfg).train(binned).model);
    slot.install(clone_model(*model));

    expected.resize(binned.num_records());
    for (std::uint64_t r = 0; r < binned.num_records(); ++r) {
      expected[r] = model->predict(binned, r);
    }

    server = std::make_unique<Server>(scfg, &slot, binned);
    loop = std::thread([this] { server->run(); });
  }

  ~Fixture() {
    server->stop();
    loop.join();
  }

  gbdt::Dataset raw;
  BinnedDataset binned;
  std::optional<gbdt::Model> model;
  ModelSlot slot;
  std::vector<double> expected;
  std::unique_ptr<Server> server;
  std::thread loop;
};

/// GET /stats over `client`, parsed; nullopt on any failure.
std::optional<sim::Json> get_stats(BlockingClient* client) {
  Response resp;
  if (!client->request("GET", "/stats", "", &resp) || resp.status != 200) {
    return std::nullopt;
  }
  std::string error;
  return sim::Json::parse(resp.body, &error);
}

double stat_value(const sim::Json& stats, const char* key) {
  const sim::Json* v = stats.find(key);
  return v == nullptr ? -1.0 : v->as_double();
}

/// Polls /stats until `key` >= `at_least`. The polling itself keeps this
/// connection active (relevant for the idle-reap test: the prober must
/// survive the sweep). Deadlines are generous for sanitizer slowdown.
bool wait_for_stat(BlockingClient* client, const char* key, double at_least,
                   std::chrono::milliseconds deadline =
                       std::chrono::milliseconds(15000)) {
  const auto until = std::chrono::steady_clock::now() + deadline;
  while (std::chrono::steady_clock::now() < until) {
    const auto stats = get_stats(client);
    if (!stats.has_value()) return false;
    if (stat_value(*stats, key) >= at_least) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

std::string framed_predict(const std::string& body) {
  return "POST /predict HTTP/1.1\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

TEST(ServeEndToEnd, CsvPredictionsBitIdenticalToLocalModel) {
  Fixture fx;
  BlockingClient client;
  ASSERT_TRUE(client.connect(fx.server->port()));
  std::vector<double> got;
  for (const std::uint64_t first : {0ull, 37ull, 395ull}) {
    const std::string body = csv_rows(fx.raw, first, 11);
    Response resp;
    ASSERT_TRUE(client.request("POST", "/predict", body, &resp));
    ASSERT_EQ(resp.status, 200);
    EXPECT_EQ(resp.header("X-Model-Version"), "1");
    ASSERT_TRUE(parse_predictions(resp.body, &got));
    ASSERT_EQ(got.size(), 11u);
    for (std::size_t i = 0; i < got.size(); ++i) {
      const std::uint64_t row = (first + i) % fx.raw.num_records();
      EXPECT_EQ(got[i], fx.expected[row]) << "row " << row;
    }
  }
}

TEST(ServeEndToEnd, JsonBodyBinsIdenticallyToCsv) {
  Fixture fx;
  BlockingClient client;
  ASSERT_TRUE(client.connect(fx.server->port()));
  const std::string body = json_rows(fx.raw, 5, 9);
  Response resp;
  ASSERT_TRUE(
      client.request("POST", "/predict", body, &resp, "application/json"));
  ASSERT_EQ(resp.status, 200) << resp.body;
  std::vector<double> got;
  ASSERT_TRUE(parse_predictions(resp.body, &got));
  ASSERT_EQ(got.size(), 9u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], fx.expected[(5 + i) % fx.raw.num_records()]);
  }
}

TEST(ServeEndToEnd, PipelinedMixedRequestsAnswerInOrder) {
  // Two predicts and a healthz in one write: responses must come back in
  // request order even though the predicts detour through the batch.
  Fixture fx(std::chrono::microseconds(2000));
  BlockingClient client;
  ASSERT_TRUE(client.connect(fx.server->port()));
  const std::string body1 = csv_rows(fx.raw, 0, 2);
  const std::string body2 = csv_rows(fx.raw, 2, 3);
  std::string wire;
  wire += "POST /predict HTTP/1.1\r\nContent-Length: " +
          std::to_string(body1.size()) + "\r\n\r\n" + body1;
  wire += "GET /healthz HTTP/1.1\r\n\r\n";
  wire += "POST /predict HTTP/1.1\r\nContent-Length: " +
          std::to_string(body2.size()) + "\r\n\r\n" + body2;
  ASSERT_TRUE(client.send_raw(wire));

  Response r1, r2, r3;
  ASSERT_TRUE(client.read_response(&r1));
  ASSERT_TRUE(client.read_response(&r2));
  ASSERT_TRUE(client.read_response(&r3));
  std::vector<double> got;
  ASSERT_EQ(r1.status, 200);
  ASSERT_TRUE(parse_predictions(r1.body, &got));
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], fx.expected[0]);
  EXPECT_EQ(got[1], fx.expected[1]);
  ASSERT_EQ(r2.status, 200);
  EXPECT_EQ(r2.body, "ok\n");
  ASSERT_EQ(r3.status, 200);
  ASSERT_TRUE(parse_predictions(r3.body, &got));
  ASSERT_EQ(got.size(), 3u);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(got[i], fx.expected[2 + i]);
}

TEST(ServeEndToEnd, HalfClosedClientStillGetsItsAnswer) {
  Fixture fx;
  BlockingClient client;
  ASSERT_TRUE(client.connect(fx.server->port()));
  const std::string body = csv_rows(fx.raw, 1, 1);
  ASSERT_TRUE(client.send_raw("POST /predict HTTP/1.1\r\nContent-Length: " +
                              std::to_string(body.size()) + "\r\n\r\n" +
                              body));
  // Half-close before reading: the server sees EOF with a request still
  // buffered, must answer it, then close its side.
  client.shutdown_writes();
  Response resp;
  ASSERT_TRUE(client.read_response(&resp));
  EXPECT_EQ(resp.status, 200);
  std::vector<double> got;
  ASSERT_TRUE(parse_predictions(resp.body, &got));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], fx.expected[1]);
  // After the answer, the server closes: next read sees EOF.
  EXPECT_FALSE(client.read_response(&resp));
}

TEST(ServeEndToEnd, MalformedRowsRejectedWithoutPoisoningBatchOrConnection) {
  Fixture fx;
  BlockingClient client;
  ASSERT_TRUE(client.connect(fx.server->port()));
  Response resp;
  // Wrong arity.
  ASSERT_TRUE(client.request("POST", "/predict", "1.5,2.5\n", &resp));
  EXPECT_EQ(resp.status, 400);
  // Garbage cell.
  ASSERT_TRUE(
      client.request("POST", "/predict", csv_rows(fx.raw, 0, 1) + "x,y\n",
                     &resp));
  EXPECT_EQ(resp.status, 400);
  // Wrong method / unknown target / empty body.
  ASSERT_TRUE(client.request("GET", "/predict", "", &resp));
  EXPECT_EQ(resp.status, 405);
  ASSERT_TRUE(client.request("GET", "/nope", "", &resp));
  EXPECT_EQ(resp.status, 404);
  ASSERT_TRUE(client.request("POST", "/predict", "", &resp));
  EXPECT_EQ(resp.status, 400);
  // The connection survived all of it, and the batch was never corrupted:
  // a good request still answers bit-identically.
  ASSERT_TRUE(client.request("POST", "/predict", csv_rows(fx.raw, 7, 4),
                             &resp));
  ASSERT_EQ(resp.status, 200);
  std::vector<double> got;
  ASSERT_TRUE(parse_predictions(resp.body, &got));
  ASSERT_EQ(got.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(got[i], fx.expected[7 + i]);
}

TEST(ServeEndToEnd, OversizedRequestRejectedAndConnectionClosed) {
  Fixture fx;
  BlockingClient client;
  ASSERT_TRUE(client.connect(fx.server->port()));
  Response resp;
  // Declared body over the 1 MiB default limit -> 413 before any body
  // bytes are read.
  ASSERT_TRUE(client.send_raw(
      "POST /predict HTTP/1.1\r\nContent-Length: 10000000\r\n\r\n"));
  ASSERT_TRUE(client.read_response(&resp));
  EXPECT_EQ(resp.status, 413);
  // The server closes after an error response; the next read sees EOF.
  EXPECT_FALSE(client.read_response(&resp));

  BlockingClient client2;
  ASSERT_TRUE(client2.connect(fx.server->port()));
  ASSERT_TRUE(client2.send_raw("GET / HTTP/1.1\r\nX-Pad: " +
                               std::string(10000, 'a') + "\r\n\r\n"));
  ASSERT_TRUE(client2.read_response(&resp));
  EXPECT_EQ(resp.status, 431);
}

TEST(ServeEndToEnd, ServesNothingBeforeFirstInstall) {
  workloads::DatasetSpec spec;
  spec.name = "empty";
  spec.nominal_records = 50;
  spec.numeric_fields = 2;
  gbdt::Dataset raw = workloads::synthesize(spec, 50, 3);
  BinnedDataset binned = gbdt::Binner().bin(raw);
  ModelSlot slot;  // nothing installed
  Server server(ServerConfig{}, &slot, binned);
  std::thread loop([&] { server.run(); });
  BlockingClient client;
  ASSERT_TRUE(client.connect(server.port()));
  Response resp;
  ASSERT_TRUE(client.request("POST", "/predict", csv_rows(raw, 0, 1), &resp));
  EXPECT_EQ(resp.status, 503);
  server.stop();
  loop.join();
}

TEST(ServeEndToEnd, ReloadSwapsModelAndRefusesCorruptFiles) {
  Fixture fx;
  // Train a different model (fewer trees) and save it as a checked
  // container.
  gbdt::TrainerConfig tcfg;
  tcfg.num_trees = 4;
  tcfg.max_depth = 3;
  tcfg.loss = "logistic";
  tcfg.num_threads = 1;
  const gbdt::Model v2 = gbdt::Trainer(tcfg).train(fx.binned).model;
  const std::string path = "/tmp/booster_serve_reload_test.model";
  ASSERT_TRUE(gbdt::save_model_checked_file(v2, path));

  BlockingClient client;
  ASSERT_TRUE(client.connect(fx.server->port()));
  Response resp;
  ASSERT_TRUE(client.request("POST", "/reload", path + "\n", &resp));
  ASSERT_EQ(resp.status, 200) << resp.body;
  EXPECT_EQ(resp.body, "version 2\n");

  // Predictions now come from v2, still bit-identical to local predict.
  std::vector<double> got;
  ASSERT_TRUE(client.request("POST", "/predict", csv_rows(fx.raw, 3, 6),
                             &resp));
  ASSERT_EQ(resp.status, 200);
  EXPECT_EQ(resp.header("X-Model-Version"), "2");
  ASSERT_TRUE(parse_predictions(resp.body, &got));
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(got[i], v2.predict(fx.binned, 3 + i));
  }

  // A missing file and a corrupted container are refused with distinct
  // statuses, and the slot keeps serving v2.
  ASSERT_TRUE(client.request("POST", "/reload", "/tmp/nope.model", &resp));
  EXPECT_EQ(resp.status, 409);
  EXPECT_NE(resp.body.find("io-error"), std::string::npos) << resp.body;

  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  bytes[bytes.size() / 2] ^= 0x40;  // flip a payload bit
  const std::string bad_path = "/tmp/booster_serve_reload_corrupt.model";
  {
    std::ofstream out(bad_path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  ASSERT_TRUE(client.request("POST", "/reload", bad_path, &resp));
  EXPECT_EQ(resp.status, 409);
  EXPECT_NE(resp.body.find("bad-checksum"), std::string::npos) << resp.body;
  ASSERT_TRUE(client.request("POST", "/predict", csv_rows(fx.raw, 0, 1),
                             &resp));
  EXPECT_EQ(resp.header("X-Model-Version"), "2");
  std::remove(path.c_str());
  std::remove(bad_path.c_str());
}

TEST(ServeEndToEnd, ReloadRunsOffLoopAndConcurrentRequestsSurviveIt) {
  // /reload hands the file read + CRC + flattening to the reload worker;
  // the event loop only pays for the job hand-off and the result drain.
  // The server must (a) show that residual on-loop cost staying tiny in
  // /stats (the before/after metric for the off-loop change) and (b)
  // answer every concurrently in-flight request correctly -- never
  // dropped or torn, each response wholly one version's output.
  Fixture fx;
  gbdt::TrainerConfig tcfg;
  tcfg.num_trees = 4;
  tcfg.max_depth = 3;
  tcfg.loss = "logistic";
  tcfg.num_threads = 1;
  const gbdt::Model v2 = gbdt::Trainer(tcfg).train(fx.binned).model;
  std::vector<double> v2_expected(fx.binned.num_records());
  for (std::uint64_t r = 0; r < fx.binned.num_records(); ++r) {
    v2_expected[r] = v2.predict(fx.binned, r);
  }
  const std::string path = "/tmp/booster_serve_reload_stall_test.model";
  ASSERT_TRUE(gbdt::save_model_checked_file(v2, path));

  // Clients hammer /predict while the reloader swaps models; every
  // response must be wholly one version's output.
  std::atomic<std::uint64_t> bad{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      BlockingClient client;
      if (!client.connect(fx.server->port())) {
        bad += 1000;
        return;
      }
      std::vector<double> got;
      Response resp;
      for (int k = 0; k < 50; ++k) {
        const std::uint64_t first = (c * 83 + k * 7) % fx.raw.num_records();
        if (!client.request("POST", "/predict", csv_rows(fx.raw, first, 3),
                            &resp) ||
            resp.status != 200 || !parse_predictions(resp.body, &got) ||
            got.size() != 3) {
          ++bad;
          continue;
        }
        const std::string_view header = resp.header("X-Model-Version");
        std::uint64_t version = 0;
        std::from_chars(header.data(), header.data() + header.size(),
                        version);
        const std::vector<double>& expect_from =
            version >= 2 ? v2_expected : fx.expected;
        for (int i = 0; i < 3; ++i) {
          const std::uint64_t row = (first + i) % fx.raw.num_records();
          if (got[i] != expect_from[row]) ++bad;
        }
      }
    });
  }

  BlockingClient reloader;
  ASSERT_TRUE(reloader.connect(fx.server->port()));
  Response resp;
  int reloads = 0;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(reloader.request("POST", "/reload", path, &resp));
    ASSERT_EQ(resp.status, 200) << resp.body;
    ++reloads;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(bad.load(), 0u);

  ASSERT_TRUE(reloader.request("GET", "/stats", "", &resp));
  ASSERT_EQ(resp.status, 200);
  std::string error;
  const auto stats = sim::Json::parse(resp.body, &error);
  ASSERT_TRUE(stats.has_value()) << error;
  EXPECT_EQ(stats->find("reloads")->as_double(), reloads);
  const auto* total = stats->find("reload_stall_us_total");
  const auto* max = stats->find("reload_stall_us_max");
  ASSERT_NE(total, nullptr);
  ASSERT_NE(max, nullptr);
  EXPECT_GE(total->as_double(), max->as_double());
  // The on-loop cost per reload is a mailbox hand-off + a response
  // enqueue -- microseconds. 5 ms of headroom absorbs scheduler noise
  // while still proving the loop no longer pays the O(model bytes)
  // load + flatten (which is exactly what the inline implementation
  // charged here).
  EXPECT_LT(max->as_double(), 5000.0);
  std::remove(path.c_str());
}

TEST(ServeEndToEnd, ClosedLoopHarnessGatesOnBitIdentity) {
  Fixture fx(std::chrono::microseconds(200));
  LoadConfig lcfg;
  lcfg.port = fx.server->port();
  lcfg.connections = 4;
  lcfg.requests_per_connection = 30;
  lcfg.rows_per_request = 7;
  const LoadResult result = run_closed_loop(lcfg, fx.raw, fx.expected);
  EXPECT_EQ(result.errors, 0u);
  EXPECT_EQ(result.mismatches, 0u);
  EXPECT_EQ(result.requests, 4u * 30u);
  EXPECT_EQ(result.rows, 4u * 30u * 7u);
  EXPECT_GT(result.qps, 0.0);
  EXPECT_GT(result.p50_us, 0.0);
  EXPECT_GE(result.p99_us, result.p50_us);
}

TEST(ServeEndToEnd, ConnectionChurnReachesAllocationFreeSteadyState) {
  Fixture fx;
  // Sequential churn: each connection acquires 2 pooled buffers and
  // releases them on close, so allocations must plateau at the concurrent
  // high-water mark while acquires keep climbing.
  for (int round = 0; round < 40; ++round) {
    BlockingClient client;
    ASSERT_TRUE(client.connect(fx.server->port()));
    Response resp;
    ASSERT_TRUE(client.request("POST", "/predict", csv_rows(fx.raw, round, 2),
                               &resp));
    ASSERT_EQ(resp.status, 200);
  }
  BlockingClient client;
  ASSERT_TRUE(client.connect(fx.server->port()));
  Response resp;
  ASSERT_TRUE(client.request("GET", "/stats", "", &resp));
  ASSERT_EQ(resp.status, 200);
  std::string error;
  const auto stats = sim::Json::parse(resp.body, &error);
  ASSERT_TRUE(stats.has_value()) << error;
  const double allocations = stats->find("buffer_allocations")->as_double();
  const double acquires = stats->find("buffer_acquires")->as_double();
  // 40 churned connections + this one = 82 acquires minimum; the pool may
  // only ever have allocated for the *concurrent* high-water mark (a
  // handful: churned connections overlap briefly in TIME_WAIT handoff).
  EXPECT_GE(acquires, 82.0);
  EXPECT_LE(allocations, 8.0);
}

TEST(ServeEndToEnd, HotSwapMidLoadNeverTearsAResponse) {
  Fixture fx(std::chrono::microseconds(300));
  gbdt::TrainerConfig tcfg;
  tcfg.num_trees = 3;
  tcfg.max_depth = 3;
  tcfg.loss = "logistic";
  tcfg.num_threads = 1;
  const gbdt::Model alt = gbdt::Trainer(tcfg).train(fx.binned).model;
  std::vector<double> alt_expected(fx.binned.num_records());
  for (std::uint64_t r = 0; r < fx.binned.num_records(); ++r) {
    alt_expected[r] = alt.predict(fx.binned, r);
  }

  std::atomic<bool> done{false};
  std::thread swapper([&] {
    // Keep installing fresh versions, alternating models, while the
    // clients hammer /predict. Version 1 is the fixture install; the
    // swapper's installs get versions 2, 3, 4, ... -- even versions are
    // `alt`, odd versions are the original model.
    int i = 0;
    while (!done.load()) {
      fx.slot.install(clone_model(i % 2 == 0 ? alt : *fx.model));
      ++i;
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });

  // Every response must be *wholly* one model's output: the version header
  // names which, and all rows must match that version bit-for-bit.
  std::vector<std::thread> clients;
  std::atomic<std::uint64_t> torn{0};
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      BlockingClient client;
      if (!client.connect(fx.server->port())) {
        torn += 1000;
        return;
      }
      std::vector<double> got;
      Response resp;
      for (int k = 0; k < 60; ++k) {
        const std::uint64_t first = (c * 61 + k * 5) % fx.raw.num_records();
        if (!client.request("POST", "/predict", csv_rows(fx.raw, first, 4),
                            &resp) ||
            resp.status != 200 || !parse_predictions(resp.body, &got) ||
            got.size() != 4) {
          ++torn;
          continue;
        }
        const std::string_view header = resp.header("X-Model-Version");
        std::uint64_t version = 0;
        std::from_chars(header.data(), header.data() + header.size(),
                        version);
        if (version == 0) {
          ++torn;
          continue;
        }
        const std::vector<double>& expect_from =
            version % 2 == 0 ? alt_expected : fx.expected;
        bool matches_signed = true;
        for (int i = 0; i < 4; ++i) {
          const std::uint64_t row = (first + i) % fx.raw.num_records();
          if (got[i] != expect_from[row]) matches_signed = false;
        }
        if (!matches_signed) ++torn;
      }
    });
  }
  for (auto& t : clients) t.join();
  done.store(true);
  swapper.join();
  EXPECT_EQ(torn.load(), 0u);
}

// ------------------------------------------------- overload robustness

TEST(ServeOverload, QueryStringsRouteOnPathOnly) {
  // Regression: handle_request matched req.target exactly, so any query
  // string fell through to 404.
  Fixture fx;
  BlockingClient client;
  ASSERT_TRUE(client.connect(fx.server->port()));
  Response resp;
  ASSERT_TRUE(client.request("GET", "/healthz?probe=1", "", &resp));
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.body, "ok\n");
  ASSERT_TRUE(client.request("POST", "/predict?debug=batching",
                             csv_rows(fx.raw, 0, 3), &resp));
  ASSERT_EQ(resp.status, 200);
  std::vector<double> got;
  ASSERT_TRUE(parse_predictions(resp.body, &got));
  ASSERT_EQ(got.size(), 3u);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(got[i], fx.expected[i]);
  ASSERT_TRUE(client.request("GET", "/stats?pretty", "", &resp));
  EXPECT_EQ(resp.status, 200);
  std::string error;
  EXPECT_TRUE(sim::Json::parse(resp.body, &error).has_value()) << error;
  // Unknown paths still 404, query string or not.
  ASSERT_TRUE(client.request("GET", "/nope?x=1", "", &resp));
  EXPECT_EQ(resp.status, 404);
}

TEST(ServeOverload, PredictsPastWatermarkShedPromptlyAndAdmittedStayExact) {
  // A long batch window holds admitted rows in the staged queue, so the
  // shed watermark is observable deterministically: two admitted requests
  // fill the queue past shed_rows_watermark, and a third must get its 503
  // *immediately* -- long before the window flushes -- while the admitted
  // rows still come back bit-identical.
  ServerConfig scfg = Fixture::config_with(std::chrono::microseconds(0), 1024);
  scfg.batch_window = std::chrono::seconds(2);
  scfg.shed_rows_watermark = 8;
  Fixture fx(scfg);
  BlockingClient a, b, c, probe;
  ASSERT_TRUE(a.connect(fx.server->port()));
  ASSERT_TRUE(b.connect(fx.server->port()));
  ASSERT_TRUE(c.connect(fx.server->port()));
  ASSERT_TRUE(probe.connect(fx.server->port()));

  ASSERT_TRUE(a.send_raw(framed_predict(csv_rows(fx.raw, 0, 5))));
  ASSERT_TRUE(wait_for_stat(&probe, "staged_rows", 5.0));
  ASSERT_TRUE(b.send_raw(framed_predict(csv_rows(fx.raw, 5, 4))));
  ASSERT_TRUE(wait_for_stat(&probe, "staged_rows", 9.0));

  // 9 staged rows >= watermark 8: C is shed with a well-formed 503 that
  // arrives promptly (it never joins the 2 s window).
  const auto t0 = std::chrono::steady_clock::now();
  Response shed;
  ASSERT_TRUE(c.request("POST", "/predict", csv_rows(fx.raw, 9, 2), &shed));
  const auto shed_latency = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(shed.status, 503);
  EXPECT_EQ(shed.header("Retry-After"), "1");
  EXPECT_LT(shed_latency, std::chrono::milliseconds(1500))
      << "shed response waited on the batch window";

  // The admitted requests flush when the window expires, bit-identical.
  std::vector<double> got;
  Response resp;
  ASSERT_TRUE(a.read_response(&resp));
  ASSERT_EQ(resp.status, 200);
  ASSERT_TRUE(parse_predictions(resp.body, &got));
  ASSERT_EQ(got.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(got[i], fx.expected[i]);
  ASSERT_TRUE(b.read_response(&resp));
  ASSERT_EQ(resp.status, 200);
  ASSERT_TRUE(parse_predictions(resp.body, &got));
  ASSERT_EQ(got.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(got[i], fx.expected[5 + i]);

  const auto stats = get_stats(&probe);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stat_value(*stats, "requests_shed"), 1.0);
  EXPECT_EQ(stat_value(*stats, "staged_rows"), 0.0);
}

TEST(ServeOverload, SlowReaderPausesReadsAndResumesAtLowWatermark) {
  // Responses larger than out_high_watermark make every flush cross the
  // pause threshold at append time (before any send), so the pause is
  // deterministic regardless of how generously loopback buffers absorb
  // the output afterwards.
  ServerConfig scfg = Fixture::config_with({}, 1024);
  scfg.out_high_watermark = 1024;
  scfg.out_low_watermark = 256;
  Fixture fx(scfg);
  constexpr int kRequests = 20;
  constexpr int kRows = 64;  // ~1.8 KiB response, past the high watermark
  std::string wire;
  const std::string body = csv_rows(fx.raw, 0, kRows);
  for (int i = 0; i < kRequests; ++i) wire += framed_predict(body);

  BlockingClient slow, probe;
  ASSERT_TRUE(slow.connect(fx.server->port()));
  ASSERT_TRUE(probe.connect(fx.server->port()));
  ASSERT_TRUE(slow.send_raw(wire));
  ASSERT_TRUE(wait_for_stat(&probe, "out_buffer_pauses", 1.0));
  {
    const auto stats = get_stats(&probe);
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(stat_value(*stats, "out_buffer_closes"), 0.0)
        << "pause/resume backlog must not hard-close";
  }

  // Drain: every response arrives, in order, bit-identical -- pausing
  // reads delayed requests, it never dropped or corrupted one.
  std::vector<double> got;
  Response resp;
  for (int k = 0; k < kRequests; ++k) {
    ASSERT_TRUE(slow.read_response(&resp)) << "response " << k;
    ASSERT_EQ(resp.status, 200) << "response " << k;
    ASSERT_TRUE(parse_predictions(resp.body, &got));
    ASSERT_EQ(got.size(), static_cast<std::size_t>(kRows));
    for (int i = 0; i < kRows; ++i) {
      ASSERT_EQ(got[i], fx.expected[i % fx.raw.num_records()]);
    }
  }
  const auto stats = get_stats(&probe);
  ASSERT_TRUE(stats.has_value());
  EXPECT_GE(stat_value(*stats, "out_buffer_pauses"), 1.0);
  EXPECT_GE(stat_value(*stats, "out_buffer_resumes"), 1.0);
  EXPECT_EQ(stat_value(*stats, "out_buffer_closes"), 0.0);
  EXPECT_GE(stat_value(*stats, "out_high_water_bytes"),
            static_cast<double>(scfg.out_high_watermark));
  EXPECT_LE(stat_value(*stats, "out_high_water_bytes"),
            static_cast<double>(scfg.out_max_bytes));
}

TEST(ServeOverload, RunawayPipelinerIsHardClosedAtOutMax) {
  // A peer that pipelines predicts and never reads: its responses are
  // owed before the pause can bite, so the backlog blows through
  // out_max_bytes and the server must hard-close it. The tiny SO_RCVBUF
  // keeps the kernel from absorbing the backlog on the client side.
  ServerConfig scfg = Fixture::config_with({}, 1024);
  scfg.out_high_watermark = 4096;
  scfg.out_low_watermark = 1024;
  scfg.out_max_bytes = 16384;
  // Pin both kernel buffers small: with autotuned defaults the kernel
  // absorbs multi-MiB of backlog and the userland out-buffer never grows.
  scfg.so_sndbuf = 4096;
  Fixture fx(scfg);

  BlockingClient runaway, probe;
  runaway.set_recv_buffer(4096);
  ASSERT_TRUE(runaway.connect(fx.server->port()));
  ASSERT_TRUE(probe.connect(fx.server->port()));

  std::string wire;
  const std::string body = csv_rows(fx.raw, 0, 8);
  for (int i = 0; i < 400; ++i) wire += framed_predict(body);
  // ~144 KiB of responses vs a 16 KiB bound: the close is unavoidable.
  // The send may itself die partway once the server closes; that is the
  // expected outcome, not a failure.
  std::thread sender([&] { (void)runaway.send_raw(wire); });
  EXPECT_TRUE(wait_for_stat(&probe, "out_buffer_closes", 1.0));
  sender.join();

  // The server survived the abuse and keeps serving others.
  Response resp;
  ASSERT_TRUE(probe.request("POST", "/predict", csv_rows(fx.raw, 0, 2),
                            &resp));
  ASSERT_EQ(resp.status, 200);
  std::vector<double> got;
  ASSERT_TRUE(parse_predictions(resp.body, &got));
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], fx.expected[0]);
  EXPECT_EQ(got[1], fx.expected[1]);
}

TEST(ServeOverload, IdleAndSlowLorisConnectionsAreReaped) {
  ServerConfig scfg = Fixture::config_with({}, 1024);
  scfg.idle_timeout = std::chrono::milliseconds(100);
  Fixture fx(scfg);
  BlockingClient idle, loris, active;
  ASSERT_TRUE(idle.connect(fx.server->port()));
  ASSERT_TRUE(loris.connect(fx.server->port()));
  ASSERT_TRUE(active.connect(fx.server->port()));
  // The loris sends half a request head and then nothing: no complete
  // request ever forms, so without reaping it would pin its slot forever.
  ASSERT_TRUE(loris.send_raw("POST /predict HTTP/1.1\r\nContent-Le"));

  // The active prober polls /stats throughout (staying busy well past the
  // idle timeout) and must survive the sweep that reaps the other two.
  ASSERT_TRUE(wait_for_stat(&active, "idle_reaped", 2.0));
  Response resp;
  EXPECT_FALSE(idle.read_response(&resp)) << "idle connection not closed";
  EXPECT_FALSE(loris.read_response(&resp)) << "loris connection not closed";
  ASSERT_TRUE(active.request("GET", "/healthz", "", &resp));
  EXPECT_EQ(resp.status, 200);
}

TEST(ServeOverload, ConcurrentReloadIsRefusedWith409Busy) {
  Fixture fx;
  // A FIFO makes the worker's load block deterministically: the first
  // /reload stays in flight until this test writes container bytes into
  // the pipe, so the overlap window is as wide as we need instead of a
  // scheduler race.
  const std::string fifo = "/tmp/booster_serve_reload_fifo.model";
  std::remove(fifo.c_str());
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);

  gbdt::TrainerConfig tcfg;
  tcfg.num_trees = 4;
  tcfg.max_depth = 3;
  tcfg.loss = "logistic";
  tcfg.num_threads = 1;
  const gbdt::Model v2 = gbdt::Trainer(tcfg).train(fx.binned).model;
  const std::string real_path = "/tmp/booster_serve_reload_busy.model";
  ASSERT_TRUE(gbdt::save_model_checked_file(v2, real_path));
  std::string container_bytes;
  {
    std::ifstream in(real_path, std::ios::binary);
    container_bytes.assign(std::istreambuf_iterator<char>(in), {});
  }

  BlockingClient first, second, probe;
  ASSERT_TRUE(first.connect(fx.server->port()));
  ASSERT_TRUE(second.connect(fx.server->port()));
  ASSERT_TRUE(probe.connect(fx.server->port()));
  ASSERT_TRUE(first.send_raw("POST /reload HTTP/1.1\r\nContent-Length: " +
                             std::to_string(fifo.size()) + "\r\n\r\n" +
                             fifo));
  // The worker is now blocked opening the FIFO; the loop stays live.
  ASSERT_TRUE(wait_for_stat(&probe, "reload_in_flight", 1.0));

  Response resp;
  ASSERT_TRUE(second.request("POST", "/reload", real_path, &resp));
  EXPECT_EQ(resp.status, 409);
  EXPECT_NE(resp.body.find("in flight"), std::string::npos) << resp.body;
  // Predictions keep flowing while the worker is stuck mid-load: the
  // off-loop contract, demonstrated at its worst case.
  std::vector<double> got;
  ASSERT_TRUE(second.request("POST", "/predict", csv_rows(fx.raw, 0, 2),
                             &resp));
  ASSERT_EQ(resp.status, 200);
  ASSERT_TRUE(parse_predictions(resp.body, &got));
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], fx.expected[0]);
  EXPECT_EQ(got[1], fx.expected[1]);

  // Unblock the worker with real container bytes; the first reload then
  // lands and answers.
  {
    std::ofstream out(fifo, std::ios::binary);
    out.write(container_bytes.data(),
              static_cast<std::streamsize>(container_bytes.size()));
  }
  ASSERT_TRUE(first.read_response(&resp));
  EXPECT_EQ(resp.status, 200) << resp.body;
  EXPECT_EQ(resp.body, "version 2\n");
  const auto stats = get_stats(&probe);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stat_value(*stats, "reloads"), 1.0);
  EXPECT_GE(stat_value(*stats, "reloads_rejected"), 1.0);
  EXPECT_EQ(stat_value(*stats, "reload_in_flight"), 0.0);
  std::remove(fifo.c_str());
  std::remove(real_path.c_str());
}

TEST(ServeOverload, PipelinedHarnessShedsUnderOverloadWithoutErrors) {
  // End-to-end admission control through the load harness, under hot-swap
  // churn: pipelined connections offer far more work than the tight
  // watermarks admit while a side thread POSTs /reload about every 1 ms
  // with the same model. Some requests shed (503, counted separately),
  // every admitted one stays bit-identical through the swaps, none errors,
  // and the on-loop reload stall stays far under a batch window.
  ServerConfig scfg = Fixture::config_with({}, 1024);
  scfg.shed_requests_watermark = 4;
  scfg.shed_rows_watermark = 4 * 6;
  Fixture fx(scfg);

  const std::string reload_path = "/tmp/booster_serve_overload_reload.model";
  ASSERT_TRUE(gbdt::save_model_checked_file(*fx.model, reload_path));
  BlockingClient probe;
  ASSERT_TRUE(probe.connect(fx.server->port()));
  std::atomic<bool> load_done{false};
  std::atomic<std::uint64_t> reload_other_status{0};
  std::thread reloader([&] {
    BlockingClient c;
    if (!c.connect(fx.server->port())) return;
    while (!load_done.load(std::memory_order_relaxed)) {
      Response resp;
      // 409 (a reload still in flight) is expected churn; only a dead
      // connection ends the thread early.
      if (!c.request("POST", "/reload", reload_path, &resp)) break;
      if (resp.status != 200 && resp.status != 409) ++reload_other_status;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  // The churn is live before the load starts.
  const bool first_reload_landed = wait_for_stat(&probe, "reloads", 1.0);

  LoadConfig lcfg;
  lcfg.port = fx.server->port();
  lcfg.connections = 4;
  lcfg.requests_per_connection = 50;
  lcfg.rows_per_request = 6;
  lcfg.pipeline_depth = 8;
  const LoadResult result = run_closed_loop(lcfg, fx.raw, fx.expected);
  load_done.store(true, std::memory_order_relaxed);
  reloader.join();
  const auto stats = get_stats(&probe);
  std::remove(reload_path.c_str());

  ASSERT_TRUE(first_reload_landed);
  EXPECT_EQ(result.errors, 0u);
  EXPECT_EQ(result.mismatches, 0u);
  EXPECT_GT(result.shed, 0u);
  EXPECT_EQ(result.requests + result.shed,
            static_cast<std::uint64_t>(lcfg.connections) *
                lcfg.requests_per_connection);
  EXPECT_GT(result.requests, 0u);
  EXPECT_EQ(reload_other_status.load(), 0u);
  ASSERT_TRUE(stats.has_value());
  EXPECT_GT(stat_value(*stats, "reloads"), 0.0);
  EXPECT_LT(stat_value(*stats, "reload_stall_us_max"), 10000.0);
}

}  // namespace
}  // namespace booster::serve
