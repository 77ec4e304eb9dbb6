// Client-side counterpart of the prediction server: a blocking HTTP/1.1
// client for tests and examples, plus the closed-loop load harness that
// bench_serve drives. The harness is closed-loop (each connection keeps
// at most pipeline_depth requests in flight and sends the next only as
// responses land; depth 1 is the classic one-at-a-time loop), so measured
// latency is honest end-to-end time over real localhost TCP -- and every
// predicted value that comes back is compared bit-for-bit against the
// caller-supplied expected vector, which gates all throughput numbers on
// correctness. Depths > 1 multiply the offered load per connection, which
// is how test_serve drives the server past saturation to exercise
// admission control; shed responses (503 with Retry-After) are counted
// separately from errors.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "gbdt/dataset.h"

namespace booster::serve {

/// One parsed HTTP response (Content-Length framing, matching what the
/// server emits).
struct Response {
  int status = 0;
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  /// Case-insensitive header lookup; empty view when absent.
  std::string_view header(std::string_view name) const;
};

/// Blocking connection to the loopback server, usable for sequential
/// request/response exchanges (keep-alive reuse included). Methods abort
/// the exchange by returning false on socket errors or malformed
/// responses; the connection is then dead.
class BlockingClient {
 public:
  BlockingClient() = default;
  ~BlockingClient();
  BlockingClient(const BlockingClient&) = delete;
  BlockingClient& operator=(const BlockingClient&) = delete;
  BlockingClient(BlockingClient&& other) noexcept;
  BlockingClient& operator=(BlockingClient&& other) noexcept;

  bool connect(std::uint16_t port);
  bool connected() const { return fd_ >= 0; }
  void close();

  /// Sets SO_RCVBUF for the *next* connect (applied before the TCP
  /// handshake so the advertised window honors it). Tests use a tiny
  /// buffer to simulate a peer that stops reading, making the server's
  /// write-side backpressure observable despite loopback's generous
  /// default buffering. <= 0 leaves the kernel default.
  void set_recv_buffer(int bytes) { rcvbuf_ = bytes; }

  /// Half-close: shutdown(SHUT_WR). The server must still answer
  /// everything already sent; read_response keeps working.
  void shutdown_writes();

  /// Sends raw bytes verbatim. For hand-rolled requests (parser torture
  /// tests send byte-at-a-time via repeated calls).
  bool send_raw(std::string_view bytes);

  /// Reads exactly one response off the socket (headers, then
  /// Content-Length body).
  bool read_response(Response* out);

  /// Convenience: one framed request, one response.
  bool request(std::string_view method, std::string_view target,
               std::string_view body, Response* out,
               std::string_view content_type = "text/plain");

 private:
  int fd_ = -1;
  int rcvbuf_ = 0;  // SO_RCVBUF override for the next connect; 0 = default
  std::string rx_;  // bytes read past the previous response
};

/// Formats `count` dataset rows starting at `begin` (wrapping) as CSV
/// request-body lines: numeric cells as %.9g (float32 round-trip exact),
/// categorical cells as integers, missing as empty.
std::string csv_rows(const gbdt::Dataset& data, std::uint64_t begin,
                     std::uint64_t count);

/// Same rows as a JSON array of arrays (missing spelled null).
std::string json_rows(const gbdt::Dataset& data, std::uint64_t begin,
                      std::uint64_t count);

/// Parses a /predict response body (one prediction per line) into
/// doubles; returns false on any unparsable line.
bool parse_predictions(std::string_view body, std::vector<double>* out);

struct LoadConfig {
  std::uint16_t port = 0;
  std::uint32_t connections = 1;
  std::uint32_t requests_per_connection = 100;
  std::uint32_t rows_per_request = 1;
  /// Requests each connection keeps in flight (>= 1). Depth 1 is the
  /// classic closed loop; larger depths pipeline, multiplying offered
  /// load per connection -- the overload generator.
  std::uint32_t pipeline_depth = 1;
};

struct LoadResult {
  double qps = 0.0;           // completed requests / wall seconds
  double rows_per_sec = 0.0;  // predicted rows / wall seconds
  double mean_us = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  double max_us = 0.0;
  std::uint64_t requests = 0;  // admitted (200) requests only
  std::uint64_t rows = 0;
  /// 503 + Retry-After responses: the server's admission control shed the
  /// request. Not an error -- the documented overload contract.
  std::uint64_t shed = 0;
  std::uint64_t errors = 0;      // transport failures + other non-200s
  std::uint64_t mismatches = 0;  // served prediction != expected (bitwise)
  double bytes_per_request = 0.0;
  double wall_seconds = 0.0;
};

/// Runs the closed-loop load: `cfg.connections` threads, each with its own
/// keep-alive connection, each issuing `requests_per_connection` prebuilt
/// CSV /predict requests over rows of `queries` (request k of connection c
/// covers rows [(c*requests_per_connection + k) * rows_per_request, ...)
/// mod num_records, so coverage is deterministic), keeping up to
/// `pipeline_depth` of them in flight. Every admitted prediction is
/// compared bitwise (==) against `expected[row]`; shed responses (503 +
/// Retry-After), mismatches, and errors are counted, latency is measured
/// per admitted request from its send to its response.
LoadResult run_closed_loop(const LoadConfig& cfg, const gbdt::Dataset& queries,
                           const std::vector<double>& expected);

}  // namespace booster::serve
