#include "serve/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

namespace booster::serve {

namespace {

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const char ca = a[i] >= 'A' && a[i] <= 'Z' ? a[i] + 32 : a[i];
    const char cb = b[i] >= 'A' && b[i] <= 'Z' ? b[i] + 32 : b[i];
    if (ca != cb) return false;
  }
  return true;
}

void append_cell(std::string* out, const gbdt::Dataset& data, std::uint32_t f,
                 std::uint64_t r, bool json) {
  if (data.field(f).kind == gbdt::FieldKind::kNumeric) {
    const float v = data.numeric_value(f, r);
    if (std::isnan(v)) {
      out->append(json ? "null" : "");
      return;
    }
    // %.9g prints enough digits that the server's text->float32 parse
    // recovers the identical float: the wire format is lossless.
    char buf[32];
    const int len = std::snprintf(buf, sizeof(buf), "%.9g", v);
    out->append(buf, static_cast<std::size_t>(len));
  } else {
    const std::int32_t v = data.categorical_value(f, r);
    if (v == gbdt::kMissingCategory) {
      out->append(json ? "null" : "");
      return;
    }
    out->append(std::to_string(v));
  }
}

std::string format_rows(const gbdt::Dataset& data, std::uint64_t begin,
                        std::uint64_t count, bool json) {
  std::string out;
  if (json) out += '[';
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t r = (begin + i) % data.num_records();
    if (json) {
      if (i > 0) out += ',';
      out += '[';
    }
    for (std::uint32_t f = 0; f < data.num_fields(); ++f) {
      if (f > 0) out += ',';
      append_cell(&out, data, f, r, json);
    }
    out += json ? "]" : "\n";
  }
  if (json) out += ']';
  return out;
}

}  // namespace

std::string_view Response::header(std::string_view name) const {
  for (const auto& [key, value] : headers) {
    if (iequals(key, name)) return value;
  }
  return {};
}

BlockingClient::~BlockingClient() { close(); }

BlockingClient::BlockingClient(BlockingClient&& other) noexcept
    : fd_(other.fd_), rx_(std::move(other.rx_)) {
  other.fd_ = -1;
}

BlockingClient& BlockingClient::operator=(BlockingClient&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    rx_ = std::move(other.rx_);
    other.fd_ = -1;
  }
  return *this;
}

void BlockingClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  rx_.clear();
}

bool BlockingClient::connect(std::uint16_t port) {
  close();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  if (rcvbuf_ > 0) {
    // Before connect: the handshake advertises the shrunken window, so
    // the server's sends actually hit TCP flow control instead of being
    // absorbed by loopback's auto-tuned buffers.
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf_, sizeof(rcvbuf_));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    close();
    return false;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return true;
}

void BlockingClient::shutdown_writes() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

bool BlockingClient::send_raw(std::string_view bytes) {
  if (fd_ < 0) return false;
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

bool BlockingClient::read_response(Response* out) {
  if (fd_ < 0) return false;
  out->status = 0;
  out->headers.clear();
  out->body.clear();

  // Accumulate until the head terminator; bytes past one response stay in
  // rx_ for the next call (the server may batch pipelined responses into
  // one send).
  std::size_t head_end;
  while ((head_end = rx_.find("\r\n\r\n")) == std::string::npos) {
    char buf[16384];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      rx_.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;  // EOF or error before a complete head
  }
  const std::string_view head(rx_.data(), head_end);

  // Status line: HTTP/1.1 NNN Reason
  const std::size_t line_end = head.find("\r\n");
  const std::string_view status_line = head.substr(0, line_end);
  const std::size_t sp = status_line.find(' ');
  if (sp == std::string_view::npos || sp + 4 > status_line.size()) {
    return false;
  }
  const std::string_view code = status_line.substr(sp + 1, 3);
  const auto [end, ec] =
      std::from_chars(code.data(), code.data() + code.size(), out->status);
  if (ec != std::errc() || end != code.data() + code.size()) return false;

  std::size_t content_length = 0;
  std::size_t pos = line_end == std::string_view::npos ? head.size()
                                                       : line_end + 2;
  while (pos < head.size()) {
    std::size_t eol = head.find("\r\n", pos);
    if (eol == std::string_view::npos) eol = head.size();
    const std::string_view line = head.substr(pos, eol - pos);
    pos = eol + 2;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) return false;
    std::string_view value = line.substr(colon + 1);
    while (!value.empty() && (value.front() == ' ' || value.front() == '\t')) {
      value.remove_prefix(1);
    }
    out->headers.emplace_back(std::string(line.substr(0, colon)),
                              std::string(value));
    if (iequals(line.substr(0, colon), "content-length")) {
      const auto [vend, vec] = std::from_chars(
          value.data(), value.data() + value.size(), content_length);
      if (vec != std::errc() || vend != value.data() + value.size()) {
        return false;
      }
    }
  }

  rx_.erase(0, head_end + 4);
  while (rx_.size() < content_length) {
    char buf[16384];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      rx_.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  out->body.assign(rx_, 0, content_length);
  rx_.erase(0, content_length);
  return true;
}

bool BlockingClient::request(std::string_view method, std::string_view target,
                             std::string_view body, Response* out,
                             std::string_view content_type) {
  std::string req;
  req.reserve(body.size() + 128);
  req += method;
  req += ' ';
  req += target;
  req += " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  if (!body.empty() || method == "POST") {
    req += "Content-Type: ";
    req += content_type;
    req += "\r\nContent-Length: ";
    req += std::to_string(body.size());
    req += "\r\n";
  }
  req += "\r\n";
  req += body;
  return send_raw(req) && read_response(out);
}

std::string csv_rows(const gbdt::Dataset& data, std::uint64_t begin,
                     std::uint64_t count) {
  return format_rows(data, begin, count, /*json=*/false);
}

std::string json_rows(const gbdt::Dataset& data, std::uint64_t begin,
                      std::uint64_t count) {
  return format_rows(data, begin, count, /*json=*/true);
}

bool parse_predictions(std::string_view body, std::vector<double>* out) {
  out->clear();
  std::size_t pos = 0;
  while (pos < body.size()) {
    std::size_t eol = body.find('\n', pos);
    if (eol == std::string_view::npos) eol = body.size();
    const std::string_view line = body.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    double v = 0.0;
    const auto [end, ec] =
        std::from_chars(line.data(), line.data() + line.size(), v);
    if (ec != std::errc() || end != line.data() + line.size()) return false;
    out->push_back(v);
  }
  return true;
}

LoadResult run_closed_loop(const LoadConfig& cfg, const gbdt::Dataset& queries,
                           const std::vector<double>& expected) {
  struct PerConn {
    std::vector<std::string> bodies;  // prebuilt, excluded from timing
    std::vector<std::uint64_t> first_rows;
    std::vector<double> latencies_us;
    std::uint64_t shed = 0;
    std::uint64_t errors = 0;
    std::uint64_t mismatches = 0;
    std::uint64_t bytes = 0;  // request bytes sent (response counted below)
  };

  const std::uint64_t num_records = queries.num_records();
  std::vector<PerConn> per_conn(cfg.connections);
  for (std::uint32_t c = 0; c < cfg.connections; ++c) {
    PerConn& pc = per_conn[c];
    pc.bodies.reserve(cfg.requests_per_connection);
    pc.first_rows.reserve(cfg.requests_per_connection);
    for (std::uint32_t k = 0; k < cfg.requests_per_connection; ++k) {
      const std::uint64_t first =
          (static_cast<std::uint64_t>(c) * cfg.requests_per_connection + k) *
          cfg.rows_per_request % num_records;
      pc.first_rows.push_back(first);
      pc.bodies.push_back(csv_rows(queries, first, cfg.rows_per_request));
    }
    pc.latencies_us.reserve(cfg.requests_per_connection);
  }

  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(cfg.connections);
  for (std::uint32_t c = 0; c < cfg.connections; ++c) {
    threads.emplace_back([&, c] {
      PerConn& pc = per_conn[c];
      BlockingClient client;
      if (!client.connect(cfg.port)) {
        pc.errors += cfg.requests_per_connection;
        return;
      }
      const std::uint32_t depth = std::max<std::uint32_t>(1, cfg.pipeline_depth);
      const std::uint32_t total = cfg.requests_per_connection;
      std::vector<std::chrono::steady_clock::time_point> sent_at(total);
      std::vector<double> got;
      Response resp;
      std::string wire;
      std::uint32_t next_send = 0;
      std::uint32_t next_recv = 0;
      // Sliding window of `depth` in-flight requests; responses come back
      // in request order (HTTP/1.1 pipelining), so receive k matches
      // send k.
      while (next_recv < total) {
        while (next_send < total && next_send - next_recv < depth) {
          const std::string& body = pc.bodies[next_send];
          wire.clear();
          wire += "POST /predict HTTP/1.1\r\nHost: 127.0.0.1\r\n";
          wire += "Content-Type: text/plain\r\nContent-Length: ";
          wire += std::to_string(body.size());
          wire += "\r\n\r\n";
          wire += body;
          sent_at[next_send] = std::chrono::steady_clock::now();
          if (!client.send_raw(wire)) break;  // recv loop reports the death
          ++next_send;
        }
        if (next_send == next_recv) {
          // Could not get even one request out: connection dead.
          pc.errors += total - next_recv;
          break;
        }
        if (!client.read_response(&resp)) {
          pc.errors += total - next_recv;  // in-flight + unsent all lost
          break;
        }
        const auto t1 = std::chrono::steady_clock::now();
        const std::uint32_t k = next_recv++;
        if (resp.status == 503 && !resp.header("Retry-After").empty()) {
          ++pc.shed;  // admission control: the documented overload path
          continue;
        }
        if (resp.status != 200) {
          ++pc.errors;
          continue;
        }
        pc.latencies_us.push_back(
            std::chrono::duration<double, std::micro>(t1 - sent_at[k])
                .count());
        pc.bytes += pc.bodies[k].size() + resp.body.size();
        if (!parse_predictions(resp.body, &got) ||
            got.size() != cfg.rows_per_request) {
          ++pc.mismatches;
          continue;
        }
        for (std::uint32_t i = 0; i < cfg.rows_per_request; ++i) {
          const std::uint64_t row = (pc.first_rows[k] + i) % num_records;
          // Bitwise gate: %.17g round-trips doubles exactly, so served
          // must equal local Model::predict with zero tolerance.
          if (got[i] != expected[row]) ++pc.mismatches;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto wall_end = std::chrono::steady_clock::now();

  LoadResult result;
  result.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  std::vector<double> latencies;
  std::uint64_t bytes = 0;
  for (const PerConn& pc : per_conn) {
    latencies.insert(latencies.end(), pc.latencies_us.begin(),
                     pc.latencies_us.end());
    result.shed += pc.shed;
    result.errors += pc.errors;
    result.mismatches += pc.mismatches;
    bytes += pc.bytes;
  }
  result.requests = latencies.size();
  result.rows = result.requests * cfg.rows_per_request;
  if (result.wall_seconds > 0.0) {
    result.qps = static_cast<double>(result.requests) / result.wall_seconds;
    result.rows_per_sec =
        static_cast<double>(result.rows) / result.wall_seconds;
  }
  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    const auto pct = [&](double p) {
      const std::size_t idx = std::min(
          latencies.size() - 1,
          static_cast<std::size_t>(p * static_cast<double>(latencies.size())));
      return latencies[idx];
    };
    double sum = 0.0;
    for (const double v : latencies) sum += v;
    result.mean_us = sum / static_cast<double>(latencies.size());
    result.p50_us = pct(0.50);
    result.p99_us = pct(0.99);
    result.p999_us = pct(0.999);
    result.max_us = latencies.back();
    result.bytes_per_request =
        static_cast<double>(bytes) / static_cast<double>(result.requests);
  }
  return result;
}

}  // namespace booster::serve
