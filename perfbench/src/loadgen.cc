#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <strings.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstring>

#include "serve/client.h"
#include "spans.h"

namespace perfbench {

namespace {

constexpr auto kDrainTimeout = std::chrono::seconds(10);

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

bool header_is(std::string_view name, const char* want) {
  return name.size() == std::strlen(want) &&
         strncasecmp(name.data(), want, name.size()) == 0;
}

template <typename T>
bool parse_uint(std::string_view s, T* out) {
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && end == s.data() + s.size();
}

}  // namespace

void ExpectedBook::put(std::uint64_t version,
                       std::shared_ptr<const std::vector<double>> expected) {
  const std::scoped_lock lock(mu_);
  by_version_[version] = std::move(expected);
}

std::shared_ptr<const std::vector<double>> ExpectedBook::get(
    std::uint64_t version) const {
  const std::scoped_lock lock(mu_);
  const auto it = by_version_.find(version);
  return it == by_version_.end() ? nullptr : it->second;
}

LoadGenerator::LoadGenerator(std::uint16_t port, std::uint32_t connections,
                             const std::vector<std::string>* requests,
                             std::uint32_t rows_per_request,
                             const ExpectedBook* book)
    : port_(port),
      requests_(requests),
      rows_per_request_(rows_per_request),
      conns_(connections),
      book_(book) {}

LoadGenerator::~LoadGenerator() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) ::close(c.fd);
  }
}

bool LoadGenerator::connect() {
  // Timed from due times at sub-millisecond intervals: ask the kernel for
  // precise ppoll wake-ups on this thread (default slack is 50 us).
  prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
  for (Conn& c : conns_) {
    c.fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (c.fd < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(c.fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      return false;
    }
    const int one = 1;
    setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    fcntl(c.fd, F_SETFL, fcntl(c.fd, F_GETFL) | O_NONBLOCK);
  }
  return true;
}

void LoadGenerator::issue(std::size_t conn, Clock::time_point due,
                          Clock::time_point now) {
  Conn& c = conns_[conn];
  const std::uint64_t index = next_index_++;
  ++stats_->sent;
  stats_->late_ms_max = std::max(
      stats_->late_ms_max,
      std::chrono::duration<double, std::milli>(now - due).count());
  if (c.dead) {
    ++stats_->failed;
    return;
  }
  const auto block = static_cast<std::uint32_t>(index % requests_->size());
  c.out += (*requests_)[block];
  c.inflight.push_back({due, now, block, index});
}

void LoadGenerator::flush(Conn& c) {
  while (!c.dead && c.out_offset < c.out.size()) {
    const ssize_t n =
        ::send(c.fd, c.out.data() + c.out_offset, c.out.size() - c.out_offset,
               MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      c.out_offset += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;
    } else {
      fail_connection(c);
      return;
    }
  }
  c.out.clear();
  c.out_offset = 0;
}

void LoadGenerator::fail_connection(Conn& c) {
  c.dead = true;
  stats_->failed += c.inflight.size();
  c.inflight.clear();
  c.out.clear();
  c.out_offset = 0;
}

void LoadGenerator::pump(Clock::duration timeout) {
  pollfd fds[16];
  const std::size_t n = std::min<std::size_t>(conns_.size(), 16);
  for (std::size_t i = 0; i < n; ++i) {
    const Conn& c = conns_[i];
    fds[i].fd = c.dead ? -1 : c.fd;
    fds[i].events = static_cast<short>(
        POLLIN | (c.out_offset < c.out.size() ? POLLOUT : 0));
    fds[i].revents = 0;
  }
  const auto ns = std::max<std::int64_t>(
      0, std::chrono::duration_cast<std::chrono::nanoseconds>(timeout).count());
  const timespec ts{static_cast<time_t>(ns / 1'000'000'000),
                    static_cast<long>(ns % 1'000'000'000)};
  if (::ppoll(fds, n, &ts, nullptr) <= 0) return;
  for (std::size_t i = 0; i < n; ++i) {
    if (fds[i].revents & POLLOUT) flush(conns_[i]);
    if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) read_responses(i);
  }
}

void LoadGenerator::read_responses(std::size_t conn) {
  Conn& c = conns_[conn];
  char buf[65536];
  for (;;) {
    const ssize_t n = ::recv(c.fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      c.in.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    fail_connection(c);  // EOF or error: the server closed on us
    return;
  }
  const Clock::time_point arrival = Clock::now();
  std::size_t pos = 0;
  for (;;) {
    const std::size_t head_end = c.in.find("\r\n\r\n", pos);
    if (head_end == std::string::npos) break;
    const std::string_view head(c.in.data() + pos, head_end - pos);
    int status = 0;
    if (head.size() < 12 || head.substr(0, 9) != "HTTP/1.1 " ||
        !parse_uint(head.substr(9, 3), &status)) {
      fail_connection(c);
      return;
    }
    std::size_t content_length = 0;
    std::uint64_t version = 0;
    for (std::size_t line = head.find("\r\n"); line != std::string_view::npos;) {
      const std::size_t next = head.find("\r\n", line + 2);
      const std::string_view text = head.substr(
          line + 2, next == std::string_view::npos ? std::string_view::npos
                                                   : next - line - 2);
      const std::size_t colon = text.find(':');
      if (colon != std::string_view::npos) {
        const std::string_view name = text.substr(0, colon);
        const std::string_view value = trim(text.substr(colon + 1));
        if (header_is(name, "content-length")) {
          parse_uint(value, &content_length);
        } else if (header_is(name, "x-model-version")) {
          parse_uint(value, &version);
        }
      }
      line = next;
    }
    const std::size_t body_begin = head_end + 4;
    if (c.in.size() - body_begin < content_length) break;  // need more bytes
    on_response(conn, status, version,
                std::string_view(c.in.data() + body_begin, content_length),
                arrival);
    if (c.dead) return;
    pos = body_begin + content_length;
  }
  c.in.erase(0, pos);
}

void LoadGenerator::on_response(std::size_t conn, int status,
                                std::uint64_t version, std::string_view body,
                                Clock::time_point arrival) {
  Conn& c = conns_[conn];
  if (c.inflight.empty()) {  // a response nobody asked for
    ++stats_->failed;
    return;
  }
  const Pending p = c.inflight.front();
  c.inflight.pop_front();
  const bool ok = status == 200 &&
                  booster::serve::parse_predictions(body, &parse_scratch_) &&
                  parse_scratch_.size() == rows_per_request_;
  if (ok) {
    const Clock::time_point start = open_loop_ ? p.due : p.sent;
    stats_->latency_ms.push_back(
        std::chrono::duration<double, std::milli>(arrival - start).count());
    if (arrival <= phase_end_) stats_->rows_in_window += parse_scratch_.size();
    if (version != cached_version_ || cached_expected_ == nullptr) {
      cached_version_ = version;
      cached_expected_ = book_->get(version);
    }
    if (cached_expected_ == nullptr) {
      deferred_.push_back({version, p.block, parse_scratch_});
    } else {
      ++checked_;
      if (!matches(*cached_expected_, p.block, parse_scratch_)) ++mismatched_;
    }
    if (version > max_version_) {
      max_version_ = version;
      version_arrivals_.emplace_back(version, arrival);
    }
    Spans::global().add("serve.request", parent_span_, p.index, start,
                        arrival);
  } else {
    ++stats_->failed;
  }
  if (refill_ && arrival < phase_end_) {
    issue(conn, arrival, arrival);
    flush(c);
  }
}

bool LoadGenerator::matches(const std::vector<double>& expected,
                            std::uint32_t block,
                            const std::vector<double>& values) const {
  for (std::size_t j = 0; j < values.size(); ++j) {
    const std::size_t row =
        (static_cast<std::size_t>(block) * rows_per_request_ + j) %
        expected.size();
    if (std::memcmp(&values[j], &expected[row], sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

void LoadGenerator::finish_checks() {
  for (const Deferred& d : deferred_) {
    const auto expected = book_->get(d.version);
    ++checked_;
    if (expected == nullptr || !matches(*expected, d.block, d.values)) {
      ++mismatched_;
    }
  }
  deferred_.clear();
}

bool LoadGenerator::any_inflight() const {
  for (const Conn& c : conns_) {
    if (!c.inflight.empty()) return true;
  }
  return false;
}

void LoadGenerator::drain() {
  refill_ = false;
  const auto deadline = Clock::now() + kDrainTimeout;
  while (any_inflight() && Clock::now() < deadline) {
    pump(std::chrono::milliseconds(10));
  }
  for (Conn& c : conns_) {
    if (!c.inflight.empty()) fail_connection(c);
  }
}

PhaseStats LoadGenerator::open_loop(double rate, double seconds,
                                    const std::atomic<bool>* stop,
                                    std::uint32_t parent_span) {
  PhaseStats st;
  stats_ = &st;
  open_loop_ = true;
  refill_ = false;
  parent_span_ = parent_span;
  const auto start = Clock::now();
  phase_end_ = start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
  const double interval_ns = 1e9 / rate;
  std::uint64_t i = 0;
  const auto due_of = [&](std::uint64_t k) {
    return start + std::chrono::nanoseconds(std::llround(
                       static_cast<double>(k) * interval_ns));
  };
  for (;;) {
    const auto now = Clock::now();
    if (now >= phase_end_ || (stop != nullptr && stop->load())) break;
    for (; due_of(i) <= now; ++i) issue(i % conns_.size(), due_of(i), now);
    for (Conn& c : conns_) flush(c);
    pump(std::min(due_of(i), phase_end_) - Clock::now());
  }
  st.seconds = seconds_since(start);
  phase_end_ = Clock::now();
  drain();
  stats_ = nullptr;
  return st;
}

PhaseStats LoadGenerator::saturate(std::uint32_t depth, double seconds,
                                   std::uint32_t parent_span) {
  PhaseStats st;
  stats_ = &st;
  open_loop_ = false;
  refill_ = true;
  parent_span_ = parent_span;
  const auto start = Clock::now();
  phase_end_ = start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
  for (std::size_t c = 0; c < conns_.size(); ++c) {
    for (std::uint32_t d = 0; d < depth; ++d) issue(c, start, start);
    flush(conns_[c]);
  }
  for (auto now = Clock::now(); now < phase_end_; now = Clock::now()) {
    pump(phase_end_ - now);
  }
  st.seconds = seconds;
  drain();
  stats_ = nullptr;
  return st;
}

}  // namespace perfbench
