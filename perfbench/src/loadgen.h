// Single-thread HTTP load generator for the serving workloads. It keeps N
// keep-alive connections to a serve::Server and drives them from one
// thread with ppoll, in one of two modes:
//
//   * open loop: request i is due at start + i / rate and goes out on
//     connection i % N whether or not earlier responses came back
//     (pipelined), so a stalled server builds a queue instead of slowing
//     the generator. Latency is timed from the due time, and the
//     generator reports how late it sent;
//   * saturation: each connection keeps `depth` requests in flight and
//     sends the next one as each response lands (closed loop, pipelined).
//
// Every 200 response's predictions are checked bitwise against a local
// copy of the model generation its X-Model-Version names.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common.h"

namespace perfbench {

struct PhaseStats {
  std::uint64_t sent = 0;
  std::uint64_t failed = 0;  // anything but a 200 with a well-formed body
  /// Predicted rows in 200 responses that landed before the phase end.
  std::uint64_t rows_in_window = 0;
  std::vector<double> latency_ms;  // per 200 response
  double late_ms_max = 0.0;          // worst send delay past a due time
  double seconds = 0.0;              // length of the sending window
};

/// The local copies served predictions are checked against, by model
/// version: expected[r] is query row r's prediction under that generation.
/// Written by whoever installs a generation, read by the generator.
class ExpectedBook {
 public:
  void put(std::uint64_t version,
           std::shared_ptr<const std::vector<double>> expected);
  std::shared_ptr<const std::vector<double>> get(std::uint64_t version) const;

 private:
  mutable std::mutex mu_;
  std::map<std::uint64_t, std::shared_ptr<const std::vector<double>>>
      by_version_;  // guarded by mu_
};

class LoadGenerator {
 public:
  /// `requests[b]` is the full HTTP request for query block b: query rows
  /// [b * rows_per_request, (b + 1) * rows_per_request), wrapping. Request
  /// i uses block i % requests.size(). Every 200 response is checked
  /// bitwise against `book` for the version it names.
  LoadGenerator(std::uint16_t port, std::uint32_t connections,
                const std::vector<std::string>* requests,
                std::uint32_t rows_per_request, const ExpectedBook* book);
  ~LoadGenerator();
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// Opens the keep-alive connections; false if any connect fails.
  bool connect();

  /// Open-loop phase at `rate` requests/s for `seconds` (or until *stop
  /// turns true), then waits for the outstanding responses.
  PhaseStats open_loop(double rate, double seconds,
                       const std::atomic<bool>* stop,
                       std::uint32_t parent_span);
  /// Saturation phase: `depth` requests in flight per connection.
  PhaseStats saturate(std::uint32_t depth, double seconds,
                      std::uint32_t parent_span);

  /// Checks the responses whose generation was not in the book yet when
  /// they arrived (a response can beat the installer's put()).
  void finish_checks();
  /// Responses checked, and those with any prediction that differs from
  /// the book (or naming a version the book never got).
  std::uint64_t checked() const { return checked_; }
  std::uint64_t mismatched() const { return mismatched_; }
  /// (version, arrival) each time a response names a higher model version
  /// than any before it.
  const std::vector<std::pair<std::uint64_t, Clock::time_point>>&
  version_arrivals() const {
    return version_arrivals_;
  }

 private:
  struct Pending {
    Clock::time_point due;
    Clock::time_point sent;
    std::uint32_t block = 0;
    std::uint64_t index = 0;
  };
  struct Conn {
    int fd = -1;
    bool dead = false;
    std::string out;
    std::size_t out_offset = 0;
    std::string in;
    std::deque<Pending> inflight;
  };

  void issue(std::size_t conn, Clock::time_point due, Clock::time_point now);
  void flush(Conn& c);
  /// Waits up to `timeout` for socket events and handles them.
  void pump(Clock::duration timeout);
  void read_responses(std::size_t conn);
  void on_response(std::size_t conn, int status, std::uint64_t version,
                   std::string_view body, Clock::time_point arrival);
  void fail_connection(Conn& c);
  /// Waits (bounded) for every in-flight response of the phase.
  void drain();
  bool any_inflight() const;

  std::uint16_t port_;
  const std::vector<std::string>* requests_;
  std::uint32_t rows_per_request_;
  std::vector<Conn> conns_;

  // Current phase.
  PhaseStats* stats_ = nullptr;
  bool open_loop_ = true;
  bool refill_ = false;  // saturation: send the next request per response
  Clock::time_point phase_end_;
  std::uint64_t next_index_ = 0;
  std::uint32_t parent_span_ = 0;

  struct Deferred {
    std::uint64_t version = 0;
    std::uint32_t block = 0;
    std::vector<double> values;
  };
  /// True when `values` (the answer to `block`) equals `expected`.
  bool matches(const std::vector<double>& expected, std::uint32_t block,
               const std::vector<double>& values) const;

  const ExpectedBook* book_;
  std::uint64_t cached_version_ = 0;
  std::shared_ptr<const std::vector<double>> cached_expected_;
  std::vector<Deferred> deferred_;
  std::uint64_t checked_ = 0;
  std::uint64_t mismatched_ = 0;
  std::vector<double> parse_scratch_;
  std::uint64_t max_version_ = 0;
  std::vector<std::pair<std::uint64_t, Clock::time_point>> version_arrivals_;
};

}  // namespace perfbench
