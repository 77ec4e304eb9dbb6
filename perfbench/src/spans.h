// In-memory span recorder for traced runs. The benchmark wraps every call
// it makes into a layer of the library (a training job, a served request,
// a stream refresh, a probe) in a span: name, start, end, parent span,
// and one id per job / request / refresh. Spans stay in memory and are
// written once at exit as Chrome trace-event JSON ("ph": "X" complete
// events; args carry span / parent / id so nesting survives the format).
//
// Recording is off unless enable() was called, and then costs one mutex
// round trip per span -- the traced run reports its own end-to-end
// numbers next to an untraced pass so that overhead shows.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

class Spans {
 public:
  /// Span handle; kNone marks "no span" (recording off, or a root).
  static constexpr std::uint32_t kNone = 0;

  static Spans& global();

  void enable(bool on) { enabled_.store(on); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Opens a span now; close it with end(). Returns kNone when disabled.
  std::uint32_t begin(const char* name, std::uint32_t parent,
                      std::uint64_t id = 0);
  void end(std::uint32_t span);
  /// Records a finished span with explicit times (a served request timed
  /// from its due time, for example).
  void add(const char* name, std::uint32_t parent, std::uint64_t id,
           Clock::time_point start, Clock::time_point finish);

  std::size_t size() const;
  /// Writes Chrome trace-event JSON; false on I/O failure.
  bool write_chrome_json(const std::string& path) const;

 private:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint32_t parent = kNone;
    std::uint32_t tid = 0;
    std::uint64_t id = 0;
  };
  std::int64_t offset_ns(Clock::time_point t) const;
  std::uint32_t push(const char* name, std::uint32_t parent, std::uint64_t id,
                     std::int64_t start_ns, std::int64_t end_ns);

  std::atomic<bool> enabled_{false};
  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_; handle h is spans_[h - 1]
};

/// RAII span on the global recorder.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, std::uint32_t parent, std::uint64_t id = 0)
      : span_(Spans::global().begin(name, parent, id)) {}
  ~ScopedSpan() { Spans::global().end(span_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint32_t id() const { return span_; }

 private:
  std::uint32_t span_;
};

}  // namespace perfbench
