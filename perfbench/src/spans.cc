#include "spans.h"

#include <atomic>
#include <cstdio>

namespace perfbench {

namespace {

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

}  // namespace

std::int64_t Spans::offset_ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
      .count();
}

Spans& Spans::global() {
  static Spans spans;
  return spans;
}

std::uint32_t Spans::push(const char* name, std::uint32_t parent,
                          std::uint64_t id, std::int64_t start_ns,
                          std::int64_t end_ns) {
  const std::uint32_t tid = thread_index();
  const std::scoped_lock lock(mu_);
  spans_.push_back({name, start_ns, end_ns, parent, tid, id});
  return static_cast<std::uint32_t>(spans_.size());
}

std::uint32_t Spans::begin(const char* name, std::uint32_t parent,
                           std::uint64_t id) {
  if (!enabled()) return kNone;
  const std::int64_t now = offset_ns(Clock::now());
  return push(name, parent, id, now, now);
}

void Spans::end(std::uint32_t span) {
  if (span == kNone) return;
  const std::int64_t now = offset_ns(Clock::now());
  const std::scoped_lock lock(mu_);
  spans_[span - 1].end_ns = now;
}

void Spans::add(const char* name, std::uint32_t parent, std::uint64_t id,
                Clock::time_point start, Clock::time_point finish) {
  if (!enabled()) return;
  push(name, parent, id, offset_ns(start), offset_ns(finish));
}

std::size_t Spans::size() const {
  const std::scoped_lock lock(mu_);
  return spans_.size();
}

bool Spans::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::scoped_lock lock(mu_);
  std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"cat\": \"perfbench\", \"ph\": \"X\","
                 " \"pid\": 1, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f,"
                 " \"args\": {\"span\": %zu, \"parent\": %u, \"id\": %llu}}",
                 i == 0 ? "" : ",\n", s.name, s.tid,
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i + 1,
                 s.parent, static_cast<unsigned long long>(s.id));
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
