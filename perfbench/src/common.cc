#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <thread>

namespace perfbench {

double seconds_since(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

double ms_since(Clock::time_point begin) { return 1e3 * seconds_since(begin); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

// A dependent xorshift chain: pure ALU work, no memory traffic, so the
// ratio measures how many cores this process actually gets. Results land
// in spin_sink so the chains cannot be optimized away.
std::atomic<std::uint64_t> spin_sink{0};

std::uint64_t spin(std::uint64_t iterations, std::uint64_t x) {
  for (std::uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

double time_spin(unsigned threads, std::uint64_t iterations) {
  const auto start = Clock::now();
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([t, iterations] {
      spin_sink.fetch_xor(spin(iterations, 0x9e3779b97f4a7c15ULL + t));
    });
  }
  for (auto& th : pool) th.join();
  return seconds_since(start);
}

}  // namespace

double host_parallel_speedup(unsigned threads) {
  constexpr std::uint64_t kIterations = 20'000'000;
  const double one = time_spin(1, kIterations);
  const double many = time_spin(threads, kIterations);
  return many > 0.0 ? static_cast<double>(threads) * one / many : 0.0;
}

CpuPin::CpuPin(std::initializer_list<unsigned> slots) {
  // The CPUs this process may use, captured once (before any pinning).
  static const std::vector<int> allowed = [] {
    std::vector<int> cpus;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) cpus.push_back(c);
      }
    }
    return cpus;
  }();
  CPU_ZERO(&saved_);
  if (allowed.size() < 4 || sched_getaffinity(0, sizeof(saved_), &saved_) != 0) {
    return;
  }
  cpu_set_t want;
  CPU_ZERO(&want);
  for (const unsigned slot : slots) CPU_SET(allowed[slot % allowed.size()], &want);
  active_ = sched_setaffinity(0, sizeof(want), &want) == 0;
}

CpuPin::~CpuPin() {
  if (active_) sched_setaffinity(0, sizeof(saved_), &saved_);
}

void RunResult::check(bool ok, const std::string& what) {
  count(1, ok ? 0 : 1, what);
}

void RunResult::count(std::uint64_t attempted_ops, std::uint64_t failed_ops,
                      const std::string& what) {
  attempted += attempted_ops;
  failed += failed_ops;
  if (failed_ops > 0) {
    failures.push_back(what + " (" + std::to_string(failed_ops) + " of " +
                       std::to_string(attempted_ops) + ")");
  }
}

void Provenance::put(const std::string& key, const std::string& value) {
  std::string quoted = "\"";
  for (const char ch : value) {
    if (ch == '"' || ch == '\\') quoted += '\\';
    quoted += ch;
  }
  fields_.emplace_back(key, quoted + "\"");
}

void Provenance::put(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  fields_.emplace_back(key, buf);
}

void Provenance::print() const {
  std::string line = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    line += (i == 0 ? "\"" : ", \"") + fields_[i].first + "\": " +
            fields_[i].second;
  }
  note("provenance %s}", line.c_str());
}

void note(const char* fmt, ...) {
  std::fputs("# ", stdout);
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stdout, fmt, args);
  va_end(args);
  std::fputc('\n', stdout);
}

}  // namespace perfbench
