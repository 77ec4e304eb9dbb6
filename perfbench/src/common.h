// Shared plumbing of the perfbench driver: clocks, order statistics, the
// per-run result (metrics + attempted/failed operation counts), and the
// host probes every run reports for provenance.
#pragma once

#include <sched.h>

#include <chrono>
#include <initializer_list>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point begin);
double ms_since(Clock::time_point begin);

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mib();

/// Throughput ratio of `threads` threads each running a fixed integer
/// spin loop against one thread running it once: `threads` on an idle
/// host, less when other tenants hold the cores. Printed at the start and
/// end of every run so contended runs are visible in the record.
double host_parallel_speedup(unsigned threads);

/// Restricts the calling thread to some of the CPUs the process may use
/// (by index into that set) until destroyed, then restores the old mask.
/// stream-serve-fraud keeps the load generator, the server's event loop and
/// the stream's trainer on separate CPUs with it. A no-op when the
/// process may use fewer than four CPUs.
class CpuPin {
 public:
  explicit CpuPin(std::initializer_list<unsigned> slots);
  ~CpuPin();
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  cpu_set_t saved_;
  bool active_ = false;
};

/// Problem sizes. `kFull` is what the benchmark measures; `kSmoke` is the
/// smallest size that still runs every code path (smoke_test.py).
enum class Size { kFull, kSmoke };

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Size size = Size::kFull;
  std::string out_dir = ".bench_out";
  std::string commit = "unknown";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports. End-to-end metrics come from the untraced
/// measurement; per-layer metrics (layer()) only appear in traced runs.
/// Every correctness gate is an attempted operation; a gate that does not
/// hold is a failed one and names itself in `failures`.
struct RunResult {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
  /// Counts one checked operation; records a failure when !ok.
  void check(bool ok, const std::string& what);
  /// Adds `attempted` operations of which `failed` failed.
  void count(std::uint64_t attempted_ops, std::uint64_t failed_ops,
             const std::string& what);
};

/// The provenance block every run prints: commit, host, sizes, rates and
/// seed, as one JSON object.
class Provenance {
 public:
  void put(const std::string& key, const std::string& value);
  void put(const std::string& key, double value);
  /// `# provenance {...}`.
  void print() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;  // key, JSON
};

/// Prints one diagnostic line: `# <text>` (never the last stdout line).
void note(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace perfbench
