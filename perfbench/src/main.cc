// perfbench: the repository's end-to-end benchmark driver (see README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--size full|smoke] [--out-dir <dir>] [--commit <id>]
//
// Prints diagnostics as `# ...` lines, then, as the last stdout line, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. The metrics
// are every end-to-end metric (untraced run) or every per-layer metric
// (traced run; the span trace goes to <out-dir>/trace-<workload>-<seed>.json).
// Exits non-zero when any correctness gate failed or on a usage error.
#include <sys/stat.h>

#include <charconv>
#include <cstdio>
#include <string>
#include <thread>

#include "common.h"
#include "metrics.h"
#include "spans.h"
#include "util/simd.h"
#include "workloads.h"

namespace {

using namespace perfbench;

struct Workload {
  const char* name;
  void (*run)(const RunOptions&, Provenance*, RunResult*);
};

constexpr Workload kWorkloads[] = {
    {"train-fraud", run_train_fraud},
    {"stream-serve-fraud", run_stream_serve_fraud},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--size full|smoke] "
               "[--out-dir <dir>] [--commit <id>]\nworkloads:",
               why);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fputc('\n', stderr);
  return 2;
}

template <typename T>
bool parse_number(const std::string& text, T* out) {
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), *out);
  return ec == std::errc() && end == text.data() + text.size();
}

bool parse_args(int argc, char** argv, RunOptions* opt, std::string* error) {
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[i + 1];
    bool ok = true;
    if (flag == "--workload") {
      opt->workload = value;
    } else if (flag == "--seed") {
      ok = parse_number(value, &opt->seed);
    } else if (flag == "--seconds") {
      ok = parse_number(value, &opt->seconds) && opt->seconds > 0.0;
    } else if (flag == "--trace") {
      ok = value == "0" || value == "1";
      opt->trace = value == "1";
    } else if (flag == "--size") {
      ok = value == "full" || value == "smoke";
      opt->size = value == "smoke" ? Size::kSmoke : Size::kFull;
    } else if (flag == "--out-dir") {
      opt->out_dir = value;
    } else if (flag == "--commit") {
      opt->commit = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
    if (!ok) {
      *error = "bad value for " + flag + ": " + value;
      return false;
    }
  }
  if (opt->workload.empty()) {
    *error = "--workload is required";
    return false;
  }
  return true;
}

/// The result line: every catalogued metric of the run's kind. A per-layer
/// metric the workload does not exercise reads 0; an end-to-end metric
/// the workload failed to measure is a failed operation.
std::string result_line(const RunOptions& opt, RunResult* result) {
  const auto& measured = opt.trace ? result->per_layer : result->end_to_end;
  std::string metrics;
  const auto emit = [&](const MetricSpec& spec) {
    double value = 0.0;
    bool found = false;
    for (const Metric& m : measured) {
      if (m.name == spec.name) {
        value = m.value;
        found = true;
      }
    }
    if (!found && !opt.trace) {
      result->check(false, std::string("end-to-end metric measured: ") +
                               spec.name);
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", spec.name, value, spec.unit);
    metrics += buf;
  };
  if (opt.trace) {
    for (const MetricSpec& spec : kPerLayerMetrics) emit(spec);
  } else {
    for (const MetricSpec& spec : kEndToEndMetrics) emit(spec);
  }
  char head[160];
  std::snprintf(head, sizeof(head),
                "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
                result->failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(result->attempted),
                static_cast<unsigned long long>(result->failed));
  return std::string(head) + "\"metrics\": {" + metrics + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  std::string error;
  if (!parse_args(argc, argv, &opt, &error)) return usage(error.c_str());
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (opt.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    return usage(("unknown workload " + opt.workload).c_str());
  }

  Spans& spans = Spans::global();
  spans.enable(opt.trace);
  const unsigned nproc = std::thread::hardware_concurrency();
  const double speedup_start = host_parallel_speedup(4);

  Provenance prov;
  prov.put("commit", opt.commit);
  prov.put("workload", opt.workload);
  prov.put("seed", static_cast<double>(opt.seed));
  prov.put("population_seed", 42);
  prov.put("seconds", opt.seconds);
  prov.put("trace", opt.trace ? 1 : 0);
  prov.put("size", opt.size == Size::kSmoke ? "smoke" : "full");
  prov.put("nproc", nproc);
  prov.put("simd", booster::util::simd::level_name(
                       booster::util::simd::active()));
  prov.put("setups", kSetups);

  RunResult result;
  workload->run(opt, &prov, &result);

  const double speedup_end = host_parallel_speedup(4);
  prov.put("host_parallel_speedup_start", speedup_start);
  prov.put("host_parallel_speedup_end", speedup_end);
  prov.print();
  result.e2e("peak_rss_mb", peak_rss_mib(), "MiB");
  if (opt.trace) {
    result.layer("host.parallel_speedup.start", speedup_start, "ratio");
    result.layer("host.parallel_speedup.end", speedup_end, "ratio");
    result.layer("trace.spans", static_cast<double>(spans.size()), "count");
    ::mkdir(opt.out_dir.c_str(), 0755);
    const std::string path = opt.out_dir + "/trace-" + opt.workload + "-" +
                             std::to_string(opt.seed) + ".json";
    result.check(spans.write_chrome_json(path), "span trace written");
    note("trace %s (%zu spans)", path.c_str(), spans.size());
    for (const Metric& m : result.end_to_end) {
      note("end_to_end %s = %.10g %s", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  const std::string line = result_line(opt, &result);
  for (const std::string& f : result.failures) note("FAILED: %s", f.c_str());
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return result.failed == 0 ? 0 : 1;
}
