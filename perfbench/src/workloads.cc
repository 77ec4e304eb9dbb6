#include "workloads.h"

#include "gbdt/trainer.h"
#include "spans.h"

namespace perfbench {

namespace {

void print_pass(const char* label, const PassFigures& f) {
  note("pass %s: rows_per_s=%.6g latency_p50_ms=%.6g latency_p90_ms=%.6g "
       "latency_p99_ms=%.6g staleness_p50_ms=%.6g samples=%llu",
       label, f.rows_per_s, f.latency_p50_ms, f.latency_p90_ms,
       f.latency_p99_ms, f.staleness_p50_ms,
       static_cast<unsigned long long>(f.samples));
}

double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

}  // namespace

void report_setups(const std::vector<SetupTimes>& setups, RunResult* out) {
  const auto med = [&](double SetupTimes::*field) {
    std::vector<double> values;
    for (const SetupTimes& t : setups) values.push_back(t.*field);
    return median(values);
  };
  out->e2e("setup_s", med(&SetupTimes::total_s), "s");
  out->layer("workloads.synth_s", med(&SetupTimes::synth_s), "s");
  out->layer("gbdt.bin_s", med(&SetupTimes::bin_s), "s");
  out->layer("gbdt.row_major_s", med(&SetupTimes::row_major_s), "s");
}

PassFigures measure_passes(
    const RunOptions& opt, RunResult* out,
    const std::function<PassFigures(double seconds, bool traced)>& measure) {
  if (!opt.trace) {
    const PassFigures plain = measure(opt.seconds, false);
    print_pass("untraced", plain);
    return plain;
  }
  Spans& spans = Spans::global();
  spans.enable(false);
  const PassFigures plain = measure(opt.seconds / 2, false);
  spans.enable(true);
  const PassFigures traced = measure(opt.seconds / 2, true);
  print_pass("untraced", plain);
  print_pass("traced", traced);
  out->layer("trace.rows_per_s_ratio", ratio(traced.rows_per_s, plain.rows_per_s),
             "ratio");
  out->layer("trace.latency_p50_ratio",
             ratio(traced.latency_p50_ms, plain.latency_p50_ms), "ratio");
  return plain;
}

void add_step_metrics(const booster::trace::StepTrace& trace,
                      const booster::gbdt::HotPathStats& hot,
                      std::uint64_t total_bins, std::uint32_t fields,
                      const UnitCosts& costs, double median_job_s,
                      RunResult* out) {
  using booster::trace::StepKind;
  // A node histogram over at least four 4096-row chunks costs like the
  // root probe; smaller nodes cost like the 4096-row probe.
  constexpr std::uint64_t kRootLikeRecords = 4 * 4096;
  const booster::trace::StepTotals totals = trace.totals();
  std::uint64_t histograms = 0;
  std::uint64_t subtractions = 0;
  double step1_ns = 0.0;
  for (const auto& e : trace.events()) {
    if (e.kind != StepKind::kHistogram) continue;
    histograms += e.histograms;
    if (e.used_sibling_subtraction) subtractions += e.histograms;
    const double updates = trace.scaled_records(e) * fields;
    step1_ns += updates * (e.records >= kRootLikeRecords
                               ? costs.hist_root_ns_per_update
                               : costs.hist_small_ns_per_update);
  }
  const double merges =
      static_cast<double>(hot.chunk_merges + hot.histogram_merges + subtractions);
  const double accounted_ns =
      step1_ns + totals.bins_scanned * costs.split_ns_per_bin +
      totals.partition_records * costs.partition_ns_per_record +
      totals.traversal_records * costs.traverse_ns_per_row_tree +
      merges * static_cast<double>(total_bins) * costs.hist_add_ns_per_bin;

  out->layer("gbdt.step1.record_field_updates", totals.record_field_updates,
             "count");
  out->layer("gbdt.step1.histograms", static_cast<double>(histograms), "count");
  out->layer("gbdt.step2.bins_scanned", totals.bins_scanned, "count");
  out->layer("gbdt.step2.split_events",
             static_cast<double>(totals.split_events), "count");
  out->layer("gbdt.step3.partition_records", totals.partition_records, "count");
  out->layer("gbdt.step5.record_hops", totals.traversal_record_hops, "count");
  out->layer("gbdt.histogram_acquires",
             static_cast<double>(hot.histogram_acquires), "count");
  out->layer("gbdt.histogram_allocations",
             static_cast<double>(hot.histogram_allocations), "count");
  out->layer("gbdt.chunk_merges", static_cast<double>(hot.chunk_merges),
             "count");
  out->layer("gbdt.histogram_merges", static_cast<double>(hot.histogram_merges),
             "count");
  out->layer("gbdt.steps_accounted_share",
             ratio(accounted_ns * 1e-9, median_job_s), "ratio");
}

}  // namespace perfbench
