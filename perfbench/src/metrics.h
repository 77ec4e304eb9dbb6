// The benchmark's metric catalogue: every name, with its unit, that a run
// prints in its result line. BENCHMARK.json lists the same names
// (smoke_test.py checks that the two agree). An untraced run prints every
// end-to-end metric; a traced run prints every per-layer metric. A layer
// counter the workload does not exercise reads 0 (serve.* counters on
// train-fraud, gbdt.step* and ipc.* counters on stream-serve-fraud): that
// 0 is the measured count, and it is the prediction for that pairing.
#pragma once

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

inline constexpr MetricSpec kEndToEndMetrics[] = {
    {"setup_s", "s"},
    {"rows_per_s", "rows/s"},
    {"latency_p50_ms", "ms"},
    {"staleness_p50_ms", "ms"},
    {"holdout_logloss", "nats"},
    {"peak_rss_mb", "MiB"},
};

inline constexpr MetricSpec kPerLayerMetrics[] = {
    // workloads / gbdt binning (medians over the run's set-ups)
    {"workloads.synth_s", "s"},
    {"gbdt.bin_s", "s"},
    {"gbdt.row_major_s", "s"},
    // gbdt trainer: per-job counts from StepTrace and HotPathStats
    {"gbdt.step1.record_field_updates", "count"},
    {"gbdt.step1.histograms", "count"},
    {"gbdt.step2.bins_scanned", "count"},
    {"gbdt.step2.split_events", "count"},
    {"gbdt.step3.partition_records", "count"},
    {"gbdt.step5.record_hops", "count"},
    {"gbdt.histogram_acquires", "count"},
    {"gbdt.histogram_allocations", "count"},
    {"gbdt.chunk_merges", "count"},
    {"gbdt.histogram_merges", "count"},
    // gbdt kernels: unit costs
    {"gbdt.hist_build.ns_per_update.root", "ns"},
    {"gbdt.hist_build.ns_per_update.small", "ns"},
    {"gbdt.hist_build.ns_per_update.small_1t", "ns"},
    {"gbdt.split_scan.ns_per_bin", "ns"},
    {"gbdt.split_scan.ns_per_bin_1t", "ns"},
    {"gbdt.partition.ns_per_record", "ns"},
    {"gbdt.hist_add.ns_per_bin", "ns"},
    {"gbdt.traverse.ns_per_row_tree", "ns"},
    {"gbdt.steps_accounted_share", "ratio"},
    // util and the host
    {"util.thread_pool.fork_join_us", "us"},
    {"host.parallel_speedup.start", "ratio"},
    {"host.parallel_speedup.end", "ratio"},
    // ipc: per-job counts, codec unit costs, distributed vs in-process
    {"ipc.wire_bytes", "bytes"},
    {"ipc.frames_sent", "count"},
    {"ipc.messages", "count"},
    {"ipc.retransmits", "count"},
    {"ipc.reconnects", "count"},
    {"ipc.encode_us_per_histogram", "us"},
    {"ipc.decode_us_per_histogram", "us"},
    {"ipc.crc_ns_per_byte", "ns"},
    {"ipc.dist_over_inprocess", "ratio"},
    // serve: GET /stats per phase, unit costs, generator
    {"serve.fixed_rate.batches", "count"},
    {"serve.fixed_rate.rows_per_batch", "rows"},
    {"serve.fixed_rate.requests_shed", "count"},
    {"serve.fixed_rate.responses_5xx", "count"},
    {"serve.fixed_rate.bytes_out_per_request", "bytes"},
    {"serve.saturation.batches", "count"},
    {"serve.saturation.rows_per_batch", "rows"},
    {"serve.saturation.requests_shed", "count"},
    {"serve.saturation.responses_5xx", "count"},
    {"serve.saturation.bytes_out_per_request", "bytes"},
    {"serve.saturation.rows_per_s", "rows/s"},
    {"serve.parse_ns_per_request", "ns"},
    {"serve.bin_ns_per_row", "ns"},
    {"serve.predict_ns_per_row.b8", "ns"},
    {"serve.predict_ns_per_row.b1024", "ns"},
    {"serve.sent", "count"},
    {"serve.failed", "count"},
    {"serve.gen_late_ms_max", "ms"},
    {"serve.latency_p90_ms", "ms"},
    {"serve.latency_p99_ms", "ms"},
    // stream
    {"stream.bin_chunk_ms", "ms"},
    {"stream.materialize_ms", "ms"},
    {"stream.refresh_ms_p50", "ms"},
    {"stream.ingest_ms_p50", "ms"},
    {"stream.install_ms", "ms"},
    {"stream.refreshes", "count"},
    {"stream.latest_trees", "count"},
    {"stream.arena_allocations", "count"},
    {"stream.handoff_failures", "count"},
    // the traced run itself
    {"trace.spans", "count"},
    {"trace.rows_per_s_ratio", "ratio"},
    {"trace.latency_p50_ratio", "ratio"},
};

}  // namespace perfbench
