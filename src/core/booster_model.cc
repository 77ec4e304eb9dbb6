#include "core/booster_model.h"

#include <algorithm>
#include <cmath>

#include "perf/traffic.h"
#include "util/check.h"

namespace booster::core {

using trace::StepEvent;
using trace::StepKind;

BoosterModel::BoosterModel(BoosterConfig cfg, perf::HostParams host,
                           std::string name_suffix)
    : cfg_(cfg), host_(host), suffix_(std::move(name_suffix)) {}

std::string BoosterModel::name() const { return "Booster" + suffix_; }

BinMapping BoosterModel::mapping_for(const trace::WorkloadInfo& info) const {
  const auto strategy = cfg_.group_by_field_mapping
                            ? MappingStrategy::kGroupByField
                            : MappingStrategy::kNaivePack;
  return BinMapping::build(strategy, info.bins_per_field, cfg_.sram_bins());
}

double BoosterModel::event_bytes(const StepEvent& e, double recs,
                                 const trace::WorkloadInfo& info,
                                 double density) const {
  switch (e.kind) {
    case StepKind::kHistogram:
      return perf::histogram_bytes(e, recs, info.record_bytes, density);
    case StepKind::kPartition:
      return cfg_.redundant_column_format
                 ? perf::partition_bytes_column(recs, density)
                 : perf::partition_bytes_row(recs, info.record_bytes,
                                             e.depth == 0);
    case StepKind::kTraversal:
      return cfg_.redundant_column_format
                 ? perf::traversal_bytes_column(e, recs)
                 : perf::traversal_bytes_row(recs, info.record_bytes);
    case StepKind::kSplitSelect:
      return 0.0;  // host-side, on-chip histograms
  }
  return 0.0;
}

perf::StepBreakdown BoosterModel::train_cost(
    const trace::StepTrace& trace, const trace::WorkloadInfo& info) const {
  const BinMapping mapping = mapping_for(info);
  const double serialization = mapping.serialization_factor();
  const double slots = mapping.slots_per_copy();
  const double num_bus = cfg_.num_bus();
  const double fill_cycles = num_bus / cfg_.bus_link_span;
  const double nominal = static_cast<double>(info.nominal_records);

  // Histogram replication is cluster-granular: records are partitioned
  // among clusters, each holding one histogram copy (spanning multiple
  // clusters when the mapping needs more SRAMs than one cluster has), with
  // the copies reduced on the host at step end. A copy accepts one record
  // per (serialization x update-pipeline) cycles.
  const double clusters_per_copy =
      std::max(1.0, std::ceil(slots / cfg_.bus_per_cluster));
  const double copies =
      std::max(1.0, std::floor(cfg_.clusters / clusters_per_copy));
  const double hist_cycles_per_record =
      serialization * cfg_.cycles_per_field_update / copies;

  // Microarchitecture extension 1 (paper SS III-C): when a record has more
  // field slots than the whole BU array, step 1 processes the records in
  // field partitions -- all records for one partition of fields before the
  // next -- refetching the gradient pair stream once per extra partition.
  const double field_partitions = std::max(1.0, std::ceil(slots / num_bus));

  const double block = perf::kBlockBytes;
  const double slot_bytes = perf::slot_bytes_per_record(info.record_bytes);

  // Scale-out projection (config training_shards): every shard is a full
  // Booster node holding 1/S of the records, so per-record memory and
  // compute divide by S, while each step-1 event pays a histogram-merge
  // pass -- the S-1 remote shard histograms stream in and fold into the
  // merged copy (read + write-back), charged at the sequential-stream
  // effective bandwidth. This is the cost shape of the functional
  // trainer's fixed-order per-shard Histogram::add merge.
  const double shards = std::max<std::uint32_t>(1, cfg_.training_shards);
  const double merge_bytes_per_hist =
      shards > 1.0 ? 2.0 * (shards - 1.0) *
                         static_cast<double>(info.total_bins) *
                         cfg_.bin_entry_bytes
                   : 0.0;
  const double merge_s_per_hist =
      merge_bytes_per_hist / perf::effective_bandwidth(cfg_.bandwidth, 1.0);

  perf::StepBreakdown out;
  for (const auto& e : trace.events()) {
    if (e.kind == StepKind::kSplitSelect) continue;
    const double event_recs = trace.scaled_records(e);
    // Density of the gather is a property of the node, not the shard: a
    // shard's slice of a node covers the same fraction of its slice of the
    // layout span.
    const double density =
        nominal > 0.0 ? std::clamp(event_recs / nominal, 1e-12, 1.0) : 1.0;
    const double recs = event_recs / shards;  // per-shard share

    // Memory time, per stream component: the primary fetch (records or the
    // predicate column) pays the density-aware effective bandwidth of its
    // gather -- row hits decay gradually as the touched-block fraction
    // falls, the rule the closed-loop co-sim validates -- while the side
    // streams (gradients, pointers, write-backs) always stream.
    double mem_s = 0.0;
    switch (e.kind) {
      case StepKind::kHistogram: {
        const double rec_b =
            recs *
            perf::row_bytes_per_record_at_density(info.record_bytes, density);
        const double span_b = std::max(rec_b, recs / density * slot_bytes);
        double side_b = recs * perf::kGradientBytes * field_partitions;
        if (e.depth > 0) side_b += recs * perf::kPointerBytes;
        mem_s = rec_b / perf::effective_bandwidth(cfg_.bandwidth,
                                                  rec_b / span_b) +
                side_b / cfg_.bandwidth.streaming;
        break;
      }
      case StepKind::kPartition: {
        double primary_b = 0.0;
        double touched = 1.0;
        if (cfg_.redundant_column_format) {
          primary_b =
              perf::expected_touched_blocks(recs, density, block) * block;
          touched = primary_b / (recs / density);  // 1-byte column elements
        } else {
          primary_b = recs * perf::row_bytes_per_record(info.record_bytes,
                                                        e.depth == 0);
          touched = primary_b / (recs / density * slot_bytes);
        }
        mem_s = primary_b /
                    perf::effective_bandwidth(cfg_.bandwidth, touched) +
                2.0 * recs * perf::kPointerBytes / cfg_.bandwidth.streaming;
        break;
      }
      case StepKind::kTraversal:
        // All records traverse the new tree: dense streaming either format.
        mem_s = event_bytes(e, recs, info, density) / cfg_.bandwidth.streaming;
        break;
      case StepKind::kSplitSelect:
        break;
    }

    // Compute time under the BU pipeline model.
    double compute_cycles = fill_cycles;
    switch (e.kind) {
      case StepKind::kHistogram:
        compute_cycles += recs * hist_cycles_per_record;
        break;
      case StepKind::kPartition:
        compute_cycles += recs / num_bus;  // one predicate eval per BU-cycle
        break;
      case StepKind::kTraversal:
        compute_cycles += recs * e.avg_path_length * cfg_.cycles_per_hop /
                          num_bus;
        break;
      case StepKind::kSplitSelect:
        break;
    }
    const double compute_s = compute_cycles / cfg_.clock_hz;
    double step_s = std::max(mem_s, compute_s);
    if (e.kind == StepKind::kHistogram) {
      // One S-way merge per node histogram; level-by-level traces
      // aggregate a whole level's nodes into one event (e.histograms).
      step_s += merge_s_per_hist * e.histograms;
    }
    out[e.kind] += step_s;
  }
  for (auto& s : out.seconds) s *= trace.repeat();
  out[StepKind::kSplitSelect] = perf::host_split_seconds(trace, host_);
  return out;
}

double BoosterModel::inference_cost(const perf::InferenceSpec& spec) const {
  BOOSTER_CHECK(spec.trees > 0 && spec.chips > 0);
  // Multi-chip distribution (paper SS III-D): trees are dealt round-robin
  // over the chips; each chip hosts replicas of its own subset and all
  // chips stream the batch in parallel, so per-chip tree count drives the
  // replica math.
  const std::uint32_t trees_per_chip =
      (spec.trees + spec.chips - 1) / spec.chips;
  const double replicas =
      std::max<std::uint32_t>(1, cfg_.inference_bus / trees_per_chip);
  // Throughput is bounded by the deepest tree: a replica group finishes a
  // record when its slowest BU does (paper §V-H: Booster's performance
  // depends on the max depth across trees, usually 6).
  const double compute_s = spec.records * spec.max_depth *
                           cfg_.cycles_per_hop / replicas / cfg_.clock_hz;
  // Each record is broadcast once from memory (full record: inference
  // predicates span many fields).
  const double mem_s =
      spec.records *
      perf::row_bytes_per_record(spec.record_bytes, /*dense=*/true) /
      cfg_.bandwidth.streaming;
  return std::max(compute_s, mem_s);
}

perf::Activity BoosterModel::train_activity(
    const trace::StepTrace& trace, const trace::WorkloadInfo& info) const {
  perf::Activity act;
  act.sram_energy_per_access_norm = 0.71;  // 2 KB SRAM (paper Table V)
  const double nominal = static_cast<double>(info.nominal_records);
  // Shard-merge traffic mirrors train_cost: read + write-back of the S-1
  // remote shard histograms per step-1 event.
  const double shards = std::max<std::uint32_t>(1, cfg_.training_shards);
  const double merge_bytes_per_hist =
      shards > 1.0 ? 2.0 * (shards - 1.0) *
                         static_cast<double>(info.total_bins) *
                         cfg_.bin_entry_bytes
                   : 0.0;
  for (const auto& e : trace.events()) {
    const double recs = trace.scaled_records(e) * trace.repeat();
    const double density =
        nominal > 0.0 ? trace.scaled_records(e) / nominal : 1.0;
    switch (e.kind) {
      case StepKind::kHistogram:
        // Read-modify-write per field update.
        act.sram_accesses += recs * e.record_fields * 2.0;
        break;
      case StepKind::kPartition:
        act.sram_accesses += recs;  // predicate table lookup
        break;
      case StepKind::kTraversal:
        act.sram_accesses += recs * e.avg_path_length;
        break;
      case StepKind::kSplitSelect:
        act.sram_accesses += static_cast<double>(e.bins_scanned) *
                             trace.repeat();
        break;
    }
    act.dram_bytes +=
        event_bytes(e, trace.scaled_records(e), info, density) *
        trace.repeat();
    if (e.kind == StepKind::kHistogram) {
      act.dram_bytes += merge_bytes_per_hist * e.histograms * trace.repeat();
    }
  }
  return act;
}

}  // namespace booster::core
