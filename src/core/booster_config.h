// Booster accelerator configuration (paper §III-B): a sea of small SRAMs,
// each paired with a floating-point adder (together one Booster Unit, BU),
// organized into clusters connected by a pipelined broadcast bus.
#pragma once

#include <cstdint>

#include "memsim/bandwidth_probe.h"

namespace booster::core {

struct BoosterConfig {
  // Scale: 50 clusters x 64 BUs = 3200 BUs, sized to rate-match a
  // ~400 GB/s memory system at 1 GHz (paper's worked example: 6.25 blocks
  // x 64 fields x 8 cycles = 3200).
  std::uint32_t clusters = 50;
  std::uint32_t bus_per_cluster = 64;

  // Each BU: 2 KB SRAM holding 8-byte histogram bins (G, H as fp32), so
  // 256 bins -- exactly one numeric field's 255 value bins + missing bin.
  std::uint32_t sram_bytes = 2048;
  std::uint32_t bin_entry_bytes = 8;

  // BU pipeline: short integer subtract (bin localization), SRAM read, two
  // pipelined FP adds, SRAM write -- 8 cycles per field update.
  std::uint32_t cycles_per_field_update = 8;

  // One-tree traversal / inference: one SRAM table lookup + predicate
  // evaluation per tree edge.
  std::uint32_t cycles_per_hop = 8;

  // Broadcast bus: pipelined over point-to-point links, 16 BUs per link
  // (fill/drain = num_bus / link span cycles, negligible over millions of
  // records but charged per event).
  std::uint32_t bus_link_span = 16;

  double clock_hz = 1.0e9;

  // The paper's two Booster-specific optimizations, separable for the
  // Fig 9 ablation.
  bool group_by_field_mapping = true;
  bool redundant_column_format = true;

  // BUs reserved for batch inference tree replicas (paper §V-H uses 3000
  // of the 3200 to host 6 replicas of a 500-tree ensemble).
  std::uint32_t inference_bus = 3000;

  // Training shards for scale-out projections (TrainerConfig::num_shards
  // is the functional counterpart; see the "shards" sweep axis in
  // sim/scenario.h).
  // Each shard is modeled as a full Booster node -- its own BU array and
  // memory system -- holding 1/S of the records; per-node shard histograms
  // merge in fixed shard order after every step-1 event, charged as
  // streaming DRAM traffic. 1 = single-node (no merge traffic).
  std::uint32_t training_shards = 1;

  // Calibrated DRAM sustained bandwidths (memsim::BandwidthProbe). The
  // default constants match the Table IV configuration's measured rates
  // under the FR-FCFS model (streaming ~402, stride-16 gather ~380, random
  // ~267 GB/s -- the tFAW activate bound keeps even random traffic at ~2/3
  // of peak); benches recalibrate from the cycle-level model at startup.
  memsim::BandwidthProfile bandwidth{/*streaming=*/400.0e9,
                                     /*strided_gather=*/378.0e9,
                                     /*random=*/266.0e9,
                                     /*peak=*/403.2e9};

  std::uint32_t num_bus() const { return clusters * bus_per_cluster; }
  std::uint32_t sram_bins() const { return sram_bytes / bin_entry_bytes; }
  std::uint64_t total_sram_bytes() const {
    return static_cast<std::uint64_t>(num_bus()) * sram_bytes;
  }
};

}  // namespace booster::core
