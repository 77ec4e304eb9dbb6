#include "sim/library.h"

namespace booster::sim {

namespace {

const std::vector<std::string> kPaperWorkloads = {"IoT", "Higgs", "Allstate",
                                                  "Mq2008", "Flight"};

ModelSpec model(std::string name, std::string label = "",
                Json overrides = {}) {
  ModelSpec m;
  m.model = std::move(name);
  m.label = std::move(label);
  m.overrides = std::move(overrides);
  return m;
}

ScenarioSpec base(std::string name, std::string title, std::string paper_ref,
                  std::vector<std::string> workloads = kPaperWorkloads) {
  ScenarioSpec s;
  s.name = std::move(name);
  s.title = std::move(title);
  s.paper_ref = std::move(paper_ref);
  s.workloads = std::move(workloads);
  return s;
}

std::vector<ScenarioSpec> make_builtin() {
  std::vector<ScenarioSpec> out;

  {
    auto s = base("fig6_seq_breakdown",
                  "Fig 6: sequential execution time breakdown",
                  "Booster paper, Section IV, Figure 6");
    s.models = {model("seq-cpu")};
    out.push_back(std::move(s));
  }
  {
    auto s = base("fig7_speedup",
                  "Fig 7: performance comparison (training speedup)",
                  "Booster paper, Section V-A, Figure 7");
    s.models = {model("ideal-32core"), model("ideal-gpu"),
                model("inter-record"), model("booster"),
                model("booster-cycle")};
    out.push_back(std::move(s));
  }
  {
    auto s = base("fig8_breakdown",
                  "Fig 8: execution time breakdown (normalized)",
                  "Booster paper, Section V-B, Figure 8");
    s.models = {model("ideal-32core"), model("ideal-gpu"), model("booster"),
                model("booster-cycle")};
    out.push_back(std::move(s));
  }
  {
    auto s = base("fig9_ablation", "Fig 9: isolating Booster's optimizations",
                  "Booster paper, Section V-C, Figure 9");
    Json no_opts = Json::object();
    no_opts.set("group_by_field_mapping", false);
    no_opts.set("redundant_column_format", false);
    Json with_mapping = Json::object();
    with_mapping.set("group_by_field_mapping", true);
    with_mapping.set("redundant_column_format", false);
    s.models = {model("ideal-32core"),
                model("booster", "-no-opts", std::move(no_opts)),
                model("booster", "+group-by-field", std::move(with_mapping)),
                model("booster", "+column-format")};
    out.push_back(std::move(s));
  }
  {
    auto s = base("fig10_energy", "Fig 10: SRAM and DRAM energy (normalized)",
                  "Booster paper, Section V-D, Figure 10");
    s.models = {model("ideal-32core"), model("ideal-gpu"), model("booster")};
    out.push_back(std::move(s));
  }
  {
    auto s = base("fig11_validation", "Fig 11: Ideal vs Real configurations",
                  "Booster paper, Section V-E, Figure 11");
    s.models = {model("ideal-32core"), model("real-32core"),
                model("ideal-gpu"), model("real-gpu"), model("booster"),
                model("booster-cycle")};
    out.push_back(std::move(s));
  }
  {
    auto s = base("fig12_scaling",
                  "Fig 12: sensitivity to dataset size (10x scale-up)",
                  "Booster paper, Section V-F, Figure 12");
    s.models = {model("ideal-32core"), model("ideal-gpu"), model("booster")};
    s.sweep_axis = SweepAxis::kRecordScale;
    s.sweep_values = {1.0, 10.0};
    out.push_back(std::move(s));
  }
  {
    auto s = base("fig13_inference", "Fig 13: batch inference speedup",
                  "Booster paper, Section V-H, Figure 13");
    s.models = {model("ideal-32core"), model("booster")};
    s.include_inference = true;
    out.push_back(std::move(s));
  }
  {
    auto s = base("table3_datasets",
                  "Table III: dataset and model characteristics",
                  "Booster paper, Section IV, Table III");
    s.models = {model("seq-cpu")};
    out.push_back(std::move(s));
  }
  {
    // Pure memory-system scenario: no workloads or models; the shim drives
    // memsim::BandwidthProbe with the spec's DRAM config.
    auto s = base("table4_dram",
                  "Table IV: DRAM configuration + sustained bandwidth",
                  "Booster paper, Section IV, Table IV", {});
    out.push_back(std::move(s));
  }
  {
    // Silicon-model scenario: the shim feeds the spec's accelerator config
    // to energy::AreaPowerModel.
    auto s = base("table6_area_power", "Table VI: area and power estimates",
                  "Booster paper, Section V-G, Table VI", {});
    out.push_back(std::move(s));
  }
  {
    auto s = base("dse_bu_sweep",
                  "DSE: BU-count sweep (rate-matching the memory system)",
                  "Booster paper, Section III-B (sizing argument);"
                  " extension study");
    s.models = {model("ideal-32core"), model("booster")};
    s.sweep_axis = SweepAxis::kClusters;
    s.sweep_values = {5, 10, 20, 30, 40, 50, 65, 80};
    out.push_back(std::move(s));
  }
  {
    auto s = base("dse_bandwidth_sweep",
                  "DSE: bandwidth sweep at the 3200-BU design point",
                  "Booster paper, Section III-B (sizing argument);"
                  " extension study");
    s.models = {model("ideal-32core"), model("booster")};
    s.sweep_axis = SweepAxis::kBandwidthScale;
    s.sweep_values = {0.25, 0.5, 1.0, 2.0, 4.0};
    out.push_back(std::move(s));
  }
  {
    // Scale-out DSE: a 50M-record nominal workload (the class the paper
    // sizes Booster against) swept over training shard counts. The
    // functional sample itself trains on 4 shards (runner.shards = 4) --
    // output is bit-identical at every shard count, so only the perf
    // models' scale-out projection
    // varies across the sweep: per-shard record bandwidth shrinks the
    // step work while per-event histogram-merge traffic grows with S.
    auto s = base("dse_shard_sweep",
                  "DSE: sharded-training sweep (per-shard bandwidth vs"
                  " histogram-merge traffic)",
                  "Booster paper, Section III-B (50M-record sizing);"
                  " extension study",
                  {"synth50m", "Flight"});
    workloads::DatasetSpec d;
    d.name = "synth50m";
    d.description = "50M-record nominal scale-out workload";
    d.nominal_records = 50'000'000;
    d.numeric_fields = 24;
    d.categorical_cardinalities = {64, 16, 8};
    d.missing_rate = 0.05;
    s.datasets = {d};
    s.models = {model("ideal-32core"), model("booster")};
    s.sweep_axis = SweepAxis::kShards;
    s.sweep_values = {1, 2, 4, 8, 16, 32};
    s.shards = 4;
    out.push_back(std::move(s));
  }
  {
    // Serving scenario: the analytic batch-inference cost (swept over
    // replica counts, paper SS III-D round-robin chip dealing) next to a
    // *measured* closed-loop run against a real serve::Server on
    // localhost TCP. The measured leg is gated bit-exact -- every served
    // prediction must equal local Model::predict -- so the two QPS
    // columns in one table are both correctness-proven.
    auto s = base("serving",
                  "Serving: measured prediction-server QPS vs analytic"
                  " inference cost",
                  "Booster paper, Section V-H (inference); serving"
                  " extension study",
                  {"IoT", "Flight"});
    s.models = {model("ideal-32core"), model("booster")};
    s.include_inference = true;
    s.sweep_axis = SweepAxis::kReplicas;
    s.sweep_values = {1, 2, 4};
    s.serving = ServingSpec{};
    out.push_back(std::move(s));
  }
  {
    // Streaming scenario: chunked ingestion against a frozen bin map with
    // continuous warm-start retraining (stream::Retrainer), swept over the
    // refresh cadence. Every refreshed generation is verified bit-identical
    // across a (threads x shards) grid before its staleness/throughput
    // numbers are reported, and a drifting label-noise schedule gives the
    // refreshes something real to chase.
    auto s = base("streaming",
                  "Streaming: continuous warm-start retraining, staleness"
                  " vs refresh cadence",
                  "Streaming ingestion extension study (cf. IPTV"
                  " QoS-under-arrival-rate methodology)",
                  {"IoT"});
    s.models = {model("booster")};
    s.sweep_axis = SweepAxis::kRefreshCadence;
    s.sweep_values = {1, 2, 4};
    StreamingSpec st;
    st.drift = "noise-ramp";
    s.streaming = st;
    out.push_back(std::move(s));
  }

  return out;
}

}  // namespace

const std::vector<ScenarioSpec>& builtin_scenarios() {
  static const std::vector<ScenarioSpec>* scenarios =
      new std::vector<ScenarioSpec>(make_builtin());
  return *scenarios;
}

std::optional<ScenarioSpec> builtin_scenario(const std::string& name) {
  for (const auto& s : builtin_scenarios()) {
    if (s.name == name) return s;
  }
  return std::nullopt;
}

}  // namespace booster::sim
