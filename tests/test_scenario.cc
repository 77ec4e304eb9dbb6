// Scenario-layer tests: JSON round-trips (parse -> serialize -> parse
// fixpoint), unknown-key / bad-enum error paths, registry lookup failures,
// and the golden equivalence test -- sim::ScenarioRunner must reproduce
// bench_fig7_speedup's numbers bit-identically to the legacy per-bench
// wiring, at 1 and 4 threads.
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/cpu_like.h"
#include "baselines/inter_record.h"
#include "core/booster_model.h"
#include "perf/cycle_calibrated.h"
#include "sim/json.h"
#include "sim/library.h"
#include "sim/registry.h"
#include "sim/runner.h"
#include "sim/scenario.h"

namespace booster::sim {
namespace {

// ---------------------------------------------------------------- JSON

TEST(Json, ParsesScalarsArraysObjects) {
  std::string error;
  const auto doc = Json::parse(
      R"({"a": 1.5, "b": [1, 2, 3], "c": {"d": true, "e": null},
          "s": "hi\nthere"})",
      &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_DOUBLE_EQ(doc->find("a")->as_double(), 1.5);
  EXPECT_EQ(doc->find("b")->items().size(), 3u);
  EXPECT_TRUE(doc->find("c")->find("d")->as_bool());
  EXPECT_TRUE(doc->find("c")->find("e")->is_null());
  EXPECT_EQ(doc->find("s")->as_string(), "hi\nthere");
}

TEST(Json, DumpParseDumpIsFixpoint) {
  std::string error;
  const auto doc = Json::parse(
      R"({"x": 0.1, "big": 1e9, "neg": -3, "frac": 0.30000000000000004,
          "arr": [1.5, "s", false], "nested": {"k": [{"q": 2}]}})",
      &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const std::string once = doc->dump();
  const auto reparsed = Json::parse(once, &error);
  ASSERT_TRUE(reparsed.has_value()) << error;
  EXPECT_EQ(reparsed->dump(), once);
  EXPECT_TRUE(*reparsed == *doc);
}

TEST(Json, IntegersPrintWithoutExponent) {
  Json j = Json::object();
  j.set("records", std::uint64_t{10'000'000});
  EXPECT_NE(j.dump().find("10000000"), std::string::npos);
  EXPECT_EQ(j.dump().find("e+"), std::string::npos);
}

TEST(Json, ReportsErrorsWithPosition) {
  std::string error;
  EXPECT_FALSE(Json::parse("{\"a\": }", &error).has_value());
  EXPECT_NE(error.find("line 1"), std::string::npos);

  error.clear();
  EXPECT_FALSE(Json::parse("{\"a\": 1} trailing", &error).has_value());
  EXPECT_NE(error.find("trailing"), std::string::npos);

  error.clear();
  EXPECT_FALSE(Json::parse("{\"a\": 1, \"a\": 2}", &error).has_value());
  EXPECT_NE(error.find("duplicate"), std::string::npos);
}

// ------------------------------------------------------------ spec IO

TEST(ScenarioSpec, BuiltinSpecsRoundTripLosslessly) {
  for (const auto& spec : builtin_scenarios()) {
    const Json j = spec.to_json();
    std::string error;
    const auto reparsed = ScenarioSpec::from_json(j, &error);
    ASSERT_TRUE(reparsed.has_value()) << spec.name << ": " << error;
    EXPECT_TRUE(*reparsed == spec) << spec.name;
    // parse -> serialize -> parse fixpoint on the serialized text.
    const auto doc = Json::parse(j.dump(), &error);
    ASSERT_TRUE(doc.has_value()) << spec.name << ": " << error;
    EXPECT_EQ(doc->dump(), j.dump()) << spec.name;
  }
}

TEST(ScenarioSpec, UnknownTopLevelKeyIsAnError) {
  std::string error;
  const auto doc =
      Json::parse(R"({"name": "x", "bogus_knob": 1})", &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_FALSE(ScenarioSpec::from_json(*doc, &error).has_value());
  EXPECT_NE(error.find("bogus_knob"), std::string::npos) << error;
}

TEST(ScenarioSpec, UnknownBoosterDeltaKeyIsAnError) {
  std::string error;
  const auto doc = Json::parse(
      R"({"name": "x", "booster": {"cluster_count": 10}})", &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_FALSE(ScenarioSpec::from_json(*doc, &error).has_value());
  EXPECT_NE(error.find("cluster_count"), std::string::npos) << error;
}

TEST(ScenarioSpec, OutOfRangeConfigValueIsAnError) {
  // u32 knobs must fail loudly at parse time, not wrap silently.
  std::string error;
  const auto doc = Json::parse(
      R"({"name": "x", "booster": {"sram_bytes": 4294967296}})", &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_FALSE(ScenarioSpec::from_json(*doc, &error).has_value());
  EXPECT_NE(error.find("sram_bytes"), std::string::npos) << error;

  error.clear();
  const auto huge = Json::parse(
      R"({"name": "x", "runner": {"sim_records": 1e300}})", &error);
  ASSERT_TRUE(huge.has_value()) << error;
  EXPECT_FALSE(ScenarioSpec::from_json(*huge, &error).has_value());
  EXPECT_NE(error.find("sim_records"), std::string::npos) << error;
}

TEST(ScenarioSpec, BadSweepAxisIsAnError) {
  std::string error;
  const auto doc = Json::parse(
      R"({"name": "x", "sweep": {"axis": "warp-speed", "values": [1]}})",
      &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_FALSE(ScenarioSpec::from_json(*doc, &error).has_value());
  EXPECT_NE(error.find("warp-speed"), std::string::npos) << error;
}

TEST(ScenarioSpec, BadLabelStructureEnumIsAnError) {
  std::string error;
  const auto doc = Json::parse(
      R"({"name": "x", "datasets": [{"name": "d", "nominal_records": 10,
          "numeric_fields": 2, "label_structure": "psychic"}]})",
      &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_FALSE(ScenarioSpec::from_json(*doc, &error).has_value());
  EXPECT_NE(error.find("psychic"), std::string::npos) << error;
}

TEST(ScenarioSpec, UserDefinedDatasetRoundTrips) {
  workloads::DatasetSpec d = workloads::fraud_spec(123456);
  const Json j = dataset_to_json(d);
  std::string error;
  const auto reparsed = dataset_from_json(j, &error);
  ASSERT_TRUE(reparsed.has_value()) << error;
  EXPECT_EQ(reparsed->name, d.name);
  EXPECT_EQ(reparsed->nominal_records, d.nominal_records);
  EXPECT_EQ(reparsed->categorical_cardinalities,
            d.categorical_cardinalities);
  EXPECT_EQ(reparsed->label_structure, d.label_structure);
  EXPECT_TRUE(dataset_to_json(*reparsed) == j);
}

TEST(ScenarioSpec, StreamingBlockRoundTripsWithNonDefaults) {
  auto spec = *builtin_scenario("streaming");
  ASSERT_TRUE(spec.streaming.has_value());
  spec.streaming->bootstrap_rows = 5000;
  spec.streaming->chunk_rows = 250;
  spec.streaming->window_chunks = 6;
  spec.streaming->warm_start = false;
  spec.streaming->arrival_rows_per_sec = 1500.5;

  const Json j = spec.to_json();
  const Json* st = j.find("streaming");
  ASSERT_NE(st, nullptr);
  EXPECT_DOUBLE_EQ(st->find("bootstrap_rows")->as_double(), 5000.0);
  EXPECT_DOUBLE_EQ(st->find("arrival_rows_per_sec")->as_double(), 1500.5);
  // Defaults stay out of the serialized form (lossless minimal JSON).
  EXPECT_EQ(st->find("refresh_trees"), nullptr);
  EXPECT_EQ(st->find("chunks"), nullptr);

  std::string error;
  const auto reparsed = ScenarioSpec::from_json(j, &error);
  ASSERT_TRUE(reparsed.has_value()) << error;
  EXPECT_TRUE(*reparsed == spec);
  ASSERT_TRUE(reparsed->streaming.has_value());
  EXPECT_EQ(reparsed->streaming->chunk_rows, 250u);
  EXPECT_FALSE(reparsed->streaming->warm_start);
}

TEST(ScenarioSpec, StreamingBlockIsValidated) {
  const auto parse = [](const std::string& text, std::string* error) {
    const auto doc = Json::parse(text, error);
    EXPECT_TRUE(doc.has_value()) << *error;
    return ScenarioSpec::from_json(*doc, error);
  };
  std::string error;
  // Zero chunk_rows, bad drift name, unknown key: all parse errors.
  EXPECT_FALSE(
      parse(R"({"name": "x", "streaming": {"chunk_rows": 0}})", &error)
          .has_value());
  EXPECT_NE(error.find("must be positive"), std::string::npos) << error;
  error.clear();
  EXPECT_FALSE(
      parse(R"({"name": "x", "streaming": {"drift": "tectonic"}})", &error)
          .has_value());
  EXPECT_NE(error.find("tectonic"), std::string::npos) << error;
  error.clear();
  EXPECT_FALSE(
      parse(R"({"name": "x", "streaming": {"bogus": 1}})", &error)
          .has_value());
  EXPECT_NE(error.find("bogus"), std::string::npos) << error;
}

TEST(ScenarioSpec, StreamingSweepAxesRequireTheStreamingBlock) {
  const auto parse = [](const std::string& text, std::string* error) {
    const auto doc = Json::parse(text, error);
    EXPECT_TRUE(doc.has_value()) << *error;
    return ScenarioSpec::from_json(*doc, error);
  };
  std::string error;
  for (const std::string axis : {"arrival-rate", "refresh-cadence"}) {
    // Without a streaming block the axis has nothing to act on: error.
    EXPECT_FALSE(parse(R"({"name": "x", "sweep": {"axis": ")" + axis +
                           R"(", "values": [1]}})",
                       &error)
                     .has_value())
        << axis;
    EXPECT_NE(error.find(axis), std::string::npos) << error;
    error.clear();
    // With the block it parses, and the axis name round-trips.
    const auto ok = parse(R"({"name": "x", "streaming": {},
                              "sweep": {"axis": ")" +
                              axis + R"(", "values": [1, 2]}})",
                          &error);
    ASSERT_TRUE(ok.has_value()) << axis << ": " << error;
    EXPECT_EQ(sweep_axis_name(ok->sweep_axis), axis);
    EXPECT_TRUE(ScenarioSpec::from_json(ok->to_json(), &error).has_value())
        << error;
  }
}

// ----------------------------------------------------------- registries

TEST(Registries, UnknownModelNameFailsWithRoster) {
  ModelSpec m;
  m.model = "quantum-annealer";
  ModelContext ctx;
  std::string error;
  EXPECT_EQ(ModelRegistry::builtin().create(m, ctx, &error), nullptr);
  EXPECT_NE(error.find("quantum-annealer"), std::string::npos);
  EXPECT_NE(error.find("booster"), std::string::npos) << "roster in error";
}

TEST(Registries, UnknownWorkloadFailsScenario) {
  ScenarioSpec spec;
  spec.name = "t";
  spec.workloads = {"no-such-dataset"};
  spec.models = {ModelSpec{"booster", "", {}}};
  RunOptions opt;
  opt.quick = true;
  opt.calibrate_bandwidth = false;
  std::string error;
  EXPECT_FALSE(ScenarioRunner().run(spec, opt, &error).has_value());
  EXPECT_NE(error.find("no-such-dataset"), std::string::npos) << error;
}

TEST(Registries, BadModelOverrideFailsScenario) {
  ScenarioSpec spec;
  spec.name = "t";
  spec.workloads = {"fraud"};
  ModelSpec m;
  m.model = "ideal-32core";
  m.overrides = Json::object();
  m.overrides.set("warp_factor", 9);
  spec.models = {m};
  spec.sim_records = 2000;
  spec.sim_trees = 2;
  RunOptions opt;
  opt.calibrate_bandwidth = false;
  std::string error;
  EXPECT_FALSE(ScenarioRunner().run(spec, opt, &error).has_value());
  EXPECT_NE(error.find("warp_factor"), std::string::npos) << error;
}

TEST(Registries, NonIntegerCountOverridesAreErrors) {
  ModelContext ctx;
  std::string error;
  ModelSpec cycle;
  cycle.model = "booster-cycle";
  cycle.overrides = Json::object();
  cycle.overrides.set("replay_threads", 2.9);
  EXPECT_EQ(ModelRegistry::builtin().create(cycle, ctx, &error), nullptr);
  EXPECT_NE(error.find("replay_threads"), std::string::npos) << error;

  error.clear();
  ModelSpec ir;
  ir.model = "inter-record";
  ir.overrides = Json::object();
  ir.overrides.set("copies", 3.7);
  EXPECT_EQ(ModelRegistry::builtin().create(ir, ctx, &error), nullptr);
  EXPECT_NE(error.find("copies"), std::string::npos) << error;
}

TEST(Registries, BadOverrideFailsBeforeTraining) {
  // Up-front factory validation: a zero-workload scenario with a bad
  // override must still be rejected (nothing downstream would ever build
  // the model).
  ScenarioSpec spec;
  spec.name = "t";
  ModelSpec m;
  m.model = "booster";
  m.overrides = Json::object();
  m.overrides.set("warp_core", true);
  spec.models = {m};
  RunOptions opt;
  opt.calibrate_bandwidth = false;
  std::string error;
  EXPECT_FALSE(ScenarioRunner().run(spec, opt, &error).has_value());
  EXPECT_NE(error.find("warp_core"), std::string::npos) << error;
}

TEST(Registries, WorkloadRegistryHasPaperDatasetsAndFraud) {
  const auto reg = WorkloadRegistry::with_builtin();
  for (const char* name :
       {"IoT", "Higgs", "Allstate", "Mq2008", "Flight", "fraud"}) {
    EXPECT_NE(reg.find(name), nullptr) << name;
  }
  EXPECT_EQ(reg.find("nope"), nullptr);
}

// ------------------------------------------------- golden equivalence

/// The legacy bench_fig7_speedup wiring, verbatim: hand-constructed
/// models over run_paper_workloads. The runner must match this
/// bit-for-bit.
struct LegacyFig7 {
  std::vector<std::string> names;
  std::vector<double> cpu_t, gpu_t, ir_t, booster_t, cycle_t;
};

LegacyFig7 legacy_fig7(const workloads::RunnerConfig& rcfg) {
  LegacyFig7 out;
  const auto workloads = workloads::run_paper_workloads(rcfg);
  const auto& bw = calibrated_profile(memsim::DramConfig{});
  core::BoosterConfig booster_cfg;
  booster_cfg.bandwidth = bw;
  const baselines::CpuLikeModel ideal_cpu(baselines::ideal_cpu_params());
  const baselines::CpuLikeModel ideal_gpu(baselines::ideal_gpu_params());
  const core::BoosterModel booster(booster_cfg);
  const perf::CycleCalibratedBoosterModel cycle(booster_cfg);
  for (const auto& w : workloads) {
    baselines::InterRecordParams p;
    p.bandwidth = bw;
    p.copies = w.spec.ir_copies >= 0
                   ? static_cast<std::uint32_t>(w.spec.ir_copies)
                   : baselines::InterRecordModel::estimate_copies(w.info, p);
    const baselines::InterRecordModel ir(p);
    out.names.push_back(w.spec.name);
    out.cpu_t.push_back(ideal_cpu.train_cost(w.trace, w.info).total());
    out.gpu_t.push_back(ideal_gpu.train_cost(w.trace, w.info).total());
    out.ir_t.push_back(ir.train_cost(w.trace, w.info).total());
    out.booster_t.push_back(booster.train_cost(w.trace, w.info).total());
    out.cycle_t.push_back(cycle.train_cost(w.trace, w.info).total());
  }
  return out;
}

TEST(GoldenEquivalence, RunnerReproducesLegacyFig7AtOneAndFourThreads) {
  const auto spec = builtin_scenario("fig7_speedup");
  ASSERT_TRUE(spec.has_value());

  workloads::RunnerConfig rcfg = spec->runner_config(/*quick=*/true);
  const LegacyFig7 legacy = legacy_fig7(rcfg);

  for (const unsigned threads : {1u, 4u}) {
    RunOptions opt;
    opt.quick = true;
    opt.threads = threads;
    std::string error;
    const auto res = ScenarioRunner().run(*spec, opt, &error);
    ASSERT_TRUE(res.has_value()) << error;
    ASSERT_EQ(res->workloads.size(), legacy.names.size());
    for (std::size_t w = 0; w < legacy.names.size(); ++w) {
      EXPECT_EQ(res->workloads[w].spec.name, legacy.names[w]);
      // Bit-identical, not approximately equal: the runner must not
      // perturb the costing path at any thread count.
      EXPECT_EQ(res->cell(0, w, 0).total_seconds, legacy.cpu_t[w])
          << legacy.names[w] << " threads=" << threads;
      EXPECT_EQ(res->cell(0, w, 1).total_seconds, legacy.gpu_t[w])
          << legacy.names[w] << " threads=" << threads;
      EXPECT_EQ(res->cell(0, w, 2).total_seconds, legacy.ir_t[w])
          << legacy.names[w] << " threads=" << threads;
      EXPECT_EQ(res->cell(0, w, 3).total_seconds, legacy.booster_t[w])
          << legacy.names[w] << " threads=" << threads;
      EXPECT_EQ(res->cell(0, w, 4).total_seconds, legacy.cycle_t[w])
          << legacy.names[w] << " threads=" << threads;
    }
  }
}

TEST(GoldenEquivalence, BuSweepParallelMatchesSerialPerCell) {
  // Acceptance: a BU-count sweep runs its cells in parallel with per-cell
  // results identical to a serial run. Trimmed sweep + small sample keeps
  // this fast; the analytic models make the cell matrix wide, not deep.
  auto spec = *builtin_scenario("dse_bu_sweep");
  spec.sweep_values = {10, 30, 50, 80};
  spec.sim_records = 4000;
  spec.sim_trees = 4;

  RunOptions serial_opt;
  serial_opt.threads = 1;
  serial_opt.calibrate_bandwidth = false;
  RunOptions parallel_opt = serial_opt;
  parallel_opt.threads = 4;

  std::string error;
  const auto serial = ScenarioRunner().run(spec, serial_opt, &error);
  ASSERT_TRUE(serial.has_value()) << error;
  const auto parallel = ScenarioRunner().run(spec, parallel_opt, &error);
  ASSERT_TRUE(parallel.has_value()) << error;

  ASSERT_EQ(serial->cells.size(),
            spec.sweep_values.size() * spec.workloads.size() *
                spec.models.size());
  ASSERT_EQ(serial->cells.size(), parallel->cells.size());
  for (std::size_t i = 0; i < serial->cells.size(); ++i) {
    const auto& a = serial->cells[i];
    const auto& b = parallel->cells[i];
    EXPECT_EQ(a.model_name, b.model_name);
    EXPECT_EQ(a.sweep_value, b.sweep_value);
    EXPECT_EQ(a.total_seconds, b.total_seconds) << "cell " << i;
    for (int k = 0; k < trace::kNumStepKinds; ++k) {
      EXPECT_EQ(a.breakdown.seconds[k], b.breakdown.seconds[k])
          << "cell " << i << " step " << k;
    }
    EXPECT_EQ(a.activity.dram_bytes, b.activity.dram_bytes) << "cell " << i;
  }
  // The sweep actually swept: more clusters -> no slower anywhere, and the
  // booster cells differ across points.
  EXPECT_NE(serial->cell(0, 0, 1).total_seconds,
            serial->cell(3, 0, 1).total_seconds);
}

TEST(ShardSweep, AxisAndRunnerShardsRoundTripThroughJson) {
  // Golden check on the checked-in scenario's spec: the shards sweep axis
  // and the functional runner.shards knob survive serialize -> parse.
  const auto spec = builtin_scenario("dse_shard_sweep");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->sweep_axis, SweepAxis::kShards);
  EXPECT_EQ(spec->shards, 4u);
  ASSERT_EQ(spec->datasets.size(), 1u);
  EXPECT_EQ(spec->datasets[0].name, "synth50m");
  EXPECT_EQ(spec->datasets[0].nominal_records, 50'000'000u);

  const Json j = spec->to_json();
  const Json* sweep = j.find("sweep");
  ASSERT_NE(sweep, nullptr);
  EXPECT_EQ(sweep->find("axis")->as_string(), "shards");
  const Json* runner = j.find("runner");
  ASSERT_NE(runner, nullptr);
  EXPECT_DOUBLE_EQ(runner->find("shards")->as_double(), 4.0);

  std::string error;
  const auto reparsed = ScenarioSpec::from_json(j, &error);
  ASSERT_TRUE(reparsed.has_value()) << error;
  EXPECT_TRUE(*reparsed == *spec);
  EXPECT_EQ(reparsed->sweep_axis, SweepAxis::kShards);
  EXPECT_EQ(reparsed->shards, 4u);
  EXPECT_EQ(reparsed->sweep_values, spec->sweep_values);
}

TEST(DistributedRunner, ProcsAndTransportRoundTripThroughJson) {
  auto spec = *builtin_scenario("dse_shard_sweep");
  spec.procs = 2;
  spec.transport = "tcp";
  const Json j = spec.to_json();
  const Json* runner = j.find("runner");
  ASSERT_NE(runner, nullptr);
  EXPECT_DOUBLE_EQ(runner->find("procs")->as_double(), 2.0);
  EXPECT_EQ(runner->find("transport")->as_string(), "tcp");

  std::string error;
  const auto reparsed = ScenarioSpec::from_json(j, &error);
  ASSERT_TRUE(reparsed.has_value()) << error;
  EXPECT_TRUE(*reparsed == spec);
  EXPECT_EQ(reparsed->procs, 2u);
  EXPECT_EQ(reparsed->transport, "tcp");

  // Defaults stay out of the serialized form (lossless minimal JSON).
  const auto defaults = *builtin_scenario("dse_shard_sweep");
  const Json dj = defaults.to_json();
  const Json* drunner = dj.find("runner");
  ASSERT_NE(drunner, nullptr);
  EXPECT_EQ(drunner->find("procs"), nullptr);
  EXPECT_EQ(drunner->find("transport"), nullptr);

  // The knobs reach the workload runner config.
  const auto rcfg = reparsed->runner_config(/*quick=*/false);
  EXPECT_EQ(rcfg.procs, 2u);
  EXPECT_EQ(rcfg.transport, "tcp");
}

TEST(DistributedRunner, ChurnRoundTripsAndIsValidated) {
  auto spec = *builtin_scenario("dse_shard_sweep");
  spec.procs = 3;
  spec.transport = "tcp";
  spec.churn = "kill:1@2,join:3@4";
  const Json j = spec.to_json();
  const Json* runner = j.find("runner");
  ASSERT_NE(runner, nullptr);
  EXPECT_EQ(runner->find("churn")->as_string(), "kill:1@2,join:3@4");

  std::string error;
  const auto reparsed = ScenarioSpec::from_json(j, &error);
  ASSERT_TRUE(reparsed.has_value()) << error;
  EXPECT_TRUE(*reparsed == spec);
  EXPECT_EQ(reparsed->churn, "kill:1@2,join:3@4");
  const auto rcfg = reparsed->runner_config(/*quick=*/false);
  EXPECT_EQ(rcfg.transport, "tcp");
  EXPECT_EQ(rcfg.churn, "kill:1@2,join:3@4");

  // churn without tcp is rejected.
  spec.transport = "loopback";
  error.clear();
  EXPECT_FALSE(ScenarioSpec::from_json(spec.to_json(), &error).has_value());
  EXPECT_NE(error.find("churn"), std::string::npos) << error;

  // An unparseable schedule is rejected.
  spec.transport = "tcp";
  spec.churn = "explode:1@2";
  error.clear();
  EXPECT_FALSE(ScenarioSpec::from_json(spec.to_json(), &error).has_value());
  EXPECT_NE(error.find("churn"), std::string::npos) << error;
}

TEST(DistributedRunner, BadTransportAndZeroProcsAreParseErrors) {
  auto spec = *builtin_scenario("dse_shard_sweep");
  std::string error;
  for (const char* name : {"carrier-pigeon", "file", "socket"}) {
    spec.transport = name;
    error.clear();
    EXPECT_FALSE(ScenarioSpec::from_json(spec.to_json(), &error).has_value())
        << name;
    EXPECT_NE(error.find("transport"), std::string::npos) << error;
  }

  spec = *builtin_scenario("dse_shard_sweep");
  spec.procs = 0;
  error.clear();
  EXPECT_FALSE(ScenarioSpec::from_json(spec.to_json(), &error).has_value());
  EXPECT_NE(error.find("procs"), std::string::npos) << error;
}

TEST(DistributedRunner, ProcsLegTrainsBitIdenticallyToInProcess) {
  // runner.procs routes the functional sample through the distributed
  // trainer; by the bit-identity contract nothing downstream may change.
  workloads::RunnerConfig base;
  base.sim_records = 2000;
  base.sim_trees = 3;
  base.num_shards = 3;
  workloads::RunnerConfig dist = base;
  dist.procs = 2;
  dist.transport = "loopback";

  const auto spec = workloads::fraud_spec();
  const auto a = workloads::run_workload(spec, base);
  const auto b = workloads::run_workload(spec, dist);
  ASSERT_EQ(a.train.model.num_trees(), b.train.model.num_trees());
  ASSERT_EQ(a.trace.events().size(), b.trace.events().size());
  for (std::size_t t = 0; t < a.train.tree_stats.size(); ++t) {
    EXPECT_EQ(a.train.tree_stats[t].train_loss,
              b.train.tree_stats[t].train_loss);
  }
  for (std::uint64_t r = 0; r < a.binned.num_records(); r += 127) {
    EXPECT_EQ(a.train.model.predict_raw(a.binned, r),
              b.train.model.predict_raw(b.binned, r));
  }
  EXPECT_EQ(a.info.avg_leaf_depth, b.info.avg_leaf_depth);
}

TEST(DistributedRunner, ChurnLegTrainsBitIdenticallyOverElasticTcp) {
  // runner.transport=tcp + runner.churn routes the functional sample
  // through the elastic localhost-TCP world with a scheduled mid-run
  // kill; the final model and trace must still match the plain trainer.
  workloads::RunnerConfig base;
  base.sim_records = 2000;
  base.sim_trees = 4;
  base.num_shards = 3;
  workloads::RunnerConfig churned = base;
  churned.procs = 3;
  churned.transport = "tcp";
  churned.churn = "kill:2@1";

  const auto spec = workloads::fraud_spec();
  const auto a = workloads::run_workload(spec, base);
  const auto b = workloads::run_workload(spec, churned);
  ASSERT_EQ(a.train.model.num_trees(), b.train.model.num_trees());
  ASSERT_EQ(a.trace.events().size(), b.trace.events().size());
  for (std::size_t t = 0; t < a.train.tree_stats.size(); ++t) {
    EXPECT_EQ(a.train.tree_stats[t].train_loss,
              b.train.tree_stats[t].train_loss);
  }
  for (std::uint64_t r = 0; r < a.binned.num_records(); r += 127) {
    EXPECT_EQ(a.train.model.predict_raw(a.binned, r),
              b.train.model.predict_raw(b.binned, r));
  }
  EXPECT_EQ(a.info.avg_leaf_depth, b.info.avg_leaf_depth);
}

TEST(ShardSweep, NonIntegerShardValuesAreErrors) {
  auto spec = *builtin_scenario("dse_shard_sweep");
  spec.sweep_values = {1.5};
  spec.sim_records = 2000;
  spec.sim_trees = 2;
  RunOptions opt;
  opt.calibrate_bandwidth = false;
  std::string error;
  EXPECT_FALSE(ScenarioRunner().run(spec, opt, &error).has_value());
  EXPECT_NE(error.find("shards"), std::string::npos) << error;
}

TEST(ShardSweep, ParallelMatchesSerialPerCell) {
  // Acceptance: dse_shard_sweep's cells run in parallel with per-cell
  // output identical to a serial run (trimmed sweep + small functional
  // sample; runner.shards = 4 stays, so the sharded training engine
  // itself is exercised inside the pipeline).
  auto spec = *builtin_scenario("dse_shard_sweep");
  spec.sweep_values = {1, 4, 16};
  spec.sim_records = 3000;
  spec.sim_trees = 3;
  ASSERT_EQ(spec.shards, 4u);

  RunOptions serial_opt;
  serial_opt.threads = 1;
  serial_opt.calibrate_bandwidth = false;
  RunOptions parallel_opt = serial_opt;
  parallel_opt.threads = 4;

  std::string error;
  const auto serial = ScenarioRunner().run(spec, serial_opt, &error);
  ASSERT_TRUE(serial.has_value()) << error;
  const auto parallel = ScenarioRunner().run(spec, parallel_opt, &error);
  ASSERT_TRUE(parallel.has_value()) << error;

  ASSERT_EQ(serial->cells.size(),
            spec.sweep_values.size() * spec.workloads.size() *
                spec.models.size());
  ASSERT_EQ(serial->cells.size(), parallel->cells.size());
  for (std::size_t i = 0; i < serial->cells.size(); ++i) {
    const auto& a = serial->cells[i];
    const auto& b = parallel->cells[i];
    EXPECT_EQ(a.model_name, b.model_name);
    EXPECT_EQ(a.sweep_value, b.sweep_value);
    EXPECT_EQ(a.total_seconds, b.total_seconds) << "cell " << i;
    for (int k = 0; k < trace::kNumStepKinds; ++k) {
      EXPECT_EQ(a.breakdown.seconds[k], b.breakdown.seconds[k])
          << "cell " << i << " step " << k;
    }
    EXPECT_EQ(a.activity.dram_bytes, b.activity.dram_bytes) << "cell " << i;
  }

  // The axis reached the models: the booster cells (model index 1) vary
  // across shard counts -- per-shard bandwidth shrinks the record steps
  // while merge traffic grows -- whereas the CPU baseline (model index 0)
  // ignores training_shards entirely.
  EXPECT_NE(serial->cell(0, 0, 1).total_seconds,
            serial->cell(2, 0, 1).total_seconds);
  EXPECT_EQ(serial->cell(0, 0, 0).total_seconds,
            serial->cell(2, 0, 0).total_seconds);
  // And the resolved per-point booster config carries the shard count.
  EXPECT_EQ(serial->cell(1, 0, 1).booster.training_shards, 4u);
  EXPECT_EQ(serial->cell(2, 0, 1).booster.training_shards, 16u);
}

TEST(ScenarioRunner, CanonicalJsonNamesEveryCell) {
  auto spec = *builtin_scenario("fig6_seq_breakdown");
  spec.workloads = {"fraud"};
  spec.sim_records = 3000;
  spec.sim_trees = 3;
  RunOptions opt;
  opt.calibrate_bandwidth = false;
  opt.threads = 1;
  std::string error;
  const auto res = ScenarioRunner().run(spec, opt, &error);
  ASSERT_TRUE(res.has_value()) << error;
  const Json j = res->to_json();
  ASSERT_NE(j.find("cells"), nullptr);
  ASSERT_EQ(j.find("cells")->items().size(), 1u);
  const Json& cell = j.find("cells")->items()[0];
  EXPECT_EQ(cell.find("workload")->as_string(), "fraud");
  EXPECT_GT(cell.find("total_s")->as_double(), 0.0);
  // The dump must itself be valid JSON (machine-readable contract).
  EXPECT_TRUE(Json::parse(j.dump(), &error).has_value()) << error;
}

}  // namespace
}  // namespace booster::sim
