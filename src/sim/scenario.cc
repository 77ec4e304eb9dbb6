#include "sim/scenario.h"

#include <cmath>

namespace booster::sim {

void apply_quick(workloads::RunnerConfig* cfg) {
  cfg->sim_records = kQuickSimRecords;
  cfg->sim_trees = kQuickSimTrees;
}

const char* sweep_axis_name(SweepAxis axis) {
  switch (axis) {
    case SweepAxis::kNone:
      return "none";
    case SweepAxis::kClusters:
      return "clusters";
    case SweepAxis::kBandwidthScale:
      return "bandwidth-scale";
    case SweepAxis::kRecordScale:
      return "record-scale";
    case SweepAxis::kShards:
      return "shards";
    case SweepAxis::kReplicas:
      return "replicas";
  }
  return "none";
}

std::optional<SweepAxis> sweep_axis_from_name(std::string_view name) {
  for (const SweepAxis axis :
       {SweepAxis::kNone, SweepAxis::kClusters, SweepAxis::kBandwidthScale,
        SweepAxis::kRecordScale, SweepAxis::kShards, SweepAxis::kReplicas}) {
    if (name == sweep_axis_name(axis)) return axis;
  }
  return std::nullopt;
}

namespace {

void set_error(std::string* error, const std::string& message) {
  if (error != nullptr && error->empty()) *error = message;
}

/// Strict field-by-field reader over a JSON object: every recognized key is
/// consumed, and finish() reports the first unconsumed (unknown) key --
/// scenario files fail loudly on typos instead of silently ignoring them.
class FieldReader {
 public:
  FieldReader(const Json& obj, std::string context, std::string* error)
      : obj_(obj),
        context_(std::move(context)),
        error_(error),
        consumed_(obj.is_object() ? obj.members().size() : 0, false) {
    if (!obj_.is_object()) {
      fail(context_ + " must be a JSON object");
    }
  }

  bool ok() const { return ok_; }

  void number(const char* key, double* out) {
    if (const Json* v = take(key)) {
      if (!v->is_number()) {
        fail(context_ + "." + key + " must be a number");
        return;
      }
      *out = v->as_double();
    }
  }

  void u64(const char* key, std::uint64_t* out) {
    double v = static_cast<double>(*out);
    number(key, &v);
    // 2^53: beyond exactly-representable integers (and any sane knob); a
    // bounded range also keeps the double -> integer casts defined.
    if (ok_ && (v < 0.0 || v != std::floor(v) || v > 9.007199254740992e15)) {
      fail(context_ + "." + std::string(key) +
           " must be a non-negative integer");
      return;
    }
    if (ok_) *out = static_cast<std::uint64_t>(v);
  }

  void u32(const char* key, std::uint32_t* out) {
    std::uint64_t v = *out;
    u64(key, &v);
    if (ok_ && v > 0xFFFFFFFFULL) {
      fail(context_ + "." + std::string(key) + " is out of range");
      return;
    }
    if (ok_) *out = static_cast<std::uint32_t>(v);
  }

  void boolean(const char* key, bool* out) {
    if (const Json* v = take(key)) {
      if (!v->is_bool()) {
        fail(context_ + "." + key + " must be a boolean");
        return;
      }
      *out = v->as_bool();
    }
  }

  void string(const char* key, std::string* out) {
    if (const Json* v = take(key)) {
      if (!v->is_string()) {
        fail(context_ + "." + key + " must be a string");
        return;
      }
      *out = v->as_string();
    }
  }

  /// Consumes and returns a child value (any type), or nullptr if absent.
  const Json* child(const char* key) { return take(key); }

  /// Errors on the first unrecognized key; returns overall success.
  bool finish() {
    if (!ok_) return false;
    if (obj_.is_object()) {
      const auto& members = obj_.members();
      for (std::size_t i = 0; i < members.size(); ++i) {
        if (!consumed_[i]) {
          fail("unknown key \"" + members[i].first + "\" in " + context_);
          return false;
        }
      }
    }
    return ok_;
  }

 private:
  const Json* take(const char* key) {
    if (!obj_.is_object()) return nullptr;
    const auto& members = obj_.members();
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (members[i].first == key) {
        consumed_[i] = true;
        return &members[i].second;
      }
    }
    return nullptr;
  }

  void fail(const std::string& message) {
    ok_ = false;
    if (error_ != nullptr && error_->empty()) *error_ = message;
  }

  const Json& obj_;
  std::string context_;
  std::string* error_;
  std::vector<bool> consumed_;
  bool ok_ = true;
};

bool read_string_array(const Json& value, const std::string& context,
                       std::vector<std::string>* out, std::string* error) {
  if (!value.is_array()) {
    set_error(error, context + " must be an array of strings");
    return false;
  }
  out->clear();
  for (const auto& item : value.items()) {
    if (!item.is_string()) {
      set_error(error, context + " must be an array of strings");
      return false;
    }
    out->push_back(item.as_string());
  }
  return true;
}

bool read_number_array(const Json& value, const std::string& context,
                       std::vector<double>* out, std::string* error) {
  if (!value.is_array()) {
    set_error(error, context + " must be an array of numbers");
    return false;
  }
  out->clear();
  for (const auto& item : value.items()) {
    if (!item.is_number()) {
      set_error(error, context + " must be an array of numbers");
      return false;
    }
    out->push_back(item.as_double());
  }
  return true;
}

const char* label_structure_name(workloads::LabelStructure s) {
  switch (s) {
    case workloads::LabelStructure::kSeparable:
      return "separable";
    case workloads::LabelStructure::kDiffuse:
      return "diffuse";
    case workloads::LabelStructure::kCategorical:
      return "categorical";
  }
  return "diffuse";
}

}  // namespace

bool apply_bandwidth_delta(const Json& delta, memsim::BandwidthProfile* bw,
                           std::string* error) {
  if (delta.is_null()) return true;
  FieldReader r(delta, "bandwidth", error);
  r.number("streaming", &bw->streaming);
  r.number("strided_gather", &bw->strided_gather);
  r.number("random", &bw->random);
  r.number("peak", &bw->peak);
  r.number("flat_stride", &bw->flat_stride);
  r.number("cal_stride", &bw->cal_stride);
  r.number("random_stride", &bw->random_stride);
  return r.finish();
}

bool apply_booster_delta(const Json& delta, core::BoosterConfig* cfg,
                         std::string* error) {
  if (delta.is_null()) return true;
  FieldReader r(delta, "booster", error);
  r.u32("clusters", &cfg->clusters);
  r.u32("bus_per_cluster", &cfg->bus_per_cluster);
  r.u32("sram_bytes", &cfg->sram_bytes);
  r.u32("bin_entry_bytes", &cfg->bin_entry_bytes);
  r.u32("cycles_per_field_update", &cfg->cycles_per_field_update);
  r.u32("cycles_per_hop", &cfg->cycles_per_hop);
  r.u32("bus_link_span", &cfg->bus_link_span);
  r.number("clock_hz", &cfg->clock_hz);
  r.boolean("group_by_field_mapping", &cfg->group_by_field_mapping);
  r.boolean("redundant_column_format", &cfg->redundant_column_format);
  r.u32("inference_bus", &cfg->inference_bus);
  r.u32("training_shards", &cfg->training_shards);
  if (const Json* bwj = r.child("bandwidth")) {
    if (!apply_bandwidth_delta(*bwj, &cfg->bandwidth, error)) return false;
  }
  return r.finish();
}

bool apply_dram_delta(const Json& delta, memsim::DramConfig* cfg,
                      std::string* error) {
  if (delta.is_null()) return true;
  FieldReader r(delta, "dram", error);
  r.u32("channels", &cfg->channels);
  r.u32("banks_per_channel", &cfg->banks_per_channel);
  r.u32("row_bytes", &cfg->row_bytes);
  r.u32("tCAS", &cfg->tCAS);
  r.u32("tRP", &cfg->tRP);
  r.u32("tRCD", &cfg->tRCD);
  r.u32("tRAS", &cfg->tRAS);
  r.u32("tRRD", &cfg->tRRD);
  r.u32("tFAW", &cfg->tFAW);
  r.u32("block_bytes", &cfg->block_bytes);
  r.u32("bus_bytes_per_cycle", &cfg->bus_bytes_per_cycle);
  r.number("clock_hz", &cfg->clock_hz);
  r.u32("queue_depth", &cfg->queue_depth);
  return r.finish();
}

Json dataset_to_json(const workloads::DatasetSpec& spec) {
  const workloads::DatasetSpec defaults;
  Json j = Json::object();
  j.set("name", spec.name);
  if (!spec.description.empty()) j.set("description", spec.description);
  j.set("nominal_records", spec.nominal_records);
  j.set("numeric_fields", spec.numeric_fields);
  if (!spec.categorical_cardinalities.empty()) {
    Json cards = Json::array();
    for (const auto c : spec.categorical_cardinalities) cards.push_back(c);
    j.set("categorical_cardinalities", std::move(cards));
  }
  if (spec.missing_rate != defaults.missing_rate) {
    j.set("missing_rate", spec.missing_rate);
  }
  if (spec.categorical_skew != defaults.categorical_skew) {
    j.set("categorical_skew", spec.categorical_skew);
  }
  if (spec.loss != defaults.loss) j.set("loss", spec.loss);
  if (spec.label_structure != defaults.label_structure) {
    j.set("label_structure", label_structure_name(spec.label_structure));
  }
  if (spec.label_noise != defaults.label_noise) {
    j.set("label_noise", spec.label_noise);
  }
  if (spec.ir_copies != defaults.ir_copies) j.set("ir_copies", spec.ir_copies);
  if (spec.paper_seq_minutes != defaults.paper_seq_minutes) {
    j.set("paper_seq_minutes", spec.paper_seq_minutes);
  }
  return j;
}

std::optional<workloads::DatasetSpec> dataset_from_json(const Json& json,
                                                        std::string* error) {
  workloads::DatasetSpec spec;
  FieldReader r(json, "dataset", error);
  r.string("name", &spec.name);
  r.string("description", &spec.description);
  r.u64("nominal_records", &spec.nominal_records);
  r.u32("numeric_fields", &spec.numeric_fields);
  if (const Json* cards = r.child("categorical_cardinalities")) {
    std::vector<double> values;
    if (!read_number_array(*cards, "dataset.categorical_cardinalities",
                           &values, error)) {
      return std::nullopt;
    }
    for (const double v : values) {
      spec.categorical_cardinalities.push_back(
          static_cast<std::uint32_t>(v));
    }
  }
  r.number("missing_rate", &spec.missing_rate);
  r.number("categorical_skew", &spec.categorical_skew);
  r.string("loss", &spec.loss);
  if (const Json* label = r.child("label_structure")) {
    bool known = false;
    if (label->is_string()) {
      for (const auto s : {workloads::LabelStructure::kSeparable,
                           workloads::LabelStructure::kDiffuse,
                           workloads::LabelStructure::kCategorical}) {
        if (label->as_string() == label_structure_name(s)) {
          spec.label_structure = s;
          known = true;
        }
      }
    }
    if (!known) {
      set_error(error,
                "dataset.label_structure: unknown value \"" +
                    (label->is_string() ? label->as_string()
                                        : "<non-string>") +
                    "\" (expected separable, diffuse, or categorical)");
      return std::nullopt;
    }
  }
  r.number("label_noise", &spec.label_noise);
  if (const Json* irc = r.child("ir_copies")) {
    if (!irc->is_number() ||
        irc->as_double() != std::floor(irc->as_double())) {
      set_error(error, "dataset.ir_copies must be an integer");
      return std::nullopt;
    }
    spec.ir_copies = static_cast<int>(irc->as_double());
  }
  r.number("paper_seq_minutes", &spec.paper_seq_minutes);
  if (!r.finish()) return std::nullopt;
  if (spec.name.empty()) {
    set_error(error, "dataset.name is required");
    return std::nullopt;
  }
  return spec;
}

workloads::RunnerConfig ScenarioSpec::runner_config(bool quick) const {
  workloads::RunnerConfig cfg;
  cfg.sim_records = sim_records;
  cfg.sim_trees = sim_trees;
  cfg.nominal_trees = nominal_trees;
  cfg.max_depth = max_depth;
  cfg.seed = seed;
  cfg.num_shards = shards;
  if (quick) apply_quick(&cfg);
  return cfg;
}

std::optional<memsim::DramConfig> ScenarioSpec::dram_config(
    std::string* error) const {
  memsim::DramConfig cfg;
  if (!apply_dram_delta(dram, &cfg, error)) return std::nullopt;
  return cfg;
}

std::optional<core::BoosterConfig> ScenarioSpec::booster_config(
    const core::BoosterConfig& base, std::string* error) const {
  core::BoosterConfig cfg = base;
  if (!apply_booster_delta(booster, &cfg, error)) return std::nullopt;
  return cfg;
}

Json ScenarioSpec::to_json() const {
  const ScenarioSpec defaults;
  Json j = Json::object();
  j.set("name", name);
  if (!title.empty()) j.set("title", title);
  if (!paper_ref.empty()) j.set("paper_ref", paper_ref);

  Json wl = Json::array();
  for (const auto& w : workloads) wl.push_back(w);
  j.set("workloads", std::move(wl));

  if (!datasets.empty()) {
    Json ds = Json::array();
    for (const auto& d : datasets) ds.push_back(dataset_to_json(d));
    j.set("datasets", std::move(ds));
  }

  Json ms = Json::array();
  for (const auto& m : models) {
    Json mj = Json::object();
    mj.set("model", m.model);
    if (!m.label.empty()) mj.set("label", m.label);
    if (!m.overrides.is_null()) mj.set("overrides", m.overrides);
    ms.push_back(std::move(mj));
  }
  j.set("models", std::move(ms));

  if (!booster.is_null()) j.set("booster", booster);
  if (!dram.is_null()) j.set("dram", dram);

  if (sweep_axis != SweepAxis::kNone) {
    Json sweep = Json::object();
    sweep.set("axis", sweep_axis_name(sweep_axis));
    Json values = Json::array();
    for (const double v : sweep_values) values.push_back(v);
    sweep.set("values", std::move(values));
    j.set("sweep", std::move(sweep));
  }

  Json runner = Json::object();
  if (sim_records != defaults.sim_records) {
    runner.set("sim_records", sim_records);
  }
  if (sim_trees != defaults.sim_trees) runner.set("sim_trees", sim_trees);
  if (nominal_trees != defaults.nominal_trees) {
    runner.set("nominal_trees", nominal_trees);
  }
  if (max_depth != defaults.max_depth) runner.set("max_depth", max_depth);
  if (seed != defaults.seed) runner.set("seed", seed);
  if (shards != defaults.shards) runner.set("shards", shards);
  if (runner.size() > 0) j.set("runner", std::move(runner));

  if (include_inference) j.set("include_inference", true);

  return j;
}

std::optional<ScenarioSpec> ScenarioSpec::from_json(const Json& json,
                                                    std::string* error) {
  ScenarioSpec spec;
  FieldReader r(json, "scenario", error);
  r.string("name", &spec.name);
  r.string("title", &spec.title);
  r.string("paper_ref", &spec.paper_ref);

  if (const Json* wl = r.child("workloads")) {
    if (!read_string_array(*wl, "scenario.workloads", &spec.workloads,
                           error)) {
      return std::nullopt;
    }
  }

  if (const Json* ds = r.child("datasets")) {
    if (!ds->is_array()) {
      set_error(error, "scenario.datasets must be an array");
      return std::nullopt;
    }
    for (const auto& item : ds->items()) {
      auto d = dataset_from_json(item, error);
      if (!d) return std::nullopt;
      spec.datasets.push_back(std::move(*d));
    }
  }

  if (const Json* ms = r.child("models")) {
    if (!ms->is_array()) {
      set_error(error, "scenario.models must be an array");
      return std::nullopt;
    }
    for (const auto& item : ms->items()) {
      ModelSpec m;
      FieldReader mr(item, "scenario.models[]", error);
      mr.string("model", &m.model);
      mr.string("label", &m.label);
      if (const Json* ov = mr.child("overrides")) m.overrides = *ov;
      if (!mr.finish()) return std::nullopt;
      if (m.model.empty()) {
        set_error(error, "scenario.models[].model is required");
        return std::nullopt;
      }
      spec.models.push_back(std::move(m));
    }
  }

  if (const Json* b = r.child("booster")) {
    // Validate eagerly so a bad delta fails at parse time, not mid-run.
    core::BoosterConfig scratch;
    if (!apply_booster_delta(*b, &scratch, error)) return std::nullopt;
    spec.booster = *b;
  }
  if (const Json* d = r.child("dram")) {
    memsim::DramConfig scratch;
    if (!apply_dram_delta(*d, &scratch, error)) return std::nullopt;
    spec.dram = *d;
  }

  if (const Json* sweep = r.child("sweep")) {
    FieldReader sr(*sweep, "scenario.sweep", error);
    std::string axis;
    sr.string("axis", &axis);
    if (const Json* values = sr.child("values")) {
      if (!read_number_array(*values, "scenario.sweep.values",
                             &spec.sweep_values, error)) {
        return std::nullopt;
      }
    }
    if (!sr.finish()) return std::nullopt;
    const auto parsed = sweep_axis_from_name(axis);
    if (!parsed) {
      set_error(error, "scenario.sweep.axis: unknown axis \"" + axis +
                           "\" (expected none, clusters, bandwidth-scale,"
                           " record-scale, shards, or replicas)");
      return std::nullopt;
    }
    spec.sweep_axis = *parsed;
    if (spec.sweep_axis != SweepAxis::kNone && spec.sweep_values.empty()) {
      set_error(error, "scenario.sweep.values must be non-empty for"
                           " axis \"" + axis + "\"");
      return std::nullopt;
    }
  }

  if (const Json* runner = r.child("runner")) {
    FieldReader rr(*runner, "scenario.runner", error);
    rr.u64("sim_records", &spec.sim_records);
    rr.u32("sim_trees", &spec.sim_trees);
    rr.u32("nominal_trees", &spec.nominal_trees);
    rr.u32("max_depth", &spec.max_depth);
    rr.u64("seed", &spec.seed);
    rr.u32("shards", &spec.shards);
    if (!rr.finish()) return std::nullopt;
  }

  r.boolean("include_inference", &spec.include_inference);

  if (!r.finish()) return std::nullopt;

  if (spec.sweep_axis == SweepAxis::kReplicas && !spec.include_inference) {
    set_error(error, "sweep axis replicas requires include_inference (it"
                     " only moves the analytic inference cost)");
    return std::nullopt;
  }
  if (spec.name.empty()) {
    set_error(error, "scenario.name is required");
    return std::nullopt;
  }
  if (spec.sim_records == 0 || spec.sim_trees == 0) {
    set_error(error,
              "scenario.runner.sim_records and sim_trees must be positive");
    return std::nullopt;
  }
  return spec;
}

std::optional<ScenarioSpec> ScenarioSpec::from_file(const std::string& path,
                                                    std::string* error) {
  const auto doc = Json::parse_file(path, error);
  if (!doc) return std::nullopt;
  return from_json(*doc, error);
}

bool ScenarioSpec::operator==(const ScenarioSpec& other) const {
  return to_json() == other.to_json();
}

}  // namespace booster::sim
