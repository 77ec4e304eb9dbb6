#include "data.h"

#include <cmath>
#include <cstring>
#include <sstream>

#include "gbdt/flat_ensemble.h"
#include "gbdt/model_io.h"
#include "stream/frozen_bin_map.h"
#include "workloads/spec.h"
#include "workloads/synth.h"

namespace perfbench {

using namespace booster;

gbdt::Dataset synthesize_population(std::uint64_t rows) {
  return workloads::synthesize(workloads::fraud_spec(), rows, kPopulationSeed);
}

gbdt::Dataset take_rows(const gbdt::Dataset& data, std::uint64_t begin,
                        std::uint64_t count) {
  gbdt::Dataset out;
  for (std::uint32_t f = 0; f < data.num_fields(); ++f) {
    const auto& field = data.field(f);
    if (field.kind == gbdt::FieldKind::kNumeric) {
      out.add_numeric_field(field.name);
    } else {
      out.add_categorical_field(field.name, field.cardinality);
    }
  }
  out.resize(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t r = begin + i;
    for (std::uint32_t f = 0; f < data.num_fields(); ++f) {
      if (data.field(f).kind == gbdt::FieldKind::kNumeric) {
        out.set_numeric(f, i, data.numeric_value(f, r));
      } else {
        out.set_categorical(f, i, data.categorical_value(f, r));
      }
    }
    out.set_label(i, data.label(r));
  }
  return out;
}

gbdt::BinnedDataset bin_like(const gbdt::BinnedDataset& reference,
                             const gbdt::Dataset& raw) {
  const stream::FrozenBinMap map(reference);
  gbdt::BinnedDataset out;
  map.bin_chunk(raw, &out);
  return out;
}

double holdout_logloss(const gbdt::Model& model,
                       const gbdt::BinnedDataset& data) {
  const gbdt::FlatEnsemble flat(model);
  std::vector<double> raw(data.num_records());
  flat.predict_raw_many(data, 0, data.num_records(), raw);
  double sum = 0.0;
  for (std::uint64_t r = 0; r < data.num_records(); ++r) {
    // log(1 + e^z) - y z, written to stay finite for large |z|.
    const double z = raw[r];
    const double softplus = std::max(z, 0.0) + std::log1p(std::exp(-std::abs(z)));
    sum += softplus - static_cast<double>(data.labels()[r]) * z;
  }
  return data.num_records() == 0 ? 0.0
                                 : sum / static_cast<double>(data.num_records());
}

std::vector<double> reference_predictions(const gbdt::Model& model,
                                          const gbdt::BinnedDataset& data) {
  std::vector<double> out(data.num_records());
  for (std::uint64_t r = 0; r < data.num_records(); ++r) {
    out[r] = model.predict(data, r);
  }
  return out;
}

std::string model_bytes(const gbdt::Model& model) {
  std::ostringstream out;
  gbdt::save_model(model, out);
  return out.str();
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace perfbench
