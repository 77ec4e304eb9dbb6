// Workload inputs. Every workload draws its rows from one fixed synthetic
// fraud population (workloads::fraud_spec(): 4 numeric + 6 categorical
// fields, 1837 histogram bins per node). The population's label function
// is fixed by kPopulationSeed; --seed draws the sample from it: which rows
// are held out (workloads::train_test_split) and so which rows are trained
// on, streamed, and queried. Tying the label function to --seed as well
// would move holdout log-loss by about 20% and per-tree work by about 30%
// between seeds, and the benchmark would measure the generator instead of
// the program.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gbdt/binning.h"
#include "gbdt/dataset.h"
#include "gbdt/tree.h"

namespace perfbench {

namespace gbdt = booster::gbdt;

inline constexpr std::uint64_t kPopulationSeed = 42;

/// `rows` rows of the fixed fraud population.
gbdt::Dataset synthesize_population(std::uint64_t rows);

/// Rows [begin, begin + count) of `data` as a new dataset (same schema).
gbdt::Dataset take_rows(const gbdt::Dataset& data, std::uint64_t begin,
                        std::uint64_t count);

/// Bins `raw` against `reference`'s frozen bin metadata -- the same rules
/// the server's RowBinner applies to a request row.
gbdt::BinnedDataset bin_like(const gbdt::BinnedDataset& reference,
                             const gbdt::Dataset& raw);

/// Mean logistic loss (nats) of `model` on `data`'s labels.
double holdout_logloss(const gbdt::Model& model,
                       const gbdt::BinnedDataset& data);

/// Task-space predictions from the per-record reference path
/// (Model::predict) -- the local copy served predictions are checked
/// against.
std::vector<double> reference_predictions(const gbdt::Model& model,
                                          const gbdt::BinnedDataset& data);

/// The model's serialized bytes (gbdt::save_model): equal bytes mean a
/// bit-identical ensemble.
std::string model_bytes(const gbdt::Model& model);

/// Bitwise double equality (distinguishes -0.0 and NaN payloads).
bool same_bits(double a, double b);

}  // namespace perfbench
