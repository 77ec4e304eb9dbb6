#include "stream/retrainer.h"

#include <utility>

#include "gbdt/model_io.h"
#include "serve/client.h"
#include "util/check.h"

namespace booster::stream {

Retrainer::Retrainer(const FrozenBinMap& map, RetrainerConfig cfg)
    : map_(&map),
      cfg_(std::move(cfg)),
      window_(map, cfg_.window_chunks) {
  BOOSTER_CHECK_MSG(cfg_.refresh_every_chunks > 0,
                    "refresh cadence must be positive");
  BOOSTER_CHECK_MSG(cfg_.reload_port == 0 || !cfg_.save_path.empty(),
                    "cross-process reload needs a save_path for the server "
                    "to load from");
}

bool Retrainer::ingest(const gbdt::Dataset& chunk) {
  window_.push(chunk);
  ++stats_.chunks_ingested;
  if (++chunks_since_refresh_ < cfg_.refresh_every_chunks) return false;
  chunks_since_refresh_ = 0;
  refresh();
  return true;
}

bool Retrainer::refresh() {
  if (window_.size() == 0) return true;
  window_.materialize(&train_arena_);

  gbdt::TrainerConfig tcfg = cfg_.trainer;
  tcfg.init_model = latest_.has_value() ? &*latest_ : nullptr;
  gbdt::TrainResult result = gbdt::Trainer(tcfg).train(train_arena_);
  latest_.emplace(std::move(result.model));

  ++stats_.refreshes;
  stats_.latest_trees = latest_->num_trees();
  stats_.latest_window_records = train_arena_.num_records();

  bool ok = true;
  if (!cfg_.save_path.empty()) {
    ok = gbdt::save_model_checked_file(*latest_, cfg_.save_path);
  }
  if (ok && cfg_.slot != nullptr) {
    cfg_.slot->install(latest_->clone());
  }
  if (ok && cfg_.reload_port != 0) {
    serve::BlockingClient client;
    serve::Response resp;
    ok = client.connect(cfg_.reload_port) &&
         client.request("POST", "/reload", cfg_.save_path, &resp) &&
         resp.status == 200;
  }
  if (!ok) ++stats_.handoff_failures;
  return ok;
}

}  // namespace booster::stream
