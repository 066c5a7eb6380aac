#include "model/worker_pool_view.h"

#include "util/check.h"
#include "util/math.h"

namespace jury {

WorkerPoolView::WorkerPoolView(std::span<const Worker> workers) {
  const std::size_t n = workers.size();
  owned_quality_.resize(n);
  owned_cost_.resize(n);
  owned_norm_quality_.resize(n);
  owned_log_odds_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Worker& w = workers[i];
    owned_quality_[i] = w.quality;
    owned_cost_[i] = w.cost;
    // Same expressions the evaluation backends run on the Worker structs,
    // evaluated once: column-sourced scores stay bit-identical.
    const double norm = NormalizedQuality(w.quality);
    owned_norm_quality_[i] = norm;
    owned_log_odds_[i] = LogOdds(EffectiveQuality(norm));
  }
  quality_ = owned_quality_;
  cost_ = owned_cost_;
  norm_quality_ = owned_norm_quality_;
  log_odds_ = owned_log_odds_;
}

WorkerPoolView WorkerPoolView::FromColumns(std::span<const double> quality,
                                           std::span<const double> cost,
                                           std::span<const double> norm_quality,
                                           std::span<const double> log_odds) {
  JURY_CHECK(cost.size() == quality.size() &&
             norm_quality.size() == quality.size() &&
             log_odds.size() == quality.size())
      << "adopted view columns must all have the same length";
  WorkerPoolView view;
  view.quality_ = quality;
  view.cost_ = cost;
  view.norm_quality_ = norm_quality;
  view.log_odds_ = log_odds;
  return view;
}

WorkerPoolView::WorkerPoolView(const WorkerPoolView& other)
    : quality_(other.quality_),
      cost_(other.cost_),
      norm_quality_(other.norm_quality_),
      log_odds_(other.log_odds_),
      owned_quality_(other.owned_quality_),
      owned_cost_(other.owned_cost_),
      owned_norm_quality_(other.owned_norm_quality_),
      owned_log_odds_(other.owned_log_odds_) {
  if (!owned_quality_.empty()) {
    quality_ = owned_quality_;
    cost_ = owned_cost_;
    norm_quality_ = owned_norm_quality_;
    log_odds_ = owned_log_odds_;
  }
}

WorkerPoolView& WorkerPoolView::operator=(const WorkerPoolView& other) {
  if (this != &other) {
    *this = WorkerPoolView(other);  // copy-construct, then move-assign
  }
  return *this;
}

}  // namespace jury
