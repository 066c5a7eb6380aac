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
  for (std::size_t i = 0; i < n; ++i) SetRow(i, workers[i]);
  AdoptOwned();
}

WorkerPoolView::WorkerPoolView(const WorkerPoolView& base,
                               std::span<const std::size_t> rows,
                               std::span<const Worker> workers)
    : owned_quality_(base.quality_.begin(), base.quality_.end()),
      owned_cost_(base.cost_.begin(), base.cost_.end()),
      owned_norm_quality_(base.norm_quality_.begin(),
                          base.norm_quality_.end()),
      owned_log_odds_(base.log_odds_.begin(), base.log_odds_.end()) {
  JURY_CHECK_EQ(rows.size(), workers.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    JURY_CHECK_LT(rows[i], owned_quality_.size());
    SetRow(rows[i], workers[i]);
  }
  AdoptOwned();
}

void WorkerPoolView::SetRow(std::size_t i, const Worker& worker) {
  owned_quality_[i] = worker.quality;
  owned_cost_[i] = worker.cost;
  // Same expressions the evaluation backends run on the Worker structs,
  // evaluated once: column-sourced scores stay bit-identical.
  const double norm = NormalizedQuality(worker.quality);
  owned_norm_quality_[i] = norm;
  owned_log_odds_[i] = LogOdds(EffectiveQuality(norm));
}

void WorkerPoolView::AdoptOwned() {
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
  if (!owned_quality_.empty()) AdoptOwned();
}

WorkerPoolView& WorkerPoolView::operator=(const WorkerPoolView& other) {
  if (this != &other) {
    *this = WorkerPoolView(other);  // copy-construct, then move-assign
  }
  return *this;
}

}  // namespace jury
