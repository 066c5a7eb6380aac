#ifndef JURYOPT_MODEL_WORKER_POOL_VIEW_H_
#define JURYOPT_MODEL_WORKER_POOL_VIEW_H_

#include <cstddef>
#include <span>
#include <string_view>
#include <vector>

#include "model/worker.h"

namespace jury {

/// \brief Immutable columnar (structure-of-arrays) snapshot of a candidate
/// worker pool, built once per pool and shared by every solve on it.
///
/// The JQ kernels under every JSP solver — the Poisson-binomial
/// convolutions for MV, the Algorithm-1 bucketed key DP for BV — are flat
/// numeric loops over worker probabilities, yet the pool is stored as an
/// array of `Worker` structs (id string + quality + cost). The view
/// gathers those fields in one O(n) pass per pool: contiguous `double`
/// columns for the quality, cost, §3.3 flip-normalized quality, and
/// log-odds `phi(q) = ln(q/(1-q))` of every candidate, plus a stable
/// index ↔ WorkerId map. Every evaluation session is bound to a view
/// (`JqObjective::StartSession(view, ...)`), holds its jury as view
/// indices, and scores every move — scalar or batched — from the columns,
/// so the scalar and batched scores of one move are bit-identical by
/// construction.
///
/// A view comes in two flavours sharing one type:
///   - **Owning** (the `span<const Worker>` constructor): the four columns
///     are computed into internal vectors, as every solver has always done.
///   - **Adopted** (`FromColumns`): the columns alias caller-owned storage
///     — in practice a mapped `PoolSnapshot` — so a million-worker plan
///     skips the per-worker `log()` pass entirely. Adopted views may start
///     with no `Worker` structs at all; `BindWorkers` attaches them later
///     (lazy materialization) for the call sites that need the AoS record.
///     The delta-updating sessions never do: only the full-recompute
///     session materializes `Worker`s, to call `Evaluate`.
///
/// The view never owns the workers: it keeps a `std::span` over the
/// caller's array (a `PoolPlanContext` epoch's candidate table, or a
/// direct caller's pool vector), which must outlive the view; a
/// `JspInstance` borrows the same array through its `candidates` span.
/// Views are immutable after construction (BindWorkers excepted, which
/// happens once before any `worker()` access) and therefore freely
/// shared across threads.
class WorkerPoolView {
 public:
  static constexpr std::size_t kNotFound = static_cast<std::size_t>(-1);

  WorkerPoolView() = default;
  explicit WorkerPoolView(std::span<const Worker> workers);

  /// Builds a view whose columns alias caller-owned storage (all four the
  /// same length; they must outlive the view). No workers are bound yet —
  /// `worker()`/`workers()`/`IndexOf` require a later `BindWorkers`.
  static WorkerPoolView FromColumns(std::span<const double> quality,
                                    std::span<const double> cost,
                                    std::span<const double> norm_quality,
                                    std::span<const double> log_odds);

  // The owning flavour's columns live in the member vectors, so copies
  // must re-point their spans at their own storage (moves keep the heap
  // buffers and need no fixup).
  WorkerPoolView(const WorkerPoolView& other);
  WorkerPoolView& operator=(const WorkerPoolView& other);
  WorkerPoolView(WorkerPoolView&&) noexcept = default;
  WorkerPoolView& operator=(WorkerPoolView&&) noexcept = default;

  std::size_t size() const { return quality_.size(); }
  bool empty() const { return quality_.empty(); }

  /// True once `worker(i)` is callable — always for the owning flavour,
  /// after `BindWorkers` for an adopted view.
  bool workers_bound() const { return workers_.size() == size(); }

  /// Attaches the AoS records to an adopted view. `workers` must match
  /// the columns element-for-element and outlive the view.
  void BindWorkers(std::span<const Worker> workers);

  /// The backing AoS record (id, quality, cost) for index `i`.
  const Worker& worker(std::size_t i) const { return workers_[i]; }
  std::span<const Worker> workers() const { return workers_; }

  /// Raw quality column: `quality()[i] == worker(i).quality`.
  std::span<const double> quality() const { return quality_; }
  /// Cost column: `cost()[i] == worker(i).cost`.
  std::span<const double> cost() const { return cost_; }
  /// §3.3 flip-normalized quality column: `q < 0.5 ? 1 - q : q`. This is
  /// the value the BV/bucket backend feeds its key DP.
  std::span<const double> norm_quality() const { return norm_quality_; }
  /// Log-odds column `LogOdds(EffectiveQuality(norm_quality()[i]))` — the
  /// bucketable weight phi(q_i) of Algorithm 1, precomputed so batched
  /// scans bucket a candidate without re-running the log per score.
  std::span<const double> log_odds() const { return log_odds_; }

  /// Index of the first worker whose id is `id`, or `kNotFound`. A linear
  /// scan (first occurrence wins — ids are not required to be unique):
  /// id lookups are an offline convenience, not a solver hot path, so the
  /// view's per-solve construction stays pure column fills with no string
  /// hashing or allocation.
  std::size_t IndexOf(std::string_view id) const;

 private:
  std::span<const Worker> workers_;
  // The public column spans; for the owning flavour they point into the
  // owned_* vectors below, for adopted views into caller storage.
  std::span<const double> quality_;
  std::span<const double> cost_;
  std::span<const double> norm_quality_;
  std::span<const double> log_odds_;
  std::vector<double> owned_quality_;
  std::vector<double> owned_cost_;
  std::vector<double> owned_norm_quality_;
  std::vector<double> owned_log_odds_;
};

}  // namespace jury

#endif  // JURYOPT_MODEL_WORKER_POOL_VIEW_H_
