#ifndef JURYOPT_MODEL_WORKER_POOL_VIEW_H_
#define JURYOPT_MODEL_WORKER_POOL_VIEW_H_

#include <cstddef>
#include <span>
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
/// log-odds `phi(q) = ln(q/(1-q))` of every candidate, indexed by the
/// candidate's position in the pool. Every evaluation session is bound to
/// a view (`JqObjective::StartSession(view, ...)`), holds its jury as
/// view indices, and scores every move — scalar or batched, delta-updated
/// or from scratch (`JqObjective::Evaluate`) — from the columns, so the
/// scalar and batched scores of one move are bit-identical by
/// construction.
///
/// A view is the four columns and nothing else; it comes in two flavours
/// sharing one type:
///   - **Owning** (the `span<const Worker>` constructor): the four columns
///     are computed into internal vectors, as every solver has always done.
///     The workers are read once, here, and not referenced afterwards.
///     The updating constructor is owning too: it copies another view's
///     columns and recomputes only the rows it replaces.
///   - **Adopted** (`FromColumns`): the columns alias caller-owned storage
///     — in practice a mapped `PoolSnapshot` — so a million-worker plan
///     skips the per-worker `log()` pass entirely.
///
/// Views are immutable after construction and therefore freely shared
/// across threads.
class WorkerPoolView {
 public:
  WorkerPoolView() = default;
  explicit WorkerPoolView(std::span<const Worker> workers);
  /// A copy of `base` in which row `rows[i]` holds `workers[i]`'s quality
  /// and cost, its derived columns computed as the constructor above does;
  /// a row named twice keeps its last worker. Every other row keeps
  /// `base`'s bits.
  WorkerPoolView(const WorkerPoolView& base, std::span<const std::size_t> rows,
                 std::span<const Worker> workers);

  /// Builds a view whose columns alias caller-owned storage (all four the
  /// same length; they must outlive the view).
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

  /// Raw quality column: `quality()[i]` is candidate `i`'s quality.
  std::span<const double> quality() const { return quality_; }
  /// Cost column: `cost()[i]` is candidate `i`'s cost.
  std::span<const double> cost() const { return cost_; }
  /// §3.3 flip-normalized quality column: `q < 0.5 ? 1 - q : q`. This is
  /// the value the BV/bucket backend feeds its key DP.
  std::span<const double> norm_quality() const { return norm_quality_; }
  /// Log-odds column `LogOdds(EffectiveQuality(norm_quality()[i]))` — the
  /// bucketable weight phi(q_i) of Algorithm 1, precomputed so batched
  /// scans bucket a candidate without re-running the log per score.
  std::span<const double> log_odds() const { return log_odds_; }

 private:
  /// Fills row `i` of the owned columns from `worker`.
  void SetRow(std::size_t i, const Worker& worker);
  /// Points the column spans at the owned vectors.
  void AdoptOwned();

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
