#include "core/branch_bound.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <span>
#include <vector>

#include "core/frontier.h"
#include "model/sharded_pool.h"
#include "model/worker_pool_view.h"

namespace jury {
namespace {

constexpr double kTieTol = kScoreEquivalenceTol;

class Searcher {
 public:
  Searcher(const JspInstance& instance, const WorkerPoolView& view,
           const JqObjective& objective, const BranchBoundOptions& options,
           BranchBoundStats* stats)
      : instance_(instance),
        view_(view),
        objective_(objective),
        options_(options),
        stats_(stats),
        governor_(options.cancel_token, options.max_work_units) {
    const std::size_t n = instance.num_candidates();
    order_.resize(n);
    std::iota(order_.begin(), order_.end(), std::size_t{0});
    // Candidates are ordered by their batched single-worker marginal
    // scores against the empty jury. For BV that is flip-normalized
    // strength (sub-0.5 workers are as informative as their mirror
    // image), which tightens the include-first search order. The ordering
    // scan always runs on the delta-update session (it is a heuristic, not
    // a score), so the search order, and hence the returned jury, is
    // identical between the incremental and full-recompute paths.
    ShardedWorkerPool::KeyColumn frontier_key{};
    if (n > 0 &&
        FrontierUsable(options.sharded_pool, &view_, objective,
                       options.frontier_k, &frontier_key)) {
      // Frontier ordering (lossy by construction — the ordering is a
      // search heuristic, never part of the admissible bound, so the
      // optimum is unchanged): real marginal gains for the slate
      // candidates, key order for the pruned tail. Only the root-level
      // scan cost changes; the DFS itself explores the same admissible
      // space.
      FrontierOptions frontier_options;
      frontier_options.k = options.frontier_k;
      frontier_options.exact = false;
      FrontierScanStats frontier_stats;
      const auto scan =
          objective.StartSession(view_, instance.alpha, /*incremental=*/true);
      const FrontierScanResult front = FrontierScanAdds(
          *scan, *options.sharded_pool, frontier_key,
          std::vector<char>(n, 0), /*jury_cost=*/0.0, instance.budget,
          frontier_options, &frontier_stats);
      FlushFrontierStats(frontier_stats);
      std::vector<char> scanned(n, 0);
      std::vector<double> gains(n);
      for (std::size_t j = 0; j < front.indices.size(); ++j) {
        scanned[front.indices[j]] = 1;
        gains[front.indices[j]] = front.scores[j];
      }
      const std::span<const double> keys =
          options.sharded_pool->keys(frontier_key);
      std::stable_sort(order_.begin(), order_.end(),
                       [&](std::size_t a, std::size_t b) {
                         // Scanned candidates first, by true gain; the
                         // pruned tail by the admissible key.
                         if (scanned[a] != scanned[b]) {
                           return scanned[a] > scanned[b];
                         }
                         if (scanned[a]) return gains[a] > gains[b];
                         return keys[a] > keys[b];
                       });
    } else if (n > 0) {
      // Every single-worker marginal score in one contiguous
      // `ScoreAddBatch` pass.
      std::vector<double> gains(n);
      const auto scan =
          objective.StartSession(view_, instance.alpha, /*incremental=*/true);
      scan->ScoreAddBatch(order_.data(), n, gains.data());
      std::stable_sort(order_.begin(), order_.end(),
                       [&](std::size_t a, std::size_t b) {
                         return gains[a] > gains[b];
                       });
    }
    best_jq_ = objective.EmptyJq(instance.alpha);
    best_cost_ = 0.0;
  }

  Status Run() {
    if (options_.use_incremental) {
      // The session tracks the Lemma-1 "optimistic" jury: the current
      // selection plus every still-undecided worker. At the root that is
      // the whole pool.
      session_ = objective_.StartSession(view_, instance_.alpha, true);
      for (std::size_t idx : order_) {
        session_->ScoreAdd(idx);
        session_->Commit();
      }
    }
    JURY_RETURN_NOT_OK(Dfs(0));
    return Status::OK();
  }

  JspSolution Solution() const {
    JspSolution out;
    out.selected = best_selected_;
    std::sort(out.selected.begin(), out.selected.end());
    out.jq = best_jq_;
    out.cost = best_cost_;
    return out;
  }

  const WorkGovernor& governor() const { return governor_; }

 private:
  void Offer(double jq) {
    if (jq > best_jq_ + kTieTol ||
        (jq > best_jq_ - kTieTol && cost_ < best_cost_)) {
      best_jq_ = jq;
      best_cost_ = cost_;
      best_selected_ = selected_;
    }
  }

  /// In the incremental mode the session holds selection ∪ undecided
  /// suffix at every node: at the leaf that is exactly the selection, and
  /// at an inner node it is exactly the Lemma-1 bound jury.
  double Bound(std::size_t depth) {
    if (session_ != nullptr) return session_->current_jq();
    std::vector<std::size_t> optimistic = selected_;
    for (std::size_t d = depth; d < order_.size(); ++d) {
      optimistic.push_back(order_[d]);
    }
    return objective_.Evaluate(view_, optimistic, instance_.alpha);
  }

  void SessionRemove(std::size_t candidate) {
    session_->ScoreRemove(session_->PositionOf(candidate));
    session_->Commit();
  }

  void SessionReAdd(std::size_t candidate) {
    session_->ScoreAdd(candidate);
    session_->Commit();
  }

  Status Dfs(std::size_t depth) {
    // The check site: one explored node is one work unit. A governor
    // stop latches `stopped_` and unwinds the recursion *normally* —
    // every pending exclude-branch backtrack still re-adds its worker,
    // so the session stays consistent and the incumbent is returned as
    // the anytime result. Unlike `max_nodes` below, which stays a hard
    // error (a guard against pathological instances, relied on by
    // callers), a governor stop is a success.
    if (stopped_) return Status::OK();
    if (governor_.Tick() != StopReason::kNone) {
      stopped_ = true;
      return Status::OK();
    }
    if (stats_ != nullptr) ++stats_->nodes_explored;
    if (++nodes_ > options_.max_nodes) {
      return Status::ResourceExhausted(
          "branch-and-bound node budget exceeded");
    }
    if (depth == order_.size()) {
      double leaf_jq;
      if (selected_.empty()) {
        leaf_jq = objective_.EmptyJq(instance_.alpha);
      } else if (session_ != nullptr) {
        leaf_jq = session_->current_jq();  // suffix is empty here
      } else {
        leaf_jq = objective_.Evaluate(view_, selected_, instance_.alpha);
      }
      Offer(leaf_jq);
      return Status::OK();
    }

    // Lemma-1 upper bound: everything still undecided joins for free.
    const double bound = Bound(depth);
    if (bound < best_jq_ - kTieTol) {
      if (stats_ != nullptr) ++stats_->nodes_pruned_bound;
      return Status::OK();
    }

    const std::size_t candidate = order_[depth];
    const double c = view_.cost()[candidate];
    // Include branch first: deep good incumbents tighten the bound early.
    // The bound jury is unchanged on this branch, so the session carries
    // straight through.
    if (cost_ + c <= instance_.budget) {
      selected_.push_back(candidate);
      cost_ += c;
      JURY_RETURN_NOT_OK(Dfs(depth + 1));
      cost_ -= c;
      selected_.pop_back();
    } else if (stats_ != nullptr) {
      ++stats_->nodes_pruned_budget;
    }
    // Exclude branch: the candidate leaves the bound jury — one delta
    // removal, undone on backtrack.
    if (session_ != nullptr) {
      SessionRemove(candidate);
      const Status status = Dfs(depth + 1);
      SessionReAdd(candidate);
      return status;
    }
    return Dfs(depth + 1);
  }

  const JspInstance& instance_;
  const WorkerPoolView& view_;
  const JqObjective& objective_;
  const BranchBoundOptions& options_;
  BranchBoundStats* stats_;
  std::unique_ptr<IncrementalJqEvaluator> session_;
  std::vector<std::size_t> order_;
  std::vector<std::size_t> selected_;
  double cost_ = 0.0;
  std::size_t nodes_ = 0;
  WorkGovernor governor_;
  bool stopped_ = false;
  double best_jq_;
  double best_cost_;
  std::vector<std::size_t> best_selected_;
};

}  // namespace

Status BranchBoundOptions::Validate() const {
  if (max_nodes == 0) {
    return Status::InvalidArgument("max_nodes must be >= 1");
  }
  return Status::OK();
}

Result<JspSolution> SolveBranchAndBound(const JspInstance& instance,
                                        const WorkerPoolView& view,
                                        const JqObjective& objective,
                                        const BranchBoundOptions& options,
                                        BranchBoundStats* stats) {
  JURY_RETURN_NOT_OK(ValidateSolveEntry(instance, view));
  JURY_RETURN_NOT_OK(options.Validate());
  if (!objective.monotone_in_size()) {
    return Status::InvalidArgument(
        "branch-and-bound requires a monotone objective (Lemma 1)");
  }
  if (stats != nullptr) *stats = BranchBoundStats{};
  if (options.termination != nullptr) *options.termination = TerminationInfo{};
  Searcher searcher(instance, view, objective, options, stats);
  JURY_RETURN_NOT_OK(searcher.Run());
  if (options.termination != nullptr) {
    options.termination->MergeStrand(searcher.governor().reason(),
                                     searcher.governor().work_done());
  }
  return searcher.Solution();
}

}  // namespace jury
