#include "core/greedy.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <vector>

#include "core/frontier.h"
#include "model/sharded_pool.h"
#include "model/worker_pool_view.h"
#include "util/fault_injection.h"
#include "util/scheduler.h"

namespace jury {
namespace {

/// Score-comparison band shared with the other solvers; see
/// `kScoreEquivalenceTol` in objective.h.
constexpr double kScoreTol = kScoreEquivalenceTol;

/// Adds candidates in `order` while they fit. Selection does not depend on
/// scores, so the incremental path grows a session (one O(n) delta per
/// add) while the reference path keeps the original single final
/// evaluation.
JspSolution FillInOrder(const JspInstance& instance,
                        const WorkerPoolView& view,
                        const JqObjective& objective,
                        const std::vector<std::size_t>& order,
                        const GreedyOptions& options) {
  WorkGovernor governor(options.cancel_token, options.max_work_units);
  if (options.termination != nullptr) *options.termination = TerminationInfo{};
  const std::span<const double> cost_col = view.cost();
  std::vector<std::size_t> selected;
  double cost = 0.0;
  for (std::size_t idx : order) {
    const double c = cost_col[idx];
    if (cost + c <= instance.budget) {
      selected.push_back(idx);
      cost += c;
    }
  }
  // The check site: one committed add is one work unit (the add's fold
  // dominates the cost; the selection pass above is score-free). Both
  // evaluation paths truncate after the same count, so the incremental
  // and reference juries stay identical under `max_work_units`.
  auto session = options.use_incremental
                     ? objective.StartSession(view, instance.alpha, true)
                     : nullptr;
  std::size_t kept = 0;
  for (; kept < selected.size(); ++kept) {
    if (governor.Tick() != StopReason::kNone) break;
    if (session != nullptr) {
      session->ScoreAdd(selected[kept]);
      session->Commit();
    }
  }
  selected.resize(kept);
  double jq;
  if (session != nullptr) {
    jq = session->current_jq();
  } else {
    jq = selected.empty() ? objective.EmptyJq(instance.alpha)
                          : objective.Evaluate(view, selected, instance.alpha);
  }
  if (options.termination != nullptr) {
    options.termination->MergeStrand(governor.reason(), governor.work_done());
  }
  return MakeSolution(instance, std::move(selected), jq);
}

/// Indices sorted by a precomputed key column, descending (stable).
std::vector<std::size_t> SortedIndices(const std::vector<double>& keys) {
  std::vector<std::size_t> order(keys.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(
      order.begin(), order.end(),
      [&](std::size_t a, std::size_t b) { return keys[a] > keys[b]; });
  return order;
}

}  // namespace

Result<JspSolution> SolveGreedyByQuality(const JspInstance& instance,
                                         const WorkerPoolView& view,
                                         const JqObjective& objective,
                                         const GreedyOptions& options) {
  JURY_RETURN_NOT_OK(ValidateSolveEntry(instance, view));
  JURY_RETURN_NOT_OK(options.Validate());
  const std::vector<double> keys(view.quality().begin(),
                                 view.quality().end());
  return FillInOrder(instance, view, objective, SortedIndices(keys),
                     options);
}

Result<JspSolution> SolveGreedyByValuePerCost(const JspInstance& instance,
                                              const WorkerPoolView& view,
                                              const JqObjective& objective,
                                              const GreedyOptions& options) {
  JURY_RETURN_NOT_OK(ValidateSolveEntry(instance, view));
  JURY_RETURN_NOT_OK(options.Validate());
  std::vector<double> keys(view.size());
  for (std::size_t i = 0; i < view.size(); ++i) {
    constexpr double kMinCost = 1e-9;  // free workers get a huge score
    keys[i] = (view.quality()[i] - 0.5) / std::max(view.cost()[i], kMinCost);
  }
  return FillInOrder(instance, view, objective, SortedIndices(keys),
                     options);
}

Result<JspSolution> SolveOddTopK(const JspInstance& instance,
                                 const WorkerPoolView& view,
                                 const JqObjective& objective,
                                 const GreedyOptions& options) {
  JURY_RETURN_NOT_OK(ValidateSolveEntry(instance, view));
  JURY_RETURN_NOT_OK(options.Validate());
  WorkGovernor governor(options.cancel_token, options.max_work_units);
  if (options.termination != nullptr) *options.termination = TerminationInfo{};
  const std::vector<double> keys(view.quality().begin(),
                                 view.quality().end());
  const auto order = SortedIndices(keys);

  // The "k best-quality workers that fit" sets are nested in k, so one
  // session grows through all of them, snapshotting at odd sizes. The
  // reference path evaluates each odd prefix from scratch, as the
  // original solver did. The check site ticks once per candidate
  // considered; `best` tracks the incumbent odd prefix, so a stop
  // returns a valid anytime jury.
  JspSolution best =
      MakeSolution(instance, {}, objective.EmptyJq(instance.alpha));
  auto session = options.use_incremental
                     ? objective.StartSession(view, instance.alpha, true)
                     : nullptr;
  std::vector<std::size_t> selected;
  double cost = 0.0;
  for (std::size_t idx : order) {
    if (governor.Tick() != StopReason::kNone) break;
    const double c = view.cost()[idx];
    if (cost + c > instance.budget) continue;
    if (session != nullptr) {
      session->ScoreAdd(idx);
      session->Commit();
    }
    selected.push_back(idx);
    cost += c;
    if (selected.size() % 2 == 1) {
      const double jq =
          session != nullptr
              ? session->current_jq()
              : objective.Evaluate(view, selected, instance.alpha);
      if (jq > best.jq + kScoreTol) {
        best = MakeSolution(instance, selected, jq);
      }
    }
  }
  if (options.termination != nullptr) {
    options.termination->MergeStrand(governor.reason(), governor.work_done());
  }
  return best;
}

Result<JspSolution> SolveGreedyMarginalGain(const JspInstance& instance,
                                            const WorkerPoolView& view,
                                            const JqObjective& objective,
                                            const GreedyOptions& options) {
  JURY_RETURN_NOT_OK(ValidateSolveEntry(instance, view));
  JURY_RETURN_NOT_OK(options.Validate());
  WorkGovernor governor(options.cancel_token, options.max_work_units);
  if (options.termination != nullptr) *options.termination = TerminationInfo{};
  const std::size_t n = instance.num_candidates();
  auto session =
      objective.StartSession(view, instance.alpha, options.use_incremental);
  std::vector<char> in_jury(n, 0);
  std::vector<std::size_t> selected;
  double cost = 0.0;

  // Candidate-frontier pre-selection (core/frontier.h): when a sharded
  // pool over this exact view is wired in and the objective declares a
  // monotone score key, each round scores the per-shard top-k slates plus
  // whatever the bound guard demands, instead of every eligible
  // candidate. The pick is bit-identical to the full scan below
  // (property-tested), so the round structure — and therefore the
  // work-unit accounting and the returned jury — is unchanged.
  ShardedWorkerPool::KeyColumn frontier_key{};
  const bool use_frontier =
      FrontierUsable(options.sharded_pool, &view, objective,
                     options.frontier_k, &frontier_key);
  FrontierOptions frontier_options;
  frontier_options.k = options.frontier_k;
  FrontierScanStats frontier_stats;

  // Scan machinery: each round gathers the affordable candidate indices
  // (ascending) and scores them through the session's index-based batched
  // `ScoreAddBatch` kernel. In the parallel case the candidate list is
  // sharded across the process-wide scheduler — legal because every
  // candidate's score is a pure function of (committed jury, candidate),
  // never of how candidates are grouped into shards — and each shard
  // scores through its own clone of the round's session, which carries
  // the committed cached state (and the view binding) bit-for-bit. The
  // ordered banded argmax below therefore picks the same winner as the
  // serial scan, for any thread count and grain.
  const std::size_t threads =
      std::min(ResolveThreadCount(options.num_threads), n > 0 ? n : 1);

  const std::span<const double> cost_col = view.cost();
  std::vector<std::size_t> eligible_idx;
  std::vector<double> scores;
  for (;;) {
    // The check site: one selection round (one full candidate scan plus
    // one commit) is one work unit. The committed jury is always valid
    // here, so a stop returns the rounds completed so far.
    if (governor.Tick() != StopReason::kNone) break;
    std::size_t best_idx = 0;
    double best_score = -std::numeric_limits<double>::infinity();
    if (use_frontier) {
      const FrontierPick pick = FrontierSelectAdd(
          *session, *options.sharded_pool, frontier_key, in_jury, cost,
          instance.budget, frontier_options, &frontier_stats);
      if (!pick.found) break;  // nothing fits
      best_idx = pick.best_index;
      best_score = pick.best_score;
      if (!objective.monotone_in_size() &&
          best_score <= session->current_jq() + kScoreTol) {
        break;  // for MV-like objectives an extension can hurt; stop early
      }
      session->CommitAdd(best_idx, best_score);
      in_jury[best_idx] = 1;
      selected.push_back(best_idx);
      cost += cost_col[best_idx];
      continue;
    }
    eligible_idx.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (in_jury[i]) continue;
      if (cost + cost_col[i] > instance.budget) continue;
      eligible_idx.push_back(i);
    }
    if (eligible_idx.empty()) break;  // nothing fits
    scores.resize(eligible_idx.size());
    if (threads > 1 && eligible_idx.size() > 1) {
      // Eight shards per thread even out uneven shard times. Each shard
      // pays one session clone, so a shard holds at least 8 candidates.
      const std::size_t per_shard = 8 * threads;
      const std::size_t grain = std::max<std::size_t>(
          8, (eligible_idx.size() + per_shard - 1) / per_shard);
      Scheduler::Global()->ParallelFor(
          0, eligible_idx.size(), grain,
          [&](std::size_t begin, std::size_t end) {
            // A clone is a real allocation on a worker thread; the fault
            // hook stands in for it failing. The throw unwinds through
            // ParallelFor's first-exception path (remaining shards are
            // abandoned, the region drains) up to the API boundary.
            JURY_FAULT_POINT("eval.session_clone");
            auto shard_session = session->Clone();
            shard_session->ScoreAddBatch(eligible_idx.data() + begin,
                                         end - begin, scores.data() + begin);
          },
          threads);
    } else {
      session->ScoreAddBatch(eligible_idx.data(), eligible_idx.size(),
                             scores.data());
    }
    // Banded first-wins argmax, serially in candidate-index order (the
    // eligible list is ascending in i).
    std::size_t best_pos = 0;
    for (std::size_t j = 0; j < scores.size(); ++j) {
      if (scores[j] > best_score + kScoreTol) {
        best_score = scores[j];
        best_pos = j;
      }
    }
    if (!objective.monotone_in_size() &&
        best_score <= session->current_jq() + kScoreTol) {
      break;  // for MV-like objectives an extension can hurt; stop early
    }
    // The winner's score is already known: commit it directly instead of
    // re-staging (and re-evaluating) the winning delta.
    best_idx = eligible_idx[best_pos];
    session->CommitAdd(best_idx, best_score);
    in_jury[best_idx] = 1;
    selected.push_back(best_idx);
    cost += cost_col[best_idx];
  }
  if (use_frontier) FlushFrontierStats(frontier_stats);
  if (options.frontier_stats != nullptr) {
    *options.frontier_stats = frontier_stats;
  }
  if (options.termination != nullptr) {
    options.termination->MergeStrand(governor.reason(), governor.work_done());
  }
  return MakeSolution(instance, std::move(selected), session->current_jq());
}

}  // namespace jury
