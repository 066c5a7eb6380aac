#include "core/exhaustive.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "model/worker_pool_view.h"
#include "util/scheduler.h"

namespace jury {
namespace {

constexpr double kTieTol = kScoreEquivalenceTol;

/// Shard-partitioned sweeps fix the top `kShardBits` bits of the subset
/// mask (16 shards). A function of nothing but this constant and N — never
/// the thread count — so the shard walk order, and with it every
/// floating-point delta-update history, is reproducible on any pool size.
constexpr std::size_t kShardBits = 4;
/// Below this candidate count sharding is pure overhead; the serial
/// Gray-code sweep runs instead (it returns the same jury either way).
constexpr std::size_t kMinShardedCandidates = 8;

/// Deterministic tie-break shared by both sweeps: at (numerically) equal
/// quality prefer the cheaper jury, so "required" budgets in the Fig. 1
/// table are minimal; at equal cost too (identical workers produce exact
/// ties), prefer the smaller mask — which is exactly the jury the
/// ascending sweep reaches first, so the winner does not depend on the
/// visit order.
bool Improves(double jq, double cost, std::uint64_t mask,
              std::uint64_t best_mask, const JspSolution& best) {
  if (jq > best.jq + kTieTol) return true;
  if (jq <= best.jq - kTieTol) return false;
  if (cost < best.cost) return true;
  return cost == best.cost && mask < best_mask;
}

/// Sum of selected costs in index order (exactly the accumulation order of
/// the original sweep, so feasibility decisions are bit-identical), with
/// the budget short-circuit.
bool FeasibleCost(const WorkerPoolView& view, double budget,
                  std::uint64_t mask, double* cost_out) {
  const std::span<const double> cost_col = view.cost();
  double cost = 0.0;
  for (std::size_t i = 0; i < cost_col.size(); ++i) {
    if ((mask >> i) & 1u) {
      cost += cost_col[i];
      if (cost > budget) return false;
    }
  }
  *cost_out = cost;
  return true;
}

/// Lemma-1 maximality: false when some unselected worker still fits.
bool IsMaximal(const WorkerPoolView& view, double budget, std::uint64_t mask,
               double cost) {
  const std::span<const double> cost_col = view.cost();
  for (std::size_t i = 0; i < cost_col.size(); ++i) {
    if (!((mask >> i) & 1u) && cost + cost_col[i] <= budget) return false;
  }
  return true;
}

std::vector<std::size_t> MaskToIndices(std::uint64_t mask, std::size_t n) {
  std::vector<std::size_t> selected;
  for (std::size_t i = 0; i < n; ++i) {
    if ((mask >> i) & 1u) selected.push_back(i);
  }
  return selected;
}

/// The original ascending-mask sweep: every candidate jury is evaluated
/// from scratch. Kept as the `--no-incremental` reference.
JspSolution SweepFromScratch(const JspInstance& instance,
                             const WorkerPoolView& view,
                             const JqObjective& objective, bool monotone,
                             WorkGovernor* governor) {
  const std::size_t n = instance.num_candidates();
  JspSolution best =
      MakeSolution(instance, {}, objective.EmptyJq(instance.alpha));
  std::uint64_t best_mask = 0;
  const std::uint64_t total = 1ull << n;
  for (std::uint64_t mask = 1; mask < total; ++mask) {
    // One enumerated mask is one work unit. The reference sweep walks
    // masks in ascending order while the Gray sweeps walk shard-local
    // Gray order, so under an active limit the two paths stop on
    // *different* mask sets — the incremental/full equivalence contract
    // holds only for unlimited solves (see ARCHITECTURE.md).
    if (governor->Tick() != StopReason::kNone) break;
    double cost = 0.0;
    if (!FeasibleCost(view, instance.budget, mask, &cost)) continue;
    if (monotone && !IsMaximal(view, instance.budget, mask, cost)) continue;
    std::vector<std::size_t> selected = MaskToIndices(mask, n);
    const double jq = objective.Evaluate(view, selected, instance.alpha);
    if (Improves(jq, cost, mask, best_mask, best)) {
      best = MakeSolution(instance, std::move(selected), jq);
      best_mask = mask;
    }
  }
  return best;
}

/// Walks one shard of the subset lattice with its own evaluation session:
/// the masks whose top bits equal `fixed_mask`, enumerating the
/// `low_bits` low bits in Gray-code order (consecutive masks differ in
/// exactly one bit — `ctz(k)` — so each jury is one add/remove delta
/// update). The serial sweep is the single shard `fixed_mask = 0,
/// low_bits = n`. `best`/`best_mask` enter as the empty-jury baseline and
/// leave as the shard-local incumbent under `Improves`.
void SweepGrayShard(const JspInstance& instance, const WorkerPoolView& view,
                    const JqObjective& objective, bool monotone,
                    std::uint64_t fixed_mask, std::size_t low_bits,
                    JspSolution* best, std::uint64_t* best_mask,
                    WorkGovernor* governor) {
  const std::size_t n = instance.num_candidates();
  auto session = objective.StartSession(view, instance.alpha, true);
  std::vector<bool> in_jury(n, false);

  // Commit the shard's fixed workers in ascending bit order — a pure
  // function of the shard id, so the session history (and its
  // floating-point roundoff) never depends on scheduling.
  for (std::size_t i = 0; i < n; ++i) {
    if ((fixed_mask >> i) & 1u) {
      session->ScoreAdd(i);
      session->Commit();
      in_jury[i] = true;
    }
  }

  const auto consider = [&](std::uint64_t mask) {
    double cost = 0.0;
    if (!FeasibleCost(view, instance.budget, mask, &cost)) return;
    if (monotone && !IsMaximal(view, instance.budget, mask, cost)) return;
    const double jq = session->current_jq();
    if (Improves(jq, cost, mask, *best_mask, *best)) {
      *best = MakeSolution(instance, MaskToIndices(mask, n), jq);
      *best_mask = mask;
    }
  };

  // The low-bits-all-zero state is a real candidate jury for every shard
  // but the first (where it is the empty jury the sweep starts from).
  if (fixed_mask != 0) consider(fixed_mask);

  std::uint64_t low = 0;
  const std::uint64_t total = 1ull << low_bits;
  for (std::uint64_t k = 1; k < total; ++k) {
    // The check site: one Gray step (one delta update + one candidate
    // considered) is one work unit, counted against this *shard's* own
    // budget — the walk order inside a shard is fixed, so the stop
    // point is a pure function of (shard id, budget), never of which
    // thread ran the shard.
    if (governor->Tick() != StopReason::kNone) break;
    const std::size_t bit = static_cast<std::size_t>(std::countr_zero(k));
    low ^= 1ull << bit;
    if (!in_jury[bit]) {
      session->ScoreAdd(bit);
      in_jury[bit] = true;
    } else {
      session->ScoreRemove(session->PositionOf(bit));
      in_jury[bit] = false;
    }
    session->Commit();
    consider(fixed_mask | low);
  }
}

/// Single-session Gray-code sweep (the historical incremental path).
JspSolution SweepGrayCode(const JspInstance& instance,
                          const WorkerPoolView& view,
                          const JqObjective& objective, bool monotone,
                          WorkGovernor* governor) {
  JspSolution best =
      MakeSolution(instance, {}, objective.EmptyJq(instance.alpha));
  std::uint64_t best_mask = 0;
  SweepGrayShard(instance, view, objective, monotone, 0,
                 instance.num_candidates(), &best, &best_mask, governor);
  return best;
}

/// Partitioned Gray-code sweep: 2^kShardBits shards, each owning the
/// masks under one fixed top-bit pattern, claimed dynamically by the pool
/// and merged serially in shard order. Every shard starts its local
/// reduction from the same empty-jury baseline the serial sweep starts
/// from, and `Improves` is visit-order independent, so the merged winner
/// equals the serial sweep's for any thread count.
JspSolution SweepGraySharded(const JspInstance& instance,
                             const WorkerPoolView& view,
                             const JqObjective& objective, bool monotone,
                             std::size_t threads,
                             const ExhaustiveOptions& options) {
  const std::size_t n = instance.num_candidates();
  const std::size_t low_bits = n - kShardBits;
  const std::size_t shards = std::size_t{1} << kShardBits;

  const JspSolution baseline =
      MakeSolution(instance, {}, objective.EmptyJq(instance.alpha));
  std::vector<JspSolution> bests(shards, baseline);
  std::vector<std::uint64_t> best_masks(shards, 0);
  // Per-shard governors, each with the full per-strand budget: a
  // limited sweep stops each shard at the same point regardless of
  // which thread claimed it (or whether the region ran inline).
  std::vector<WorkGovernor> governors(shards);
  for (WorkGovernor& governor : governors) {
    governor = WorkGovernor(options.cancel_token, options.max_work_units);
  }

  // Shards claim dynamically on the process-wide scheduler (nestable: an
  // exhaustive solve inside a budget-table row fans out to idle workers;
  // at parallelism 1 — a limit-forced sharded run — the shards run
  // inline, in order, without touching the pool). The grain is pinned at
  // 1: each element is a stateful Gray-code walk.
  Scheduler::GlobalParallelFor(
      0, shards, 1,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t s = begin; s < end; ++s) {
          SweepGrayShard(instance, view, objective, monotone,
                         static_cast<std::uint64_t>(s) << low_bits, low_bits,
                         &bests[s], &best_masks[s], &governors[s]);
        }
      },
      std::min(threads, shards));

  JspSolution best = baseline;
  std::uint64_t best_mask = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    if (Improves(bests[s].jq, bests[s].cost, best_masks[s], best_mask,
                 best)) {
      best = bests[s];
      best_mask = best_masks[s];
    }
  }
  if (options.termination != nullptr) {
    for (const WorkGovernor& governor : governors) {
      options.termination->MergeStrand(governor.reason(),
                                       governor.work_done());
    }
  }
  return best;
}

}  // namespace

Status ExhaustiveOptions::Validate() const {
  if (max_candidates == 0 || max_candidates > 62) {
    return Status::InvalidArgument(
        "max_candidates must lie in [1, 62] (64-bit subset masks)");
  }
  return Status::OK();
}

Result<JspSolution> SolveExhaustive(const JspInstance& instance,
                                    const WorkerPoolView& view,
                                    const JqObjective& objective,
                                    const ExhaustiveOptions& options) {
  JURY_RETURN_NOT_OK(ValidateSolveEntry(instance, view));
  JURY_RETURN_NOT_OK(options.Validate());
  const std::size_t n = instance.num_candidates();
  if (n > options.max_candidates) {
    return Status::OutOfRange(
        "exhaustive JSP guarded to N <= " +
        std::to_string(options.max_candidates) + ", got N = " +
        std::to_string(n));
  }
  const bool monotone = objective.monotone_in_size();
  if (options.termination != nullptr) *options.termination = TerminationInfo{};
  if (n == 0) {
    return MakeSolution(instance, {}, objective.EmptyJq(instance.alpha));
  }
  if (!options.use_incremental) {
    WorkGovernor governor(options.cancel_token, options.max_work_units);
    JspSolution best =
        SweepFromScratch(instance, view, objective, monotone, &governor);
    if (options.termination != nullptr) {
      options.termination->MergeStrand(governor.reason(),
                                       governor.work_done());
    }
    return best;
  }
  const std::size_t threads = ResolveThreadCount(options.num_threads);
  // An active limit forces the *sharded* walk even at one thread: the
  // 16-shard structure (not the thread count) then defines where each
  // strand's budget runs out, so a capped sweep returns the same jury
  // for every JURYOPT_THREADS value.
  const bool limits_active =
      options.cancel_token != nullptr || options.max_work_units != 0;
  if ((threads > 1 || limits_active) && n >= kMinShardedCandidates) {
    return SweepGraySharded(instance, view, objective, monotone, threads,
                            options);
  }
  WorkGovernor governor(options.cancel_token, options.max_work_units);
  JspSolution best =
      SweepGrayCode(instance, view, objective, monotone, &governor);
  if (options.termination != nullptr) {
    options.termination->MergeStrand(governor.reason(), governor.work_done());
  }
  return best;
}

}  // namespace jury
