#include "core/budget_table.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/cancellation.h"
#include "util/fault_injection.h"
#include "util/scheduler.h"
#include "util/table.h"

namespace jury {

Result<std::vector<BudgetQualityRow>> BuildBudgetQualityTable(
    const std::vector<Worker>& candidates, const std::vector<double>& budgets,
    double alpha, Rng* rng, const OptjsOptions& options,
    const BudgetTableOptions& table_options) {
  if (rng == nullptr) {
    return Status::InvalidArgument("BuildBudgetQualityTable requires an Rng");
  }
  // The pool is validated and snapshotted once; every row solves on the
  // same view and objective (its counters are atomic).
  for (const Worker& w : candidates) {
    JURY_RETURN_NOT_OK(ValidateWorker(w));
  }
  const WorkerPoolView view(candidates);
  const BucketBvObjective objective(options.bucket);
  // Rows are independent solves that run as one region on the process-wide
  // scheduler. Each row gets its own rng stream, forked from the caller's
  // rng serially (in row order) before the region. With nested solver
  // parallelism (the default) the inner OPTJS solve keeps the caller's
  // thread setting: a row task fans its restart chains / candidate scans /
  // subset shards out as nested regions, and workers with no row of their
  // own run those — the fix for the old pin-to-one-thread starvation
  // when rows < workers. Row k's result depends only on its own stream
  // (and every inner parallel path is deterministic in the thread count),
  // so the table is bit-identical for any thread count, nested or not.
  const std::size_t count = budgets.size();
  // All `count` streams are forked even when the work budget truncates the
  // table, so the caller's rng advances identically with or without limits.
  std::vector<std::uint64_t> row_seeds(count);
  for (std::uint64_t& seed : row_seeds) seed = rng->Next();
  OptjsOptions row_options = options;
  if (!table_options.nested_solver_parallelism) row_options.num_threads = 1;
  // Rows inherit the stop signal and the per-strand work budget (an
  // in-flight row winds its inner solve down on deadline) but not the
  // termination out-pointer: rows run concurrently and the table owns one.
  row_options.termination = nullptr;

  // The check site: one row is one work unit at this level (each row's
  // inner strands carry their own full per-strand budget). The cap is
  // applied up-front, so the capped table is the same prefix for every
  // thread count.
  const std::size_t rows_to_run =
      options.max_work_units != 0
          ? std::min<std::size_t>(count, options.max_work_units)
          : count;

  const std::size_t threads =
      std::min(ResolveThreadCount(options.num_threads),
               rows_to_run > 0 ? rows_to_run : 1);
  std::vector<BudgetQualityRow> rows(rows_to_run);
  std::vector<Status> row_status(rows_to_run, Status::OK());
  std::vector<unsigned char> row_done(rows_to_run, 0);
  const auto fill_rows = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      // Deadline / cancellation is polled at each row start; abandoned
      // rows are dropped below by truncating to the completed prefix.
      if (options.cancel_token != nullptr &&
          options.cancel_token->Check() != StopReason::kNone) {
        return;
      }
      const JspInstance instance{
          .pool = &view, .budget = budgets[i], .alpha = alpha};
      Rng row_rng(row_seeds[i]);
      Result<JspSolution> solution =
          SolveOptjs(instance, view, objective, &row_rng, row_options);
      if (!solution.ok()) {
        row_status[i] = solution.status();
        row_done[i] = 1;
        continue;
      }
      rows[i].budget = budgets[i];
      rows[i].selected = solution.value().selected;
      rows[i].jury_ids = solution.value().Describe(candidates);
      rows[i].jq = solution.value().jq;
      rows[i].required = solution.value().cost;
      row_done[i] = 1;
    }
  };
  try {
    Scheduler::GlobalParallelFor(0, rows_to_run, 1, fill_rows, threads);
  } catch (const FaultInjectedError& error) {
    // Injected faults (a row's inner solve, or the region's own task
    // spawn) unwind through the drained region to here — the boundary
    // that owns the Result contract for direct core callers.
    return Status::ResourceExhausted(error.what());
  }
  std::size_t kept = 0;
  while (kept < rows_to_run && row_done[kept] != 0) ++kept;
  for (std::size_t i = 0; i < kept; ++i) {
    JURY_RETURN_NOT_OK(row_status[i]);
  }
  rows.resize(kept);
  if (options.termination != nullptr) {
    *options.termination = TerminationInfo{};
    if (rows_to_run < count) {
      options.termination->MergeStrand(StopReason::kWorkLimit, 0);
    }
    // The token outlives the region, so a post-join probe still reports a
    // deadline that expired mid-table — including the case where every
    // row "finished" but the inner solves wound down degraded.
    if (options.cancel_token != nullptr) {
      options.termination->MergeStrand(options.cancel_token->Check(), 0);
    }
    options.termination->work_units += kept;
  }
  return rows;
}

Result<BudgetQualityRow> MinimalBudgetForQuality(
    const std::vector<Worker>& candidates, double target_jq, double alpha,
    Rng* rng, const OptjsOptions& options, double tolerance) {
  if (!(target_jq >= 0.0 && target_jq <= 1.0)) {
    return Status::InvalidArgument("target_jq outside [0,1]");
  }
  if (!(tolerance > 0.0)) {
    return Status::InvalidArgument("tolerance must be positive");
  }
  double total = 0.0;
  for (const Worker& w : candidates) {
    JURY_RETURN_NOT_OK(ValidateWorker(w));
    total += w.cost;
  }
  // One instance, view and objective serve every probe; probes only move
  // the budget.
  const WorkerPoolView view(candidates);
  JspInstance instance{.pool = &view, .alpha = alpha};
  const BucketBvObjective objective(options.bucket);

  // One bisection probe is one work unit; a stop keeps the best budget
  // found so far (the full-pool solve below guarantees a valid fallback).
  // Probes inherit the stop token (a deadline winds an in-flight probe
  // down) but not the work budget — the governor consumes it at probe
  // granularity, and passing it inside would degrade the full-pool
  // fallback probe that the unreachable-target check depends on — and
  // not the termination out-pointer.
  WorkGovernor governor(options.cancel_token, options.max_work_units);
  if (options.termination != nullptr) *options.termination = TerminationInfo{};
  OptjsOptions probe_options = options;
  probe_options.termination = nullptr;
  probe_options.max_work_units = 0;

  auto solve_at = [&](double budget) -> Result<JspSolution> {
    instance.budget = budget;
    try {
      return SolveOptjs(instance, view, objective, rng, probe_options);
    } catch (const FaultInjectedError& error) {
      return Status::ResourceExhausted(error.what());
    }
  };

  JspSolution at_total;
  JURY_ASSIGN_OR_RETURN(at_total, solve_at(total));
  if (at_total.jq < target_jq) {
    return Status::FailedPrecondition(
        "target JQ unreachable: full pool achieves " +
        std::to_string(at_total.jq));
  }

  double lo = 0.0;
  double hi = total;
  JspSolution best = at_total;
  double best_budget = total;
  while (hi - lo > tolerance) {
    if (governor.Tick() != StopReason::kNone) break;
    const double mid = (lo + hi) / 2.0;
    JspSolution probe;
    JURY_ASSIGN_OR_RETURN(probe, solve_at(mid));
    if (probe.jq >= target_jq) {
      hi = mid;
      if (mid < best_budget) {
        best = probe;
        best_budget = mid;
      }
    } else {
      lo = mid;
    }
  }

  if (options.termination != nullptr) {
    options.termination->MergeStrand(governor.reason(), governor.work_done());
  }
  BudgetQualityRow row;
  row.budget = best_budget;
  row.selected = best.selected;
  row.jury_ids = best.Describe(candidates);
  row.jq = best.jq;
  row.required = best.cost;
  return row;
}

std::string FormatBudgetQualityTable(
    const std::vector<BudgetQualityRow>& rows) {
  Table table({"Budget", "Optimal Jury Set", "Quality", "Required"});
  for (const auto& row : rows) {
    table.AddRow({Format(row.budget, 2), row.jury_ids,
                  FormatPercent(row.jq), Format(row.required, 2)});
  }
  return table.ToString();
}

}  // namespace jury
