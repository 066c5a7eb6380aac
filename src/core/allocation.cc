#include "core/allocation.h"

#include <algorithm>

namespace jury {
namespace {

/// One task's pool, borrowed from the caller's task and snapshotted once
/// for all its budget probes (a probe only moves `instance.budget`).
struct TaskPool {
  JspInstance instance;
  WorkerPoolView view;
};

/// Greedy state for one task: solutions at the current grant and one and
/// two increments ahead. The two-step lookahead matters because BV jury
/// quality plateaus at even sizes (a second worker adds nothing until a
/// third arrives), which would stall a one-step marginal rule.
struct TaskState {
  JspSolution at_current;
  JspSolution at_plus1;
  JspSolution at_plus2;

  /// Best per-increment gain and how many increments realize it.
  double gain = 0.0;
  int steps = 1;

  void RecomputeGain() {
    const double gain1 = at_plus1.jq - at_current.jq;
    const double gain2 = (at_plus2.jq - at_current.jq) / 2.0;
    if (gain2 > gain1) {
      gain = gain2;
      steps = 2;
    } else {
      gain = gain1;
      steps = 1;
    }
  }
};

}  // namespace

Result<AllocationResult> AllocateBudget(
    const std::vector<AllocationTask>& tasks, double global_budget, Rng* rng,
    const AllocationOptions& options) {
  if (!(global_budget >= 0.0)) {
    return Status::InvalidArgument("global_budget must be non-negative");
  }
  if (!(options.increment > 0.0)) {
    return Status::InvalidArgument("increment must be positive");
  }
  for (const AllocationTask& task : tasks) {
    for (const Worker& w : task.candidates) {
      JURY_RETURN_NOT_OK(ValidateWorker(w));
    }
  }

  const std::size_t n = tasks.size();
  const double inc = options.increment;
  // Instances and views point into `tasks`, which outlives every solve.
  std::vector<TaskPool> pools(n);
  for (std::size_t i = 0; i < n; ++i) {
    pools[i].instance.candidates = tasks[i].candidates;
    pools[i].instance.alpha = tasks[i].alpha;
    pools[i].view = WorkerPoolView(pools[i].instance.candidates);
  }
  const BucketBvObjective objective(options.optjs.bucket);
  // Solves one task at one budget.
  const auto solve_at = [&](std::size_t task, double budget) {
    TaskPool& pool = pools[task];
    pool.instance.budget = budget;
    return SolveOptjs(pool.instance, pool.view, objective, rng,
                      options.optjs);
  };
  std::vector<double> granted(n, 0.0);
  std::vector<TaskState> states(n);
  for (std::size_t i = 0; i < n; ++i) {
    JURY_ASSIGN_OR_RETURN(states[i].at_current, solve_at(i, 0.0));
    JURY_ASSIGN_OR_RETURN(states[i].at_plus1, solve_at(i, inc));
    JURY_ASSIGN_OR_RETURN(states[i].at_plus2, solve_at(i, 2.0 * inc));
    states[i].RecomputeGain();
  }

  double remaining = global_budget;
  while (remaining >= inc - 1e-12 && n > 0) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < n; ++i) {
      if (states[i].gain > states[best].gain) best = i;
    }
    TaskState& state = states[best];
    if (state.gain <= 1e-12) break;  // nobody benefits from more money
    int steps = state.steps;
    if (steps == 2 && remaining < 2.0 * inc - 1e-12) steps = 1;

    granted[best] += inc * steps;
    remaining -= inc * steps;
    if (steps == 1) {
      state.at_current = state.at_plus1;
      state.at_plus1 = state.at_plus2;
    } else {
      state.at_current = state.at_plus2;
      JURY_ASSIGN_OR_RETURN(state.at_plus1,
                            solve_at(best, granted[best] + inc));
    }
    JURY_ASSIGN_OR_RETURN(state.at_plus2,
                          solve_at(best, granted[best] + 2.0 * inc));
    state.RecomputeGain();
  }

  AllocationResult result;
  result.tasks.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    result.tasks[i].budget = granted[i];
    result.tasks[i].solution = states[i].at_current;
    result.total_granted += granted[i];
    result.total_spent += states[i].at_current.cost;
    result.mean_jq += states[i].at_current.jq;
  }
  if (n > 0) result.mean_jq /= static_cast<double>(n);
  return result;
}

}  // namespace jury
