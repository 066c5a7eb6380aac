#include "multiclass/multilabel.h"

namespace jury::mc {

Result<MultiLabelPlan> PlanMultiLabelSelection(
    const McJury& candidates, const McPrior& prior, double budget_per_label,
    Rng* rng, const OptjsOptions& options) {
  if (!(budget_per_label >= 0.0)) {
    return Status::InvalidArgument("budget_per_label must be non-negative");
  }
  std::vector<BinaryProjection> projections;
  JURY_ASSIGN_OR_RETURN(projections, DecomposeToBinary(candidates, prior));

  const BucketBvObjective objective(options.bucket);
  MultiLabelPlan plan;
  plan.selections.reserve(projections.size());
  for (BinaryProjection& projection : projections) {
    // Each label's projection is its own pool: validated and snapshotted
    // once, then solved.
    JspInstance instance;
    instance.candidates = projection.workers;
    instance.budget = budget_per_label;
    instance.alpha = projection.alpha;
    JURY_RETURN_NOT_OK(instance.Validate());
    const WorkerPoolView view(instance.candidates);
    JspSolution solution;
    JURY_ASSIGN_OR_RETURN(solution,
                          SolveOptjs(instance, view, objective, rng, options));

    LabelSelection selection;
    selection.label = projection.label;
    selection.selected = solution.selected;  // positions match the pool
    selection.jq = solution.jq;
    selection.cost = solution.cost;
    selection.projection = std::move(projection);
    plan.total_cost += selection.cost;
    plan.mean_jq += selection.jq;
    plan.selections.push_back(std::move(selection));
  }
  if (!plan.selections.empty()) {
    plan.mean_jq /= static_cast<double>(plan.selections.size());
  }
  return plan;
}

}  // namespace jury::mc
