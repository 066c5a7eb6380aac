#include "multiclass/jsp.h"

#include <algorithm>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "core/annealing.h"
#include "core/exhaustive.h"
#include "core/jsp.h"
#include "core/objective.h"
#include "util/check.h"

namespace jury::mc {
namespace {

/// JQ of the empty jury: the best the prior alone can do.
double EmptyMcJq(const McPrior& prior) {
  double best = 0.0;
  for (double p : prior) best = std::max(best, p);
  return best;
}

/// \brief The §7 argument made literal: "the simulated annealing
/// heuristic regards computing JQ as a black box", so the multi-class
/// problem is solved by the *same* solver drivers as the binary one —
/// this adapter is the black box. It presents `EstimateMcJq` behind the
/// binary `JqObjective` interface: the binary solvers see one placeholder
/// `Worker` per candidate (whose costs are the per-solve cost column the
/// feasibility tests read), so a jury's view indices are candidate
/// indices, and every evaluation maps them straight to the real
/// `McWorker`s. Before this adapter, multiclass/jsp.cc carried a
/// copy-pasted mirror of the SA loop and the exhaustive sweep; now both
/// delegate to core/, so solver improvements (batched polish, Lemma-1
/// pruning, Gray-code sharding) reach the multi-class workload for free.
///
/// There is no incremental backend (the tuple-key DP has no cheap
/// deconvolution yet — see ROADMAP), so sessions fall back to the
/// full-recompute path: every staged move re-estimates the jury, exactly
/// like the historical mirror did.
class McJqObjectiveAdapter final : public JqObjective {
 public:
  McJqObjectiveAdapter(const McJspInstance& instance,
                       const McBucketOptions& bucket)
      : instance_(instance),
        bucket_(bucket),
        empty_jq_(EmptyMcJq(instance.prior)) {}

  std::string name() const override { return "MC/bucket"; }
  /// Lemma 1 extends to multi-class BV (§7): more workers never hurt.
  bool monotone_in_size() const override { return true; }
  /// The empty jury follows the *vector* prior, not the scalar alpha the
  /// binary interface carries — this override is why the shared solver
  /// drivers call `objective.EmptyJq` instead of `EmptyJuryJq`.
  double EmptyJq(double /*alpha*/) const override { return empty_jq_; }

  double Evaluate(const WorkerPoolView& /*view*/,
                  std::span<const std::size_t> members,
                  double /*alpha*/) const override {
    CountEvaluation();
    if (members.empty()) return empty_jq_;
    McJury mc_jury;
    for (std::size_t i : members) {
      JURY_CHECK_LT(i, instance_.candidates.size());
      mc_jury.Add(instance_.candidates[i]);
    }
    return EstimateMcJq(mc_jury, instance_.prior, bucket_).value();
  }

 private:
  const McJspInstance& instance_;
  const McBucketOptions& bucket_;
  double empty_jq_;
};

/// Placeholder workers for the binary drivers, one per candidate in order:
/// id = candidate index, cost = the real cost (the column every
/// affordability test reads), quality = a neutral 0.5 the adapter never
/// consults. The binary instance's alpha
/// is a neutral 0.5 too — the adapter overrides everything
/// alpha-dependent.
std::vector<Worker> PlaceholderWorkers(const McJspInstance& instance) {
  std::vector<Worker> workers;
  workers.reserve(instance.candidates.size());
  for (std::size_t i = 0; i < instance.candidates.size(); ++i) {
    workers.emplace_back(std::to_string(i), 0.5, instance.candidates[i].cost);
  }
  return workers;
}

McJspSolution FromBinary(const JspSolution& solution) {
  McJspSolution out;
  out.selected = solution.selected;
  out.jq = solution.jq;
  out.cost = solution.cost;
  return out;
}

}  // namespace

Status McJspInstance::Validate() const {
  if (!(budget >= 0.0)) {
    return Status::InvalidArgument("budget must be non-negative");
  }
  std::size_t labels = prior.size();
  if (labels < 2) return Status::InvalidArgument("prior needs >= 2 labels");
  JURY_RETURN_NOT_OK(ValidateMcPrior(prior, labels));
  for (const McWorker& w : candidates) {
    JURY_RETURN_NOT_OK(w.confusion.Validate());
    if (w.confusion.num_labels() != labels) {
      return Status::InvalidArgument("candidate label count != prior size");
    }
    if (!(w.cost >= 0.0)) {
      return Status::InvalidArgument("negative candidate cost");
    }
  }
  return Status::OK();
}

Result<McJspSolution> SolveMcAnnealing(const McJspInstance& instance, Rng* rng,
                                       const McAnnealingOptions& options) {
  JURY_RETURN_NOT_OK(instance.Validate());
  if (rng == nullptr) {
    return Status::InvalidArgument("SolveMcAnnealing requires an Rng");
  }
  // Checked here so the adapter's `.value()` on `EstimateMcJq` (a plain
  // double to the binary solver drivers) can never see the error path.
  if (options.bucket.num_buckets <= 0) {
    return Status::InvalidArgument("bucket.num_buckets must be positive");
  }
  const std::vector<Worker> placeholders = PlaceholderWorkers(instance);
  const JspInstance binary{
      .candidates = placeholders, .budget = instance.budget, .alpha = 0.5};
  const WorkerPoolView view(placeholders);
  const McJqObjectiveAdapter objective(instance, options.bucket);
  AnnealingOptions annealing;
  annealing.initial_temperature = options.initial_temperature;
  annealing.epsilon = options.epsilon;
  annealing.cooling_factor = options.cooling_factor;
  JspSolution solution;
  JURY_ASSIGN_OR_RETURN(
      solution, SolveAnnealing(binary, view, objective, rng, annealing));
  return FromBinary(solution);
}

Result<McJspSolution> SolveMcExhaustive(const McJspInstance& instance,
                                        const McBucketOptions& bucket,
                                        std::size_t max_candidates) {
  JURY_RETURN_NOT_OK(instance.Validate());
  if (bucket.num_buckets <= 0) {
    return Status::InvalidArgument("bucket.num_buckets must be positive");
  }
  const std::vector<Worker> placeholders = PlaceholderWorkers(instance);
  const JspInstance binary{
      .candidates = placeholders, .budget = instance.budget, .alpha = 0.5};
  const WorkerPoolView view(placeholders);
  const McJqObjectiveAdapter objective(instance, bucket);
  ExhaustiveOptions exhaustive;
  exhaustive.max_candidates = max_candidates;
  JspSolution solution;
  JURY_ASSIGN_OR_RETURN(solution,
                        SolveExhaustive(binary, view, objective, exhaustive));
  return FromBinary(solution);
}

}  // namespace jury::mc
