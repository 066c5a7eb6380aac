#include "api/registry.h"

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>

#include "util/cancellation.h"
#include "util/timer.h"

namespace jury::api {
namespace {

/// Per-solve control block: materializes the request's deadline into a
/// `CancelToken` chained to the caller's token (either signal stops the
/// solve), carries the deterministic work budget, and owns the
/// `TerminationInfo` the core solver fills. Stack-allocated inside each
/// adapter's `Solve`, so nothing outlives the solve; the deadline clock
/// starts at construction, just before the timed solve call.
class SolveControls {
 public:
  explicit SolveControls(const SolveRequest& request)
      : limits_active_(request.deadline_ms > 0.0 ||
                       request.max_work_units != 0 ||
                       request.cancel_token != nullptr),
        max_work_units_(request.max_work_units),
        token_(request.cancel_token) {
    if (request.deadline_ms > 0.0) {
      deadline_token_.emplace(request.deadline_ms, request.cancel_token);
      token_ = &*deadline_token_;
    }
  }
  SolveControls(const SolveControls&) = delete;
  SolveControls& operator=(const SolveControls&) = delete;

  /// Stamps the stop signal, work budget, and termination out-pointer
  /// onto a core options struct (any `SolverOptions` subclass).
  void Arm(SolverOptions& options) {
    options.cancel_token = token_;
    options.max_work_units = max_work_units_;
    options.termination = &termination_;
  }

  void FillReport(SolveReport& report) const {
    report.limits_active = limits_active_;
    report.terminated_early = termination_.terminated_early();
    report.termination_reason = StopReasonName(termination_.reason);
    report.work_units = termination_.work_units;
  }

 private:
  bool limits_active_;
  std::uint64_t max_work_units_;
  const CancelToken* token_;
  std::optional<CancelToken> deadline_token_;
  TerminationInfo termination_;
};

/// Builds the tuned objective and rejects pools its evaluator cannot
/// score. A solver can stage any subset of the pool, so the whole pool
/// must fit under the objective's jury cap — the exact-enumeration
/// objective used to abort inside `Evaluate` when an oversized jury
/// reached its 2^n guard; this is the boundary where that became a
/// recoverable Status instead.
Result<std::unique_ptr<JqObjective>> MakeCheckedObjective(
    const PoolPlanContext::InstanceLease& lease, const SolveRequest& request) {
  std::unique_ptr<JqObjective> objective;
  JURY_ASSIGN_OR_RETURN(objective, MakeObjective(request.tuning));
  if (lease.view().size() > objective->max_jury_size()) {
    return Status::InvalidArgument(
        "pool of " + std::to_string(lease.view().size()) +
        " workers exceeds the '" + request.tuning.objective +
        "' objective's jury cap of " +
        std::to_string(objective->max_jury_size()) +
        "; use the bv-bucket objective for pools this large");
  }
  return objective;
}

/// Wires the leased epoch's sharded summary index onto a solve that opted
/// into frontier pre-selection (`frontier_k > 0` in its tuning). The pool
/// is built lazily, once per epoch, and shared read-only; requests that
/// never set `frontier_k` never trigger the build.
void ArmFrontier(SolverOptions& options,
                 const PoolPlanContext::InstanceLease& lease) {
  if (options.frontier_k > 0) {
    options.sharded_pool = lease.sharded_pool();
  }
}

/// Shared tail of every adapter: snapshot the per-solve objective's
/// counters into the uniform report. The objective is constructed by the
/// adapter for exactly one solve, so the snapshot is that solve's exact
/// full/incremental split.
SolveReport FinishReport(const std::string& solver, JspSolution solution,
                         const JqObjective& objective, double wall_seconds,
                         std::map<std::string, double> stats,
                         const SolveControls& controls) {
  SolveReport report;
  report.solver = solver;
  report.solution = std::move(solution);
  report.wall_seconds = wall_seconds;
  report.evaluations = objective.evaluation_counters();
  report.stats = std::move(stats);
  controls.FillReport(report);
  return report;
}

std::map<std::string, double> FlattenAnnealingStats(
    const AnnealingStats& stats) {
  return {
      {"downhill_accepts", static_cast<double>(stats.downhill_accepts)},
      {"moves_accepted", static_cast<double>(stats.moves_accepted)},
      {"moves_attempted", static_cast<double>(stats.moves_attempted)},
      {"objective_evaluations",
       static_cast<double>(stats.objective_evaluations)},
      {"polish_moves", static_cast<double>(stats.polish_moves)},
      {"polish_scans", static_cast<double>(stats.polish_scans)},
      {"temperature_levels", static_cast<double>(stats.temperature_levels)},
      {"uphill_accepts", static_cast<double>(stats.uphill_accepts)},
  };
}

// ---------------------------------------------------------------------------
// Raw-solver adapters: objective chosen by `tuning.objective`, solve
// delegated to the core entry point on the plan's view, so a registry
// solve is bit-identical to a direct call on the same inputs.
// ---------------------------------------------------------------------------

class AnnealingSolver final : public JspSolver {
 public:
  std::string name() const override { return "annealing"; }
  Result<SolveReport> Solve(PoolPlanContext::InstanceLease& lease,
                            const SolveRequest& request) const override {
    std::unique_ptr<JqObjective> objective;
    JURY_ASSIGN_OR_RETURN(objective, MakeCheckedObjective(lease, request));
    Rng rng(request.rng_seed);
    AnnealingStats stats;
    AnnealingOptions annealing = request.tuning.annealing;
    SolveControls controls(request);
    controls.Arm(annealing);
    ArmFrontier(annealing, lease);
    Timer timer;
    JspSolution solution;
    JURY_ASSIGN_OR_RETURN(
        solution, SolveAnnealing(lease.instance(), lease.view(), *objective,
                                 &rng, annealing, &stats));
    return FinishReport(name(), std::move(solution), *objective,
                        timer.ElapsedSeconds(), FlattenAnnealingStats(stats),
                        controls);
  }
};

class ExhaustiveSolver final : public JspSolver {
 public:
  std::string name() const override { return "exhaustive"; }
  Result<SolveReport> Solve(PoolPlanContext::InstanceLease& lease,
                            const SolveRequest& request) const override {
    std::unique_ptr<JqObjective> objective;
    JURY_ASSIGN_OR_RETURN(objective, MakeCheckedObjective(lease, request));
    ExhaustiveOptions exhaustive = request.tuning.exhaustive;
    SolveControls controls(request);
    controls.Arm(exhaustive);
    Timer timer;
    JspSolution solution;
    JURY_ASSIGN_OR_RETURN(
        solution, SolveExhaustive(lease.instance(), lease.view(),
                                  *objective, exhaustive));
    return FinishReport(name(), std::move(solution), *objective,
                        timer.ElapsedSeconds(), {}, controls);
  }
};

class BranchBoundSolver final : public JspSolver {
 public:
  std::string name() const override { return "branch-bound"; }
  Result<SolveReport> Solve(PoolPlanContext::InstanceLease& lease,
                            const SolveRequest& request) const override {
    std::unique_ptr<JqObjective> objective;
    JURY_ASSIGN_OR_RETURN(objective, MakeCheckedObjective(lease, request));
    BranchBoundStats stats;
    BranchBoundOptions branch_bound = request.tuning.branch_bound;
    SolveControls controls(request);
    controls.Arm(branch_bound);
    ArmFrontier(branch_bound, lease);
    Timer timer;
    JspSolution solution;
    JURY_ASSIGN_OR_RETURN(
        solution,
        SolveBranchAndBound(lease.instance(), lease.view(), *objective,
                            branch_bound, &stats));
    return FinishReport(
        name(), std::move(solution), *objective, timer.ElapsedSeconds(),
        {{"nodes_explored", static_cast<double>(stats.nodes_explored)},
         {"nodes_pruned_bound",
          static_cast<double>(stats.nodes_pruned_bound)},
         {"nodes_pruned_budget",
          static_cast<double>(stats.nodes_pruned_budget)}},
        controls);
  }
};

/// One adapter class for the four greedy family members — they share the
/// options type and the "deterministic, no stats struct" shape; only the
/// core entry point differs.
class GreedyFamilySolver final : public JspSolver {
 public:
  using Entry = Result<JspSolution> (*)(const JspInstance&,
                                        const WorkerPoolView&,
                                        const JqObjective&,
                                        const GreedyOptions&);
  GreedyFamilySolver(std::string name, Entry entry)
      : name_(std::move(name)), entry_(entry) {}

  std::string name() const override { return name_; }
  Result<SolveReport> Solve(PoolPlanContext::InstanceLease& lease,
                            const SolveRequest& request) const override {
    std::unique_ptr<JqObjective> objective;
    JURY_ASSIGN_OR_RETURN(objective, MakeCheckedObjective(lease, request));
    GreedyOptions greedy = request.tuning.greedy;
    SolveControls controls(request);
    controls.Arm(greedy);
    ArmFrontier(greedy, lease);
    Timer timer;
    JspSolution solution;
    JURY_ASSIGN_OR_RETURN(solution,
                          entry_(lease.instance(), lease.view(), *objective,
                                 greedy));
    return FinishReport(name_, std::move(solution), *objective,
                        timer.ElapsedSeconds(), {}, controls);
  }

 private:
  std::string name_;
  Entry entry_;
};

// ---------------------------------------------------------------------------
// Facade adapters: the two Fig. 1 systems fix their own objectives
// (BV/bucket for OPTJS, MV/exact for MVJS) and surface the inner SA
// instrumentation.
// ---------------------------------------------------------------------------

class OptjsSolver final : public JspSolver {
 public:
  std::string name() const override { return "optjs"; }
  Result<SolveReport> Solve(PoolPlanContext::InstanceLease& lease,
                            const SolveRequest& request) const override {
    OptjsOptions options = request.tuning.optjs;
    const BucketBvObjective objective(options.bucket);
    Rng rng(request.rng_seed);
    AnnealingStats stats;
    bool used_shortcut = false;
    SolveControls controls(request);
    controls.Arm(options);
    Timer timer;
    JspSolution solution;
    JURY_ASSIGN_OR_RETURN(
        solution, SolveOptjs(lease.instance(), lease.view(), objective,
                             &rng, options, &stats, &used_shortcut));
    std::map<std::string, double> flat = FlattenAnnealingStats(stats);
    flat["used_exhaustive_shortcut"] = used_shortcut ? 1.0 : 0.0;
    return FinishReport(name(), std::move(solution), objective,
                        timer.ElapsedSeconds(), std::move(flat), controls);
  }
};

class MvjsSolver final : public JspSolver {
 public:
  std::string name() const override { return "mvjs"; }
  Result<SolveReport> Solve(PoolPlanContext::InstanceLease& lease,
                            const SolveRequest& request) const override {
    const MajorityObjective objective;
    Rng rng(request.rng_seed);
    AnnealingStats stats;
    MvjsOptions mvjs = request.tuning.mvjs;
    SolveControls controls(request);
    controls.Arm(mvjs);
    Timer timer;
    JspSolution solution;
    JURY_ASSIGN_OR_RETURN(
        solution, SolveMvjs(lease.instance(), lease.view(), objective,
                            &rng, mvjs, &stats));
    return FinishReport(name(), std::move(solution), objective,
                        timer.ElapsedSeconds(), FlattenAnnealingStats(stats),
                        controls);
  }
};

/// The process-lived registry: stateless adapters in registration order.
/// Built once, on first use, like the strategy registry.
const std::vector<std::unique_ptr<JspSolver>>& Registry() {
  static const auto* registry = [] {
    auto* solvers = new std::vector<std::unique_ptr<JspSolver>>();
    solvers->push_back(std::make_unique<AnnealingSolver>());
    solvers->push_back(std::make_unique<ExhaustiveSolver>());
    solvers->push_back(std::make_unique<GreedyFamilySolver>(
        "greedy-quality", &SolveGreedyByQuality));
    solvers->push_back(std::make_unique<GreedyFamilySolver>(
        "greedy-value", &SolveGreedyByValuePerCost));
    solvers->push_back(std::make_unique<GreedyFamilySolver>(
        "greedy-mg", &SolveGreedyMarginalGain));
    solvers->push_back(std::make_unique<GreedyFamilySolver>(
        "odd-top-k", &SolveOddTopK));
    solvers->push_back(std::make_unique<BranchBoundSolver>());
    solvers->push_back(std::make_unique<OptjsSolver>());
    solvers->push_back(std::make_unique<MvjsSolver>());
    return solvers;
  }();
  return *registry;
}

}  // namespace

Result<const JspSolver*> FindSolver(const std::string& name) {
  for (const std::unique_ptr<JspSolver>& solver : Registry()) {
    if (solver->name() == name) return solver.get();
  }
  return Status::NotFound("unknown solver '" + name +
                          "'; see RegisteredSolverNames()");
}

std::vector<std::string> RegisteredSolverNames() {
  std::vector<std::string> names;
  names.reserve(Registry().size());
  for (const std::unique_ptr<JspSolver>& solver : Registry()) {
    names.push_back(solver->name());
  }
  return names;
}

Result<std::unique_ptr<JqObjective>> MakeObjective(const SolverTuning& tuning) {
  if (tuning.objective == "bv-bucket") {
    JURY_RETURN_NOT_OK(tuning.bucket.Validate());
    return std::unique_ptr<JqObjective>(
        std::make_unique<BucketBvObjective>(tuning.bucket));
  }
  if (tuning.objective == "bv-exact") {
    return std::unique_ptr<JqObjective>(std::make_unique<ExactBvObjective>());
  }
  if (tuning.objective == "mv-exact") {
    return std::unique_ptr<JqObjective>(std::make_unique<MajorityObjective>());
  }
  return Status::NotFound("unknown objective '" + tuning.objective +
                          "' (expected bv-bucket, bv-exact, or mv-exact)");
}

}  // namespace jury::api
