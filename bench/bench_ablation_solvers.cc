// E19 — ablation: JSP solver quality/time trade-offs, iterated over the
// SolverRegistry (every registered solver is benched for free) plus
// request-level SA-variant overrides, under the paper's default instance
// distribution. Later sections: incremental vs from-scratch evaluation,
// PlanContext reuse vs cold per-call setup, SolveMany request throughput,
// the parallel/nested/batched-neighbourhood ablations.

#include <cstdint>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "api/registry.h"
#include "api/solve.h"
#include "bench_util.h"
#include "core/annealing.h"
#include "core/branch_bound.h"
#include "core/budget_table.h"
#include "core/exhaustive.h"
#include "core/greedy.h"
#include "core/objective.h"
#include "util/scheduler.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/timer.h"

namespace jury {
namespace {

void Run() {
  const int reps = static_cast<int>(bench::Reps(50));
  bench::PrintHeader(
      "Ablation — JSP solvers via the SolverRegistry (N = 12, B = 0.5, "
      "paper's distributions)",
      "Mean JQ gap to the exhaustive optimum and mean solve time over " +
          std::to_string(reps) + " instances; every row is a SolveRequest "
          "against a per-pool PlanContext.");

  // The solver axis iterates the registry — a newly registered solver
  // gets a row without touching this file — plus request-level tuning
  // variants of the SA row, expressed as options overrides.
  struct Config {
    std::string label;
    api::SolveRequest request;
  };
  std::vector<Config> configs;
  for (const std::string& name : api::RegisteredSolverNames()) {
    Config config;
    config.label = name;
    config.request.solver = name;
    configs.push_back(std::move(config));
  }
  {
    Config best{"annealing + best-seen", {}};
    best.request.solver = "annealing";
    best.request.tuning.annealing.return_best_seen = true;
    configs.push_back(best);
    Config removals{"annealing + removals (ext)", {}};
    removals.request.solver = "annealing";
    removals.request.tuning.annealing.return_best_seen = true;
    removals.request.tuning.annealing.removal_probability = 0.25;
    configs.push_back(removals);
    Config restarts{"annealing x3 restarts", {}};
    restarts.request.solver = "annealing";
    restarts.request.tuning.annealing.num_restarts = 3;
    configs.push_back(restarts);
  }

  struct Row {
    OnlineStats gap;
    OnlineStats time;
  };
  std::vector<Row> rows(configs.size());

  Rng rng(65537);
  for (int rep = 0; rep < reps; ++rep) {
    Rng pool_rng = rng.Fork();
    auto context =
        api::PoolPlanContext::Plan(bench::PaperPool(&pool_rng, 12, 0.7))
            .value();
    // Reference optimum for this pool, through the same API path.
    api::SolveRequest reference;
    reference.solver = "exhaustive";
    reference.budget = 0.5;
    reference.alpha = 0.5;
    const double optimal_jq =
        context.Solve(reference).value().solution.jq;
    for (std::size_t c = 0; c < configs.size(); ++c) {
      api::SolveRequest request = configs[c].request;
      request.budget = 0.5;
      request.alpha = 0.5;
      request.rng_seed = 9000 + static_cast<std::uint64_t>(rep);
      const auto report = context.Solve(request).value();
      rows[c].gap.Add(optimal_jq - report.solution.jq);
      rows[c].time.Add(report.wall_seconds);
    }
  }

  Table table({"solver (registry)", "mean JQ gap", "max gap",
               "mean time (s)"});
  for (std::size_t c = 0; c < configs.size(); ++c) {
    table.AddRow({configs[c].label, FormatPercent(rows[c].gap.mean(), 3),
                  FormatPercent(rows[c].gap.max(), 3),
                  Format(rows[c].time.mean(), 6)});
  }
  std::cout << table.ToString()
            << "Takeaway: SA trades a tiny quality gap for exponential time "
               "savings; best-seen dominates final-state at equal cost; "
               "greedies are fast but can lose several percent. (The "
               "annealing row's gap is negative when its BV/bucket search "
               "beats the coarse-grid reference estimate; the mvjs row "
               "reports exact-MV quality, so its gap to the BV optimum is "
               "the Fig. 6 system comparison, not a solver deficiency.)\n";
}

/// PlanContext-reuse ablation: the same request stream answered by cold
/// per-call setup (pool validation + columnar view build before every
/// direct solver call) vs a long-lived `api::PoolPlanContext` (validation
/// and view hoisted into `Plan`). Juries are asserted identical — the
/// planned path is the same solver code — so only setup cost moves.
int RunPlanContextReuse(bench::ThreadScalingReport* report) {
  struct Workload {
    std::string solver;
    int n;
    std::size_t requests;
  };
  const std::vector<Workload> workloads = {
      {"greedy-quality", 200,
       static_cast<std::size_t>(bench::Reps(1000))},
      {"greedy-mg", 120, static_cast<std::size_t>(bench::Reps(200))},
  };
  bench::PrintHeader(
      "Ablation — PlanContext reuse vs cold per-call setup",
      "Repeated requests (varying budgets) on one pool: per-call setup "
      "and a direct solver call vs one planned context; identical juries.");

  Table table({"solver", "N", "requests", "secs (cold)", "secs (reused)",
               "speedup"});
  int violations = 0;
  Rng rng(881188);
  for (const Workload& workload : workloads) {
    Rng pool_rng = rng.Fork();
    const std::vector<Worker> pool =
        bench::PaperPool(&pool_rng, workload.n, 0.7);
    std::vector<double> budgets(workload.requests);
    for (std::size_t i = 0; i < workload.requests; ++i) {
      budgets[i] = 0.5 + 0.001 * static_cast<double>(i % 100);
    }

    // Cold path: per-request validation + view build, which is exactly
    // what a caller without a plan pays.
    const BucketBvObjective objective;
    std::vector<std::vector<std::size_t>> cold_juries;
    Timer t_cold;
    for (std::size_t i = 0; i < workload.requests; ++i) {
      for (const Worker& worker : pool) {
        if (!ValidateWorker(worker).ok()) ++violations;
      }
      const WorkerPoolView view(pool);
      const JspInstance instance{
          .pool = &view, .budget = budgets[i], .alpha = 0.5};
      const auto solution =
          workload.solver == "greedy-quality"
              ? SolveGreedyByQuality(instance, view, objective).value()
              : SolveGreedyMarginalGain(instance, view, objective).value();
      cold_juries.push_back(solution.selected);
    }
    const double cold_secs = t_cold.ElapsedSeconds();

    // Reused path: plan once, stream requests.
    auto context = api::PoolPlanContext::Plan(pool).value();
    Timer t_reused;
    for (std::size_t i = 0; i < workload.requests; ++i) {
      api::SolveRequest request;
      request.solver = workload.solver;
      request.budget = budgets[i];
      request.alpha = 0.5;
      const auto solve_report = context.Solve(request).value();
      if (solve_report.solution.selected != cold_juries[i]) {
        ++violations;
        std::cout << "DETERMINISM VIOLATION: " << workload.solver
                  << " request " << i << " differs between cold and "
                  << "reused paths\n";
      }
    }
    const double reused_secs = t_reused.ElapsedSeconds();

    table.AddRow({workload.solver, std::to_string(workload.n),
                  std::to_string(workload.requests), Format(cold_secs, 4),
                  Format(reused_secs, 4),
                  Format(reused_secs > 0.0 ? cold_secs / reused_secs : 0.0,
                         2) +
                      "x"});
    report->AddPlanContextReuse(workload.solver, workload.n,
                                workload.requests, cold_secs, reused_secs);
  }
  std::cout << table.ToString()
            << "Takeaway: a pool is planned once and queried many times — "
               "the serving shape. The per-request win is largest for the "
               "cheap solvers where validation + view build rivals the "
               "solve itself.\n";
  return violations;
}

/// SolveMany throughput: one planned pool answering a mixed batch of
/// requests (different solvers, budgets, priors, seeds), serial Solve
/// loop vs `SolveMany` fanned across the scheduler. Report i is asserted
/// bit-identical to its serial solve at every thread count.
int RunSolveManyThroughput(bench::ThreadScalingReport* report) {
  const int n = 60;
  const std::size_t batch = static_cast<std::size_t>(bench::Reps(32));
  bench::PrintHeader(
      "Ablation — SolveMany request throughput",
      "Mixed batch of " + std::to_string(batch) +
          " requests (annealing / greedy-mg / greedy-quality / odd-top-k) "
          "on one N = 60 pool; juries identical across thread counts.");

  Rng rng(969696);
  Rng pool_rng = rng.Fork();
  auto context =
      api::PoolPlanContext::Plan(bench::PaperPool(&pool_rng, n, 0.7))
          .value();
  const std::vector<std::string> solvers = {"annealing", "greedy-mg",
                                            "greedy-quality", "odd-top-k"};
  std::vector<api::SolveRequest> requests;
  for (std::size_t i = 0; i < batch; ++i) {
    api::SolveRequest request;
    request.solver = solvers[i % solvers.size()];
    request.budget = 0.6 + 0.2 * static_cast<double>(i % 4);
    request.alpha = i % 2 == 0 ? 0.5 : 0.4;
    request.rng_seed = 4000 + i;
    requests.push_back(std::move(request));
  }

  std::vector<std::vector<std::size_t>> reference;
  Timer t_serial;
  for (const api::SolveRequest& request : requests) {
    reference.push_back(context.Solve(request).value().solution.selected);
  }
  const double serial_secs = t_serial.ElapsedSeconds();

  Table table({"mode", "threads", "secs", "requests/s", "identical"});
  table.AddRow({"serial Solve loop", "1", Format(serial_secs, 4),
                Format(static_cast<double>(batch) / serial_secs, 1), "ref"});
  int violations = 0;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    Timer t_batch;
    const auto reports =
        context.SolveMany(requests, {.num_threads = threads}).value();
    const double secs = t_batch.ElapsedSeconds();
    bool identical = true;
    for (std::size_t i = 0; i < batch; ++i) {
      if (reports[i].solution.selected != reference[i]) {
        identical = false;
        ++violations;
        std::cout << "DETERMINISM VIOLATION: SolveMany request " << i
                  << " at " << threads << " threads\n";
      }
    }
    table.AddRow({"SolveMany", std::to_string(threads), Format(secs, 4),
                  Format(static_cast<double>(batch) / secs, 1),
                  identical ? "yes" : "NO"});
    report->AddSolveMany(n, batch, threads, secs);
  }
  std::cout << table.ToString()
            << "Takeaway: requests are independent given their seeds, so "
               "the batch fans across the scheduler (each request's own "
               "nested regions fan further) and the reports stay "
               "bit-identical to the serial loop in any order.\n";
  return violations;
}

/// Incremental-vs-full ablation: the same solver, same rng stream, same
/// returned jury — one path scoring moves by O(n) session delta updates,
/// the other by O(n^2) from-scratch evaluation.
void RunIncrementalAblation() {
  const int reps = static_cast<int>(bench::Reps(5));
  bench::PrintHeader(
      "Ablation — incremental vs from-scratch JQ evaluation",
      "Same solver/seed with delta-update sessions on and off; identical "
      "juries, wall-clock and evaluation counts over " +
          std::to_string(reps) + " instances per N.");

  Table table({"solver", "N", "secs (incremental)", "secs (full)", "speedup",
               "full evals (inc)", "evals total"});
  Rng rng(424243);
  for (int n : {50, 100, 200}) {
    struct Cell {
      OnlineStats inc_time, full_time;
      std::size_t inc_full_evals = 0;
      std::size_t total_evals = 0;
    };
    Cell sa, greedy;
    const BucketBvObjective objective;
    for (int rep = 0; rep < reps; ++rep) {
      Rng pool_rng = rng.Fork();
      const std::vector<Worker> pool = bench::PaperPool(&pool_rng, n, 0.7);
      const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(rep);

      objective.ResetEvaluationCounters();
      {
        Rng sa_rng(seed);
        Timer t;
        const WorkerPoolView view(pool);
        const JspInstance instance{.pool = &view, .budget = 1.0, .alpha = 0.5};
        const auto s =
            SolveAnnealing(instance, view, objective, &sa_rng).value();
        sa.inc_time.Add(t.ElapsedSeconds());
        static_cast<void>(s);
      }
      sa.inc_full_evals += objective.evaluation_counters().full;
      sa.total_evals += objective.evaluation_counters().total();
      {
        Rng sa_rng(seed);
        AnnealingOptions no_inc;
        no_inc.use_incremental = false;
        Timer t;
        const WorkerPoolView view(pool);
        const JspInstance instance{.pool = &view, .budget = 1.0, .alpha = 0.5};
        const auto s =
            SolveAnnealing(instance, view, objective, &sa_rng, no_inc).value();
        sa.full_time.Add(t.ElapsedSeconds());
        static_cast<void>(s);
      }

      objective.ResetEvaluationCounters();
      {
        Timer t;
        const WorkerPoolView view(pool);
        const JspInstance instance{.pool = &view, .budget = 1.0, .alpha = 0.5};
        const auto s =
            SolveGreedyMarginalGain(instance, view, objective).value();
        greedy.inc_time.Add(t.ElapsedSeconds());
        static_cast<void>(s);
      }
      greedy.inc_full_evals += objective.evaluation_counters().full;
      greedy.total_evals += objective.evaluation_counters().total();
      {
        GreedyOptions no_inc;
        no_inc.use_incremental = false;
        Timer t;
        const WorkerPoolView view(pool);
        const JspInstance instance{.pool = &view, .budget = 1.0, .alpha = 0.5};
        const auto s =
            SolveGreedyMarginalGain(instance, view, objective, no_inc).value();
        greedy.full_time.Add(t.ElapsedSeconds());
        static_cast<void>(s);
      }
    }
    auto emit = [&](const std::string& name, const Cell& cell) {
      const double speedup =
          cell.inc_time.mean() > 0.0
              ? cell.full_time.mean() / cell.inc_time.mean()
              : 0.0;
      table.AddRow({name, std::to_string(n),
                    Format(cell.inc_time.mean(), 6),
                    Format(cell.full_time.mean(), 6),
                    Format(speedup, 2) + "x",
                    std::to_string(cell.inc_full_evals),
                    std::to_string(cell.total_evals)});
    };
    emit("annealing (Alg.3)", sa);
    emit("greedy marginal-gain", greedy);
  }
  std::cout << table.ToString()
            << "Takeaway: per-move delta updates turn the O(n^2) "
               "evaluation inside every solver move into O(n); the paper's "
               "runtime bottleneck (Fig. 7/9) shrinks by the jury size.\n";

  // One labelled run through the shared counter-reporting helper.
  const BucketBvObjective demo;
  Rng pool_rng = rng.Fork();
  const std::vector<Worker> pool = bench::PaperPool(&pool_rng, 100, 0.7);
  const WorkerPoolView view(pool);
  JspInstance instance;
  instance.pool = &view;
  instance.budget = 1.0;
  instance.alpha = 0.5;
  Rng sa_rng(99);
  static_cast<void>(SolveAnnealing(instance, view, demo, &sa_rng).value());
  bench::PrintEvaluationCounters("annealing N=100 (BV/bucket)", demo);
}

/// Batched-vs-scalar annealing-neighbourhood ablation: the same SA
/// workload with the batched best-improvement polish (the unified
/// ScoreAddBatch/ScoreRemoveBatch/ScoreSwapBatch neighbourhood scan) on,
/// against the PR 3 baselines — the plain scalar-neighbourhood run and
/// the quality-matched "x3 restarts" scale-up. The counter columns are
/// the evidence the unified scan argues from: the polish reaches a
/// deeper local optimum with delta-updated batch scores, where matching
/// its quality by restarts multiplies the full-evaluation (grid-rebuild)
/// budget instead.
void RunBatchedNeighbourhoodAblation(bench::ThreadScalingReport* report) {
  const int reps = static_cast<int>(bench::Reps(8));
  constexpr int kN = 24;
  bench::PrintHeader(
      "Ablation — batched vs scalar annealing neighbourhood",
      "SA at N = 24, B = 0.5; polish = batched unified move scan; "
      "baselines = PR 3 scalar neighbourhood (polish off) and x3 restarts; "
      "mean over " + std::to_string(reps) + " instances.");

  struct Config {
    std::string name;
    AnnealingOptions options;
  };
  std::vector<Config> configs;
  {
    Config off{"scalar neighbourhood (PR 3)", {}};
    off.options.max_polish_moves = 0;
    configs.push_back(off);
    Config restarts{"scalar neighbourhood x3 restarts", {}};
    restarts.options.max_polish_moves = 0;
    restarts.options.num_restarts = 3;
    configs.push_back(restarts);
    Config polish{"batched neighbourhood polish", {}};
    configs.push_back(polish);
    // The payoff regime: the batched scan lets the schedule be cut in
    // half (cooling 0.25 ~ halves the temperature levels) because the
    // polish recovers the local-search quality SA would otherwise need
    // the long tail of the schedule (or extra restarts) to find.
    Config half{"half schedule + batched polish", {}};
    half.options.cooling_factor = 0.25;
    configs.push_back(half);
  }

  const BucketBvObjective objective;
  Rng rng(737373);
  std::vector<std::vector<Worker>> pools;
  std::vector<double> optima;
  for (int rep = 0; rep < reps; ++rep) {
    Rng pool_rng = rng.Fork();
    pools.push_back(bench::PaperPool(&pool_rng, kN, 0.7));
    const WorkerPoolView view(pools.back());
    const JspInstance instance{.pool = &view, .budget = 0.5, .alpha = 0.5};
    optima.push_back(
        SolveBranchAndBound(instance, view, objective).value().jq);
  }

  Table table({"config", "mean JQ gap", "full evals", "incr evals",
               "secs/solve", "polish moves"});
  for (const Config& config : configs) {
    OnlineStats gap, secs;
    std::size_t polish_moves = 0;
    objective.ResetEvaluationCounters();
    for (int rep = 0; rep < reps; ++rep) {
      Rng sa_rng(31000 + static_cast<std::uint64_t>(rep));
      AnnealingStats stats;
      Timer t;
      const WorkerPoolView view(pools[static_cast<std::size_t>(rep)]);
      const JspInstance instance{.pool = &view, .budget = 0.5, .alpha = 0.5};
      const auto s = SolveAnnealing(instance, view, objective, &sa_rng,
                                    config.options, &stats)
                         .value();
      secs.Add(t.ElapsedSeconds());
      gap.Add(optima[static_cast<std::size_t>(rep)] - s.jq);
      polish_moves += stats.polish_moves;
    }
    const EvaluationCounters counters = objective.evaluation_counters();
    table.AddRow({config.name, FormatPercent(gap.mean(), 3),
                  std::to_string(counters.full),
                  std::to_string(counters.incremental),
                  Format(secs.mean(), 6), std::to_string(polish_moves)});
    report->AddAnnealingNeighbourhood(config.name, kN, gap.mean(),
                                      counters.full, counters.incremental,
                                      secs.mean());
  }
  std::cout << table.ToString()
            << "Takeaway: the batched polish makes every returned jury "
               "single-move locally optimal by construction (contiguous "
               "fused-kernel scans over the full neighbourhood), so the "
               "SA schedule can be cut — the half-schedule config matches "
               "the PR 3 baseline's quality with fewer full (grid-"
               "rebuild) evaluations and far less wall-clock, where "
               "matching it by extra restarts multiplies both.\n";
}

/// Nested-parallelism ablation: the budget-table workload the scheduler
/// exists for — 2 rows (fewer than the workers at 4 threads) each driving
/// an inner OPTJS solve with 8 restart chains. The fixed-pool baseline
/// (the PR 2 behavior: rows parallel, inner solvers pinned to one thread)
/// strands every worker without a row of its own; nested solver
/// parallelism fans the 16 chains plus the greedy scans across all
/// workers. Tables are asserted bit-identical between the two modes and
/// across thread counts; the scheduler counters prove the fan-out.
int RunNestedBudgetTableAblation(bench::ThreadScalingReport* report) {
  const int reps = static_cast<int>(bench::Reps(3));
  constexpr int kCandidates = 24;
  const std::vector<double> kBudgets{0.6, 1.2};
  bench::PrintHeader(
      "Ablation — nested budget-table -> OPTJS parallelism",
      "2 rows x (SA with 8 restart chains + greedy fallbacks) at N = 24; "
      "fixed-pool inner pin (PR 2 baseline) vs nested task groups; mean "
      "over " + std::to_string(reps) + " pools.");

  OptjsOptions options;
  options.annealing.num_restarts = 8;

  Table table({"mode", "threads", "secs", "improvement", "identical"});
  Rng rng(626262);
  std::vector<std::vector<Worker>> pools;
  for (int rep = 0; rep < reps; ++rep) {
    Rng pool_rng = rng.Fork();
    pools.push_back(bench::PaperPool(&pool_rng, kCandidates, 0.7));
  }
  int violations = 0;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    OptjsOptions run_options = options;
    run_options.num_threads = threads;
    BudgetTableOptions fixed_pool;
    fixed_pool.nested_solver_parallelism = false;
    BudgetTableOptions nested;

    OnlineStats fixed_secs, nested_secs;
    bool identical = true;
    Scheduler::Global()->ResetCounters();
    for (int rep = 0; rep < reps; ++rep) {
      Rng rng_fixed(4242 + static_cast<std::uint64_t>(rep));
      Timer t_fixed;
      const auto rows_fixed =
          BuildBudgetQualityTable(pools[static_cast<std::size_t>(rep)],
                                  kBudgets, 0.5, &rng_fixed, run_options,
                                  fixed_pool)
              .value();
      fixed_secs.Add(t_fixed.ElapsedSeconds());

      Rng rng_nested(4242 + static_cast<std::uint64_t>(rep));
      Timer t_nested;
      const auto rows_nested =
          BuildBudgetQualityTable(pools[static_cast<std::size_t>(rep)],
                                  kBudgets, 0.5, &rng_nested, run_options,
                                  nested)
              .value();
      nested_secs.Add(t_nested.ElapsedSeconds());

      for (std::size_t i = 0; i < rows_fixed.size(); ++i) {
        if (rows_fixed[i].selected != rows_nested[i].selected) {
          identical = false;
          ++violations;
          std::cout << "DETERMINISM VIOLATION: nested budget table row "
                    << i << " differs at " << threads << " threads\n";
        }
      }
    }
    if (threads == 4) {
      report->SetSchedulerCounters(Scheduler::Global()->counters());
    }
    const double improvement = nested_secs.mean() > 0.0
                                   ? fixed_secs.mean() / nested_secs.mean()
                                   : 0.0;
    table.AddRow({"fixed-pool (PR 2)", std::to_string(threads),
                  Format(fixed_secs.mean(), 6), "1.00x",
                  identical ? "yes" : "NO"});
    table.AddRow({"nested task groups", std::to_string(threads),
                  Format(nested_secs.mean(), 6),
                  Format(improvement, 2) + "x", identical ? "yes" : "NO"});
    report->AddNested(kCandidates, kBudgets.size(), threads,
                      fixed_secs.mean(), nested_secs.mean());
  }
  std::cout << table.ToString()
            << "Takeaway: with fewer rows than workers the fixed pool "
               "strands cores; routing rows through the scheduler's task "
               "groups lets idle workers steal the inner restart chains "
               "and candidate scans, at identical tables.\n";
  return violations;
}

/// Parallel-vs-serial ablation: the same solver, same seed, same returned
/// jury — wall-clock and evaluation counters at 1/2/4 threads. The
/// parallel layer is bit-deterministic in the thread count, so the jury
/// column is asserted identical and only the clock moves. Returns the
/// number of determinism violations so main() can fail the CI smoke run.
int RunParallelAblation(bench::ThreadScalingReport* report) {
  const int reps = static_cast<int>(bench::Reps(3));
  bench::PrintHeader(
      "Ablation — parallel vs serial solver execution",
      "Thread-scaling of multi-restart SA (K=8, N=200), the greedy "
      "marginal-gain scan (N=200) and the partitioned Gray-code "
      "exhaustive sweep (N=20); juries identical across thread counts; "
      "mean over " + std::to_string(reps) + " instances.");

  const std::size_t kThreadCounts[] = {1, 2, 4};
  Table table({"solver", "N", "threads", "secs", "speedup", "evals total"});
  Rng rng(515151);
  int violations = 0;

  struct Workload {
    std::string name;
    int n;
    std::function<JspSolution(const JspInstance&, const JqObjective&,
                              std::uint64_t seed, std::size_t threads)>
        solve;
  };
  const std::vector<Workload> workloads = {
      {"annealing x8 restarts", 200,
       [](const JspInstance& instance, const JqObjective& objective,
          std::uint64_t seed, std::size_t threads) {
         AnnealingOptions options;
         options.num_restarts = 8;
         options.num_threads = threads;
         Rng sa_rng(seed);
         return SolveAnnealing(instance, *instance.pool, objective, &sa_rng,
                               options)
             .value();
       }},
      {"greedy marginal-gain", 200,
       [](const JspInstance& instance, const JqObjective& objective,
          std::uint64_t, std::size_t threads) {
         GreedyOptions options;
         options.num_threads = threads;
         return SolveGreedyMarginalGain(instance, *instance.pool, objective,
                                        options)
             .value();
       }},
      {"exhaustive (Gray-code)", 20,
       [](const JspInstance& instance, const JqObjective& objective,
          std::uint64_t, std::size_t threads) {
         ExhaustiveOptions options;
         options.num_threads = threads;
         return SolveExhaustive(instance, *instance.pool, objective, options)
             .value();
       }},
  };

  for (const Workload& workload : workloads) {
    const BucketBvObjective objective;
    const double budget = workload.n >= 100 ? 1.0 : 0.5;
    std::vector<std::vector<Worker>> pools;
    for (int rep = 0; rep < reps; ++rep) {
      Rng pool_rng = rng.Fork();
      pools.push_back(bench::PaperPool(&pool_rng, workload.n, 0.7));
    }
    double serial_mean = 0.0;
    std::vector<JspSolution> reference;
    for (const std::size_t threads : kThreadCounts) {
      objective.ResetEvaluationCounters();
      OnlineStats secs;
      std::vector<JspSolution> juries;
      for (int rep = 0; rep < reps; ++rep) {
        Timer t;
        const WorkerPoolView view(pools[static_cast<std::size_t>(rep)]);
        const JspInstance instance{
            .pool = &view, .budget = budget, .alpha = 0.5};
        juries.push_back(workload.solve(
            instance, objective, 9000 + static_cast<std::uint64_t>(rep),
            threads));
        secs.Add(t.ElapsedSeconds());
      }
      if (threads == 1) {
        serial_mean = secs.mean();
        reference = juries;
      } else {
        for (int rep = 0; rep < reps; ++rep) {
          const auto& a = reference[static_cast<std::size_t>(rep)];
          const auto& b = juries[static_cast<std::size_t>(rep)];
          if (a.selected != b.selected) {
            ++violations;
            std::cout << "DETERMINISM VIOLATION: " << workload.name
                      << " rep " << rep << " at " << threads
                      << " threads\n";
          }
        }
      }
      const double speedup =
          secs.mean() > 0.0 ? serial_mean / secs.mean() : 0.0;
      table.AddRow({workload.name, std::to_string(workload.n),
                    std::to_string(threads), Format(secs.mean(), 6),
                    Format(speedup, 2) + "x",
                    std::to_string(objective.evaluation_counters().total())});
      report->Add(workload.name, workload.n, threads, secs.mean(), speedup);
    }
  }
  std::cout << table.ToString()
            << "Takeaway: restart chains, candidate shards and subset "
               "partitions are independent JQ evaluation streams; the "
               "scheduler turns them into near-linear wall-clock scaling "
               "while the deterministic reductions keep the juries "
               "bit-identical.\n";
  violations += RunNestedBudgetTableAblation(report);
  RunBatchedNeighbourhoodAblation(report);
  return violations;
}

}  // namespace
}  // namespace jury

int main() {
  jury::Run();
  jury::RunIncrementalAblation();
  jury::bench::ThreadScalingReport report;
  int violations = jury::RunParallelAblation(&report);
  violations += jury::RunPlanContextReuse(&report);
  violations += jury::RunSolveManyThroughput(&report);
  report.WriteIfRequested();
  return violations == 0 ? 0 : 1;
}
