#ifndef JURYOPT_BENCH_BENCH_UTIL_H_
#define JURYOPT_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/objective.h"
#include "model/worker.h"
#include "util/env.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/scheduler.h"
#include "util/simd_dispatch.h"
#include "util/stats_registry.h"

namespace jury::bench {

/// Repetition count for averaged experiments. The paper repeats 1,000
/// times (§6.1.1); the default here keeps the full harness in CI-scale
/// runtime. Override with JURY_BENCH_REPS; JURY_BENCH_FAST=1 quarters it.
inline std::int64_t Reps(std::int64_t fallback) {
  std::int64_t reps = GetEnvInt("JURY_BENCH_REPS", fallback);
  if (GetEnvFlag("JURY_BENCH_FAST")) reps = std::max<std::int64_t>(1, reps / 4);
  return reps;
}

/// Banner printed at the top of each bench binary.
inline void PrintHeader(const std::string& artifact,
                        const std::string& protocol) {
  std::cout << "==============================================================="
               "=\n"
            << artifact << "\n"
            << protocol << "\n"
            << "==============================================================="
               "=\n";
}

/// The paper's synthetic worker generator (§6.1.1): quality ~ N(mu, sigma^2)
/// truncated to [0.01, 0.99], cost ~ N(cost_mu, cost_sigma^2) truncated at
/// 0.01 (DESIGN.md substitution #5).
inline std::vector<Worker> PaperPool(Rng* rng, int n, double mu,
                                     double sigma = 0.22360679774997896,
                                     double cost_mu = 0.05,
                                     double cost_sigma = 0.2) {
  std::vector<Worker> pool;
  pool.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    pool.emplace_back("w" + std::to_string(i),
                      rng->TruncatedGaussian(mu, sigma, 0.01, 0.99),
                      rng->TruncatedGaussian(cost_mu, cost_sigma, 0.01, 1e9));
  }
  return pool;
}

/// One-line report of an objective's full vs. incremental evaluation
/// split (the instrumentation behind the Fig. 7/9 runtime story): how many
/// jury scorings were O(n^2) from-scratch evaluations and how many were
/// O(n) session delta updates.
inline void PrintEvaluationCounters(const std::string& label,
                                    const JqObjective& objective) {
  const EvaluationCounters& counters = objective.evaluation_counters();
  std::cout << label << ": " << counters.total() << " evaluations ("
            << counters.full << " full, " << counters.incremental
            << " incremental";
  if (counters.full > 0) {
    const double ratio = static_cast<double>(counters.total()) /
                         static_cast<double>(counters.full);
    std::cout << "; total/full = " << ratio << "x";
  }
  std::cout << ")\n";
}

/// Accumulates the measurements of a bench binary and, when the
/// `JURY_BENCH_JSON` environment variable names a path, writes them as a
/// JSON artifact for the CI bench-smoke job (the committed baseline lives
/// at the repo root as BENCH_scaling.json and anchors the perf-regression
/// gate). Serialization goes through util/json.h — the same deterministic
/// sorted-key writer `JspSolution::ToJson` and `api::SolveReport::ToJson`
/// use — instead of hand-rolled string splicing, so the artifact's bytes
/// are stable given the same measurements. Sections:
///
///  * `thread_scaling` — solver x thread-count x wall-clock; speedups are
///    relative to the same solver's 1-thread row.
///  * `budget_table_nested` — the nested budget-table ablation
///    (fixed-pool inner pin vs nested solver parallelism), plus the
///    scheduler counters that prove the nested solves actually fanned out.
///  * `annealing_neighbourhood` — batched-polish vs scalar-neighbourhood
///    SA configurations.
///  * `plan_context_reuse` — per-call setup (validate + view build) vs a
///    reused `api::PoolPlanContext` over repeated requests on one pool.
///  * `solve_many` — `SolveMany` request throughput across thread counts.
class ThreadScalingReport {
 public:
  ThreadScalingReport()
      : rows_(Json::Array()),
        nested_rows_(Json::Array()),
        neighbourhood_rows_(Json::Array()),
        reuse_rows_(Json::Array()),
        solve_many_rows_(Json::Array()) {}

  void Add(const std::string& solver, int n, std::size_t threads,
           double seconds, double speedup_vs_serial) {
    rows_.Append(Json::Object()
                     .Set("solver", solver)
                     .Set("n", n)
                     .Set("threads", static_cast<std::uint64_t>(threads))
                     .Set("seconds", seconds)
                     .Set("speedup_vs_1_thread", speedup_vs_serial));
  }

  /// One nested-budget-table measurement: the same workload with inner
  /// solves pinned to one thread (the PR 2 fixed-pool behavior) vs fanned
  /// out as nested regions, at `threads` parallelism.
  void AddNested(int n, std::size_t rows, std::size_t threads,
                 double seconds_fixed_pool, double seconds_nested) {
    const double improvement =
        seconds_nested > 0.0 ? seconds_fixed_pool / seconds_nested : 0.0;
    nested_rows_.Append(
        Json::Object()
            .Set("workload", "budget_table_nested")
            .Set("n", n)
            .Set("rows", static_cast<std::uint64_t>(rows))
            .Set("threads", static_cast<std::uint64_t>(threads))
            .Set("seconds_fixed_pool", seconds_fixed_pool)
            .Set("seconds_nested", seconds_nested)
            .Set("improvement_vs_fixed_pool", improvement));
  }

  /// One annealing-neighbourhood ablation row: the same SA workload with
  /// the batched polish scan on vs the PR 3 scalar-neighbourhood
  /// baselines, with the evaluation-counter evidence.
  void AddAnnealingNeighbourhood(const std::string& config, int n,
                                 double mean_gap, std::size_t full_evals,
                                 std::size_t incremental_evals,
                                 double seconds) {
    neighbourhood_rows_.Append(
        Json::Object()
            .Set("config", config)
            .Set("n", n)
            .Set("mean_jq_gap", mean_gap)
            .Set("full_evals", static_cast<std::uint64_t>(full_evals))
            .Set("incremental_evals",
                 static_cast<std::uint64_t>(incremental_evals))
            .Set("seconds", seconds));
  }

  /// One PlanContext-reuse row: `requests` repeated solves on one pool,
  /// cold per-call setup (validate + view rebuild per request) vs the
  /// reused context (setup amortized into `Plan`).
  void AddPlanContextReuse(const std::string& solver, int n,
                           std::size_t requests, double seconds_cold,
                           double seconds_reused) {
    const double speedup =
        seconds_reused > 0.0 ? seconds_cold / seconds_reused : 0.0;
    reuse_rows_.Append(
        Json::Object()
            .Set("solver", solver)
            .Set("n", n)
            .Set("requests", static_cast<std::uint64_t>(requests))
            .Set("seconds_cold", seconds_cold)
            .Set("seconds_reused", seconds_reused)
            .Set("speedup_vs_cold", speedup));
  }

  /// One SolveMany throughput row at a thread count.
  void AddSolveMany(int n, std::size_t requests, std::size_t threads,
                    double seconds) {
    solve_many_rows_.Append(
        Json::Object()
            .Set("workload", "solve_many")
            .Set("n", n)
            .Set("requests", static_cast<std::uint64_t>(requests))
            .Set("threads", static_cast<std::uint64_t>(threads))
            .Set("seconds", seconds)
            .Set("requests_per_second",
                 seconds > 0.0 ? static_cast<double>(requests) / seconds
                               : 0.0));
  }

  /// Scheduler counters snapshotted around the nested workload: nonzero
  /// `nested_regions` (and, with idle workers, `tasks_stolen`) is the
  /// direct evidence that budget-table rows fanned their inner OPTJS
  /// solves across workers instead of pinning them.
  void SetSchedulerCounters(const SchedulerCounters& counters) {
    scheduler_json_ =
        Json::Object()
            .Set("tasks_spawned", counters.tasks_spawned)
            .Set("tasks_stolen", counters.tasks_stolen)
            .Set("tasks_injected", counters.tasks_injected)
            .Set("regions", counters.regions)
            .Set("nested_regions", counters.nested_regions)
            .Set("inline_regions", counters.inline_regions);
    have_scheduler_ = true;
  }

  /// No-op unless JURY_BENCH_JSON is set.
  void WriteIfRequested() const {
    const char* path = std::getenv("JURY_BENCH_JSON");
    if (path == nullptr || path[0] == '\0') return;
    Json doc = Json::Object();
    // Host provenance: a baseline recorded on a 1-thread box makes no
    // scaling claim, and scripts/check_scaling_regression.py skips the
    // speedup gates for such baselines. `simd_levels` records the kernel
    // tiers this host could execute, so the gate can skip level-pinned
    // rows a weaker baseline host never ran.
    Json simd_levels = Json::Array();
    simd_levels.Append(std::string("scalar"));
    if (simd::Avx2Available()) simd_levels.Append(std::string("avx2"));
    doc.Set("host",
            Json::Object()
                .Set("hardware_threads",
                     static_cast<std::uint64_t>(
                         std::max(1u, std::thread::hardware_concurrency())))
                .Set("simd_levels", simd_levels));
    doc.Set("thread_scaling", rows_);
    doc.Set("budget_table_nested", nested_rows_);
    doc.Set("annealing_neighbourhood", neighbourhood_rows_);
    doc.Set("plan_context_reuse", reuse_rows_);
    doc.Set("solve_many", solve_many_rows_);
    if (have_scheduler_) doc.Set("scheduler", scheduler_json_);
    // End-of-run snapshot of the process-wide registry (the same
    // `{"counters":...,"gauges":...}` document `jury_cli --stats`
    // prints): cumulative evaluation/plan counts across every
    // workload in the binary, for cross-run artifact diffs.
    doc.Set("process_stats", StatsRegistry::Global().ToJsonValue());
    std::ofstream out(path);
    out << doc.Dump() << "\n";
    std::cout << "Wrote thread-scaling JSON to " << path << "\n";
  }

 private:
  Json rows_;
  Json nested_rows_;
  Json neighbourhood_rows_;
  Json reuse_rows_;
  Json solve_many_rows_;
  Json scheduler_json_;
  bool have_scheduler_ = false;
};

}  // namespace jury::bench

#endif  // JURYOPT_BENCH_BENCH_UTIL_H_
