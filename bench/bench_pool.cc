// bench_pool: the sharded-pool / frontier / snapshot performance story.
//
// Three sections, written to the JSON artifact named by JURY_BENCH_JSON
// (committed baseline: BENCH_pool.json at the repo root; gated by
// scripts/check_scaling_regression.py):
//
//  * `pool_build` — ShardedWorkerPool construction cost: per-shard summary
//    stats (min cost, dual top-k slates) over pools up to a million
//    workers.
//  * `snapshot` — plan-from-snapshot vs plan-from-CSV: the same pool
//    round-tripped through `PoolSnapshot::Write`, then planned both ways.
//    The snapshot path maps the columns read-only and skips parsing,
//    validation, and the per-worker log() of a fresh columnar build.
//  * `frontier` — greedy marginal-gain with candidate-frontier
//    pre-selection (exact mode) vs the full O(N)-per-round scan, with the
//    bit-identity of the returned jury asserted, plus the pruning-rate
//    evidence from `FrontierScanStats`. Both solves run on one thread
//    (the frontier scan is serial; the full scan is pinned to
//    `num_threads = 1`), so `speedup_vs_full_scan` is a one-core ratio
//    whatever the host's core count.
//
// JURY_BENCH_FAST=1 drops the million-worker rows for CI-scale runtime.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "api/solve.h"
#include "bench_util.h"
#include "core/frontier.h"
#include "core/greedy.h"
#include "core/objective.h"
#include "model/pool_snapshot.h"
#include "model/sharded_pool.h"
#include "model/worker_io.h"
#include "util/check.h"
#include "util/env.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/timer.h"

namespace jury::bench {
namespace {

std::string TempPath(const std::string& name) {
  const char* tmp = std::getenv("TMPDIR");
  std::string dir = (tmp != nullptr && tmp[0] != '\0') ? tmp : "/tmp";
  if (dir.back() != '/') dir += '/';
  return dir + name;
}

/// Writes `workers` as a worker CSV at `path` (the bench's stand-in for
/// the pool file a deployment would load).
void WriteCsv(const std::string& path, const std::vector<Worker>& workers) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  JURY_CHECK(f != nullptr) << "cannot write " << path;
  std::fputs("id,quality,cost\n", f);
  for (const Worker& w : workers) {
    std::fprintf(f, "%s,%.17g,%.17g\n", w.id.c_str(), w.quality, w.cost);
  }
  std::fclose(f);
}

struct PoolBench {
  Json pool_build_rows = Json::Array();
  Json snapshot_rows = Json::Array();
  Json frontier_rows = Json::Array();
};

void BenchPoolBuild(PoolBench* out, const std::vector<Worker>& workers) {
  const WorkerPoolView view(workers);
  Timer timer;
  const ShardedWorkerPool pool(&view);
  const double seconds = timer.ElapsedSeconds();
  std::cout << "pool_build  n=" << workers.size() << "  shards="
            << pool.num_shards() << "  " << seconds << " s\n";
  out->pool_build_rows.Append(
      Json::Object()
          .Set("n", static_cast<std::uint64_t>(workers.size()))
          .Set("shard_size",
               static_cast<std::uint64_t>(pool.options().shard_size))
          .Set("slate_k", static_cast<std::uint64_t>(pool.options().slate_k))
          .Set("shards", static_cast<std::uint64_t>(pool.num_shards()))
          .Set("seconds_build", seconds));
}

void BenchSnapshot(PoolBench* out, const std::vector<Worker>& workers) {
  const std::string csv_path = TempPath("juryopt_bench_pool.csv");
  const std::string snap_path = TempPath("juryopt_bench_pool.snap");
  WriteCsv(csv_path, workers);
  {
    const WorkerPoolView view(workers);
    JURY_CHECK(PoolSnapshot::Write(snap_path, workers, view).ok());
  }

  // Best-of-N on both paths: the first rep of either pays one-time costs
  // (page-cache warmup of the just-written file, dispatch-table init)
  // that a serving process loading a snapshot at startup does not —
  // steady-state is the honest comparison, and it is what the committed
  // artifact gates on.
  //
  // CSV path: parse + row validation + plan (validation hoisted to the
  // loader, exactly as jury_cli plans a CSV pool).
  double seconds_csv = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 3; ++rep) {
    Timer csv_timer;
    auto loaded = LoadWorkersCsv(csv_path);
    JURY_CHECK(loaded.ok());
    api::PlanOptions plan_options;
    plan_options.assume_validated = true;
    auto csv_planned =
        api::PoolPlanContext::Plan(std::move(loaded).value(), plan_options);
    JURY_CHECK(csv_planned.ok());
    seconds_csv = std::min(seconds_csv, csv_timer.ElapsedSeconds());
  }

  // Snapshot path: map + checksum + adopt columns. No parse, no
  // re-validation, no per-worker log().
  double seconds_snap = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 5; ++rep) {
    Timer snap_timer;
    auto snap_planned = api::PoolPlanContext::PlanFromSnapshot(snap_path);
    JURY_CHECK(snap_planned.ok());
    seconds_snap = std::min(seconds_snap, snap_timer.ElapsedSeconds());
    JURY_CHECK(snap_planned.value().num_candidates() == workers.size());
  }

  const double speedup = seconds_snap > 0.0 ? seconds_csv / seconds_snap : 0.0;
  std::cout << "snapshot    n=" << workers.size() << "  csv_plan="
            << seconds_csv << " s  snapshot_plan=" << seconds_snap
            << " s  speedup=" << speedup << "x\n";
  out->snapshot_rows.Append(
      Json::Object()
          .Set("n", static_cast<std::uint64_t>(workers.size()))
          .Set("seconds_csv_plan", seconds_csv)
          .Set("seconds_snapshot_plan", seconds_snap)
          .Set("speedup_vs_csv", speedup));
  std::remove(csv_path.c_str());
  std::remove(snap_path.c_str());
}

void BenchFrontier(PoolBench* out, const std::vector<Worker>& workers,
                   double budget) {
  JspInstance instance;
  instance.candidates = workers;
  instance.budget = budget;
  instance.alpha = 0.5;
  const WorkerPoolView view(instance.candidates);
  const ShardedWorkerPool sharded(&view);
  const BucketBvObjective objective{BucketJqOptions{}};

  // Best-of-11 on both solves, like BenchSnapshot: one-shot ms-scale
  // timings swing tens of percent run to run, and the artifact gates on
  // the ratio. The reps alternate full and frontier solves, so a drift
  // in the host's speed over the run reaches both sides of the ratio;
  // on a shared 4-vCPU host, best-of-3 in two blocks read 18.6-28.7x at
  // n=1e5 and best-of-11 alternating 22.5-25.8x.
  // The full scan would otherwise fan out over every core, while the
  // frontier scan scores serially: pin it to one thread so the ratio
  // compares the two scans, not the host's core count.
  GreedyOptions full_options;
  full_options.num_threads = 1;
  GreedyOptions frontier_options;
  frontier_options.frontier_k = FrontierOptions{}.k;
  frontier_options.sharded_pool = &sharded;
  Result<JspSolution> full = Status::Internal("unrun");
  Result<JspSolution> frontier = Status::Internal("unrun");
  double seconds_full = std::numeric_limits<double>::infinity();
  double seconds_frontier = std::numeric_limits<double>::infinity();
  FrontierScanStats stats;
  for (int rep = 0; rep < 11; ++rep) {
    Timer full_timer;
    full = SolveGreedyMarginalGain(instance, view, objective, full_options);
    seconds_full = std::min(seconds_full, full_timer.ElapsedSeconds());
    JURY_CHECK(full.ok());

    FrontierScanStats rep_stats;
    frontier_options.frontier_stats = &rep_stats;
    Timer frontier_timer;
    frontier =
        SolveGreedyMarginalGain(instance, view, objective, frontier_options);
    seconds_frontier = std::min(seconds_frontier, frontier_timer.ElapsedSeconds());
    JURY_CHECK(frontier.ok());
    stats = rep_stats;
  }

  // The exactness contract, asserted on every run: the frontier-assisted
  // greedy returns the same jury, bit for bit.
  JURY_CHECK(frontier.value().selected == full.value().selected);
  JURY_CHECK(frontier.value().jq == full.value().jq);
  JURY_CHECK(frontier.value().cost == full.value().cost);

  const double speedup =
      seconds_frontier > 0.0 ? seconds_full / seconds_frontier : 0.0;
  const double full_scan_work =
      static_cast<double>(stats.scans) * static_cast<double>(workers.size());
  const double pruning_rate =
      full_scan_work > 0.0
          ? 1.0 - static_cast<double>(stats.candidates_scanned) /
                      full_scan_work
          : 0.0;
  std::cout << "frontier    n=" << workers.size() << "  full="
            << seconds_full << " s  frontier=" << seconds_frontier
            << " s  speedup=" << speedup << "x  pruning=" << pruning_rate
            << "  proofs=" << stats.exactness_proofs << "/" << stats.scans
            << "\n";
  out->frontier_rows.Append(
      Json::Object()
          .Set("n", static_cast<std::uint64_t>(workers.size()))
          .Set("frontier_k", static_cast<std::uint64_t>(FrontierOptions{}.k))
          .Set("jury_size",
               static_cast<std::uint64_t>(full.value().selected.size()))
          .Set("seconds_full_scan", seconds_full)
          .Set("seconds_frontier", seconds_frontier)
          .Set("speedup_vs_full_scan", speedup)
          .Set("scans", stats.scans)
          .Set("candidates_scanned", stats.candidates_scanned)
          .Set("exactness_proofs", stats.exactness_proofs)
          .Set("shards_expanded", stats.shards_expanded)
          .Set("pruning_rate", pruning_rate));
}

int Run() {
  PrintHeader("BENCH_pool",
              "sharded pools: build cost, snapshot planning, frontier "
              "pre-selection (exact mode, bit-identity asserted)");
  const bool fast = GetEnvFlag("JURY_BENCH_FAST");

  Rng rng(20150323);
  std::vector<int> build_sizes = {10'000, 100'000};
  std::vector<int> snapshot_sizes = {100'000};
  std::vector<int> frontier_sizes = {10'000, 100'000};
  if (!fast) {
    build_sizes.push_back(1'000'000);
    snapshot_sizes.push_back(1'000'000);
  }

  PoolBench bench;
  const int max_n =
      std::max(*std::max_element(build_sizes.begin(), build_sizes.end()),
               *std::max_element(snapshot_sizes.begin(),
                                 snapshot_sizes.end()));
  std::vector<Worker> pool = PaperPool(&rng, max_n, 0.7);

  for (const int n : build_sizes) {
    std::vector<Worker> slice(pool.begin(), pool.begin() + n);
    BenchPoolBuild(&bench, slice);
  }
  for (const int n : snapshot_sizes) {
    std::vector<Worker> slice(pool.begin(), pool.begin() + n);
    BenchSnapshot(&bench, slice);
  }
  for (const int n : frontier_sizes) {
    std::vector<Worker> slice(pool.begin(), pool.begin() + n);
    // Budget sized for a ~25-worker jury (cost_mu = 0.05), so the full
    // scan pays ~25 rounds x N candidate scores.
    BenchFrontier(&bench, slice, 1.25);
  }

  const char* path = std::getenv("JURY_BENCH_JSON");
  if (path != nullptr && path[0] != '\0') {
    Json doc = Json::Object();
    Json simd_levels = Json::Array();
    simd_levels.Append(std::string("scalar"));
    if (simd::Avx2Available()) simd_levels.Append(std::string("avx2"));
    doc.Set("host",
            Json::Object()
                .Set("hardware_threads",
                     static_cast<std::uint64_t>(
                         std::max(1u, std::thread::hardware_concurrency())))
                .Set("simd_levels", simd_levels));
    doc.Set("pool_build", bench.pool_build_rows);
    doc.Set("snapshot", bench.snapshot_rows);
    doc.Set("frontier", bench.frontier_rows);
    doc.Set("process_stats", StatsRegistry::Global().ToJsonValue());
    std::ofstream file(path);
    file << doc.Dump() << "\n";
    std::cout << "Wrote pool bench JSON to " << path << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace jury::bench

int main() { return jury::bench::Run(); }
