// E2-E5 — Figure 6(a-d): end-to-end OPTJS vs MVJS on synthetic pools.
// Each point averages `Reps` repetitions of: draw a pool, solve JSP under
// each system, record the returned jury's quality (each system measured
// under its own strategy, as in the paper).

#include <functional>
#include <iostream>

#include "bench_util.h"
#include "core/mvjs.h"
#include "core/optjs.h"
#include "util/stats.h"
#include "util/table.h"

namespace jury {
namespace {

struct Point {
  double optjs = 0.0;
  double mvjs = 0.0;
};

Point RunPoint(std::uint64_t seed, int reps, int num_workers, double mu,
               double budget, double cost_sigma) {
  Rng rng(seed);
  OnlineStats optjs_stats, mvjs_stats;
  for (int rep = 0; rep < reps; ++rep) {
    Rng pool_rng = rng.Fork();
    const auto pool = bench::PaperPool(&pool_rng, num_workers, mu,
                                       0.22360679774997896, 0.05, cost_sigma);
    const WorkerPoolView view(pool);
    JspInstance instance;
    instance.pool = &view;
    instance.budget = budget;
    instance.alpha = 0.5;
    Rng r1 = rng.Fork();
    Rng r2 = rng.Fork();
    optjs_stats.Add(
        SolveOptjs(instance, view, BucketBvObjective(), &r1).value().jq);
    mvjs_stats.Add(
        SolveMvjs(instance, view, MajorityObjective(), &r2).value().jq);
  }
  return {optjs_stats.mean(), mvjs_stats.mean()};
}

void Sweep(const std::string& title, const std::string& x_name,
           const std::vector<double>& xs,
           const std::function<Point(double)>& point_fn) {
  std::cout << "\n--- " << title << " ---\n";
  Table table({x_name, "MVJS", "OPTJS", "OPTJS-MVJS"});
  for (double x : xs) {
    const Point p = point_fn(x);
    table.AddRow({Format(x, 2), FormatPercent(p.mvjs), FormatPercent(p.optjs),
                  FormatPercent(p.optjs - p.mvjs)});
  }
  std::cout << table.ToString();
}

void Run() {
  const int reps = static_cast<int>(bench::Reps(20));
  bench::PrintHeader(
      "Figure 6 — system comparison OPTJS vs MVJS (synthetic)",
      "Defaults: N=50, mu=0.7, sigma^2=0.05, cost~N(0.05,0.2^2), B=0.5, "
      "alpha=0.5; " +
          std::to_string(reps) + " repetitions per point (paper: 1000).");

  Sweep("Fig 6(a): varying worker quality mean mu", "mu",
        {0.5, 0.6, 0.7, 0.8, 0.9, 1.0}, [&](double mu) {
          return RunPoint(1000 + static_cast<std::uint64_t>(mu * 100), reps,
                          50, mu, 0.5, 0.2);
        });

  Sweep("Fig 6(b): varying budget B", "B",
        {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}, [&](double b) {
          return RunPoint(2000 + static_cast<std::uint64_t>(b * 100), reps,
                          50, 0.7, b, 0.2);
        });

  Sweep("Fig 6(c): varying number of candidate workers N", "N",
        {10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, [&](double n) {
          return RunPoint(3000 + static_cast<std::uint64_t>(n), reps,
                          static_cast<int>(n), 0.7, 0.5, 0.2);
        });

  Sweep("Fig 6(d): varying cost standard deviation sigma-hat", "sigma",
        {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}, [&](double s) {
          return RunPoint(4000 + static_cast<std::uint64_t>(s * 100), reps,
                          50, 0.7, 0.5, s);
        });

  std::cout << "\nPaper shape: OPTJS >= MVJS everywhere; gap widest at low "
               "mu (~5% at mu=0.6), small N (>6% at N=10), and ~3% average "
               "across budgets.\n";
}

}  // namespace
}  // namespace jury

int main() {
  jury::Run();
  return 0;
}
