// E6/E8 — Figure 7: (a) how close the simulated-annealing jury comes to
// the true optimum (N = 11, exhaustive reference) across budgets;
// (b) SA running time as the candidate pool grows to 500.

#include <iostream>

#include "bench_util.h"
#include "core/annealing.h"
#include "core/exhaustive.h"
#include "core/objective.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/timer.h"

namespace jury {
namespace {

void Fig7a(int reps) {
  std::cout << "\n--- Fig 7(a): JQ of SA jury vs optimal jury (N=11) ---\n";
  Table table({"Budget", "JQ optimal J*", "JQ returned J'", "gap"});
  const BucketBvObjective objective;
  for (double budget = 0.05; budget <= 0.501; budget += 0.05) {
    OnlineStats optimal_stats, returned_stats;
    Rng rng(static_cast<std::uint64_t>(budget * 1000) + 7);
    for (int rep = 0; rep < reps; ++rep) {
      Rng pool_rng = rng.Fork();
      const std::vector<Worker> pool = bench::PaperPool(&pool_rng, 11, 0.7);
      JspInstance instance;
      instance.candidates = pool;
      instance.budget = budget;
      instance.alpha = 0.5;
      const WorkerPoolView view(instance.candidates);
      const auto optimal = SolveExhaustive(instance, view, objective).value();
      Rng sa_rng = rng.Fork();
      const auto returned =
          SolveAnnealing(instance, view, objective, &sa_rng).value();
      optimal_stats.Add(optimal.jq);
      returned_stats.Add(returned.jq);
    }
    table.AddRow({Format(budget, 2), FormatPercent(optimal_stats.mean()),
                  FormatPercent(returned_stats.mean()),
                  FormatPercent(optimal_stats.mean() -
                                returned_stats.mean())});
  }
  std::cout << table.ToString()
            << "Paper shape: the two curves almost coincide.\n";
}

void Fig7b(int reps) {
  std::cout << "\n--- Fig 7(b): SA running time vs N (seconds) ---\n";
  std::vector<std::string> header{"N"};
  const std::vector<double> budgets{0.05, 0.20, 0.35, 0.50};
  for (double b : budgets) header.push_back("B=" + Format(b, 2));
  Table table(header);
  for (int n : {100, 200, 300, 400, 500}) {
    std::vector<std::string> row{std::to_string(n)};
    for (double budget : budgets) {
      Rng rng(static_cast<std::uint64_t>(n) * 17 +
              static_cast<std::uint64_t>(budget * 100));
      OnlineStats time_stats;
      for (int rep = 0; rep < reps; ++rep) {
        Rng pool_rng = rng.Fork();
        const std::vector<Worker> pool = bench::PaperPool(&pool_rng, n, 0.7);
        JspInstance instance;
        instance.candidates = pool;
        instance.budget = budget;
        instance.alpha = 0.5;
        const BucketBvObjective objective;
        Rng sa_rng = rng.Fork();
        Timer timer;
        const WorkerPoolView view(instance.candidates);
        (void)SolveAnnealing(instance, view, objective, &sa_rng).value();
        time_stats.Add(timer.ElapsedSeconds());
      }
      row.push_back(Format(time_stats.mean(), 4));
    }
    table.AddRow(std::move(row));
  }
  std::cout << table.ToString()
            << "Paper shape: time grows linearly with N (their Python "
               "implementation: <2.5s at N=500; absolute numbers differ).\n";
}

void Run() {
  const int reps = static_cast<int>(bench::Reps(20));
  bench::PrintHeader(
      "Figure 7 — effectiveness & efficiency of OPTJS",
      "(a) N=11, B in [0.05,0.5]: exhaustive optimum vs SA, " +
          std::to_string(reps) +
          " reps/point. (b) SA runtime, N in [100,500], " +
          std::to_string(std::max(1, reps / 5)) + " reps/point.");
  Fig7a(reps);
  Fig7b(std::max(1, reps / 5));
}

}  // namespace
}  // namespace jury

int main() {
  jury::Run();
  return 0;
}
