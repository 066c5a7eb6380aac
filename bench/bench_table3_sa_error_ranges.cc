// E7 — Table 3: distribution of the SA optimality gap
// JQ(J*, BV, 0.5) - JQ(J-hat, BV, 0.5), in percent, over all repetitions
// of the Fig. 7(a) protocol (N = 11, B in [0.05, 0.5] step 0.05).

#include <iostream>

#include "bench_util.h"
#include "core/annealing.h"
#include "core/exhaustive.h"
#include "core/greedy.h"
#include "core/objective.h"
#include "util/histogram.h"
#include "util/table.h"

namespace jury {
namespace {

void Run() {
  const int reps = static_cast<int>(bench::Reps(100));
  bench::PrintHeader(
      "Table 3 — counts of SA optimality gap in error ranges (percent)",
      "N=11, B in {0.05..0.5}, " + std::to_string(reps) +
          " reps per budget (paper: 1000/budget, 10000 total). Paper row: "
          "[0,0.01]:9301  (0.01,0.1]:231  (0.1,1]:408  (1,3]:60  (3,inf):0");

  RangeCounter sa_counter({0.0, 0.01, 0.1, 1.0, 3.0});
  RangeCounter system_counter({0.0, 0.01, 0.1, 1.0, 3.0});
  const BucketBvObjective objective;
  for (double budget = 0.05; budget <= 0.501; budget += 0.05) {
    Rng rng(static_cast<std::uint64_t>(budget * 1000) + 31);
    for (int rep = 0; rep < reps; ++rep) {
      Rng pool_rng = rng.Fork();
      const std::vector<Worker> pool = bench::PaperPool(&pool_rng, 11, 0.7);
      const WorkerPoolView view(pool);
      JspInstance instance;
      instance.pool = &view;
      instance.budget = budget;
      instance.alpha = 0.5;
      const auto optimal = SolveExhaustive(instance, view, objective).value();
      Rng sa_rng = rng.Fork();
      const auto returned =
          SolveAnnealing(instance, view, objective, &sa_rng).value();
      sa_counter.Add((optimal.jq - returned.jq) * 100.0);  // percent

      // The production OPTJS path backs SA with the greedy baselines.
      double system_jq = returned.jq;
      system_jq = std::max(
          system_jq,
          SolveGreedyByQuality(instance, view, objective).value().jq);
      system_jq = std::max(
          system_jq,
          SolveGreedyByValuePerCost(instance, view, objective).value().jq);
      system_counter.Add((optimal.jq - system_jq) * 100.0);
    }
  }

  Table table({"% range", "Alg.3 SA counts", "SA+greedy counts", "SA frac",
               "SA+greedy frac"});
  for (std::size_t i = 0; i < sa_counter.num_buckets(); ++i) {
    table.AddRow(
        {sa_counter.label(i), std::to_string(sa_counter.count(i)),
         std::to_string(system_counter.count(i)),
         FormatPercent(static_cast<double>(sa_counter.count(i)) /
                       static_cast<double>(sa_counter.total())),
         FormatPercent(static_cast<double>(system_counter.count(i)) /
                       static_cast<double>(system_counter.total()))});
  }
  std::cout << table.ToString() << "Total experiments: "
            << sa_counter.total()
            << "\nThe verbatim Algorithm 3 shows a heavier tail than the "
               "paper reports (our truncated-cost instances admit 1-swap "
               "local optima; the paper's cost handling is unspecified). "
               "The shipped OPTJS path (SA backed by greedy fallbacks) "
               "recovers the paper's near-optimal profile.\n";
}

}  // namespace
}  // namespace jury

int main() {
  jury::Run();
  return 0;
}
