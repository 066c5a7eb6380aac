// Extension experiment — static vs online vote buying (§8 context).
//
// The paper pre-selects the whole jury before any vote (OPTJS); CDAS-style
// systems buy votes one at a time and stop once the Bayesian posterior is
// confident. Both run on the same model here, so we can measure the classic
// trade-off: at matched accuracy, how much money does adaptive stopping
// save?  Protocol: per task, OPTJS picks a jury under budget B and BV
// aggregates its votes; the online policy walks the same worker pool in
// cost-effectiveness order with a confidence target equal to the static
// jury's predicted JQ.

#include <algorithm>
#include <iostream>
#include <numeric>

#include "bench_util.h"
#include "core/optjs.h"
#include "core/sequential.h"
#include "crowd/vote_sim.h"
#include "strategy/bayesian.h"
#include "util/stats.h"
#include "util/table.h"

namespace jury {
namespace {

void Run() {
  const int tasks = static_cast<int>(bench::Reps(400));
  bench::PrintHeader(
      "Ablation — static jury (OPTJS) vs online stopping (extension)",
      "N=20 workers/task, budget B per task; online target = static "
      "predicted JQ; " +
          std::to_string(tasks) + " simulated tasks per row.");

  Table table({"B", "static acc", "static spent", "online acc",
               "online spent", "online votes", "savings"});
  for (double budget : {0.3, 0.5, 0.8}) {
    Rng rng(static_cast<std::uint64_t>(budget * 1000) + 17);
    const BayesianVoting bv;
    OnlineStats static_spent, online_spent, online_votes;
    int static_correct = 0;
    int online_correct = 0;
    for (int t = 0; t < tasks; ++t) {
      Rng pool_rng = rng.Fork();
      const auto pool = bench::PaperPool(&pool_rng, 20, 0.7);
      const int truth = crowd::SampleTruth(0.5, &rng);

      // --- Static: select once, buy the whole jury, aggregate with BV.
      JspInstance instance;
      instance.candidates = pool;
      instance.budget = budget;
      instance.alpha = 0.5;
      Rng solver_rng = rng.Fork();
      const WorkerPoolView view(instance.candidates);
      const auto solution =
          SolveOptjs(instance, view, BucketBvObjective(), &solver_rng).value();
      const Jury jury = solution.ToJury(instance);
      if (!jury.empty()) {
        const Votes votes = crowd::SimulateVotes(jury, truth, &rng);
        const int answer = bv.ProbZero(jury, votes, 0.5) >= 1.0 ? 0 : 1;
        static_correct += (answer == truth);
      } else {
        static_correct += rng.Bernoulli(0.5) ? 1 : 0;
      }
      static_spent.Add(solution.cost);

      // --- Online: same pool, most-informative-per-dollar first, stop at
      // the static jury's predicted quality (capped by the same budget).
      std::vector<Worker> stream = pool;
      std::sort(stream.begin(), stream.end(),
                [](const Worker& a, const Worker& b) {
                  return (a.quality - 0.5) / std::max(a.cost, 1e-9) >
                         (b.quality - 0.5) / std::max(b.cost, 1e-9);
                });
      SequentialConfig config;
      config.confidence_threshold = std::min(solution.jq, 0.999);
      config.budget = budget;
      const auto outcome =
          RunSequentialPolicy(
              stream,
              [&](const Worker& w, std::size_t) {
                return crowd::SimulateVote(w.quality, truth, &rng);
              },
              config)
              .value();
      online_correct += (outcome.answer == truth);
      online_spent.Add(outcome.spent);
      online_votes.Add(static_cast<double>(outcome.votes_used));
    }
    const double savings =
        static_spent.mean() > 0.0
            ? 1.0 - online_spent.mean() / static_spent.mean()
            : 0.0;
    table.AddRow(
        {Format(budget, 1),
         FormatPercent(static_cast<double>(static_correct) / tasks),
         Format(static_spent.mean(), 3),
         FormatPercent(static_cast<double>(online_correct) / tasks),
         Format(online_spent.mean(), 3), Format(online_votes.mean(), 1),
         FormatPercent(savings, 1)});
  }
  std::cout << table.ToString()
            << "\nAdaptive stopping reaches the static jury's accuracy "
               "while spending a fraction of the money: easy tasks resolve "
               "after a couple of agreeing votes. The paper's JSP remains "
               "the right tool when votes must be commissioned up front "
               "(its setting); this quantifies the price of that "
               "constraint.\n";
}

}  // namespace
}  // namespace jury

int main() {
  jury::Run();
  return 0;
}
