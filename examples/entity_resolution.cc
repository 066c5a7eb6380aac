// Entity resolution with priors: crowdsourced record deduplication.
//
// Each task asks "do these two records refer to the same entity?" — a
// decision-making task. A similarity score from an automatic matcher gives
// the task provider a PRIOR for each pair; Theorem 3 folds that prior into
// jury selection as a free pseudo-worker, so easy pairs (extreme priors)
// need smaller juries than ambiguous ones. This is the paper's §4.5
// machinery earning money.
//
// Build & run:  ./build/examples/entity_resolution

#include <iostream>

#include "core/optjs.h"
#include "crowd/pool.h"
#include "crowd/vote_sim.h"
#include "strategy/bayesian.h"
#include "util/rng.h"
#include "util/table.h"

int main() {
  using namespace jury;
  Rng rng(2024);

  // A pool of 30 crowd workers with varied quality and price.
  crowd::PoolConfig pool_config;
  pool_config.num_workers = 30;
  const auto pool = crowd::GeneratePool(pool_config, &rng).value();

  // Record pairs with matcher similarity in [0, 1]; we read the similarity
  // as the prior that the pair does NOT match... here encoded as
  // alpha = Pr(t = 0) with 0 = "same entity" (the paper's 0/1 encoding is
  // task-defined). Extreme similarities = confident priors.
  struct Pair {
    const char* description;
    double alpha;  // Pr(same entity) from the automatic matcher
    int truth;     // 0 = same entity
  };
  const std::vector<Pair> pairs = {
      {"'IBM Corp.' vs 'International Business Machines'", 0.92, 0},
      {"'J. Smith, NYC' vs 'John Smith, New York'", 0.75, 0},
      {"'Acme Inc (2019)' vs 'Acme Incorporated'", 0.55, 0},
      {"'Jane Doe, TX' vs 'Jane Doe, AK'", 0.45, 1},
      {"'Orange SA' vs 'Orange County Supplies'", 0.12, 1},
  };

  Table table({"pair", "prior", "jury size", "spent", "predicted JQ",
               "BV answer", "truth"});
  const BayesianVoting bv;
  for (const auto& pair : pairs) {
    const WorkerPoolView view(pool);
    JspInstance instance;
    instance.pool = &view;
    instance.budget = 0.6;
    instance.alpha = pair.alpha;
    Rng solver_rng = rng.Fork();
    const auto solution =
        SolveOptjs(instance, view, BucketBvObjective(), &solver_rng).value();

    // Simulate the selected jury actually answering.
    const Jury jury = solution.ToJury(instance);
    int answer;
    if (jury.empty()) {
      answer = pair.alpha >= 0.5 ? 0 : 1;  // prior decides alone
    } else {
      const Votes votes = crowd::SimulateVotes(jury, pair.truth, &rng);
      answer = bv.ProbZero(jury, votes, pair.alpha) >= 1.0 ? 0 : 1;
    }
    table.AddRow({pair.description, Format(pair.alpha, 2),
                  std::to_string(solution.selected.size()),
                  Format(solution.cost, 2), FormatPercent(solution.jq),
                  answer == 0 ? "same" : "different",
                  pair.truth == 0 ? "same" : "different"});
  }
  std::cout << table.ToString()
            << "\nConfident matcher scores (0.92, 0.12) start from a high "
               "prior-only quality, so the same budget buys a higher JQ; "
               "ambiguous pairs lean fully on the crowd.\n";
  return 0;
}
