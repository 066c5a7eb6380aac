// Sentiment-analysis campaign: the paper's §6.2 scenario end-to-end.
//
// A provider wants 600 tweets labelled positive/not-positive. This example
// simulates the AMT campaign, estimates worker qualities from their
// answering history, then — for each new question — selects the
// budget-optimal jury among the workers available and aggregates their
// votes with Bayesian Voting, finally comparing against the ground truth.
//
// Build & run:  ./build/examples/sentiment_campaign

#include <iostream>

#include "core/optjs.h"
#include "crowd/sentiment.h"
#include "strategy/bayesian.h"
#include "strategy/majority.h"
#include "util/rng.h"
#include "util/table.h"

int main() {
  using namespace jury;

  // 1. Run the (simulated) AMT campaign and learn worker qualities.
  Rng rng(7);
  const auto dataset =
      crowd::MakeSentimentDataset(crowd::SentimentConfig{}, &rng).value();
  std::cout << "Campaign: 600 tasks, 128 workers, mean estimated quality "
            << Format(dataset.mean_estimated_quality, 3) << "\n\n";

  // 2. For each question: the 20 workers who answered it are the candidate
  //    pool; pick the best jury under a $0.5 budget and aggregate only the
  //    selected workers' votes.
  const BayesianVoting bv;
  const MajorityVoting mv;
  int bv_correct = 0;
  int mv_all_correct = 0;
  double total_spent = 0.0;
  const std::size_t num_questions = 200;  // a slice, for speed
  for (std::size_t q = 0; q < num_questions; ++q) {
    const auto& task = dataset.campaign.tasks[q];

    std::vector<Worker> pool;
    for (const auto& answer : task.answers) {
      pool.emplace_back(std::to_string(answer.worker),
                        dataset.estimated_quality[answer.worker],
                        rng.TruncatedGaussian(0.05, 0.2, 0.01, 1e9));
    }
    const WorkerPoolView view(pool);
    JspInstance instance;
    instance.pool = &view;
    instance.budget = 0.5;
    instance.alpha = 0.5;
    Rng solver_rng = rng.Fork();
    const auto solution =
        SolveOptjs(instance, view, BucketBvObjective(), &solver_rng).value();
    total_spent += solution.cost;

    // Aggregate the selected jurors' actual votes with BV.
    Jury jury;
    Votes votes;
    for (std::size_t idx : solution.selected) {
      jury.Add(pool[idx]);
      votes.push_back(static_cast<std::uint8_t>(task.answers[idx].vote));
    }
    if (!jury.empty()) {
      const int decided = bv.ProbZero(jury, votes, 0.5) >= 1.0 ? 0 : 1;
      bv_correct += (decided == task.truth);
    }

    // Baseline: majority over ALL 20 votes (pay everyone).
    Jury all;
    Votes all_votes;
    for (const auto& answer : task.answers) {
      all.Add({"w", 0.7, 0.0});
      all_votes.push_back(static_cast<std::uint8_t>(answer.vote));
    }
    const int mv_decided = mv.ProbZero(all, all_votes, 0.5) >= 1.0 ? 0 : 1;
    mv_all_correct += (mv_decided == task.truth);
  }

  Table table({"approach", "accuracy", "votes bought per task"});
  table.AddRow({"OPTJS jury + BV",
                FormatPercent(static_cast<double>(bv_correct) /
                              static_cast<double>(num_questions)),
                "selected subset (avg $" +
                    Format(total_spent / static_cast<double>(num_questions),
                           3) +
                    ")"});
  table.AddRow({"all 20 workers + MV",
                FormatPercent(static_cast<double>(mv_all_correct) /
                              static_cast<double>(num_questions)),
                "all 20"});
  std::cout << table.ToString()
            << "\nA budget-selected jury with Bayesian aggregation rivals "
               "(or beats) paying every worker and taking the majority.\n";
  return 0;
}
