// E15/E16 — Figure 10: the real-dataset (simulated AMT sentiment campaign,
// DESIGN.md substitution #1) experiments.
// (a) JSP vs budget; (b) vs candidate count N; (c) vs cost stddev;
// (d) is JQ a good prediction of BV's realized accuracy as votes arrive?

#include <functional>
#include <iostream>

#include "bench_util.h"
#include "core/mvjs.h"
#include "core/optjs.h"
#include "crowd/sentiment.h"
#include "jq/bucket.h"
#include "strategy/bayesian.h"
#include "util/stats.h"
#include "util/table.h"

namespace jury {
namespace {

using crowd::SentimentDataset;

/// Builds the per-question JSP candidate set: the first `n` workers who
/// answered it, with their empirically estimated qualities and synthetic
/// costs ~ N(0.05, cost_sigma^2) truncated at 0.01.
std::vector<Worker> QuestionPool(const SentimentDataset& dataset,
                                 std::size_t question, std::size_t n,
                                 double cost_sigma, Rng* rng) {
  std::vector<Worker> pool;
  const auto& answers = dataset.campaign.tasks[question].answers;
  for (std::size_t i = 0; i < std::min(n, answers.size()); ++i) {
    std::string id = "w";
    id += std::to_string(answers[i].worker);
    pool.emplace_back(std::move(id),
                      dataset.estimated_quality[answers[i].worker],
                      rng->TruncatedGaussian(0.05, cost_sigma, 0.01, 1e9));
  }
  return pool;
}

struct Point {
  double optjs = 0.0;
  double mvjs = 0.0;
};

Point AverageOverQuestions(
    std::size_t num_questions, std::uint64_t seed, double budget,
    const std::function<std::vector<Worker>(std::size_t, Rng*)>& make_pool) {
  Rng rng(seed);
  OnlineStats optjs_stats, mvjs_stats;
  for (std::size_t q = 0; q < num_questions; ++q) {
    const std::vector<Worker> pool = make_pool(q, &rng);
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

void Run() {
  const std::size_t questions =
      static_cast<std::size_t>(bench::Reps(120));  // of the 600
  bench::PrintHeader(
      "Figure 10 — real-dataset evaluation (simulated AMT campaign)",
      "600 sentiment tasks, 128 workers, 20 votes each; empirical worker "
      "qualities; " +
          std::to_string(questions) + " questions per point (paper: 600).");

  Rng dataset_rng(20150323);
  const auto dataset =
      crowd::MakeSentimentDataset(crowd::SentimentConfig{}, &dataset_rng)
          .value();
  std::cout << "Dataset: mean estimated quality "
            << Format(dataset.mean_estimated_quality, 3) << ", "
            << dataset.workers_above_08 << " workers > 0.8, "
            << dataset.workers_below_06 << " workers < 0.6 (paper: 0.71 / 40 "
            << "/ ~13).\n";

  std::cout << "\n--- Fig 10(a): varying budget B (N=20) ---\n";
  Table a({"B", "MVJS", "OPTJS"});
  for (double b : {0.2, 0.4, 0.6, 0.8, 1.0}) {
    const auto p = AverageOverQuestions(
        questions, 100 + static_cast<std::uint64_t>(b * 100), b,
        [&](std::size_t q, Rng* rng) {
          return QuestionPool(dataset, q, 20, 0.2, rng);
        });
    a.AddRow({Format(b, 1), FormatPercent(p.mvjs), FormatPercent(p.optjs)});
  }
  std::cout << a.ToString();

  std::cout << "\n--- Fig 10(b): varying candidate count N (B=0.5) ---\n";
  Table bt({"N", "MVJS", "OPTJS"});
  for (std::size_t n : {4u, 8u, 12u, 16u, 20u}) {
    const auto p = AverageOverQuestions(
        questions, 200 + static_cast<std::uint64_t>(n), 0.5,
        [&](std::size_t q, Rng* rng) {
          return QuestionPool(dataset, q, n, 0.2, rng);
        });
    bt.AddRow({std::to_string(n), FormatPercent(p.mvjs),
               FormatPercent(p.optjs)});
  }
  std::cout << bt.ToString();

  std::cout << "\n--- Fig 10(c): varying cost stddev (N=20, B=0.5) ---\n";
  Table c({"sigma", "MVJS", "OPTJS"});
  for (double s : {0.1, 0.3, 0.5, 0.7, 1.0}) {
    const auto p = AverageOverQuestions(
        questions, 300 + static_cast<std::uint64_t>(s * 100), 0.5,
        [&](std::size_t q, Rng* rng) {
          return QuestionPool(dataset, q, 20, s, rng);
        });
    c.AddRow({Format(s, 1), FormatPercent(p.mvjs), FormatPercent(p.optjs)});
  }
  std::cout << c.ToString()
            << "Paper shape (a-c): OPTJS >= MVJS throughout, mirroring the "
               "synthetic Fig. 6(b-d).\n";

  std::cout << "\n--- Fig 10(d): JQ prediction vs realized BV accuracy ---\n";
  Table d({"z votes", "Average JQ", "Accuracy"});
  const BayesianVoting bv;
  for (std::size_t z : {3u, 6u, 9u, 12u, 15u, 18u, 20u}) {
    OnlineStats jq_stats;
    int correct = 0;
    for (const auto& task : dataset.campaign.tasks) {
      Jury jury;
      Votes votes;
      for (std::size_t i = 0; i < std::min<std::size_t>(z, task.answers.size());
           ++i) {
        const auto& answer = task.answers[i];
        jury.Add({"w", dataset.estimated_quality[answer.worker], 0.0});
        votes.push_back(static_cast<std::uint8_t>(answer.vote));
      }
      BucketJqOptions tight;
      tight.num_buckets = 200;
      jq_stats.Add(EstimateJq(jury, 0.5, tight).value());
      const int decided = bv.ProbZero(jury, votes, 0.5) >= 1.0 ? 0 : 1;
      correct += (decided == task.truth);
    }
    d.AddRow({std::to_string(z), FormatPercent(jq_stats.mean()),
              FormatPercent(static_cast<double>(correct) /
                            static_cast<double>(dataset.campaign.tasks.size()))});
  }
  std::cout << d.ToString()
            << "Paper shape: the two columns track each other closely — JQ "
               "is a good predictor of realized accuracy.\n";
}

}  // namespace
}  // namespace jury

int main() {
  jury::Run();
  return 0;
}
