// E18 — §7 extension: multi-class tasks under the confusion-matrix worker
// model. (1) accuracy of the tuple-key bucketed JQ vs exact enumeration;
// (2) multi-class JSP: annealing vs exhaustive; (3) spammer-score ranking
// as a selection heuristic.

#include <cmath>
#include <iostream>

#include "bench_util.h"
#include "multiclass/jq_bucket.h"
#include "multiclass/jq_exact.h"
#include "multiclass/jsp.h"
#include "multiclass/spammer.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/timer.h"

namespace jury::mc {
namespace {

ConfusionMatrix RandomConfusion(Rng* rng, std::size_t labels) {
  ConfusionMatrix cm = ConfusionMatrix::UniformSpammer(labels);
  for (std::size_t j = 0; j < labels; ++j) {
    double sum = 0.0;
    std::vector<double> row(labels);
    for (std::size_t k = 0; k < labels; ++k) {
      row[k] = rng->Uniform(0.05, 1.0) * (j == k ? 2.5 : 1.0);
      sum += row[k];
    }
    for (std::size_t k = 0; k < labels; ++k) cm.at(j, k) = row[k] / sum;
  }
  return cm;
}

void JqAccuracy(int reps) {
  std::cout << "\n--- Bucketed multi-class JQ vs exact (n = 5) ---\n";
  Table table({"labels", "buckets", "mean |error|", "max |error|"});
  for (std::size_t labels : {2u, 3u, 4u}) {
    for (int buckets : {32, 128, 512}) {
      Rng rng(static_cast<std::uint64_t>(labels) * 1000 +
              static_cast<std::uint64_t>(buckets));
      OnlineStats err;
      double max_err = 0.0;
      for (int rep = 0; rep < reps; ++rep) {
        McJury jury;
        for (int i = 0; i < 5; ++i) {
          jury.Add({"w", RandomConfusion(&rng, labels), 0.0});
        }
        const McPrior prior = UniformMcPrior(labels);
        const double exact = ExactMcJq(jury, prior).value();
        McBucketOptions options;
        options.num_buckets = buckets;
        const double approx = EstimateMcJq(jury, prior, options).value();
        const double e = std::fabs(exact - approx);
        err.Add(e);
        max_err = std::max(max_err, e);
      }
      table.AddRow({std::to_string(labels), std::to_string(buckets),
                    FormatPercent(err.mean(), 4),
                    FormatPercent(max_err, 4)});
    }
  }
  std::cout << table.ToString();
}

void JspComparison(int reps) {
  std::cout << "\n--- Multi-class JSP: annealing vs exhaustive (N = 8, "
               "l = 3) ---\n";
  OnlineStats gap, sa_time, ex_time;
  Rng rng(424243);
  for (int rep = 0; rep < reps; ++rep) {
    McJspInstance instance;
    instance.budget = 1.0;
    instance.prior = UniformMcPrior(3);
    Rng pool_rng = rng.Fork();
    for (int i = 0; i < 8; ++i) {
      std::string id = "c";
      id += std::to_string(i);
      instance.candidates.emplace_back(
          std::move(id), RandomConfusion(&pool_rng, 3),
          pool_rng.TruncatedGaussian(0.3, 0.2, 0.05, 1e9));
    }
    Timer t_ex;
    const auto exhaustive = SolveMcExhaustive(instance).value();
    ex_time.Add(t_ex.ElapsedSeconds());
    Rng sa_rng = rng.Fork();
    Timer t_sa;
    const auto sa = SolveMcAnnealing(instance, &sa_rng).value();
    sa_time.Add(t_sa.ElapsedSeconds());
    gap.Add(exhaustive.jq - sa.jq);
  }
  Table table({"metric", "value"});
  table.AddRow({"mean JQ gap (exhaustive - SA)", FormatPercent(gap.mean(), 3)});
  table.AddRow({"max JQ gap", FormatPercent(gap.max(), 3)});
  table.AddRow({"mean SA time (s)", Format(sa_time.mean(), 5)});
  table.AddRow({"mean exhaustive time (s)", Format(ex_time.mean(), 5)});
  std::cout << table.ToString();
}

void SpammerHeuristic(int reps) {
  std::cout << "\n--- Spammer-score ranking as a selection heuristic "
               "(uniform costs, pick 3 of 8, l = 3) ---\n";
  OnlineStats by_score, random_pick, optimal;
  Rng rng(515151);
  for (int rep = 0; rep < reps; ++rep) {
    McJury pool;
    Rng pool_rng = rng.Fork();
    for (int i = 0; i < 8; ++i) {
      std::string id = "w";
      id += std::to_string(i);
      pool.Add({std::move(id), RandomConfusion(&pool_rng, 3), 1.0});
    }
    const McPrior prior = UniformMcPrior(3);
    // Top-3 by informativeness.
    const auto order = RankWorkersByInformativeness(pool).value();
    McJury ranked;
    for (int i = 0; i < 3; ++i) ranked.Add(pool.worker(order[static_cast<std::size_t>(i)]));
    by_score.Add(ExactMcJq(ranked, prior).value());
    // Random 3.
    Rng pick_rng = rng.Fork();
    McJury random_jury;
    for (std::size_t idx : pick_rng.SampleWithoutReplacement(8, 3)) {
      random_jury.Add(pool.worker(idx));
    }
    random_pick.Add(ExactMcJq(random_jury, prior).value());
    // Best 3 by enumeration.
    double best = 0.0;
    for (std::size_t a = 0; a < 8; ++a) {
      for (std::size_t b = a + 1; b < 8; ++b) {
        for (std::size_t c = b + 1; c < 8; ++c) {
          McJury jury;
          jury.Add(pool.worker(a));
          jury.Add(pool.worker(b));
          jury.Add(pool.worker(c));
          best = std::max(best, ExactMcJq(jury, prior).value());
        }
      }
    }
    optimal.Add(best);
  }
  Table table({"selection", "mean JQ"});
  table.AddRow({"optimal 3-subset", FormatPercent(optimal.mean())});
  table.AddRow({"top-3 spammer score", FormatPercent(by_score.mean())});
  table.AddRow({"random 3", FormatPercent(random_pick.mean())});
  std::cout << table.ToString()
            << "The §7 conjecture in action: confusion-matrix quality has "
               "no total order, but spammer score is a strong heuristic.\n";
}

void Run() {
  const int reps = static_cast<int>(bench::Reps(30));
  bench::PrintHeader("§7 extension — multi-class / confusion-matrix model",
                     std::to_string(reps) + " repetitions per cell.");
  JqAccuracy(reps);
  JspComparison(std::max(1, reps / 3));
  SpammerHeuristic(reps);
}

}  // namespace
}  // namespace jury::mc

int main() {
  jury::mc::Run();
  return 0;
}
