// E11-E14 — Figure 9: the JQ(J, BV, 0.5) computation itself.
// (a) JQ vs mu for several quality variances;
// (b) approximation error vs numBuckets;
// (c) error histogram at numBuckets = 50;
// (d) runtime with vs without the Algorithm-2 pruning for n up to 500.

#include <cmath>
#include <iostream>

#include "bench_util.h"
#include "jq/bucket.h"
#include "jq/exact.h"
#include "util/histogram.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/timer.h"

namespace jury {
namespace {

Jury SampleJury(Rng* rng, int n, double mu, double sigma) {
  std::vector<double> qs;
  for (int i = 0; i < n; ++i) {
    qs.push_back(rng->TruncatedGaussian(mu, sigma, 0.01, 0.99));
  }
  return Jury::FromQualities(qs);
}

void Fig9a(int reps) {
  std::cout << "\n--- Fig 9(a): JQ(BV) vs mu for quality variances ---\n";
  const std::vector<double> variances{0.01, 0.03, 0.05, 0.10};
  std::vector<std::string> header{"mu"};
  for (double v : variances) header.push_back("Var=" + Format(v, 2));
  Table table(header);
  for (double mu : {0.5, 0.6, 0.7, 0.8, 0.9, 1.0}) {
    std::vector<std::string> row{Format(mu, 1)};
    for (double variance : variances) {
      Rng rng(static_cast<std::uint64_t>(mu * 1000 + variance * 100000));
      OnlineStats stats;
      for (int rep = 0; rep < reps; ++rep) {
        const Jury jury = SampleJury(&rng, 11, mu, std::sqrt(variance));
        BucketJqOptions options;
        options.num_buckets = 400;
        stats.Add(EstimateJq(jury, 0.5, options).value());
      }
      row.push_back(FormatPercent(stats.mean()));
    }
    table.AddRow(std::move(row));
  }
  std::cout << table.ToString()
            << "Paper shape: at mu=0.5 the highest-variance curve wins "
               "(outliers become informative under BV).\n";
}

void Fig9b(int reps) {
  std::cout << "\n--- Fig 9(b): approximation error vs numBuckets ---\n";
  Table table({"numBuckets", "mean error", "max error"});
  for (int buckets : {10, 25, 50, 100, 150, 200}) {
    Rng rng(static_cast<std::uint64_t>(buckets) * 101);
    OnlineStats err;
    double max_err = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      const Jury jury = SampleJury(&rng, 11, 0.7, 0.22360679774997896);
      const double exact = ExactJqBv(jury, 0.5).value();
      BucketJqOptions options;
      options.num_buckets = buckets;
      const double approx = EstimateJq(jury, 0.5, options).value();
      err.Add(exact - approx);
      max_err = std::max(max_err, exact - approx);
    }
    table.AddRow({std::to_string(buckets), FormatPercent(err.mean(), 4),
                  FormatPercent(max_err, 4)});
  }
  std::cout << table.ToString()
            << "Paper shape: error drops sharply with numBuckets, near zero "
               "by 200.\n";
}

void Fig9c(int reps) {
  std::cout << "\n--- Fig 9(c): error histogram at numBuckets = 50 ---\n";
  Histogram hist(0.0, 0.0001, 10);  // 0 .. 0.01% in 10 bins
  Rng rng(2718);
  for (int rep = 0; rep < reps * 5; ++rep) {
    const Jury jury = SampleJury(&rng, 11, 0.7, 0.22360679774997896);
    const double exact = ExactJqBv(jury, 0.5).value();
    const double approx = EstimateJq(jury, 0.5).value();  // numBuckets = 50
    hist.Add(exact - approx);
  }
  std::cout << hist.ToString()
            << "Paper shape: heavily skewed towards ~0; max error within "
               "0.01%.\n";
}

void Fig9d(int reps) {
  std::cout << "\n--- Fig 9(d): JQ runtime, pruning on vs off (seconds) ---\n";
  Table table({"n", "with pruning", "without pruning", "speedup"});
  for (int n : {100, 200, 300, 400, 500}) {
    Rng rng(static_cast<std::uint64_t>(n) * 7);
    OnlineStats with_time, without_time;
    for (int rep = 0; rep < reps; ++rep) {
      const Jury jury = SampleJury(&rng, n, 0.7, 0.22360679774997896);
      BucketJqOptions pruned;
      BucketJqOptions unpruned = pruned;
      unpruned.enable_pruning = false;
      Timer t1;
      (void)EstimateJq(jury, 0.5, pruned).value();
      with_time.Add(t1.ElapsedSeconds());
      Timer t2;
      (void)EstimateJq(jury, 0.5, unpruned).value();
      without_time.Add(t2.ElapsedSeconds());
    }
    table.AddRow({std::to_string(n), Format(with_time.mean(), 5),
                  Format(without_time.mean(), 5),
                  Format(without_time.mean() /
                             std::max(with_time.mean(), 1e-9),
                         2) +
                      "x"});
  }
  std::cout << table.ToString()
            << "Paper shape: pruning saves more than half the cost and "
               "scales well (their Python: 2.5s -> <1s at n=500).\n";
}

void Run() {
  const int reps = static_cast<int>(bench::Reps(100));
  bench::PrintHeader(
      "Figure 9 — JQ(J, BV, 0.5) computation",
      "Qualities ~ N(mu, sigma^2) truncated; " + std::to_string(reps) +
          " reps per point (paper: 1000).");
  Fig9a(reps);
  Fig9b(reps);
  Fig9c(reps);
  Fig9d(std::max(1, reps / 20));
}

}  // namespace
}  // namespace jury

int main() {
  jury::Run();
  return 0;
}
