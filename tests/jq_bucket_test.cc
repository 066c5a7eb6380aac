#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <tuple>
#include <vector>

#include "gtest/gtest.h"
#include "jq/bucket.h"
#include "jq/closed_form.h"
#include "jq/exact.h"
#include "jq/monte_carlo.h"
#include "jq/prior_transform.h"
#include "model/jury.h"
#include "model/worker.h"
#include "strategy/registry.h"
#include "test_util.h"
#include "util/math.h"
#include "util/rng.h"
#include "util/simd_dispatch.h"

namespace jury {
namespace {

using jury::testing::Figure2Jury;
using jury::testing::RandomJury;

TEST(BucketJqTest, MatchesExactOnPaperExample) {
  // Fig. 2 jury: JQ(J, BV, 0.5) = 90%.
  BucketJqOptions options;
  options.num_buckets = 200;
  EXPECT_NEAR(EstimateJq(Figure2Jury(), 0.5, options).value(), 0.9, 1e-6);
}

TEST(BucketJqTest, SingleWorker) {
  for (double q : {0.55, 0.7, 0.9}) {
    EXPECT_NEAR(EstimateJq(Jury::FromQualities({q}), 0.5).value(), q, 1e-9);
  }
}

TEST(BucketJqTest, AllCoinFlippersGiveHalf) {
  const Jury jury = Jury::FromQualities({0.5, 0.5, 0.5});
  EXPECT_DOUBLE_EQ(EstimateJq(jury, 0.5).value(), 0.5);
}

TEST(BucketJqTest, HighQualityShortcutFires) {
  BucketJqStats stats;
  const Jury jury = Jury::FromQualities({0.995, 0.6});
  const double jq = EstimateJq(jury, 0.5, {}, &stats).value();
  EXPECT_TRUE(stats.high_quality_shortcut);
  EXPECT_DOUBLE_EQ(jq, 0.995);
}

TEST(BucketJqTest, HighQualityShortcutCanBeDisabled) {
  BucketJqOptions options;
  options.high_quality_cutoff = 1.0;
  options.num_buckets = 400;
  BucketJqStats stats;
  const Jury jury = Jury::FromQualities({0.995, 0.6});
  const double jq = EstimateJq(jury, 0.5, options, &stats).value();
  EXPECT_FALSE(stats.high_quality_shortcut);
  const double exact = ExactJqBv(jury, 0.5).value();
  EXPECT_LE(jq, exact + 1e-12);
  EXPECT_NEAR(jq, exact, 0.01);
}

TEST(BucketJqTest, RejectsBadInputs) {
  EXPECT_FALSE(EstimateJq(Jury(), 0.5).ok());
  EXPECT_FALSE(EstimateJq(Figure2Jury(), 1.5).ok());
  BucketJqOptions options;
  options.num_buckets = 0;
  EXPECT_FALSE(EstimateJq(Figure2Jury(), 0.5, options).ok());
}

TEST(BucketJqTest, ErrorBoundFormula) {
  EXPECT_DOUBLE_EQ(BucketErrorBound(10, 0.0), 0.0);
  // §4.4: with upper < 5 and numBuckets = d*n, d = 200, the bound is
  // e^{5/800} - 1 < 0.627%.
  const int n = 10;
  const double delta = 5.0 / (200.0 * n);
  EXPECT_LT(BucketErrorBound(n, delta), 0.00627);
  EXPECT_GT(BucketErrorBound(n, delta), 0.0);
}

TEST(BucketJqTest, RequiredBucketMultiplier) {
  // d >= 200 guarantees < 1% error for upper <= 5 (§4.4).
  EXPECT_LE(RequiredBucketMultiplier(5.0, 0.01), 200);
  EXPECT_GE(RequiredBucketMultiplier(5.0, 0.001), 200);
  const int d = RequiredBucketMultiplier(5.0, 0.01);
  const int n = 7;
  EXPECT_LT(BucketErrorBound(n, 5.0 / (d * n)), 0.01);
}

// ------------------------------------------------------ Property sweeps

/// The §4.4 guarantees, against exact enumeration: the estimate never
/// exceeds the true JQ, and undershoots by less than the analytic bound.
class BucketGuaranteeTest
    : public ::testing::TestWithParam<std::tuple<int, int, double, int>> {};

TEST_P(BucketGuaranteeTest, UnderestimatesWithinBound) {
  const auto [n, num_buckets, alpha, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 7919 +
          static_cast<std::uint64_t>(n * 31 + num_buckets));
  const Jury jury = RandomJury(&rng, n, 0.5, 0.97);
  const double exact = ExactJqBv(jury, alpha).value();

  BucketJqOptions options;
  options.num_buckets = num_buckets;
  BucketJqStats stats;
  const double estimate = EstimateJq(jury, alpha, options, &stats).value();

  EXPECT_LE(estimate, exact + 1e-9) << "estimate must not exceed JQ";
  EXPECT_LE(exact - estimate, stats.error_bound + 1e-9)
      << "n=" << n << " buckets=" << num_buckets;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BucketGuaranteeTest,
    ::testing::Combine(::testing::Values(2, 3, 5, 8, 11),
                       ::testing::Values(10, 50, 200),
                       ::testing::Values(0.3, 0.5, 0.8),
                       ::testing::Values(1, 2)));

/// Pruning is a pure optimization: results identical.
class BucketEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BucketEquivalenceTest, PruningDoesNotChangeTheEstimate) {
  const auto [n, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 104729 +
          static_cast<std::uint64_t>(n));
  const Jury jury = RandomJury(&rng, n, 0.5, 0.97);
  BucketJqOptions with = {};
  BucketJqOptions without = {};
  without.enable_pruning = false;
  EXPECT_NEAR(EstimateJq(jury, 0.5, with).value(),
              EstimateJq(jury, 0.5, without).value(), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BucketEquivalenceTest,
    ::testing::Combine(::testing::Values(1, 2, 4, 7, 11, 15),
                       ::testing::Values(1, 2, 3)));

/// Key spaces wider than the flat array's limit (2*span+1 > 2^24) fall
/// back to the hash-map sweep. At the largest bucket count `Validate`
/// allows, both juries take it, and the §4.4 guarantees still hold.
TEST(BucketJqTest, SparseFallbackUnderestimatesWithinBound) {
  constexpr double kMixed[] = {0.95, 0.9, 0.85, 0.8};
  std::vector<double> mixed;
  for (int i = 0; i < 14; ++i) mixed.push_back(kMixed[i % 4]);
  for (const Jury& jury : {Jury::FromQualities(std::vector<double>(15, 0.98)),
                           Jury::FromQualities(mixed)}) {
    BucketJqOptions options;
    options.num_buckets = BucketJqOptions::kMaxBuckets;
    BucketJqStats stats;
    const double estimate = EstimateJq(jury, 0.5, options, &stats).value();
    ASSERT_FALSE(stats.high_quality_shortcut);

    std::int64_t span = 0;
    for (double q : jury.qualities()) {
      span += static_cast<std::int64_t>(
          std::ceil(LogOdds(EffectiveQuality(q)) / stats.delta - 0.5));
    }
    EXPECT_GT(2 * span + 1, std::int64_t{1} << 24)
        << "jury of " << jury.size() << " must take the sparse fallback";

    const double exact = ExactJqBv(jury, 0.5).value();
    EXPECT_LE(estimate, exact + 1e-12) << "estimate must not exceed JQ";
    EXPECT_LE(exact, estimate + stats.error_bound + 1e-12);
  }
}

TEST(BucketJqTest, ErrorShrinksWithMoreBuckets) {
  Rng rng(99);
  const Jury jury = RandomJury(&rng, 9, 0.5, 0.97);
  const double exact = ExactJqBv(jury, 0.5).value();
  double prev_error = 1.0;
  for (int buckets : {5, 20, 100, 500}) {
    BucketJqOptions options;
    options.num_buckets = buckets;
    const double err = exact - EstimateJq(jury, 0.5, options).value();
    EXPECT_GE(err, -1e-9);
    EXPECT_LE(err, prev_error + 1e-9);
    prev_error = err;
  }
  EXPECT_LT(prev_error, 1e-4);
}

TEST(BucketJqTest, LowQualityWorkersAreNormalized) {
  // §3.3: q and 1-q juries have identical JQ under BV.
  Rng rng(101);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> qs, flipped;
    for (int i = 0; i < 6; ++i) {
      const double q = rng.Uniform(0.5, 0.95);
      qs.push_back(q);
      flipped.push_back(i % 2 == 0 ? 1.0 - q : q);
    }
    EXPECT_NEAR(EstimateJq(Jury::FromQualities(qs), 0.5).value(),
                EstimateJq(Jury::FromQualities(flipped), 0.5).value(), 1e-10);
  }
}

TEST(BucketJqTest, PriorMatchesPseudoWorkerConstruction) {
  // Theorem 3 is the implementation (ApplyPrior); cross-check the public
  // API against the manual construction.
  Rng rng(103);
  for (int trial = 0; trial < 20; ++trial) {
    const Jury jury = RandomJury(&rng, 5, 0.5, 0.95);
    const double alpha = rng.Uniform(0.05, 0.95);
    Jury manual = jury;
    manual.Add({"pseudo", alpha, 0.0});
    EXPECT_NEAR(EstimateJq(jury, alpha).value(),
                EstimateJq(manual, 0.5).value(), 1e-10);
  }
}

TEST(BucketJqTest, StatsAreFilled) {
  BucketJqStats stats;
  Rng rng(107);
  const Jury jury = RandomJury(&rng, 8, 0.55, 0.95);
  ASSERT_TRUE(EstimateJq(jury, 0.5, {}, &stats).ok());
  EXPECT_GT(stats.delta, 0.0);
  EXPECT_GT(stats.error_bound, 0.0);
  EXPECT_GT(stats.keys_expanded, 0u);
  EXPECT_FALSE(stats.high_quality_shortcut);
}

TEST(BucketJqTest, PruningReducesWork) {
  Rng rng(109);
  const Jury jury = RandomJury(&rng, 60, 0.55, 0.95);
  BucketJqOptions pruned;
  BucketJqOptions unpruned = pruned;
  unpruned.enable_pruning = false;
  BucketJqStats with_stats, without_stats;
  ASSERT_TRUE(EstimateJq(jury, 0.5, pruned, &with_stats).ok());
  ASSERT_TRUE(EstimateJq(jury, 0.5, unpruned, &without_stats).ok());
  EXPECT_GT(with_stats.keys_pruned, 0u);
  EXPECT_LT(with_stats.keys_expanded, without_stats.keys_expanded);
}

TEST(BucketJqTest, LargeJuryAgreesWithMonteCarlo) {
  // Exact enumeration is impossible at n = 60; cross-check against MC.
  Rng rng(113);
  const Jury jury = RandomJury(&rng, 60, 0.5, 0.9);
  const double estimate = EstimateJq(jury, 0.5).value();
  auto bv = MakeStrategy("BV").value();
  Rng mc_rng(211);
  const double mc = MonteCarloJq(jury, *bv, 0.5, 100000, &mc_rng).value();
  EXPECT_NEAR(estimate, mc, 0.02);
}

// --------------------------------------------------------- Edge cases

TEST(BucketJqTest, SingleBucketStillUnderestimates) {
  Rng rng(211);
  BucketJqOptions coarse;
  coarse.num_buckets = 1;
  for (int trial = 0; trial < 10; ++trial) {
    const Jury jury = RandomJury(&rng, 6, 0.5, 0.95);
    const double exact = ExactJqBv(jury, 0.5).value();
    const double approx = EstimateJq(jury, 0.5, coarse).value();
    EXPECT_LE(approx, exact + 1e-9);
    EXPECT_GE(approx, 0.5 - 1e-9);  // never below a coin flip
  }
}

TEST(BucketJqTest, IdenticalQualitiesAreExact) {
  // With equal phi values every worker lands exactly on bucket numBuckets,
  // so the bucketed statistic is a rescaling of the true one: zero error.
  for (double q : {0.6, 0.75, 0.9}) {
    for (int n : {3, 7, 11}) {
      const Jury jury = Jury::FromQualities(
          std::vector<double>(static_cast<std::size_t>(n), q));
      EXPECT_NEAR(EstimateJq(jury, 0.5).value(),
                  ExactJqBv(jury, 0.5).value(), 1e-10)
          << "q=" << q << " n=" << n;
    }
  }
}

TEST(BucketJqTest, IdenticalOddJuryEqualsMajorityJq) {
  // For identical qualities and odd n, BV degenerates to MV (all weights
  // equal), so the bucket estimate must match the MV closed form.
  const Jury jury = Jury::FromQualities(std::vector<double>(9, 0.7));
  EXPECT_NEAR(EstimateJq(jury, 0.5).value(), MajorityJq(jury, 0.5).value(),
              1e-10);
}

TEST(BucketJqTest, ExtremePriorsPinTheEstimate) {
  Rng rng(223);
  const Jury jury = RandomJury(&rng, 5, 0.5, 0.9);
  BucketJqOptions options;
  options.high_quality_cutoff = 1.0;  // let the extreme prior through
  options.num_buckets = 400;
  EXPECT_GT(EstimateJq(jury, 0.999, options).value(), 0.998);
  EXPECT_GT(EstimateJq(jury, 0.001, options).value(), 0.998);
}

TEST(BucketJqTest, MixedExtremeAndWeakWorkers) {
  // One near-perfect worker among coin-flippers: JQ ~ the strong worker.
  BucketJqOptions options;
  options.high_quality_cutoff = 1.0;
  options.num_buckets = 800;
  const Jury jury = Jury::FromQualities({0.98, 0.5, 0.5, 0.5, 0.5});
  const double exact = ExactJqBv(jury, 0.5).value();
  EXPECT_NEAR(EstimateJq(jury, 0.5, options).value(), exact, 1e-3);
  EXPECT_NEAR(exact, 0.98, 1e-9);
}

// ------------------------------------------- Dense sweep bit identity

/// `EstimateJq` computed the original way: the same preamble (prior,
/// normalization, bucketing, decreasing-bucket sort, suffix sums) built
/// from the public helpers, then the dense sweep that zero-fills the full
/// 2*span+1 array each step and scatters every live key into it. The
/// library's windowed gather must reproduce its value and counters bit
/// for bit.
struct ScatterResult {
  double jq = 0.0;
  BucketJqStats stats;
  std::vector<std::int64_t> buckets;  // in sweep order, decreasing
};

ScatterResult ScatterReferenceJq(const Jury& jury, double alpha,
                                 const BucketJqOptions& options) {
  ScatterResult out;
  const std::vector<double> qs =
      Normalize(ApplyPrior(jury, alpha)).jury.qualities();
  if (options.high_quality_cutoff < 1.0) {
    double best = 0.0;
    for (double q : qs) {
      if (q > options.high_quality_cutoff) best = std::max(best, q);
    }
    if (best > 0.0) {
      out.stats.high_quality_shortcut = true;
      out.stats.error_bound = 1.0 - best;
      out.jq = best;
      return out;
    }
  }
  std::vector<double> phis(qs.size());
  double upper = 0.0;
  for (std::size_t i = 0; i < qs.size(); ++i) {
    phis[i] = LogOdds(EffectiveQuality(qs[i]));
    upper = std::max(upper, phis[i]);
  }
  if (upper <= 0.0) {
    out.jq = 0.5;
    return out;
  }
  const double delta = upper / static_cast<double>(options.num_buckets);
  struct Bucketed {
    std::int64_t bucket = 0;
    double quality = 0.5;
  };
  std::vector<Bucketed> ws(qs.size());
  for (std::size_t i = 0; i < qs.size(); ++i) {
    ws[i].bucket = static_cast<std::int64_t>(std::ceil(phis[i] / delta - 0.5));
    ws[i].quality = qs[i];
  }
  std::sort(ws.begin(), ws.end(), [](const auto& a, const auto& b) {
    return a.bucket > b.bucket;
  });
  for (const Bucketed& w : ws) out.buckets.push_back(w.bucket);
  std::vector<std::int64_t> aggregate(ws.size(), 0);
  std::int64_t span = 0;
  for (std::size_t i = ws.size(); i > 0; --i) {
    span += ws[i - 1].bucket;
    aggregate[i - 1] = span;
  }
  out.stats.delta = delta;
  out.stats.error_bound = BucketErrorBound(static_cast<int>(qs.size()), delta);
  EXPECT_LE(2 * span + 1, std::int64_t{1} << 24)
      << "case must stay on the dense backend";

  const std::size_t size = static_cast<std::size_t>(2 * span + 1);
  std::vector<double> cur(size, 0.0);
  std::vector<double> nxt(size, 0.0);
  cur[static_cast<std::size_t>(span)] = 1.0;
  double jq = 0.0;
  for (std::size_t i = 0; i < ws.size(); ++i) {
    std::fill(nxt.begin(), nxt.end(), 0.0);
    const std::int64_t b = ws[i].bucket;
    const double q = ws[i].quality;
    for (std::size_t idx = 0; idx < size; ++idx) {
      const double prob = cur[idx];
      if (prob <= 0.0) continue;
      const std::int64_t key = static_cast<std::int64_t>(idx) - span;
      ++out.stats.keys_expanded;
      if (options.enable_pruning) {
        if (key > 0 && key - aggregate[i] > 0) {
          jq += prob;
          ++out.stats.keys_pruned;
          continue;
        }
        if (key < 0 && key + aggregate[i] < 0) {
          ++out.stats.keys_pruned;
          continue;
        }
      }
      nxt[static_cast<std::size_t>(key + b + span)] += prob * q;
      nxt[static_cast<std::size_t>(key - b + span)] += prob * (1.0 - q);
    }
    cur.swap(nxt);
  }
  for (std::size_t idx = 0; idx < size; ++idx) {
    if (!(cur[idx] > 0.0)) continue;
    const std::int64_t key = static_cast<std::int64_t>(idx) - span;
    if (key > 0) {
      jq += cur[idx];
    } else if (key == 0) {
      jq += 0.5 * cur[idx];
    }
  }
  out.jq = std::min(jq, 1.0);
  return out;
}

std::uint64_t Bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Checks `EstimateJq` with and without a stats pointer against the
/// scatter reference; returns the reference for case-shape assertions.
ScatterResult ExpectMatchesScatter(const Jury& jury, double alpha,
                                   const BucketJqOptions& options) {
  SCOPED_TRACE(::testing::Message()
               << "n=" << jury.size() << " alpha=" << alpha
               << " buckets=" << options.num_buckets
               << " pruning=" << options.enable_pruning
               << " cutoff=" << options.high_quality_cutoff);
  const ScatterResult ref = ScatterReferenceJq(jury, alpha, options);
  BucketJqStats stats;
  EXPECT_EQ(Bits(EstimateJq(jury, alpha, options, &stats).value()),
            Bits(ref.jq));
  EXPECT_EQ(Bits(EstimateJq(jury, alpha, options).value()), Bits(ref.jq));
  EXPECT_EQ(stats.keys_expanded, ref.stats.keys_expanded);
  EXPECT_EQ(stats.keys_pruned, ref.stats.keys_pruned);
  EXPECT_EQ(Bits(stats.delta), Bits(ref.stats.delta));
  EXPECT_EQ(Bits(stats.error_bound), Bits(ref.stats.error_bound));
  EXPECT_EQ(stats.high_quality_shortcut, ref.stats.high_quality_shortcut);
  return ref;
}

BucketJqOptions SweepOptions(int num_buckets, bool pruning,
                             double cutoff = 0.99) {
  BucketJqOptions options;
  options.num_buckets = num_buckets;
  options.enable_pruning = pruning;
  options.high_quality_cutoff = cutoff;
  return options;
}

TEST(BucketJqTest, DenseSweepMatchesScatterReference) {
  // Seeded sweep: four quality mixes (sub-half workers that Normalize
  // flips, exact coin-flippers whose bucket is 0, few distinct values so
  // buckets tie), priors across (0, 1), one bucket up to the served
  // 200*(n+1), pruning on and off, and both cutoffs.
  Rng rng(4099);
  for (int trial = 0; trial < 160; ++trial) {
    const int n = 1 + static_cast<int>(rng.UniformInt(30));
    const int mix = trial % 4;
    std::vector<double> qs;
    for (int i = 0; i < n; ++i) {
      switch (mix) {
        case 0:
          qs.push_back(rng.Uniform(0.5, 0.97));
          break;
        case 1:
          qs.push_back(rng.Uniform(0.03, 0.97));
          break;
        case 2:
          qs.push_back(rng.Bernoulli(0.3) ? 0.5 : rng.Uniform(0.3, 0.9));
          break;
        default:
          qs.push_back(0.6 + 0.05 * static_cast<double>(rng.UniformInt(5)));
          break;
      }
    }
    const Jury jury = Jury::FromQualities(qs);
    const double alpha = trial % 5 == 0 ? 0.5 : rng.Uniform(0.05, 0.95);
    const double cutoff = trial % 3 == 0 ? 1.0 : 0.99;
    for (int num_buckets : {1, 7, 50, 333, 200 * (n + 1)}) {
      for (bool pruning : {true, false}) {
        ExpectMatchesScatter(jury, alpha,
                             SweepOptions(num_buckets, pruning, cutoff));
      }
    }
  }

  // Served shapes: OPTJS's tight re-evaluation of paper-pool juries.
  for (int n : {60, 90, 100}) {
    Rng pool_rng(static_cast<std::uint64_t>(n));
    std::vector<double> qs;
    for (int i = 0; i < n; ++i) {
      qs.push_back(
          pool_rng.TruncatedGaussian(0.7, 0.22360679774997896, 0.01, 0.99));
    }
    for (bool pruning : {true, false}) {
      ExpectMatchesScatter(Jury::FromQualities(qs), 0.4,
                           SweepOptions(200 * (n + 1), pruning));
    }
  }

  // Every bucket odd, so the live key parity flips at every step:
  // identical qualities (the prior's included) all land on bucket
  // num_buckets.
  for (int n : {1, 2, 5, 16}) {
    const Jury jury = Jury::FromQualities(std::vector<double>(n, 0.8));
    for (double alpha : {0.5, 0.8}) {
      for (int num_buckets : {7, 333}) {
        for (bool pruning : {true, false}) {
          const ScatterResult odd = ExpectMatchesScatter(
              jury, alpha, SweepOptions(num_buckets, pruning));
          EXPECT_EQ(odd.buckets,
                    std::vector<std::int64_t>(alpha == 0.5 ? n : n + 1,
                                              num_buckets));
        }
      }
    }
  }

  // Pruning bounds of the other parity than the live keys, so both ends
  // of the live window round inward: after the bucket-5 juror the keys
  // are ±5 and R_1 = 4 + 2 = 6; after the bucket-4 juror they are ±1 and
  // ±9 and R_2 = 2, which settles ±9.
  for (bool pruning : {true, false}) {
    const ScatterResult inward = ExpectMatchesScatter(
        Jury::FromQualities({0.9, 0.853, 0.7066}), 0.5,
        SweepOptions(5, pruning));
    EXPECT_EQ(inward.buckets, (std::vector<std::int64_t>{5, 4, 2}));
    if (pruning) {
      EXPECT_EQ(inward.stats.keys_expanded, 7u);
      EXPECT_EQ(inward.stats.keys_pruned, 2u);
    }
  }

  // b == 0 workers trail the sort, where R_i == 0 and only key 0 stays
  // live: exact coin-flippers, and (on a one-bucket grid) workers above
  // 0.5 whose log-odds round to bucket 0. The two 0.7 jurors cancel to
  // key 0, so both b == 0 steps expand it.
  for (bool pruning : {true, false}) {
    const ScatterResult coin_flippers = ExpectMatchesScatter(
        Jury::FromQualities({0.7, 0.7, 0.5, 0.5}), 0.5,
        SweepOptions(50, pruning));
    if (pruning) {
      EXPECT_EQ(coin_flippers.stats.keys_expanded, 7u);
      EXPECT_EQ(coin_flippers.stats.keys_pruned, 2u);
    }
    ExpectMatchesScatter(Jury::FromQualities({0.7, 0.7, 0.55, 0.52}), 0.52,
                         SweepOptions(1, pruning));
  }

  // q == 1.0 (and q == 0.0, which Normalize flips to 1.0): the (1-q)
  // products are exact zeros.
  for (bool pruning : {true, false}) {
    ExpectMatchesScatter(Jury::FromQualities({1.0, 0.7, 0.6}), 0.5,
                         SweepOptions(50, pruning, 1.0));
    ExpectMatchesScatter(Jury::FromQualities({1.0, 0.0, 0.8, 0.55}), 0.3,
                         SweepOptions(200 * 5, pruning, 1.0));
  }

  // A window that empties before the last worker: after the 0.95 juror
  // the keys sit at ±50, beyond what the 0.55 jurors (bucket 3 each) can
  // undo, so step 1 settles both and the sweep ends two workers early.
  const ScatterResult emptied = ExpectMatchesScatter(
      Jury::FromQualities({0.95, 0.55, 0.55, 0.55}), 0.5,
      SweepOptions(50, true));
  EXPECT_EQ(emptied.stats.keys_expanded, 3u);
  EXPECT_EQ(emptied.stats.keys_pruned, 2u);
}

TEST(BucketKeyDistributionBatchTest, FusedMassMatchesCopyConvolveSweep) {
  // The fused greedy-scan kernel must equal {copy; Convolve; PositiveMass}
  // bit for bit, across committed spans, candidate buckets larger and
  // smaller than the span, and the b == 0 no-op case.
  Rng rng(47);
  for (int committed : {0, 1, 3, 8, 20}) {
    BucketKeyDistribution dist;
    for (int i = 0; i < committed; ++i) {
      dist.Convolve(1 + static_cast<std::int64_t>(rng.UniformInt(40)),
                    rng.Uniform(0.5, 1.0));
    }
    std::vector<std::int64_t> bs;
    std::vector<double> qs;
    for (int j = 0; j < 25; ++j) {
      bs.push_back(static_cast<std::int64_t>(rng.UniformInt(60)));  // incl. 0
      qs.push_back(rng.Uniform(0.5, 1.0));
    }
    bs.push_back(0);  // exact no-op candidate
    qs.push_back(0.75);
    bs.push_back(dist.span() + 17);  // bucket beyond the committed span
    qs.push_back(0.9);
    std::vector<double> fused(bs.size());
    dist.ConvolvePositiveMassBatch(bs.data(), qs.data(), bs.size(),
                                   fused.data());
    for (std::size_t j = 0; j < bs.size(); ++j) {
      BucketKeyDistribution copy = dist;
      copy.Convolve(bs[j], qs[j]);
      EXPECT_EQ(fused[j], copy.PositiveMass())
          << "committed=" << committed << " j=" << j << " b=" << bs[j];
    }
  }
}

/// An all-key key distribution, as a bit-level reference: 2*span+1
/// entries indexed key + span, a zero-fill scatter `Convolve`, a branchy
/// `Deconvolve` and an eight-chain positive mass. The parity-compact
/// `BucketKeyDistribution` must reproduce every mass of it bit for bit.
class FullKeyReference {
 public:
  std::int64_t span() const { return span_; }

  void Convolve(std::int64_t b, double q) {
    if (b == 0) return;
    const std::int64_t new_span = span_ + b;
    scratch_.assign(static_cast<std::size_t>(2 * new_span + 1), 0.0);
    for (std::int64_t key = -span_; key <= span_; ++key) {
      const double prob = pmf_[static_cast<std::size_t>(key + span_)];
      if (prob == 0.0) continue;
      scratch_[static_cast<std::size_t>(key + b + new_span)] += prob * q;
      scratch_[static_cast<std::size_t>(key - b + new_span)] +=
          prob * (1.0 - q);
    }
    pmf_.swap(scratch_);
    span_ = new_span;
  }

  void Deconvolve(std::int64_t b, double q) {
    if (b == 0) return;
    const std::int64_t ns = span_ - b;
    scratch_.resize(static_cast<std::size_t>(2 * ns + 1));
    for (std::int64_t j = ns; j >= -ns; --j) {
      const double above =
          (j + 2 * b <= ns)
              ? scratch_[static_cast<std::size_t>(j + 2 * b + ns)]
              : 0.0;
      scratch_[static_cast<std::size_t>(j + ns)] =
          (pmf_[static_cast<std::size_t>(j + b + span_)] -
           (1.0 - q) * above) /
          q;
    }
    pmf_.swap(scratch_);
    span_ = ns;
  }

  /// 0.5 * f[key 0] plus eight chains over keys 1..span (chain
  /// (key - 1) % 8), combined ((s0+s1)+(s2+s3)) + ((s4+s5)+(s6+s7)).
  double PositiveMass() const {
    const std::int64_t s = span_;
    const double* g1 = pmf_.data() + s + 1;
    double ch[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
    std::int64_t k = 0;
    for (; k + 8 <= s; k += 8) {
      for (int r = 0; r < 8; ++r) ch[r] += g1[k + r];
    }
    for (; k < s; ++k) ch[k & 7] += g1[k];
    return 0.5 * pmf_[static_cast<std::size_t>(s)] +
           (((ch[0] + ch[1]) + (ch[2] + ch[3])) +
            ((ch[4] + ch[5]) + (ch[6] + ch[7])));
  }

  double ConvolvedMass(std::int64_t b, double q) const {
    FullKeyReference copy = *this;
    copy.Convolve(b, q);
    return copy.PositiveMass();
  }

  double DeconvolvedMass(std::int64_t b, double q) const {
    FullKeyReference copy = *this;
    copy.Deconvolve(b, q);
    return copy.PositiveMass();
  }

 private:
  std::vector<double> pmf_{1.0};
  std::vector<double> scratch_;
  std::int64_t span_ = 0;
};

struct FoldedWorker {
  std::int64_t bucket = 0;
  double quality = 0.5;
};

/// Normalized qualities with both edges of [0.5, 1] weighted in.
double ReferenceQuality(Rng& rng) {
  switch (rng.UniformInt(4)) {
    case 0:
      return 0.5;
    case 1:
      return 1.0;
    default:
      return rng.Uniform(0.5, 1.0);
  }
}

/// Asserts the committed mass and every fused add/remove candidate mass
/// equal the full-key reference bit for bit at each level in `levels`.
void ExpectMatchesFullKey(const BucketKeyDistribution& dist,
                          const FullKeyReference& ref,
                          const std::vector<FoldedWorker>& folded,
                          const std::vector<simd::Level>& levels, Rng& rng) {
  ASSERT_EQ(dist.span(), ref.span());
  const std::int64_t s = ref.span();
  // Add candidates: the no-op, the sub-block buckets, the span edges,
  // the zero gap, ordinary buckets, and one past the padding cap.
  std::vector<std::int64_t> bs = {0, 1, 2, 3, s, s + 1, s + 2,
                                  s + 3 + static_cast<std::int64_t>(
                                              rng.UniformInt(9)),
                                  4 + static_cast<std::int64_t>(
                                          rng.UniformInt(40)),
                                  2 * s + 65 + static_cast<std::int64_t>(
                                                   rng.UniformInt(7))};
  std::vector<double> qs;
  for (std::size_t j = 0; j < bs.size(); ++j) {
    qs.push_back(ReferenceQuality(rng));
  }
  // Remove candidates: every folded worker plus the b == 0 no-op.
  std::vector<std::int64_t> rbs = {0};
  std::vector<double> rqs = {0.75};
  for (const FoldedWorker& w : folded) {
    rbs.push_back(w.bucket);
    rqs.push_back(w.quality);
  }
  const std::uint64_t committed = Bits(ref.PositiveMass());
  for (const simd::Level level : levels) {
    ASSERT_TRUE(simd::SetLevel(level));
    SCOPED_TRACE(::testing::Message() << simd::LevelName(level)
                                      << " span=" << s);
    EXPECT_EQ(Bits(dist.PositiveMass()), committed);
    std::vector<double> out(bs.size());
    dist.ConvolvePositiveMassBatch(bs.data(), qs.data(), bs.size(),
                                   out.data());
    for (std::size_t j = 0; j < bs.size(); ++j) {
      EXPECT_EQ(Bits(out[j]), Bits(ref.ConvolvedMass(bs[j], qs[j])))
          << "add b=" << bs[j] << " q=" << qs[j];
    }
    std::vector<double> rout(rbs.size());
    dist.DeconvolvePositiveMassBatch(rbs.data(), rqs.data(), rbs.size(),
                                     rout.data());
    for (std::size_t j = 0; j < rbs.size(); ++j) {
      EXPECT_EQ(Bits(rout[j]), Bits(ref.DeconvolvedMass(rbs[j], rqs[j])))
          << "remove b=" << rbs[j] << " q=" << rqs[j];
    }
  }
}

TEST(BucketKeyDistributionTest, MatchesFullKeyScatterReference) {
  // Seeded fold/removal sequences through the parity-compact distribution
  // and the all-key reference: after every step the committed mass and
  // every fused candidate mass must keep the historical bits at every
  // available SIMD level. Folds mix b = 0, sub-block buckets 1..3, the
  // span edges b = span and b = span + 1, the zero gap b > span + 1 and
  // ordinary buckets, with q = 0.5 and q = 1 weighted in.
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  if (simd::Avx2Available()) levels.push_back(simd::Level::kAvx2);
  const simd::Level previous = simd::ActiveLevel();
  Rng rng(6151);
  int even_spans = 0;
  int odd_spans = 0;
  int gap_folds = 0;
  int removals = 0;
  for (int trial = 0; trial < 24; ++trial) {
    BucketKeyDistribution dist;
    FullKeyReference ref;
    std::vector<FoldedWorker> folded;
    for (int step = 0; step < 30; ++step) {
      const std::int64_t s = ref.span();
      if (!folded.empty() && rng.Bernoulli(0.3)) {
        const std::size_t pick = rng.UniformInt(folded.size());
        const FoldedWorker w = folded[pick];
        folded.erase(folded.begin() + static_cast<std::ptrdiff_t>(pick));
        dist.Deconvolve(w.bucket, w.quality);
        ref.Deconvolve(w.bucket, w.quality);
        ++removals;
      } else {
        std::int64_t b = 0;
        switch (rng.UniformInt(6)) {
          case 0:
            b = static_cast<std::int64_t>(rng.UniformInt(4));  // 0..3
            break;
          case 1:
            b = s < 60 ? s + static_cast<std::int64_t>(rng.UniformInt(2))
                       : 1;  // span edges while the span is small
            break;
          case 2:
            if (s < 60) {
              b = s + 2 + static_cast<std::int64_t>(rng.UniformInt(9));
              ++gap_folds;
            } else {
              b = 2;
            }
            break;
          default:
            b = 1 + static_cast<std::int64_t>(rng.UniformInt(40));
            break;
        }
        const double q = ReferenceQuality(rng);
        dist.Convolve(b, q);
        ref.Convolve(b, q);
        folded.push_back({b, q});
      }
      (ref.span() % 2 == 0 ? even_spans : odd_spans) += 1;
      ExpectMatchesFullKey(dist, ref, folded, levels, rng);
      if (::testing::Test::HasFailure()) break;
    }
    if (::testing::Test::HasFailure()) break;
  }
  simd::SetLevel(previous);
  if (::testing::Test::HasFailure()) return;
  EXPECT_GT(even_spans, 50);
  EXPECT_GT(odd_spans, 50);
  EXPECT_GT(gap_folds, 10);
  EXPECT_GT(removals, 50);
}

TEST(ApplyPriorTest, UninformativePriorIsIdentity) {
  const Jury jury = Figure2Jury();
  EXPECT_EQ(ApplyPrior(jury, 0.5).size(), jury.size());
  const Jury with = ApplyPrior(jury, 0.7);
  ASSERT_EQ(with.size(), jury.size() + 1);
  EXPECT_EQ(with.worker(3).id, kPriorWorkerId);
  EXPECT_DOUBLE_EQ(with.worker(3).quality, 0.7);
  EXPECT_DOUBLE_EQ(with.worker(3).cost, 0.0);
}

}  // namespace
}  // namespace jury
