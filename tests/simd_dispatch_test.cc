// Bit-identity property tests for the runtime-dispatched SIMD kernels
// (util/simd_dispatch.h): every level must reproduce the scalar reference
// — and the scalar reference must reproduce the per-candidate scalar
// compositions ({copy; AddTrial/RemoveTrial/Convolve; queries}) — bit for
// bit, across batch sizes 1–257 (odd tails, sub-block remainders) and
// unaligned buffer offsets. Plus end-to-end solver equality: every solver
// returns the identical jury under JURYOPT_SIMD=scalar and =avx2 (each
// vector sweep skips when this host cannot execute the AVX2 level).

#include <cstddef>
#include <vector>

#include "gtest/gtest.h"
#include "core/annealing.h"
#include "core/branch_bound.h"
#include "core/exhaustive.h"
#include "core/greedy.h"
#include "core/objective.h"
#include "jq/bucket.h"
#include "test_util.h"
#include "util/poisson_binomial.h"
#include "util/rng.h"
#include "util/simd_dispatch.h"

namespace jury {
namespace {

using jury::testing::RandomPool;

/// Forces a dispatch level for one scope; restores the previous level.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(simd::Level level)
      : previous_(simd::ActiveLevel()), ok_(simd::SetLevel(level)) {}
  ~ScopedSimdLevel() { simd::SetLevel(previous_); }
  bool ok() const { return ok_; }

 private:
  simd::Level previous_;
  bool ok_;
};

/// The batch sizes the sweep exercises: every size in [1, 64] (all AVX2
/// sub-block remainders), then straddles of the powers up to 257.
std::vector<std::size_t> SweepSizes() {
  std::vector<std::size_t> sizes;
  for (std::size_t s = 1; s <= 64; ++s) sizes.push_back(s);
  for (std::size_t s : {65u, 96u, 127u, 128u, 129u, 191u, 192u, 255u, 256u,
                        257u}) {
    sizes.push_back(s);
  }
  return sizes;
}

constexpr std::size_t kMaxSweep = 257;
constexpr std::size_t kOffsets[] = {0, 1, 3};  // unaligned starts

TEST(SimdDispatchTest, LevelSelectionAndNames) {
  EXPECT_STREQ(simd::LevelName(simd::Level::kScalar), "scalar");
  EXPECT_STREQ(simd::LevelName(simd::Level::kAvx2), "avx2");
  ASSERT_TRUE(simd::SetLevel(simd::Level::kScalar));
  EXPECT_EQ(simd::ActiveLevel(), simd::Level::kScalar);
  EXPECT_STREQ(simd::Kernels().name, "scalar");
  if (simd::Avx2Available()) {
    ASSERT_TRUE(simd::SetLevel(simd::Level::kAvx2));
    EXPECT_EQ(simd::ActiveLevel(), simd::Level::kAvx2);
    EXPECT_STREQ(simd::Kernels().name, "avx2");
    ASSERT_TRUE(simd::SetLevel(simd::Level::kScalar));
  } else {
    EXPECT_FALSE(simd::SetLevel(simd::Level::kAvx2));
    EXPECT_EQ(simd::ActiveLevel(), simd::Level::kScalar);
  }
}

TEST(SimdDispatchTest, ParseLevelAcceptsAllSpellings) {
  simd::Level level = simd::Level::kAvx2;
  EXPECT_TRUE(simd::ParseLevel("scalar", &level));
  EXPECT_EQ(level, simd::Level::kScalar);
  EXPECT_TRUE(simd::ParseLevel("SCALAR", &level));
  EXPECT_EQ(level, simd::Level::kScalar);
  EXPECT_TRUE(simd::ParseLevel("avx2", &level));
  EXPECT_EQ(level, simd::Level::kAvx2);
  EXPECT_TRUE(simd::ParseLevel("Avx2", &level));
  EXPECT_EQ(level, simd::Level::kAvx2);
  level = simd::Level::kAvx2;
  EXPECT_FALSE(simd::ParseLevel("avx", &level));
  EXPECT_FALSE(simd::ParseLevel("", &level));
  EXPECT_FALSE(simd::ParseLevel("sse", &level));
  EXPECT_EQ(level, simd::Level::kAvx2);  // rejected tokens leave *out alone
}

// ---------------------------------------------------------------------------
// PoissonBinomial::EvaluateBatch — the add/swap fold.
// ---------------------------------------------------------------------------

void EvaluateBatchSweep(simd::Level level) {
  ScopedSimdLevel scoped(level);
  ASSERT_TRUE(scoped.ok());
  Rng rng(90101);
  for (int n : {0, 1, 7, 38}) {
    std::vector<double> committed;
    for (int i = 0; i < n; ++i) committed.push_back(rng.Uniform(0.05, 0.95));
    const PoissonBinomial pb(committed);
    std::vector<double> pool(kMaxSweep + 8);
    for (double& p : pool) p = rng.Uniform();
    pool[0] = 0.0;  // degenerate candidates in every offset window
    pool[4] = 1.0;
    pool[5] = 0.5;
    for (const std::size_t offset : kOffsets) {
      for (const std::size_t count : SweepSizes()) {
        const double* probs = pool.data() + offset;
        // Odd tail thresholds, including out-of-range ones.
        for (int k : {-1, 0, 1, (n + 1) / 2 + 1, n + 1, n + 2}) {
          std::vector<double> tails(count), cdfs(count);
          pb.EvaluateBatch(probs, count, k, k - 1, tails.data(),
                           cdfs.data());
          for (std::size_t j = 0; j < count; ++j) {
            PoissonBinomial copy = pb;
            copy.AddTrial(probs[j]);
            ASSERT_EQ(tails[j], copy.TailAtLeast(k))
                << simd::LevelName(level) << " n=" << n << " count=" << count
                << " offset=" << offset << " k=" << k << " j=" << j;
            ASSERT_EQ(cdfs[j], copy.CdfAtMost(k - 1))
                << simd::LevelName(level) << " n=" << n << " count=" << count
                << " offset=" << offset << " k=" << k << " j=" << j;
          }
        }
      }
    }
  }
}

TEST(SimdDispatchTest, EvaluateBatchMatchesScalarCompositionScalarLevel) {
  EvaluateBatchSweep(simd::Level::kScalar);
}

TEST(SimdDispatchTest, EvaluateBatchMatchesScalarCompositionAvx2Level) {
  if (!simd::Avx2Available()) GTEST_SKIP() << "AVX2 unavailable";
  EvaluateBatchSweep(simd::Level::kAvx2);
}

// ---------------------------------------------------------------------------
// PoissonBinomial::EvaluateRemoveBatch — the remove fold.
// ---------------------------------------------------------------------------

void RemoveBatchSweep(simd::Level level) {
  ScopedSimdLevel scoped(level);
  ASSERT_TRUE(scoped.ok());
  Rng rng(90103);
  for (int n : {1, 2, 9, 41}) {
    // Trials spanning both deconvolution regimes plus the exact inverses.
    std::vector<double> committed;
    committed.push_back(0.0);
    if (n > 1) committed.push_back(1.0);
    while (static_cast<int>(committed.size()) < n) {
      committed.push_back(rng.Uniform(0.05, 0.95));
    }
    const PoissonBinomial pb(committed);
    // Candidate pool cycling through the committed trials so every batch
    // hits forward (p < 1/2), backward (p >= 1/2), and degenerate lanes.
    std::vector<double> pool(kMaxSweep + 8);
    for (std::size_t j = 0; j < pool.size(); ++j) {
      pool[j] = committed[j % committed.size()];
    }
    for (const std::size_t offset : kOffsets) {
      for (const std::size_t count : SweepSizes()) {
        const double* probs = pool.data() + offset;
        for (int k : {-1, 0, 1, n / 2 + 1, n - 1, n}) {
          std::vector<double> tails(count), cdfs(count);
          pb.EvaluateRemoveBatch(probs, count, k, k - 1, tails.data(),
                                 cdfs.data());
          for (std::size_t j = 0; j < count; ++j) {
            PoissonBinomial copy = pb;
            copy.RemoveTrial(probs[j]);
            ASSERT_EQ(tails[j], copy.TailAtLeast(k))
                << simd::LevelName(level) << " n=" << n << " count=" << count
                << " offset=" << offset << " k=" << k << " j=" << j
                << " p=" << probs[j];
            ASSERT_EQ(cdfs[j], copy.CdfAtMost(k - 1))
                << simd::LevelName(level) << " n=" << n << " count=" << count
                << " offset=" << offset << " k=" << k << " j=" << j
                << " p=" << probs[j];
          }
        }
      }
    }
  }
}

TEST(SimdDispatchTest, RemoveBatchMatchesScalarCompositionScalarLevel) {
  RemoveBatchSweep(simd::Level::kScalar);
}

TEST(SimdDispatchTest, RemoveBatchMatchesScalarCompositionAvx2Level) {
  if (!simd::Avx2Available()) GTEST_SKIP() << "AVX2 unavailable";
  RemoveBatchSweep(simd::Level::kAvx2);
}

// ---------------------------------------------------------------------------
// BucketKeyDistribution::ConvolvePositiveMassBatch — the bucket add fold —
// and DeconvolvePositiveMass — the bucket remove fold.
// ---------------------------------------------------------------------------

void BucketBatchSweep(simd::Level level) {
  ScopedSimdLevel scoped(level);
  ASSERT_TRUE(scoped.ok());
  Rng rng(90107);
  for (int workers : {0, 1, 12, 40}) {
    BucketKeyDistribution dist;
    std::vector<std::int64_t> folded_b;
    std::vector<double> folded_q;
    for (int i = 0; i < workers; ++i) {
      folded_b.push_back(1 + static_cast<std::int64_t>(rng.UniformInt(40)));
      folded_q.push_back(rng.Uniform(0.5, 0.95));
      dist.Convolve(folded_b.back(), folded_q.back());
    }
    // Candidate buckets: zeros, small, span-straddling, beyond-span.
    std::vector<std::int64_t> bpool(kMaxSweep + 8);
    std::vector<double> qpool(kMaxSweep + 8);
    for (std::size_t j = 0; j < bpool.size(); ++j) {
      switch (j % 5) {
        case 0: bpool[j] = 0; break;
        case 1: bpool[j] = 1 + static_cast<std::int64_t>(rng.UniformInt(10));
                break;
        case 2: bpool[j] = std::max<std::int64_t>(1, dist.span()); break;
        case 3: bpool[j] = dist.span() + 1 +
                           static_cast<std::int64_t>(rng.UniformInt(20));
                break;
        default: bpool[j] = 2 * dist.span() + 3; break;
      }
      qpool[j] = rng.Uniform(0.5, 1.0);
    }
    for (const std::size_t offset : kOffsets) {
      for (const std::size_t count : SweepSizes()) {
        std::vector<double> out(count);
        dist.ConvolvePositiveMassBatch(bpool.data() + offset,
                                       qpool.data() + offset, count,
                                       out.data());
        for (std::size_t j = 0; j < count; ++j) {
          BucketKeyDistribution copy = dist;
          copy.Convolve(bpool[offset + j], qpool[offset + j]);
          ASSERT_EQ(out[j], copy.PositiveMass())
              << simd::LevelName(level) << " workers=" << workers
              << " count=" << count << " offset=" << offset << " j=" << j
              << " b=" << bpool[offset + j];
        }
      }
    }
    // Remove fold: deconvolving any previously folded worker must equal
    // the scalar copy-deconvolve-sweep bit for bit.
    for (int i = 0; i < workers; ++i) {
      BucketKeyDistribution copy = dist;
      copy.Deconvolve(folded_b[static_cast<std::size_t>(i)],
                      folded_q[static_cast<std::size_t>(i)]);
      ASSERT_EQ(dist.DeconvolvePositiveMass(
                    folded_b[static_cast<std::size_t>(i)],
                    folded_q[static_cast<std::size_t>(i)]),
                copy.PositiveMass())
          << "workers=" << workers << " i=" << i;
    }
  }
}

TEST(SimdDispatchTest, BucketBatchMatchesScalarCompositionScalarLevel) {
  BucketBatchSweep(simd::Level::kScalar);
}

TEST(SimdDispatchTest, BucketBatchMatchesScalarCompositionAvx2Level) {
  if (!simd::Avx2Available()) GTEST_SKIP() << "AVX2 unavailable";
  BucketBatchSweep(simd::Level::kAvx2);
}

// ---------------------------------------------------------------------------
// BucketKeyDistribution::DeconvolvePositiveMassBatch — the batched bucket
// remove/swap fold (the `deconvolve_mass` kernel).
// ---------------------------------------------------------------------------

void DeconvolveBatchSweep(simd::Level level) {
  ScopedSimdLevel scoped(level);
  ASSERT_TRUE(scoped.ok());
  Rng rng(90113);
  // Worker counts chosen so the backward recurrence sees spans from tiny
  // (vector paths must fall back to the scalar tail) to hundreds of keys.
  for (int workers : {1, 2, 3, 9, 40}) {
    BucketKeyDistribution dist;
    std::vector<std::int64_t> folded_b;
    std::vector<double> folded_q;
    for (int i = 0; i < workers; ++i) {
      // Buckets from 1 (2b below every vector width) through 40 (deep
      // lane-width blocks), qualities across the whole legal range
      // including the q = 1 degenerate edge.
      folded_b.push_back(1 + static_cast<std::int64_t>(rng.UniformInt(40)));
      folded_q.push_back(i % 7 == 0 ? 1.0 : rng.Uniform(0.5, 0.95));
      dist.Convolve(folded_b.back(), folded_q.back());
    }
    // Candidate pool cycling through the folded workers, with b = 0
    // no-op candidates interleaved so every batch exercises the shared
    // committed-mass shortcut.
    std::vector<std::int64_t> bpool(kMaxSweep + 8);
    std::vector<double> qpool(kMaxSweep + 8);
    for (std::size_t j = 0; j < bpool.size(); ++j) {
      if (j % 5 == 4) {
        bpool[j] = 0;
        qpool[j] = rng.Uniform(0.5, 1.0);  // ignored for b == 0
      } else {
        const std::size_t i = j % folded_b.size();
        bpool[j] = folded_b[i];
        qpool[j] = folded_q[i];
      }
    }
    for (const std::size_t offset : kOffsets) {
      for (const std::size_t count : SweepSizes()) {
        std::vector<double> out(count);
        dist.DeconvolvePositiveMassBatch(bpool.data() + offset,
                                         qpool.data() + offset, count,
                                         out.data());
        for (std::size_t j = 0; j < count; ++j) {
          BucketKeyDistribution copy = dist;
          copy.Deconvolve(bpool[offset + j], qpool[offset + j]);
          ASSERT_EQ(out[j], copy.PositiveMass())
              << simd::LevelName(level) << " workers=" << workers
              << " count=" << count << " offset=" << offset << " j=" << j
              << " b=" << bpool[offset + j] << " q=" << qpool[offset + j];
        }
      }
    }
  }
}

TEST(SimdDispatchTest, DeconvolveBatchMatchesScalarCompositionScalarLevel) {
  DeconvolveBatchSweep(simd::Level::kScalar);
}

TEST(SimdDispatchTest, DeconvolveBatchMatchesScalarCompositionAvx2Level) {
  if (!simd::Avx2Available()) GTEST_SKIP() << "AVX2 unavailable";
  DeconvolveBatchSweep(simd::Level::kAvx2);
}

// ---------------------------------------------------------------------------
// Cross-level equality: the same batched calls under scalar and each
// available vector level produce bit-identical outputs (stronger than all
// matching the composition — it pins the dispatch seam itself).
// ---------------------------------------------------------------------------

/// The vector levels this host can actually run (compiled + supported).
std::vector<simd::Level> AvailableVectorLevels() {
  std::vector<simd::Level> levels;
  if (simd::Avx2Available()) levels.push_back(simd::Level::kAvx2);
  return levels;
}

TEST(SimdDispatchTest, LevelsAgreeBitForBitOnRandomBatches) {
  const std::vector<simd::Level> vector_levels = AvailableVectorLevels();
  if (vector_levels.empty()) GTEST_SKIP() << "no vector level available";
  Rng rng(90109);
  std::vector<double> committed;
  for (int i = 0; i < 29; ++i) committed.push_back(rng.Uniform(0.05, 0.95));
  const PoissonBinomial pb(committed);
  std::vector<double> probs;
  for (int j = 0; j < 153; ++j) probs.push_back(rng.Uniform());
  const int k = 16;

  BucketKeyDistribution dist;
  std::vector<std::int64_t> folded_b;
  std::vector<double> folded_q;
  for (int i = 0; i < 23; ++i) {
    folded_b.push_back(1 + static_cast<std::int64_t>(rng.UniformInt(30)));
    folded_q.push_back(rng.Uniform(0.5, 0.95));
    dist.Convolve(folded_b.back(), folded_q.back());
  }
  std::vector<std::int64_t> bs;
  std::vector<double> qs;
  for (int j = 0; j < 153; ++j) {
    const std::size_t i = static_cast<std::size_t>(j) % folded_b.size();
    bs.push_back(j % 6 == 5 ? 0 : folded_b[i]);
    qs.push_back(folded_q[i]);
  }

  std::vector<double> tails_s(probs.size()), cdfs_s(probs.size());
  std::vector<double> deconv_s(bs.size());
  {
    ScopedSimdLevel scalar(simd::Level::kScalar);
    pb.EvaluateBatch(probs.data(), probs.size(), k, k - 1, tails_s.data(),
                     cdfs_s.data());
    dist.DeconvolvePositiveMassBatch(bs.data(), qs.data(), bs.size(),
                                     deconv_s.data());
  }
  for (const simd::Level level : vector_levels) {
    std::vector<double> tails_v(probs.size()), cdfs_v(probs.size());
    std::vector<double> deconv_v(bs.size());
    {
      ScopedSimdLevel scoped(level);
      ASSERT_TRUE(scoped.ok());
      pb.EvaluateBatch(probs.data(), probs.size(), k, k - 1, tails_v.data(),
                       cdfs_v.data());
      dist.DeconvolvePositiveMassBatch(bs.data(), qs.data(), bs.size(),
                                       deconv_v.data());
    }
    for (std::size_t j = 0; j < probs.size(); ++j) {
      ASSERT_EQ(tails_s[j], tails_v[j]) << simd::LevelName(level) << " " << j;
      ASSERT_EQ(cdfs_s[j], cdfs_v[j]) << simd::LevelName(level) << " " << j;
    }
    for (std::size_t j = 0; j < bs.size(); ++j) {
      ASSERT_EQ(deconv_s[j], deconv_v[j])
          << simd::LevelName(level) << " deconv " << j;
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end: solvers return the identical jury at every dispatch level
// (the JURYOPT_SIMD=scalar vs =avx2 equality run, in-process).
// Annealing's polish scans drive the batched remove and swap folds —
// including the bucket deconvolve kernel — so this covers every kernel on
// every available level, not just the add fold.
// ---------------------------------------------------------------------------

TEST(SimdDispatchTest, SolversReturnIdenticalJuriesAcrossLevels) {
  std::vector<simd::Level> levels{simd::Level::kScalar};
  for (const simd::Level vector_level : AvailableVectorLevels()) {
    levels.push_back(vector_level);
  }
  if (levels.size() < 2) GTEST_SKIP() << "no vector level available";
  Rng rng(90111);
  const BucketBvObjective bucket;
  const MajorityObjective majority;
  for (int inst = 0; inst < 8; ++inst) {
    const std::vector<Worker> pool = RandomPool(&rng, 12, 0.4, 0.95, 0.05, 0.4);
    JspInstance instance;
    instance.candidates = pool;
    instance.budget = rng.Uniform(0.3, 1.0);
    instance.alpha = 0.5;
    const std::uint64_t seed = 7100 + static_cast<std::uint64_t>(inst);
    const WorkerPoolView view(instance.candidates);

    JspSolution ref_sa, ref_greedy, ref_mv_greedy, ref_ex, ref_bb;
    bool have_ref = false;
    for (const simd::Level level : levels) {
      ScopedSimdLevel scoped(level);
      ASSERT_TRUE(scoped.ok());
      Rng sa_rng(seed);
      const auto sa = SolveAnnealing(instance, view, bucket, &sa_rng).value();
      const auto greedy =
          SolveGreedyMarginalGain(instance, view, bucket, {}).value();
      const auto mv_greedy =
          SolveGreedyMarginalGain(instance, view, majority, {}).value();
      const auto ex = SolveExhaustive(instance, view, bucket, {}).value();
      const auto bb = SolveBranchAndBound(instance, view, bucket, {}).value();
      if (!have_ref) {
        ref_sa = sa;
        ref_greedy = greedy;
        ref_mv_greedy = mv_greedy;
        ref_ex = ex;
        ref_bb = bb;
        have_ref = true;
        continue;
      }
      EXPECT_EQ(sa.selected, ref_sa.selected) << "sa inst " << inst;
      EXPECT_EQ(sa.jq, ref_sa.jq) << "sa inst " << inst;
      EXPECT_EQ(greedy.selected, ref_greedy.selected) << "greedy " << inst;
      EXPECT_EQ(greedy.jq, ref_greedy.jq) << "greedy " << inst;
      EXPECT_EQ(mv_greedy.selected, ref_mv_greedy.selected)
          << "mv greedy " << inst;
      EXPECT_EQ(mv_greedy.jq, ref_mv_greedy.jq) << "mv greedy " << inst;
      EXPECT_EQ(ex.selected, ref_ex.selected) << "exhaustive " << inst;
      EXPECT_EQ(ex.jq, ref_ex.jq) << "exhaustive " << inst;
      EXPECT_EQ(bb.selected, ref_bb.selected) << "branch-bound " << inst;
      EXPECT_EQ(bb.jq, ref_bb.jq) << "branch-bound " << inst;
    }
  }
}

}  // namespace
}  // namespace jury
