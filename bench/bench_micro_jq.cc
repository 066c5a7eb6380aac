// google-benchmark microbenchmarks of the JQ kernels: the bucketed
// Algorithm-1 estimator (pruning x n), the exact MV
// Poisson-binomial DP, the 2^n exact enumerator, and the SA solver.

#include <benchmark/benchmark.h>

#include "core/annealing.h"
#include "core/objective.h"
#include "jq/bucket.h"
#include "jq/closed_form.h"
#include "jq/exact.h"
#include "model/jury.h"
#include "model/worker_pool_view.h"
#include "util/cancellation.h"
#include "util/poisson_binomial.h"
#include "util/rng.h"
#include "util/simd_dispatch.h"

namespace jury {
namespace {

Jury MakeJury(int n, std::uint64_t seed = 99) {
  Rng rng(seed);
  std::vector<double> qs;
  for (int i = 0; i < n; ++i) {
    qs.push_back(rng.TruncatedGaussian(0.7, 0.22360679774997896, 0.01, 0.99));
  }
  return Jury::FromQualities(qs);
}

/// Commits view indices [0, count) to `session`, in order.
void CommitPrefix(IncrementalJqEvaluator* session, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    session->ScoreAdd(i);
    session->Commit();
  }
}

void BM_EstimateJqDense(benchmark::State& state) {
  const Jury jury = MakeJury(static_cast<int>(state.range(0)));
  BucketJqOptions options;
  for (auto _ : state) {
    benchmark::DoNotOptimize(EstimateJq(jury, 0.5, options).value());
  }
}
BENCHMARK(BM_EstimateJqDense)->Arg(10)->Arg(50)->Arg(100)->Arg(200)->Arg(500);

void BM_EstimateJqNoPruning(benchmark::State& state) {
  const Jury jury = MakeJury(static_cast<int>(state.range(0)));
  BucketJqOptions options;
  options.enable_pruning = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(EstimateJq(jury, 0.5, options).value());
  }
}
BENCHMARK(BM_EstimateJqNoPruning)->Arg(10)->Arg(50)->Arg(100)->Arg(200);

void BM_EstimateJqHighResolution(benchmark::State& state) {
  // The d = 200 per-worker setting that guarantees the <1% bound.
  const int n = static_cast<int>(state.range(0));
  const Jury jury = MakeJury(n);
  BucketJqOptions options;
  options.num_buckets = 200 * n;
  for (auto _ : state) {
    benchmark::DoNotOptimize(EstimateJq(jury, 0.5, options).value());
  }
}
BENCHMARK(BM_EstimateJqHighResolution)->Arg(10)->Arg(25)->Arg(50)->Arg(100);

void BM_MajorityJqDp(benchmark::State& state) {
  const Jury jury = MakeJury(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(MajorityJq(jury, 0.5).value());
  }
}
BENCHMARK(BM_MajorityJqDp)->Arg(10)->Arg(100)->Arg(500);

void BM_ExactJqEnumeration(benchmark::State& state) {
  const Jury jury = MakeJury(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExactJqBv(jury, 0.5).value());
  }
}
BENCHMARK(BM_ExactJqEnumeration)->Arg(8)->Arg(12)->Arg(16)->Arg(20);

/// One SA-style swap scored by session delta update vs the from-scratch
/// estimate the solvers used to pay per move. The swap-in worker is
/// appended to the committed jury's pool.
void IncrementalSwap(benchmark::State& state, const JqObjective& objective) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<Worker> pool = MakeJury(static_cast<int>(n)).workers();
  pool.emplace_back("swap-in", 0.72, 0.0);
  const WorkerPoolView view(pool);
  auto session = objective.StartSession(view, 0.5);
  CommitPrefix(session.get(), n);
  std::size_t idx = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(session->ScoreSwap(idx % n, n));
    session->Rollback();
    ++idx;
  }
}

void BM_IncrementalSwapBucket(benchmark::State& state) {
  IncrementalSwap(state, BucketBvObjective());
}
BENCHMARK(BM_IncrementalSwapBucket)->Arg(10)->Arg(50)->Arg(100)->Arg(200)->Arg(500);

void BM_IncrementalSwapMajority(benchmark::State& state) {
  IncrementalSwap(state, MajorityObjective());
}
BENCHMARK(BM_IncrementalSwapMajority)->Arg(10)->Arg(100)->Arg(500);

void BM_PoissonBinomialTailAfterDelta(benchmark::State& state) {
  // Regression case for the cached suffix/prefix sums: the MV session's
  // per-move kernel — one AddTrial + RemoveTrial delta followed by a
  // Tail/Cdf pair — must cost one O(n) cache rebuild, not two O(n)
  // sweeps (and repeat queries must be O(1), covered below).
  const int n = static_cast<int>(state.range(0));
  Rng rng(31);
  std::vector<double> probs;
  for (int i = 0; i < n; ++i) probs.push_back(rng.Uniform(0.3, 0.95));
  PoissonBinomial pb(probs);
  const int k = n / 2 + 1;
  for (auto _ : state) {
    pb.RemoveTrial(probs[0]);
    pb.AddTrial(probs[0]);
    benchmark::DoNotOptimize(pb.TailAtLeast(k));
    benchmark::DoNotOptimize(pb.CdfAtMost(k - 1));
  }
}
BENCHMARK(BM_PoissonBinomialTailAfterDelta)->Arg(10)->Arg(100)->Arg(500);

void BM_PoissonBinomialTailCached(benchmark::State& state) {
  // Steady-state queries against an unchanged distribution: O(1) lookups
  // into the cumulative caches.
  const int n = static_cast<int>(state.range(0));
  Rng rng(31);
  std::vector<double> probs;
  for (int i = 0; i < n; ++i) probs.push_back(rng.Uniform(0.3, 0.95));
  const PoissonBinomial pb(probs);
  int k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pb.TailAtLeast(k % (n + 1)));
    benchmark::DoNotOptimize(pb.CdfAtMost(k % (n + 1)));
    ++k;
  }
}
BENCHMARK(BM_PoissonBinomialTailCached)->Arg(10)->Arg(100)->Arg(500);

void BM_SessionCloneBucket(benchmark::State& state) {
  // Cost of cloning a BV/bucket session — what each greedy scan shard
  // pays once per round to own its private delta-update state.
  const int n = static_cast<int>(state.range(0));
  const Jury jury = MakeJury(n);
  const BucketBvObjective objective;
  const WorkerPoolView view(jury.workers());
  auto session = objective.StartSession(view, 0.5);
  CommitPrefix(session.get(), view.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(session->Clone());
  }
}
BENCHMARK(BM_SessionCloneBucket)->Arg(10)->Arg(50)->Arg(200);

// ---------------------------------------------------------------------------
// Scalar vs batched (SoA) kernel sections: the greedy candidate scan is the
// flat-profile consumer — one hypothetical add per affordable candidate per
// round — so the win of the fused batched kernels is measured here rather
// than asserted. Scalar = the per-candidate copy/convolve/query sequence
// the sessions used to run; batched = the bit-identical fused kernel.
// ---------------------------------------------------------------------------

constexpr std::size_t kScanCandidates = 64;

std::vector<double> ScanProbs(std::uint64_t seed = 43) {
  Rng rng(seed);
  std::vector<double> probs;
  for (std::size_t j = 0; j < kScanCandidates; ++j) {
    probs.push_back(rng.Uniform(0.3, 0.95));
  }
  return probs;
}

void BM_PoissonBinomialScanScalar(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(31);
  std::vector<double> committed;
  for (int i = 0; i < n; ++i) committed.push_back(rng.Uniform(0.3, 0.95));
  const PoissonBinomial pb(committed);
  const std::vector<double> candidates = ScanProbs();
  const int k = (n + 1) / 2 + 1;
  for (auto _ : state) {
    for (double p : candidates) {
      PoissonBinomial copy = pb;
      copy.AddTrial(p);
      benchmark::DoNotOptimize(copy.TailAtLeast(k));
      benchmark::DoNotOptimize(copy.CdfAtMost(k - 1));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kScanCandidates));
}
BENCHMARK(BM_PoissonBinomialScanScalar)->Arg(10)->Arg(100)->Arg(500);

void BM_PoissonBinomialScanBatched(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(31);
  std::vector<double> committed;
  for (int i = 0; i < n; ++i) committed.push_back(rng.Uniform(0.3, 0.95));
  const PoissonBinomial pb(committed);
  const std::vector<double> candidates = ScanProbs();
  const int k = (n + 1) / 2 + 1;
  std::vector<double> tails(candidates.size());
  std::vector<double> cdfs(candidates.size());
  for (auto _ : state) {
    pb.EvaluateBatch(candidates.data(), candidates.size(), k, k - 1,
                     tails.data(), cdfs.data());
    benchmark::DoNotOptimize(tails.data());
    benchmark::DoNotOptimize(cdfs.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kScanCandidates));
}
BENCHMARK(BM_PoissonBinomialScanBatched)->Arg(10)->Arg(100)->Arg(500);

void BM_PoissonBinomialConstructScalar(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(37);
  std::vector<double> probs;
  for (int i = 0; i < n; ++i) probs.push_back(rng.Uniform());
  for (auto _ : state) {
    PoissonBinomial pb({});
    for (double p : probs) pb.AddTrial(p);
    benchmark::DoNotOptimize(pb.Pmf(n / 2));
  }
}
BENCHMARK(BM_PoissonBinomialConstructScalar)->Arg(100)->Arg(500);

void BM_PoissonBinomialConstructBatched(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(37);
  std::vector<double> probs;
  for (int i = 0; i < n; ++i) probs.push_back(rng.Uniform());
  for (auto _ : state) {
    PoissonBinomial pb({});
    pb.AddTrialBatch(probs.data(), probs.size());
    benchmark::DoNotOptimize(pb.Pmf(n / 2));
  }
}
BENCHMARK(BM_PoissonBinomialConstructBatched)->Arg(100)->Arg(500);

void BM_BucketScanScalar(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(41);
  BucketKeyDistribution dist;
  for (int i = 0; i < n; ++i) {
    dist.Convolve(1 + static_cast<std::int64_t>(rng.UniformInt(50)),
                  rng.Uniform(0.5, 0.95));
  }
  std::vector<std::int64_t> bs;
  std::vector<double> qs;
  for (std::size_t j = 0; j < kScanCandidates; ++j) {
    bs.push_back(1 + static_cast<std::int64_t>(rng.UniformInt(50)));
    qs.push_back(rng.Uniform(0.5, 0.95));
  }
  for (auto _ : state) {
    for (std::size_t j = 0; j < kScanCandidates; ++j) {
      BucketKeyDistribution copy = dist;
      copy.Convolve(bs[j], qs[j]);
      benchmark::DoNotOptimize(copy.PositiveMass());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kScanCandidates));
}
BENCHMARK(BM_BucketScanScalar)->Arg(10)->Arg(50)->Arg(200);

void BM_BucketScanBatched(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(41);
  BucketKeyDistribution dist;
  for (int i = 0; i < n; ++i) {
    dist.Convolve(1 + static_cast<std::int64_t>(rng.UniformInt(50)),
                  rng.Uniform(0.5, 0.95));
  }
  std::vector<std::int64_t> bs;
  std::vector<double> qs;
  for (std::size_t j = 0; j < kScanCandidates; ++j) {
    bs.push_back(1 + static_cast<std::int64_t>(rng.UniformInt(50)));
    qs.push_back(rng.Uniform(0.5, 0.95));
  }
  std::vector<double> out(kScanCandidates);
  for (auto _ : state) {
    dist.ConvolvePositiveMassBatch(bs.data(), qs.data(), kScanCandidates,
                                   out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kScanCandidates));
}
BENCHMARK(BM_BucketScanBatched)->Arg(10)->Arg(50)->Arg(200);

void BM_BucketRemoveScanScalar(benchmark::State& state) {
  // The pre-kernel remove scan: one full distribution copy plus a
  // deconvolve and mass sweep per removal candidate.
  const int n = static_cast<int>(state.range(0));
  Rng rng(53);
  BucketKeyDistribution dist;
  std::vector<std::int64_t> bs;
  std::vector<double> qs;
  for (int i = 0; i < n; ++i) {
    bs.push_back(1 + static_cast<std::int64_t>(rng.UniformInt(50)));
    qs.push_back(rng.Uniform(0.5, 0.95));
    dist.Convolve(bs.back(), qs.back());
  }
  for (auto _ : state) {
    for (int i = 0; i < n; ++i) {
      BucketKeyDistribution copy = dist;
      copy.Deconvolve(bs[static_cast<std::size_t>(i)],
                      qs[static_cast<std::size_t>(i)]);
      benchmark::DoNotOptimize(copy.PositiveMass());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_BucketRemoveScanScalar)->Arg(10)->Arg(50)->Arg(200);

void BM_BucketRemoveScanBatched(benchmark::State& state) {
  // The batched deconvolve fold: every committed member scored for
  // removal in one dispatched kernel call, no copies.
  const int n = static_cast<int>(state.range(0));
  Rng rng(53);
  BucketKeyDistribution dist;
  std::vector<std::int64_t> bs;
  std::vector<double> qs;
  for (int i = 0; i < n; ++i) {
    bs.push_back(1 + static_cast<std::int64_t>(rng.UniformInt(50)));
    qs.push_back(rng.Uniform(0.5, 0.95));
    dist.Convolve(bs.back(), qs.back());
  }
  std::vector<double> out(bs.size());
  for (auto _ : state) {
    dist.DeconvolvePositiveMassBatch(bs.data(), qs.data(), bs.size(),
                                     out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_BucketRemoveScanBatched)->Arg(10)->Arg(50)->Arg(200);

/// End-to-end greedy-round shape: score every candidate against a
/// committed session. Scalar = ScoreAdd + Rollback per candidate (the old
/// scan); batched = one ScoreAddBatch call (what the solver runs now).
void SessionScan(benchmark::State& state, const JqObjective& objective,
                 bool batched) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  // The committed jury comes first in the pool, the scanned candidates
  // after it.
  std::vector<Worker> pool = MakeJury(static_cast<int>(n)).workers();
  Rng rng(47);
  for (std::size_t j = 0; j < kScanCandidates; ++j) {
    pool.emplace_back(
        "c" + std::to_string(j),
        rng.TruncatedGaussian(0.7, 0.22360679774997896, 0.01, 0.99), 0.0);
  }
  const WorkerPoolView view(pool);
  auto session = objective.StartSession(view, 0.5);
  CommitPrefix(session.get(), n);
  std::vector<std::size_t> ids(kScanCandidates);
  for (std::size_t j = 0; j < ids.size(); ++j) ids[j] = n + j;
  std::vector<double> scores(ids.size());
  for (auto _ : state) {
    if (batched) {
      session->ScoreAddBatch(ids.data(), ids.size(), scores.data());
    } else {
      for (std::size_t j = 0; j < ids.size(); ++j) {
        scores[j] = session->ScoreAdd(ids[j]);
        session->Rollback();
      }
    }
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kScanCandidates));
}

void BM_SessionScanScalarBucket(benchmark::State& state) {
  SessionScan(state, BucketBvObjective(), /*batched=*/false);
}
BENCHMARK(BM_SessionScanScalarBucket)->Arg(10)->Arg(50)->Arg(200);

void BM_SessionScanBatchedBucket(benchmark::State& state) {
  SessionScan(state, BucketBvObjective(), /*batched=*/true);
}
BENCHMARK(BM_SessionScanBatchedBucket)->Arg(10)->Arg(50)->Arg(200);

void BM_SessionScanScalarMajority(benchmark::State& state) {
  SessionScan(state, MajorityObjective(), /*batched=*/false);
}
BENCHMARK(BM_SessionScanScalarMajority)->Arg(10)->Arg(100)->Arg(500);

void BM_SessionScanBatchedMajority(benchmark::State& state) {
  SessionScan(state, MajorityObjective(), /*batched=*/true);
}
BENCHMARK(BM_SessionScanBatchedMajority)->Arg(10)->Arg(100)->Arg(500);

// ---------------------------------------------------------------------------
// Scalar vs AVX2 kernel sections: the same fused batched kernels pinned to
// one dispatch level (util/simd_dispatch.h), so the SIMD win is measured
// per kernel — the acceptance bar is >= 1.5x for AVX2 over scalar on
// EvaluateBatch and ConvolvePositiveMassBatch on AVX2 hardware. Levels are
// bit-identical, so these rows differ in time only.
// ---------------------------------------------------------------------------

/// The dispatch level selected at startup, captured before any bench pins
/// a different one (the level-pinned benches restore it on exit so the
/// remaining benches run on the production default).
simd::Level DefaultSimdLevel() {
  static const simd::Level level = simd::ActiveLevel();
  return level;
}

/// Pins a dispatch level for the duration of a benchmark run; skips the
/// benchmark when the level is unavailable on this build/CPU.
bool PinLevelOrSkip(benchmark::State& state, simd::Level level) {
  DefaultSimdLevel();  // capture before the first pin
  if (!simd::SetLevel(level)) {
    state.SkipWithError("SIMD level unavailable");
    return false;
  }
  return true;
}

void BM_EvaluateBatchKernel(benchmark::State& state, simd::Level level) {
  if (!PinLevelOrSkip(state, level)) return;
  const int n = static_cast<int>(state.range(0));
  Rng rng(31);
  std::vector<double> committed;
  for (int i = 0; i < n; ++i) committed.push_back(rng.Uniform(0.3, 0.95));
  const PoissonBinomial pb(committed);
  const std::vector<double> candidates = ScanProbs();
  const int k = (n + 1) / 2 + 1;
  std::vector<double> tails(candidates.size());
  std::vector<double> cdfs(candidates.size());
  for (auto _ : state) {
    pb.EvaluateBatch(candidates.data(), candidates.size(), k, k - 1,
                     tails.data(), cdfs.data());
    benchmark::DoNotOptimize(tails.data());
    benchmark::DoNotOptimize(cdfs.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kScanCandidates));
  simd::SetLevel(DefaultSimdLevel());
}
BENCHMARK_CAPTURE(BM_EvaluateBatchKernel, scalar, simd::Level::kScalar)
    ->Arg(10)->Arg(100)->Arg(500);
BENCHMARK_CAPTURE(BM_EvaluateBatchKernel, avx2, simd::Level::kAvx2)
    ->Arg(10)->Arg(100)->Arg(500);

void BM_ConvolveMassKernel(benchmark::State& state, simd::Level level) {
  if (!PinLevelOrSkip(state, level)) return;
  const int n = static_cast<int>(state.range(0));
  Rng rng(41);
  BucketKeyDistribution dist;
  for (int i = 0; i < n; ++i) {
    dist.Convolve(1 + static_cast<std::int64_t>(rng.UniformInt(50)),
                  rng.Uniform(0.5, 0.95));
  }
  std::vector<std::int64_t> bs;
  std::vector<double> qs;
  for (std::size_t j = 0; j < kScanCandidates; ++j) {
    bs.push_back(1 + static_cast<std::int64_t>(rng.UniformInt(50)));
    qs.push_back(rng.Uniform(0.5, 0.95));
  }
  std::vector<double> out(kScanCandidates);
  for (auto _ : state) {
    dist.ConvolvePositiveMassBatch(bs.data(), qs.data(), kScanCandidates,
                                   out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kScanCandidates));
  simd::SetLevel(DefaultSimdLevel());
}
BENCHMARK_CAPTURE(BM_ConvolveMassKernel, scalar, simd::Level::kScalar)
    ->Arg(10)->Arg(50)->Arg(200);
BENCHMARK_CAPTURE(BM_ConvolveMassKernel, avx2, simd::Level::kAvx2)
    ->Arg(10)->Arg(50)->Arg(200);

void BM_RemoveBatchKernel(benchmark::State& state, simd::Level level) {
  if (!PinLevelOrSkip(state, level)) return;
  const int n = static_cast<int>(state.range(0));
  Rng rng(31);
  std::vector<double> committed;
  for (int i = 0; i < n; ++i) committed.push_back(rng.Uniform(0.3, 0.95));
  const PoissonBinomial pb(committed);
  // Remove every committed trial — the shape of a polish remove scan.
  const int k = n / 2 + 1;
  std::vector<double> tails(committed.size());
  std::vector<double> cdfs(committed.size());
  for (auto _ : state) {
    pb.EvaluateRemoveBatch(committed.data(), committed.size(), k, k - 1,
                           tails.data(), cdfs.data());
    benchmark::DoNotOptimize(tails.data());
    benchmark::DoNotOptimize(cdfs.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  simd::SetLevel(DefaultSimdLevel());
}
BENCHMARK_CAPTURE(BM_RemoveBatchKernel, scalar, simd::Level::kScalar)
    ->Arg(10)->Arg(100)->Arg(500);
BENCHMARK_CAPTURE(BM_RemoveBatchKernel, avx2, simd::Level::kAvx2)
    ->Arg(10)->Arg(100)->Arg(500);

void BM_DeconvolveMassKernel(benchmark::State& state, simd::Level level) {
  // The batched bucket deconvolve fold pinned to one dispatch level — the
  // remove-scan shape: every folded member deconvolved out hypothetically
  // in one kernel call.
  if (!PinLevelOrSkip(state, level)) return;
  const int n = static_cast<int>(state.range(0));
  Rng rng(53);
  BucketKeyDistribution dist;
  std::vector<std::int64_t> bs;
  std::vector<double> qs;
  for (int i = 0; i < n; ++i) {
    bs.push_back(1 + static_cast<std::int64_t>(rng.UniformInt(50)));
    qs.push_back(rng.Uniform(0.5, 0.95));
    dist.Convolve(bs.back(), qs.back());
  }
  std::vector<double> out(bs.size());
  for (auto _ : state) {
    dist.DeconvolvePositiveMassBatch(bs.data(), qs.data(), bs.size(),
                                     out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  simd::SetLevel(DefaultSimdLevel());
}
BENCHMARK_CAPTURE(BM_DeconvolveMassKernel, scalar, simd::Level::kScalar)
    ->Arg(10)->Arg(50)->Arg(200);
BENCHMARK_CAPTURE(BM_DeconvolveMassKernel, avx2, simd::Level::kAvx2)
    ->Arg(10)->Arg(50)->Arg(200);

// ---------------------------------------------------------------------------
// Unified remove/swap session scans: scalar Score* + Rollback loops vs the
// batched ScoreRemoveBatch / ScoreSwapBatch passes the annealing polish
// runs (view-bound sessions, both objectives).
// ---------------------------------------------------------------------------

struct ScanFixture {
  std::vector<Worker> pool;
  WorkerPoolView view;
  std::unique_ptr<IncrementalJqEvaluator> session;

  ScanFixture(const JqObjective& objective, int n) {
    Rng rng(47);
    for (int i = 0; i < n; ++i) {
      pool.emplace_back(
          "w" + std::to_string(i),
          rng.TruncatedGaussian(0.7, 0.22360679774997896, 0.01, 0.99), 0.0);
    }
    view = WorkerPoolView(pool);
    session = objective.StartSession(view, 0.5);
    // Commit the first half; scan removes over members and swaps/adds
    // against the second half.
    CommitPrefix(session.get(), static_cast<std::size_t>(n / 2));
  }
};

void SessionRemoveScan(benchmark::State& state, const JqObjective& objective,
                       bool batched) {
  ScanFixture fx(objective, static_cast<int>(state.range(0)));
  const std::size_t size = fx.session->size();
  std::vector<std::size_t> positions(size);
  for (std::size_t pos = 0; pos < size; ++pos) positions[pos] = pos;
  std::vector<double> scores(size);
  for (auto _ : state) {
    if (batched) {
      fx.session->ScoreRemoveBatch(positions.data(), size, scores.data());
    } else {
      for (std::size_t pos = 0; pos < size; ++pos) {
        scores[pos] = fx.session->ScoreRemove(pos);
        fx.session->Rollback();
      }
    }
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}

void BM_SessionRemoveScanScalarBucket(benchmark::State& state) {
  SessionRemoveScan(state, BucketBvObjective(), /*batched=*/false);
}
BENCHMARK(BM_SessionRemoveScanScalarBucket)->Arg(50)->Arg(200);

void BM_SessionRemoveScanBatchedBucket(benchmark::State& state) {
  SessionRemoveScan(state, BucketBvObjective(), /*batched=*/true);
}
BENCHMARK(BM_SessionRemoveScanBatchedBucket)->Arg(50)->Arg(200);

void BM_SessionRemoveScanScalarMajority(benchmark::State& state) {
  SessionRemoveScan(state, MajorityObjective(), /*batched=*/false);
}
BENCHMARK(BM_SessionRemoveScanScalarMajority)->Arg(50)->Arg(200);

void BM_SessionRemoveScanBatchedMajority(benchmark::State& state) {
  SessionRemoveScan(state, MajorityObjective(), /*batched=*/true);
}
BENCHMARK(BM_SessionRemoveScanBatchedMajority)->Arg(50)->Arg(200);

void SessionSwapScan(benchmark::State& state, const JqObjective& objective,
                     bool batched) {
  ScanFixture fx(objective, static_cast<int>(state.range(0)));
  const std::size_t n = fx.view.size();
  std::vector<std::size_t> ins;
  for (std::size_t i = fx.session->size(); i < n; ++i) ins.push_back(i);
  std::vector<double> scores(ins.size());
  std::size_t out_pos = 0;
  for (auto _ : state) {
    if (batched) {
      fx.session->ScoreSwapBatch(out_pos % fx.session->size(), ins.data(),
                                 ins.size(), scores.data());
    } else {
      for (std::size_t j = 0; j < ins.size(); ++j) {
        scores[j] =
            fx.session->ScoreSwap(out_pos % fx.session->size(), ins[j]);
        fx.session->Rollback();
      }
    }
    ++out_pos;
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ins.size()));
}

void BM_SessionSwapScanScalarBucket(benchmark::State& state) {
  SessionSwapScan(state, BucketBvObjective(), /*batched=*/false);
}
BENCHMARK(BM_SessionSwapScanScalarBucket)->Arg(50)->Arg(200);

void BM_SessionSwapScanBatchedBucket(benchmark::State& state) {
  SessionSwapScan(state, BucketBvObjective(), /*batched=*/true);
}
BENCHMARK(BM_SessionSwapScanBatchedBucket)->Arg(50)->Arg(200);

void BM_SessionSwapScanScalarMajority(benchmark::State& state) {
  SessionSwapScan(state, MajorityObjective(), /*batched=*/false);
}
BENCHMARK(BM_SessionSwapScanScalarMajority)->Arg(50)->Arg(200);

void BM_SessionSwapScanBatchedMajority(benchmark::State& state) {
  SessionSwapScan(state, MajorityObjective(), /*batched=*/true);
}
BENCHMARK(BM_SessionSwapScanBatchedMajority)->Arg(50)->Arg(200);

/// The annealing benches' pool: the paper's quality and cost model.
std::vector<Worker> AnnealingPool(int n) {
  Rng pool_rng(7);
  std::vector<Worker> pool;
  for (int i = 0; i < n; ++i) {
    pool.emplace_back(
        "w" + std::to_string(i),
        pool_rng.TruncatedGaussian(0.7, 0.22360679774997896, 0.01, 0.99),
        pool_rng.TruncatedGaussian(0.05, 0.2, 0.01, 1e9));
  }
  return pool;
}

void BM_AnnealingSolve(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const std::vector<Worker> pool = AnnealingPool(n);
  JspInstance instance;
  instance.candidates = pool;
  instance.budget = 0.5;
  instance.alpha = 0.5;
  const BucketBvObjective objective;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    Rng rng(seed++);
    const WorkerPoolView view(instance.candidates);
    benchmark::DoNotOptimize(
        SolveAnnealing(instance, view, objective, &rng).value());
  }
}
BENCHMARK(BM_AnnealingSolve)->Arg(50)->Arg(100)->Arg(200);

void BM_AnnealingSolveNoIncremental(benchmark::State& state) {
  // The pre-session path: every move re-evaluated from scratch. Contrast
  // with BM_AnnealingSolve (same workload, delta updates on).
  const int n = static_cast<int>(state.range(0));
  const std::vector<Worker> pool = AnnealingPool(n);
  JspInstance instance;
  instance.candidates = pool;
  instance.budget = 0.5;
  instance.alpha = 0.5;
  const BucketBvObjective objective;
  AnnealingOptions options;
  options.use_incremental = false;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    Rng rng(seed++);
    const WorkerPoolView view(instance.candidates);
    benchmark::DoNotOptimize(
        SolveAnnealing(instance, view, objective, &rng, options).value());
  }
}
BENCHMARK(BM_AnnealingSolveNoIncremental)->Arg(50)->Arg(100)->Arg(200);

void BM_AnnealingStep(benchmark::State& state, bool with_token) {
  // Deadline-check overhead: the identical SA workload with and without
  // a live (never-firing) cancel token. The token variant pays what
  // every deadline-armed solve pays — one relaxed flag load per step
  // plus a clock probe every WorkGovernor::kDeadlineProbePeriod steps.
  // scripts/check_deadline_overhead.py gates token/bare at <2% in CI.
  const int n = 100;
  const std::vector<Worker> pool = AnnealingPool(n);
  JspInstance instance;
  instance.candidates = pool;
  instance.budget = 0.5;
  instance.alpha = 0.5;
  const BucketBvObjective objective;
  AnnealingOptions options;
  const CancelToken token(3.6e6);  // an hour out: probes run, never fire
  if (with_token) options.cancel_token = &token;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    Rng rng(seed++);
    const WorkerPoolView view(instance.candidates);
    benchmark::DoNotOptimize(
        SolveAnnealing(instance, view, objective, &rng, options).value());
  }
}
BENCHMARK_CAPTURE(BM_AnnealingStep, bare, false);
BENCHMARK_CAPTURE(BM_AnnealingStep, token, true);

}  // namespace
}  // namespace jury

BENCHMARK_MAIN();
