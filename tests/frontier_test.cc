// Property tests for candidate-frontier pre-selection: exact mode must be
// bit-identical to the full O(N) scan — same selected indices, same jq
// double, same cost — for every objective with a monotone score key,
// across shard sizes, slate depths, thread counts, and SIMD levels. The
// lossy consumers (annealing polish ordering, branch-and-bound ordering)
// must stay within their documented quality contracts.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "core/annealing.h"
#include "core/branch_bound.h"
#include "core/frontier.h"
#include "core/greedy.h"
#include "core/objective.h"
#include "model/sharded_pool.h"
#include "model/worker_pool_view.h"
#include "test_util.h"
#include "util/rng.h"
#include "util/simd_dispatch.h"

namespace jury {
namespace {

using jury::testing::RandomPool;

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

std::vector<simd::Level> TestableLevels() {
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  if (simd::Avx2Available()) levels.push_back(simd::Level::kAvx2);
  return levels;
}

std::vector<Worker> MakePool(Rng* rng, int n) {
  return RandomPool(rng, n, 0.0, 1.0, 0.01, 0.5);
}

JspInstance MakeInstance(CandidateSpan workers, double budget) {
  JspInstance instance;
  instance.candidates = workers;
  instance.budget = budget;
  instance.alpha = 0.5;
  return instance;
}

TEST(FrontierTest, GreedyMarginalGainExactModeIsBitIdentical) {
  Rng rng(8801);
  const std::vector<Worker> workers = MakePool(&rng, 600);
  const JspInstance instance = MakeInstance(workers, 1.0);
  const WorkerPoolView view(instance.candidates);
  const BucketBvObjective bv{BucketJqOptions{}};
  const MajorityObjective mv;

  GreedyOptions full_options;
  for (const simd::Level level : TestableLevels()) {
    ScopedSimdLevel scoped(level);
    ASSERT_TRUE(scoped.ok());
    for (const JqObjective* objective :
         std::initializer_list<const JqObjective*>{&bv, &mv}) {
      const auto full =
          SolveGreedyMarginalGain(instance, view, *objective, full_options);
      ASSERT_TRUE(full.ok());
      for (const std::size_t shard_size :
           {std::size_t{16}, std::size_t{64}, instance.candidates.size()}) {
        for (const std::size_t k : {std::size_t{2}, std::size_t{8}}) {
          for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
            ShardedPoolOptions pool_options;
            pool_options.shard_size = shard_size;
            pool_options.slate_k = 16;
            const ShardedWorkerPool pool(&view, pool_options);
            GreedyOptions options;
            options.num_threads = threads;
            options.frontier_k = k;
            options.sharded_pool = &pool;
            FrontierScanStats stats;
            options.frontier_stats = &stats;
            const auto frontier =
                SolveGreedyMarginalGain(instance, view, *objective, options);
            ASSERT_TRUE(frontier.ok());
            EXPECT_EQ(frontier.value().selected, full.value().selected)
                << objective->name() << " shard=" << shard_size << " k=" << k
                << " threads=" << threads
                << " simd=" << simd::LevelName(level);
            EXPECT_EQ(frontier.value().jq, full.value().jq);
            EXPECT_EQ(frontier.value().cost, full.value().cost);
            EXPECT_GT(stats.scans, 0u);
          }
        }
      }
    }
  }
}

TEST(FrontierTest, SelectAddMatchesFullScanArgmaxUnderPruning) {
  // Direct seam check: FrontierSelectAdd vs a frontier scan forced to the
  // full-pool shard (shard_size = n, slate covers everything = a full
  // scan). With small slates and exact mode the pick must agree bit for
  // bit, and on these smooth random pools some scans should retain
  // pruning (the proof doing real work at least once).
  Rng rng(8803);
  const std::vector<Worker> workers = MakePool(&rng, 512);
  const JspInstance instance = MakeInstance(workers, 0.4);
  const WorkerPoolView view(instance.candidates);
  const BucketBvObjective objective{BucketJqOptions{}};
  auto session = objective.StartSession(view, instance.alpha, true);
  ASSERT_NE(session, nullptr);

  ShardedPoolOptions small_options;
  small_options.shard_size = 32;
  small_options.slate_k = 4;
  const ShardedWorkerPool small(&view, small_options);
  ShardedPoolOptions whole_options;
  whole_options.shard_size = instance.candidates.size();
  whole_options.slate_k = instance.candidates.size();
  const ShardedWorkerPool whole(&view, whole_options);

  std::vector<char> excluded(instance.candidates.size(), 0);
  FrontierOptions pruned_scan;
  pruned_scan.k = 4;
  FrontierOptions full_scan;
  full_scan.k = instance.candidates.size();
  FrontierScanStats stats;
  const auto key = ShardedWorkerPool::KeyColumn::kNormQuality;

  double jury_cost = 0.0;
  for (int round = 0; round < 8; ++round) {
    const FrontierPick pruned =
        FrontierSelectAdd(*session, small, key, excluded, jury_cost,
                          instance.budget, pruned_scan, &stats);
    const FrontierPick full =
        FrontierSelectAdd(*session, whole, key, excluded, jury_cost,
                          instance.budget, full_scan, nullptr);
    ASSERT_EQ(pruned.found, full.found) << "round " << round;
    if (!full.found) break;
    EXPECT_TRUE(pruned.exact_proven) << "round " << round;
    EXPECT_EQ(pruned.best_index, full.best_index) << "round " << round;
    EXPECT_EQ(pruned.best_score, full.best_score) << "round " << round;
    excluded[full.best_index] = 1;
    jury_cost += view.cost()[full.best_index];
    session->CommitAdd(full.best_index, full.best_score);
  }
  EXPECT_GT(stats.candidates_scanned, 0u);
  EXPECT_GT(stats.exactness_proofs, 0u) << "pruning never held";
}

TEST(FrontierTest, AnnealingPolishIdenticalWithFrontier) {
  // The polish's adds pass uses the frontier in exact mode, so a polished
  // annealing solve must return the identical jury with and without the
  // sharded pool wired (same seed, same trajectory).
  Rng rng_base(8805);
  const std::vector<Worker> workers = MakePool(&rng_base, 300);
  const JspInstance instance = MakeInstance(workers, 0.8);
  const WorkerPoolView view(instance.candidates);
  const BucketBvObjective objective{BucketJqOptions{}};
  ShardedPoolOptions pool_options;
  pool_options.shard_size = 64;
  pool_options.slate_k = 16;
  const ShardedWorkerPool pool(&view, pool_options);

  Rng rng_full(424242);
  AnnealingOptions full_options;
  const auto full =
      SolveAnnealing(instance, view, objective, &rng_full, full_options);
  ASSERT_TRUE(full.ok());

  Rng rng_frontier(424242);
  AnnealingOptions frontier_options;
  frontier_options.frontier_k = 8;
  frontier_options.sharded_pool = &pool;
  FrontierScanStats stats;
  frontier_options.frontier_stats = &stats;
  const auto frontier = SolveAnnealing(instance, view, objective,
                                       &rng_frontier, frontier_options);
  ASSERT_TRUE(frontier.ok());
  EXPECT_EQ(frontier.value().selected, full.value().selected);
  EXPECT_EQ(frontier.value().jq, full.value().jq);
  EXPECT_EQ(frontier.value().cost, full.value().cost);
}

TEST(FrontierTest, BranchBoundOrderingKeepsOptimality) {
  // Frontier ordering is a search heuristic, not a bound: B&B stays exact,
  // so the frontier-ordered search must reach the same optimum (JQ equal
  // to well within evaluation noise; the certified optimum is unique up
  // to score ties).
  Rng rng(8807);
  const auto workers = RandomPool(&rng, 24, 0.3, 1.0, 0.05, 0.4);
  JspInstance instance;
  instance.candidates = workers;
  instance.budget = 0.8;
  instance.alpha = 0.5;
  const WorkerPoolView view(instance.candidates);
  const BucketBvObjective objective{BucketJqOptions{}};
  ShardedPoolOptions pool_options;
  pool_options.shard_size = 8;
  pool_options.slate_k = 8;
  const ShardedWorkerPool pool(&view, pool_options);

  BranchBoundOptions plain_options;
  const auto plain =
      SolveBranchAndBound(instance, view, objective, plain_options);
  ASSERT_TRUE(plain.ok());

  BranchBoundOptions frontier_options;
  frontier_options.frontier_k = 4;
  frontier_options.sharded_pool = &pool;
  const auto ordered =
      SolveBranchAndBound(instance, view, objective, frontier_options);
  ASSERT_TRUE(ordered.ok());
  EXPECT_NEAR(ordered.value().jq, plain.value().jq, 1e-9);
  EXPECT_LE(ordered.value().cost, instance.budget);
}

// ---------------------------------------------------------------------------
// The proof's bookkeeping, pinned to a reference. `reference::ScanAdds` is
// FrontierScanAdds as it stood with a key sort of the whole scanned set per
// refinement pass, a permutation stable_sort per merge and a binary_search
// per slate member, kept verbatim. The library's fence bins, linear merges
// and sorted slate walks must reproduce it bit for bit: same indices, same
// score bits, same proof flag, same stats.

namespace reference {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kTol = kScoreEquivalenceTol;

enum class ShardState : unsigned char {
  kSkipped,   // jury_cost + min_cost > budget: no eligible member
  kSlate,     // slate prefix scanned; non-slate members may be pruned
  kExpanded,  // every eligible member scanned
};

/// One scan's working set: scanned view indices ascending, scores aligned.
struct ScanSet {
  std::vector<std::size_t> indices;
  std::vector<double> scores;
};

/// Batch-scores `fresh` (ascending) and merges it into `set`, keeping the
/// ascending-index order.
void ScoreAndMerge(IncrementalJqEvaluator& session,
                   std::vector<std::size_t> fresh, ScanSet* set) {
  if (fresh.empty()) return;
  std::vector<double> fresh_scores(fresh.size());
  session.ScoreAddBatch(fresh.data(), fresh.size(), fresh_scores.data());
  set->indices.insert(set->indices.end(), fresh.begin(), fresh.end());
  set->scores.insert(set->scores.end(), fresh_scores.begin(),
                     fresh_scores.end());
  // Both halves are ascending; inplace_merge cannot carry the scores
  // along, so sort a permutation instead (the sets are frontier-sized).
  std::vector<std::size_t> perm(set->indices.size());
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  std::stable_sort(perm.begin(), perm.end(),
                   [set](std::size_t a, std::size_t b) {
                     return set->indices[a] < set->indices[b];
                   });
  std::vector<std::size_t> merged_idx(perm.size());
  std::vector<double> merged_scores(perm.size());
  for (std::size_t j = 0; j < perm.size(); ++j) {
    merged_idx[j] = set->indices[perm[j]];
    merged_scores[j] = set->scores[perm[j]];
  }
  set->indices = std::move(merged_idx);
  set->scores = std::move(merged_scores);
}

FrontierScanResult ScanAdds(IncrementalJqEvaluator& session,
                            const ShardedWorkerPool& pool,
                            ShardedWorkerPool::KeyColumn key,
                            const std::vector<char>& excluded,
                            double jury_cost, double budget,
                            const FrontierOptions& options,
                            FrontierScanStats* stats) {
  const std::span<const double> cost = pool.view().cost();
  const std::span<const double> keys = pool.keys(key);
  const std::size_t num_shards = pool.num_shards();
  const std::size_t k = std::max<std::size_t>(1, options.k);
  if (stats != nullptr) stats->scans++;

  std::vector<ShardState> state(num_shards, ShardState::kSlate);
  // Upper bound on every pruned (eligible, unscanned) key of the shard;
  // -inf once nothing is pruned.
  std::vector<double> fence_key(num_shards, -kInf);

  // Exactly the affordability expression of the solvers' full scans
  // (`jury_cost + cost[i] > budget` excludes), so the eligible sets — and
  // therefore the bit-identity argument — match to the last rounding.
  const auto eligible = [&](std::size_t i) {
    return !excluded[i] && !(jury_cost + cost[i] > budget);
  };

  ScanSet set;
  std::vector<std::size_t> fresh;
  for (std::size_t s = 0; s < num_shards; ++s) {
    const ShardedWorkerPool::Shard& shard = pool.shard(s);
    // Addition is monotone, so `jury_cost + min_cost > budget` implies
    // every member fails the affordability test above: skip the shard.
    if (jury_cost + shard.min_cost > budget) {
      state[s] = ShardState::kSkipped;
      continue;
    }
    const std::vector<std::size_t>& slate = pool.slate(shard, key);
    const std::size_t prefix = std::min(k, slate.size());
    for (std::size_t j = 0; j < prefix; ++j) {
      if (eligible(slate[j])) fresh.push_back(slate[j]);
    }
    // Pruned members (beyond the scanned prefix) all have key <= the
    // prefix's smallest key — the slate is key-descending.
    fence_key[s] = prefix < shard.population() ? keys[slate[prefix - 1]]
                                               : -kInf;
  }
  std::sort(fresh.begin(), fresh.end());
  ScoreAndMerge(session, std::move(fresh), &set);

  if (!options.exact) {
    // Lossy mode skips the guard — but "no eligible candidate" must stay
    // a truthful answer, so an empty slate scan still expands before the
    // caller concludes the round is over.
    if (set.indices.empty()) {
      std::vector<std::size_t> all;
      for (std::size_t s = 0; s < num_shards; ++s) {
        if (state[s] == ShardState::kSkipped) continue;
        const ShardedWorkerPool::Shard& shard = pool.shard(s);
        for (std::size_t i = shard.begin; i < shard.end; ++i) {
          if (eligible(i)) all.push_back(i);
        }
      }
      ScoreAndMerge(session, std::move(all), &set);
    }
    if (stats != nullptr) stats->candidates_scanned += set.indices.size();
    FrontierScanResult result;
    result.indices = std::move(set.indices);
    result.scores = std::move(set.scores);
    result.exact_proven = false;
    return result;
  }

  // Exact refinement: re-check every still-pruned shard against the
  // current scanned set; expand the ones the bound cannot fence; repeat.
  // Each pass expands at least one shard, so this terminates — in the
  // worst case with the full scan itself.
  std::vector<double> key_desc;
  std::vector<double> prefix_min;
  std::vector<std::size_t> order;
  while (true) {
    bool any_pruned = false;
    for (std::size_t s = 0; s < num_shards; ++s) {
      any_pruned |= state[s] == ShardState::kSlate && fence_key[s] > -kInf;
    }
    if (!any_pruned) break;

    // fence(s): the tightest scanned witness for shard s — the minimum
    // score over scanned candidates with key >= fence_key[s]. Sorting the
    // scanned set key-descending turns each lookup into a binary search
    // over a prefix-min array.
    const std::size_t count = set.indices.size();
    order.resize(count);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&set, keys](std::size_t a, std::size_t b) {
                return keys[set.indices[a]] > keys[set.indices[b]];
              });
    key_desc.resize(count);
    prefix_min.resize(count);
    for (std::size_t j = 0; j < count; ++j) {
      key_desc[j] = keys[set.indices[order[j]]];
      const double score = set.scores[order[j]];
      prefix_min[j] = j == 0 ? score : std::min(prefix_min[j - 1], score);
    }

    // rb_entry(s): the banded incumbent the scanned-only argmax holds on
    // reaching the shard's first index.
    std::vector<double> rb_entry(num_shards, -kInf);
    double running = -kInf;
    std::size_t cursor = 0;
    for (std::size_t s = 0; s < num_shards; ++s) {
      const std::size_t begin = pool.shard(s).begin;
      while (cursor < count && set.indices[cursor] < begin) {
        if (set.scores[cursor] > running + kTol) running = set.scores[cursor];
        cursor++;
      }
      rb_entry[s] = running;
    }

    std::vector<std::size_t> expand;
    for (std::size_t s = 0; s < num_shards; ++s) {
      if (state[s] != ShardState::kSlate || fence_key[s] == -kInf) continue;
      // Last key-desc position with key >= fence_key[s] (keys equal to the
      // fence still dominate every pruned member).
      const auto split = std::lower_bound(
          key_desc.begin(), key_desc.end(), fence_key[s],
          [](double lhs, double threshold) { return lhs >= threshold; });
      const std::size_t witnesses =
          static_cast<std::size_t>(split - key_desc.begin());
      const double fence = witnesses == 0 ? kInf : prefix_min[witnesses - 1];
      if (!(fence <= rb_entry[s] + kTol / 2)) expand.push_back(s);
    }
    if (expand.empty()) {
      // Guard holds everywhere with at least one shard still pruned: the
      // scanned set provably reproduces the full scan, and the proof
      // spared real work.
      if (stats != nullptr) stats->exactness_proofs++;
      break;
    }

    std::vector<std::size_t> grow;
    for (const std::size_t s : expand) {
      const ShardedWorkerPool::Shard& shard = pool.shard(s);
      // The shard's already-scanned members are its eligible slate-prefix
      // entries; skip exactly those (the prefix is tiny).
      const std::vector<std::size_t>& slate = pool.slate(shard, key);
      const std::size_t prefix = std::min(k, slate.size());
      std::vector<std::size_t> seen(slate.begin(), slate.begin() + prefix);
      std::sort(seen.begin(), seen.end());
      for (std::size_t i = shard.begin; i < shard.end; ++i) {
        if (!eligible(i)) continue;
        if (std::binary_search(seen.begin(), seen.end(), i)) continue;
        grow.push_back(i);
      }
      state[s] = ShardState::kExpanded;
      fence_key[s] = -kInf;
      if (stats != nullptr) stats->shards_expanded++;
    }
    ScoreAndMerge(session, std::move(grow), &set);
  }

  if (stats != nullptr) stats->candidates_scanned += set.indices.size();
  FrontierScanResult result;
  result.indices = std::move(set.indices);
  result.scores = std::move(set.scores);
  result.exact_proven = true;
  return result;
}

}  // namespace reference

enum class QualityShape { kContinuous, kFewDistinct, kHalfDuplicated };

/// Pools whose keys tie at fence values (few distinct qualities, half the
/// pool duplicating the other half) as well as continuous ones. Every
/// third shard costs 1.0 more, so a budget under that skips it whole.
std::vector<Worker> ShapedPool(Rng* rng, int n, QualityShape shape,
                               std::size_t shard_size) {
  std::vector<Worker> workers = RandomPool(rng, n, 0.0, 1.0, 0.01, 0.3);
  constexpr double kFew[] = {0.2, 0.55, 0.7, 0.85, 0.95};
  for (std::size_t i = 0; i < workers.size(); ++i) {
    if (shape == QualityShape::kFewDistinct) {
      workers[i].quality = kFew[rng->UniformInt(5)];
    } else if (shape == QualityShape::kHalfDuplicated && i % 2 == 1) {
      workers[i].quality = workers[rng->UniformInt(i)].quality;
    }
    if ((i / shard_size) % 3 == 2) workers[i].cost += 1.0;
  }
  return workers;
}

std::vector<std::uint64_t> ScoreBits(const std::vector<double>& scores) {
  std::vector<std::uint64_t> bits;
  for (const double score : scores) {
    bits.push_back(std::bit_cast<std::uint64_t>(score));
  }
  return bits;
}

TEST(FrontierTest, ScanMatchesSortBasedReference) {
  Rng rng(8809);
  const BucketBvObjective bv{BucketJqOptions{}};
  const MajorityObjective mv;
  int scans = 0;
  FrontierScanStats total;
  for (const QualityShape shape :
       {QualityShape::kContinuous, QualityShape::kFewDistinct,
        QualityShape::kHalfDuplicated}) {
    for (const std::size_t shard_size :
         {std::size_t{1}, std::size_t{3}, std::size_t{7}, std::size_t{64},
          std::size_t{1024}}) {
      const int n = shard_size == 1024
                        ? 1500 + static_cast<int>(rng.UniformInt(1200))
                        : 40 + static_cast<int>(rng.UniformInt(400));
      const std::vector<Worker> workers =
          ShapedPool(&rng, n, shape, shard_size);
      const WorkerPoolView view(workers);
      for (int pool_rep = 0; pool_rep < 4; ++pool_rep) {
        ShardedPoolOptions pool_options;
        pool_options.shard_size = shard_size;
        pool_options.slate_k = 1 + rng.UniformInt(64);
        const ShardedWorkerPool pool(&view, pool_options);
        for (int rep = 0; rep < 18; ++rep) {
          const JqObjective& objective =
              rng.Bernoulli(0.5) ? static_cast<const JqObjective&>(bv) : mv;
          ShardedWorkerPool::KeyColumn key{};
          ASSERT_TRUE(FrontierKeyColumn(objective.score_monotone_key(), &key));
          FrontierOptions options;
          options.k = 1 + rng.UniformInt(70);
          options.exact = rng.Bernoulli(0.75);

          auto session = objective.StartSession(view, 0.5, true);
          std::vector<char> excluded(view.size(), 0);
          double jury_cost = 0.0;
          const std::size_t members = rng.UniformInt(6);
          for (std::size_t m = 0; m < members; ++m) {
            const std::size_t in = rng.UniformInt(view.size());
            if (excluded[in]) continue;
            session->CommitAdd(in, session->ScoreAdd(in));
            excluded[in] = 1;
            jury_cost += view.cost()[in];
          }
          for (std::size_t i = 0; i < view.size(); ++i) {
            if (rng.Bernoulli(0.05)) excluded[i] = 1;
          }
          const double budget = jury_cost + rng.Uniform(0.0, 1.4);

          FrontierScanStats want_stats;
          FrontierScanStats got_stats;
          const FrontierScanResult want =
              reference::ScanAdds(*session, pool, key, excluded, jury_cost,
                                  budget, options, &want_stats);
          const FrontierScanResult got =
              FrontierScanAdds(*session, pool, key, excluded, jury_cost,
                               budget, options, &got_stats);
          const std::string where =
              "scan " + std::to_string(scans) + " shard_size=" +
              std::to_string(shard_size) + " slate_k=" +
              std::to_string(pool_options.slate_k) + " k=" +
              std::to_string(options.k) + " exact=" +
              std::to_string(options.exact) + " " + objective.name();
          ASSERT_EQ(got.indices, want.indices) << where;
          ASSERT_EQ(ScoreBits(got.scores), ScoreBits(want.scores)) << where;
          ASSERT_EQ(got.exact_proven, want.exact_proven) << where;
          ASSERT_EQ(got_stats.scans, want_stats.scans) << where;
          ASSERT_EQ(got_stats.candidates_scanned,
                    want_stats.candidates_scanned)
              << where;
          ASSERT_EQ(got_stats.exactness_proofs, want_stats.exactness_proofs)
              << where;
          ASSERT_EQ(got_stats.shards_expanded, want_stats.shards_expanded)
              << where;
          total.exactness_proofs += got_stats.exactness_proofs;
          total.shards_expanded += got_stats.shards_expanded;
          scans++;
        }
      }
    }
  }
  EXPECT_GE(scans, 1000);
  // The refinement must have done real work both ways: some scans proved
  // with shards left pruned, some had to expand.
  EXPECT_GT(total.exactness_proofs, 0u);
  EXPECT_GT(total.shards_expanded, 0u);
}

}  // namespace
}  // namespace jury
