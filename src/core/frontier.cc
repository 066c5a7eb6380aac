#include "core/frontier.h"

#include <algorithm>
#include <limits>
#include <span>

#include "util/stats_registry.h"

namespace jury {
namespace {

StatsRegistry::Counter& g_candidates_scanned =
    RegisterStatsCounter("frontier.candidates_scanned");
StatsRegistry::Counter& g_exactness_proofs =
    RegisterStatsCounter("frontier.exactness_proofs");

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kTol = kScoreEquivalenceTol;

/// One scan's working set: scanned view indices ascending, scores aligned.
struct ScanSet {
  std::vector<std::size_t> indices;
  std::vector<double> scores;
};

/// The exactness guard's witnesses, binned once per scan. `fences` holds
/// the distinct fence keys of the slate-pruned shards, ascending (they
/// are fixed once the slate pass ends). A scored candidate lands once, in
/// the bin of the largest fence key <= its key; below every fence it
/// witnesses nothing. Each bin keeps its minimum score.
///
/// A candidate witnesses fence key `fences[b]` (key >= it) exactly when
/// it sits in bin b or above, so fence(s) — the minimum score over the
/// scanned candidates with key >= s's fence key — is the running minimum
/// of the bins from the top down to s's. `min` is exact and ignores the
/// order it sees its inputs in (a zero's sign aside, which compares
/// equal), so each fence, and with it each expansion decision, does not
/// depend on the order candidates were scored or binned in.
struct FenceBins {
  std::vector<double> fences;
  std::vector<double> min_score;  // +inf while a bin is empty

  std::size_t BinOf(double fence_key) const {
    return std::lower_bound(fences.begin(), fences.end(), fence_key) -
           fences.begin();
  }

  void Add(double key, double score) {
    const auto above = std::upper_bound(fences.begin(), fences.end(), key);
    if (above == fences.begin()) return;
    double& slot = min_score[above - fences.begin() - 1];
    slot = std::min(slot, score);
  }
};

/// Batch-scores `fresh` (ascending, disjoint from `set`), bins the new
/// scores when `bins` is set, and merges them into `set` from the back in
/// one linear pass, keeping the ascending-index order.
void ScoreAndMerge(IncrementalJqEvaluator& session,
                   std::span<const double> keys,
                   const std::vector<std::size_t>& fresh, FenceBins* bins,
                   ScanSet* set) {
  if (fresh.empty()) return;
  std::vector<double> fresh_scores(fresh.size());
  session.ScoreAddBatch(fresh.data(), fresh.size(), fresh_scores.data());
  if (bins != nullptr) {
    for (std::size_t j = 0; j < fresh.size(); ++j) {
      bins->Add(keys[fresh[j]], fresh_scores[j]);
    }
  }
  std::size_t i = set->indices.size();
  std::size_t j = fresh.size();
  set->indices.resize(i + j);
  set->scores.resize(i + j);
  while (j > 0) {
    const std::size_t out = i + j - 1;
    if (i > 0 && set->indices[i - 1] > fresh[j - 1]) {
      --i;
      set->indices[out] = set->indices[i];
      set->scores[out] = set->scores[i];
    } else {
      --j;
      set->indices[out] = fresh[j];
      set->scores[out] = fresh_scores[j];
    }
  }
}

}  // namespace

FrontierScanResult FrontierScanAdds(IncrementalJqEvaluator& session,
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

  // Exactly the affordability expression of the solvers' full scans
  // (`jury_cost + cost[i] > budget` excludes), so the eligible sets — and
  // therefore the bit-identity argument — match to the last rounding.
  // Addition is monotone, so `jury_cost + min_cost > budget` implies
  // every member of the shard fails it: such a shard is skipped whole.
  const auto eligible = [&](std::size_t i) {
    return !excluded[i] && !(jury_cost + cost[i] > budget);
  };
  const auto skipped = [&](const ShardedWorkerPool::Shard& shard) {
    return jury_cost + shard.min_cost > budget;
  };

  // A slate-pruned shard: its slate prefix is scanned and every member
  // beyond it has key <= `fence_key` (the slate is key-descending).
  struct Pruned {
    std::size_t shard;
    double fence_key;
    std::size_t bin = 0;
  };
  std::vector<Pruned> pruned;
  ScanSet set;
  std::vector<std::size_t> fresh;
  for (std::size_t s = 0; s < num_shards; ++s) {
    const ShardedWorkerPool::Shard& shard = pool.shard(s);
    if (skipped(shard)) continue;
    const std::vector<std::size_t>& slate = pool.slate(shard, key);
    const std::size_t prefix = std::min(k, slate.size());
    // Shards partition the index space in order, so sorting each shard's
    // share sorts the whole batch.
    const std::size_t first = fresh.size();
    for (std::size_t j = 0; j < prefix; ++j) {
      if (eligible(slate[j])) fresh.push_back(slate[j]);
    }
    std::sort(fresh.begin() + first, fresh.end());
    if (prefix < shard.population()) {
      pruned.push_back({s, keys[slate[prefix - 1]]});
    }
  }

  if (!options.exact) {
    ScoreAndMerge(session, keys, fresh, nullptr, &set);
    // Lossy mode skips the guard — but "no eligible candidate" must stay
    // a truthful answer, so an empty slate scan still expands before the
    // caller concludes the round is over.
    if (set.indices.empty()) {
      std::vector<std::size_t> all;
      for (std::size_t s = 0; s < num_shards; ++s) {
        const ShardedWorkerPool::Shard& shard = pool.shard(s);
        if (skipped(shard)) continue;
        for (std::size_t i = shard.begin; i < shard.end; ++i) {
          if (eligible(i)) all.push_back(i);
        }
      }
      ScoreAndMerge(session, keys, all, nullptr, &set);
    }
    if (stats != nullptr) stats->candidates_scanned += set.indices.size();
    FrontierScanResult result;
    result.indices = std::move(set.indices);
    result.scores = std::move(set.scores);
    result.exact_proven = false;
    return result;
  }

  FenceBins bins;
  for (const Pruned& p : pruned) bins.fences.push_back(p.fence_key);
  std::sort(bins.fences.begin(), bins.fences.end());
  bins.fences.erase(std::unique(bins.fences.begin(), bins.fences.end()),
                    bins.fences.end());
  bins.min_score.assign(bins.fences.size(), kInf);
  for (Pruned& p : pruned) p.bin = bins.BinOf(p.fence_key);
  ScoreAndMerge(session, keys, fresh, &bins, &set);

  // Exact refinement: re-check every still-pruned shard against the
  // current scanned set; expand the ones the bound cannot fence; repeat.
  // Each pass expands at least one shard, so this terminates — in the
  // worst case with the full scan itself. One pass costs O(bins +
  // scanned) for the fences and `rb_entry`, plus the expanded shards'
  // rows and an O(log bins) binning of each new score.
  std::vector<double> fence_of_bin(bins.fences.size());
  std::vector<Pruned> still_pruned;
  std::vector<std::size_t> seen;
  std::vector<std::size_t> grow;
  while (!pruned.empty()) {
    double below = kInf;
    for (std::size_t b = bins.fences.size(); b-- > 0;) {
      below = std::min(below, bins.min_score[b]);
      fence_of_bin[b] = below;
    }

    // rb_entry(s): the banded incumbent the scanned-only argmax holds on
    // reaching the shard's first index; `pruned` is shard-ascending.
    double running = -kInf;
    std::size_t cursor = 0;
    still_pruned.clear();
    grow.clear();
    for (const Pruned& p : pruned) {
      const ShardedWorkerPool::Shard& shard = pool.shard(p.shard);
      while (cursor < set.indices.size() && set.indices[cursor] < shard.begin) {
        if (set.scores[cursor] > running + kTol) running = set.scores[cursor];
        cursor++;
      }
      if (fence_of_bin[p.bin] <= running + kTol / 2) {
        still_pruned.push_back(p);
        continue;
      }
      // Expand: the shard's already-scanned members are its eligible
      // slate-prefix entries; a sorted walk skips exactly those.
      const std::vector<std::size_t>& slate = pool.slate(shard, key);
      const std::size_t prefix = std::min(k, slate.size());
      seen.assign(slate.begin(), slate.begin() + prefix);
      std::sort(seen.begin(), seen.end());
      auto next_seen = seen.begin();
      for (std::size_t i = shard.begin; i < shard.end; ++i) {
        if (next_seen != seen.end() && *next_seen == i) {
          ++next_seen;
          continue;
        }
        if (eligible(i)) grow.push_back(i);
      }
      if (stats != nullptr) stats->shards_expanded++;
    }
    if (still_pruned.size() == pruned.size()) {
      // Guard holds everywhere with at least one shard still pruned: the
      // scanned set provably reproduces the full scan, and the proof
      // spared real work.
      if (stats != nullptr) stats->exactness_proofs++;
      break;
    }
    pruned.swap(still_pruned);
    ScoreAndMerge(session, keys, grow, &bins, &set);
  }

  if (stats != nullptr) stats->candidates_scanned += set.indices.size();
  FrontierScanResult result;
  result.indices = std::move(set.indices);
  result.scores = std::move(set.scores);
  result.exact_proven = true;
  return result;
}

FrontierPick FrontierSelectAdd(IncrementalJqEvaluator& session,
                               const ShardedWorkerPool& pool,
                               ShardedWorkerPool::KeyColumn key,
                               const std::vector<char>& excluded,
                               double jury_cost, double budget,
                               const FrontierOptions& options,
                               FrontierScanStats* stats) {
  const FrontierScanResult scan = FrontierScanAdds(
      session, pool, key, excluded, jury_cost, budget, options, stats);
  FrontierPick pick;
  pick.exact_proven = scan.exact_proven;
  double best = -kInf;
  for (std::size_t j = 0; j < scan.indices.size(); ++j) {
    // The solvers' banded first-wins argmax, verbatim.
    if (scan.scores[j] > best + kTol) {
      best = scan.scores[j];
      pick.best_index = scan.indices[j];
      pick.found = true;
    }
  }
  pick.best_score = best;
  return pick;
}

bool FrontierUsable(const ShardedWorkerPool* pool,
                    const WorkerPoolView* session_view,
                    const JqObjective& objective, std::size_t frontier_k,
                    ShardedWorkerPool::KeyColumn* column) {
  if (pool == nullptr || frontier_k == 0) return false;
  if (session_view == nullptr || &pool->view() != session_view) return false;
  return FrontierKeyColumn(objective.score_monotone_key(), column);
}

void FlushFrontierStats(const FrontierScanStats& stats) {
  if (stats.candidates_scanned > 0) {
    g_candidates_scanned.Add(stats.candidates_scanned);
  }
  if (stats.exactness_proofs > 0) {
    g_exactness_proofs.Add(stats.exactness_proofs);
  }
}

}  // namespace jury
