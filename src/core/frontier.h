#ifndef JURYOPT_CORE_FRONTIER_H_
#define JURYOPT_CORE_FRONTIER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/objective.h"
#include "model/sharded_pool.h"

namespace jury {

/// Per-solve instrumentation for the frontier scans (see
/// `SolverOptions::frontier_stats`). All counts accumulate across the
/// scans of one solve; the same quantities feed the process-wide
/// `frontier.candidates_scanned` / `frontier.exactness_proofs` registry
/// counters.
struct FrontierScanStats {
  /// Scans performed (one per greedy round / polish pass).
  std::uint64_t scans = 0;
  /// Candidates actually scored, summed over scans. The pruning rate of a
  /// scan is `1 - candidates_scanned / eligible_population`.
  std::uint64_t candidates_scanned = 0;
  /// Scans where the bound guard proved the slate result bit-identical to
  /// the full scan while at least one shard stayed pruned (i.e. the proof
  /// did real work).
  std::uint64_t exactness_proofs = 0;
  /// Shards the exact mode had to expand to a full shard scan because the
  /// guard could not fence them.
  std::uint64_t shards_expanded = 0;
};

/// Tuning for one frontier scan, distilled from `SolverOptions`.
struct FrontierOptions {
  /// Slate prefix length per shard (clamped to the pool's stored slate).
  std::size_t k = 16;
  /// Refine with the admissible-bound guard until provably bit-identical
  /// to the full scan (worst case expands every shard = full scan).
  bool exact = true;
};

/// Result of `FrontierSelectAdd`: the same (winner, score) pair the
/// solver's full O(N) banded argmax would produce — guaranteed when
/// `options.exact`, best-effort otherwise.
struct FrontierPick {
  /// False iff no eligible candidate exists (exact mode) / was scanned
  /// (lossy mode with an exhausted slate — the implementation expands
  /// before giving up, so in practice false still means "none eligible").
  bool found = false;
  std::size_t best_index = 0;  ///< view index of the banded-argmax winner
  double best_score = 0.0;     ///< its add score
  bool exact_proven = false;   ///< bit-identity to the full scan is proven
};

/// All candidates a frontier scan scored, ascending view index, with
/// their add scores — the raw material for consumers that need more than
/// the argmax (branch-and-bound ordering).
struct FrontierScanResult {
  std::vector<std::size_t> indices;
  std::vector<double> scores;
  bool exact_proven = false;
};

/// \brief Scores the per-shard top-k slates of `pool` against `session`'s
/// committed jury and (in exact mode) refines until the scanned set
/// provably contains the full scan's banded argmax.
///
/// Eligibility of view index `i`: `!excluded[i]` and
/// `!(jury_cost + cost[i] > budget)` — byte-for-byte the affordability
/// expression of the solvers' full scans, so the eligible sets match to
/// the last rounding. A shard with `jury_cost + min_cost > budget` is
/// skipped whole.
///
/// Exactness rule: solvers pick winners with the banded first-wins argmax
/// — a later candidate only displaces the incumbent when it scores more
/// than `kScoreEquivalenceTol` higher. For a pruned (unscanned) candidate
/// `p` of shard `s`, monotonicity in `key` bounds `score(p) <= fence_s`,
/// where `fence_s` is the score of any *scanned* eligible candidate whose
/// key is >= the shard's fence key, the key of its scanned slate prefix's
/// last member (scores depend only on the key and the committed jury,
/// not on which shard the candidate sits in, so any scanned witness
/// fences the shard). The guard accepts shard `s` when
///
///     fence_s <= rb_entry(s) + kScoreEquivalenceTol / 2,
///
/// with `rb_entry(s)` the running best the banded argmax holds when it
/// reaches the shard's first index (computed over scanned candidates
/// only; over all candidates it could only be larger). Then no pruned
/// candidate of `s` can displace anything the full scan's incumbent
/// chain does — the full scan and the scanned-only scan pick the same
/// winner, bit for bit. Shards failing the guard are expanded to a full
/// shard scan and the check repeats; in the worst case every shard
/// expands and the scan *is* the full scan, so exact mode never returns
/// a different bit than the O(N) path.
FrontierScanResult FrontierScanAdds(IncrementalJqEvaluator& session,
                                    const ShardedWorkerPool& pool,
                                    ShardedWorkerPool::KeyColumn key,
                                    const std::vector<char>& excluded,
                                    double jury_cost, double budget,
                                    const FrontierOptions& options,
                                    FrontierScanStats* stats);

/// The banded first-wins argmax over `FrontierScanAdds` — a drop-in for
/// the solvers' full-scan round: in exact mode, (found, best_index,
/// best_score) are bit-identical to the full O(N) scan's.
FrontierPick FrontierSelectAdd(IncrementalJqEvaluator& session,
                               const ShardedWorkerPool& pool,
                               ShardedWorkerPool::KeyColumn key,
                               const std::vector<char>& excluded,
                               double jury_cost, double budget,
                               const FrontierOptions& options,
                               FrontierScanStats* stats);

/// Maps an objective's monotone score key onto the pool's slate columns;
/// empty when the objective declares none (frontier unusable).
inline bool FrontierKeyColumn(JqObjective::ScoreMonotoneKey key,
                              ShardedWorkerPool::KeyColumn* column) {
  switch (key) {
    case JqObjective::ScoreMonotoneKey::kNormQuality:
      *column = ShardedWorkerPool::KeyColumn::kNormQuality;
      return true;
    case JqObjective::ScoreMonotoneKey::kQuality:
      *column = ShardedWorkerPool::KeyColumn::kQuality;
      return true;
    case JqObjective::ScoreMonotoneKey::kNone:
      return false;
  }
  return false;
}

/// True when `options`-style knobs allow frontier scans for this solve:
/// a pool is wired, it is built over exactly the view the session is
/// bound to, and the objective declares a monotone key (written through
/// `*column`).
bool FrontierUsable(const ShardedWorkerPool* pool,
                    const WorkerPoolView* session_view,
                    const JqObjective& objective, std::size_t frontier_k,
                    ShardedWorkerPool::KeyColumn* column);

/// Folds a solve's accumulated stats into the process-wide registry
/// counters (`frontier.candidates_scanned`, `frontier.exactness_proofs`).
/// Solvers call it once per solve, after the last scan.
void FlushFrontierStats(const FrontierScanStats& stats);

}  // namespace jury

#endif  // JURYOPT_CORE_FRONTIER_H_
