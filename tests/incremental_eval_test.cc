// Property tests for the IncrementalJqEvaluator sessions: every staged
// score must agree with a from-scratch `Evaluate` of the same member list
// within 1e-12, across all three backends, arbitrary add/remove/swap
// sequences, rollbacks, and the bucket estimator's special-case modes.

#include <algorithm>
#include <memory>
#include <numeric>
#include <span>
#include <vector>

#include "gtest/gtest.h"
#include "core/jsp.h"
#include "core/objective.h"
#include "model/worker_pool_view.h"
#include "test_util.h"
#include "util/rng.h"

namespace jury {
namespace {

constexpr double kTol = 1e-12;

// The scalar moves name their incoming candidate by view index; a `Worker`
// record is not a move argument.
template <class In>
concept ScoreAddTakes =
    requires(IncrementalJqEvaluator& session, const In& in) {
      session.ScoreAdd(in);
    };
template <class In>
concept ScoreSwapTakes =
    requires(IncrementalJqEvaluator& session, const In& in) {
      session.ScoreSwap(std::size_t{0}, in);
    };
template <class In>
concept CommitAddTakes =
    requires(IncrementalJqEvaluator& session, const In& in) {
      session.CommitAdd(in, 0.0);
    };
static_assert(ScoreAddTakes<std::size_t> && ScoreSwapTakes<std::size_t> &&
              CommitAddTakes<std::size_t>);
static_assert(!ScoreAddTakes<Worker> && !ScoreSwapTakes<Worker> &&
              !CommitAddTakes<Worker>);

Worker RandomWorker(Rng* rng, int serial, double qlo = 0.05,
                    double qhi = 0.95) {
  std::string id = "w";
  id += std::to_string(serial);
  return Worker(std::move(id), rng->Uniform(qlo, qhi), 0.0);
}

/// Shared churn harness: random add/remove/swap moves, each committed or
/// rolled back at random; after every step the staged score and the
/// committed score are checked against the stateless evaluator.
void ChurnAgainstEvaluate(const JqObjective& objective, double alpha,
                          std::uint64_t seed, int steps, double qlo,
                          double qhi, std::size_t max_size) {
  Rng rng(seed);
  // Each step brings in at most one new worker, so `steps` workers drawn
  // up front cover the walk; adds and swaps hand them out in pool order.
  std::vector<Worker> pool;
  for (int i = 0; i < steps; ++i) {
    pool.push_back(RandomWorker(&rng, i, qlo, qhi));
  }
  const WorkerPoolView view(pool);
  auto session = objective.StartSession(view, alpha);
  std::vector<std::size_t> shadow;  // mirrors the committed member list
  std::size_t next = 0;

  ASSERT_NEAR(session->current_jq(), EmptyJuryJq(alpha), kTol);

  for (int step = 0; step < steps; ++step) {
    const std::uint64_t move =
        shadow.empty() ? 0 : (shadow.size() >= max_size
                                  ? 1 + rng.UniformInt(2)
                                  : rng.UniformInt(3));
    std::vector<std::size_t> hypothetical = shadow;
    double score = 0.0;
    if (move == 0) {  // add
      score = session->ScoreAdd(next);
      hypothetical.push_back(next++);
    } else if (move == 1) {  // remove
      const std::size_t idx =
          rng.UniformInt(static_cast<std::uint64_t>(shadow.size()));
      score = session->ScoreRemove(idx);
      hypothetical.erase(hypothetical.begin() +
                         static_cast<std::ptrdiff_t>(idx));
    } else {  // swap
      const std::size_t idx =
          rng.UniformInt(static_cast<std::uint64_t>(shadow.size()));
      score = session->ScoreSwap(idx, next);
      hypothetical[idx] = next++;
    }

    ASSERT_NEAR(score, objective.Evaluate(view, hypothetical, alpha), kTol)
        << objective.name() << " seed=" << seed << " step=" << step
        << " move=" << move << " size=" << hypothetical.size();

    if (rng.Bernoulli(0.3)) {
      session->Rollback();
      // The committed state must be untouched by the discarded move.
      ASSERT_EQ(session->members(), shadow);
      ASSERT_NEAR(session->current_jq(),
                  objective.Evaluate(view, shadow, alpha), kTol);
    } else {
      session->Commit();
      shadow = std::move(hypothetical);
      ASSERT_EQ(session->members(), shadow);
      ASSERT_NEAR(session->current_jq(),
                  objective.Evaluate(view, session->members(), alpha), kTol)
          << objective.name() << " seed=" << seed << " step=" << step;
    }
  }
}

TEST(IncrementalEvalTest, BucketBvChurnMatchesEvaluate) {
  const BucketBvObjective objective;
  for (double alpha : {0.5, 0.3, 0.8}) {
    ChurnAgainstEvaluate(objective, alpha, 101, 200, 0.05, 0.95, 40);
  }
}

TEST(IncrementalEvalTest, BucketBvHighResolutionGrid) {
  BucketJqOptions options;
  options.num_buckets = 400;
  const BucketBvObjective objective(options);
  ChurnAgainstEvaluate(objective, 0.5, 103, 120, 0.05, 0.95, 25);
}

TEST(IncrementalEvalTest, BucketBvShortcutAndDegenerateModes) {
  // Qualities straddling the 0.99 high-quality cutoff force the session in
  // and out of the §4.4 shortcut; qualities at exactly 0.5 exercise the
  // all-phi-zero mode; qualities below 0.5 the flip normalization.
  const BucketBvObjective objective;
  ChurnAgainstEvaluate(objective, 0.5, 107, 150, 0.3, 1.0, 20);
  ChurnAgainstEvaluate(objective, 0.7, 109, 150, 0.3, 1.0, 20);

  // Deterministic walk through the modes.
  const std::vector<Worker> pool = {Worker("half", 0.5, 0.0),
                                    Worker("sharp", 0.999, 0.0),
                                    Worker("solid", 0.8, 0.0)};
  const WorkerPoolView view(pool);
  auto session = objective.StartSession(view, 0.5);
  session->ScoreAdd(0);
  session->Commit();
  EXPECT_NEAR(session->current_jq(), 0.5, kTol);  // all-0.5 mode
  session->ScoreAdd(1);
  session->Commit();
  EXPECT_NEAR(session->current_jq(), 0.999, kTol);  // shortcut mode
  session->ScoreAdd(2);
  session->Commit();
  EXPECT_NEAR(session->current_jq(), 0.999, kTol);  // still shortcut
  session->ScoreRemove(1);  // drop "sharp": back to the regular DP
  session->Commit();
  EXPECT_NEAR(session->current_jq(),
              objective.Evaluate(view, session->members(), 0.5), kTol);
}

TEST(IncrementalEvalTest, ExactBvChurnMatchesEvaluate) {
  const ExactBvObjective objective;
  for (double alpha : {0.5, 0.35}) {
    ChurnAgainstEvaluate(objective, alpha, 211, 150, 0.05, 0.95, 10);
  }
}

TEST(IncrementalEvalTest, ExactBvBeyondCacheCapFallsBackCorrectly) {
  const ExactBvObjective objective;
  Rng rng(223);
  std::vector<Worker> pool;
  for (int i = 0; i < 22; ++i) pool.push_back(RandomWorker(&rng, i, 0.55, 0.9));
  const WorkerPoolView view(pool);
  auto session = objective.StartSession(view, 0.5);
  // Grow past the 2^n cache cap (20 members) and make sure scores stay
  // correct through the enumeration fallback and the rebuild on shrink.
  for (std::size_t i = 0; i < pool.size(); ++i) {
    session->ScoreAdd(i);
    session->Commit();
  }
  EXPECT_NEAR(session->current_jq(),
              objective.Evaluate(view, session->members(), 0.5), kTol);
  // Shrink back under the cap: the cache must rebuild transparently.
  session->ScoreRemove(0);
  session->Commit();
  session->ScoreRemove(0);
  session->Commit();
  EXPECT_NEAR(session->current_jq(),
              objective.Evaluate(view, session->members(), 0.5), kTol);
}

TEST(IncrementalEvalTest, MajorityChurnMatchesEvaluate) {
  const MajorityObjective objective;
  for (double alpha : {0.5, 0.2, 0.9}) {
    ChurnAgainstEvaluate(objective, alpha, 307, 250, 0.05, 0.95, 60);
  }
}

TEST(IncrementalEvalTest, MajorityHandlesDegenerateQualities) {
  const MajorityObjective objective;
  ChurnAgainstEvaluate(objective, 0.5, 311, 120, 0.0, 1.0, 30);
}

TEST(IncrementalEvalTest, FullRecomputeSessionIsEvaluateVerbatim) {
  const BucketBvObjective bucket;
  const MajorityObjective majority;
  for (const JqObjective* objective :
       std::vector<const JqObjective*>{&bucket, &majority}) {
    Rng rng(401);
    std::vector<Worker> pool;
    for (int step = 0; step < 40; ++step) {
      pool.push_back(RandomWorker(&rng, step, 0.4, 0.9));
    }
    const WorkerPoolView view(pool);
    auto session = objective->StartSession(view, 0.5, /*incremental=*/false);
    std::vector<std::size_t> shadow;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      const double score = session->ScoreAdd(i);
      shadow.push_back(i);
      // Bit-equal, not just near: the fallback session *is* Evaluate.
      ASSERT_EQ(score, objective->Evaluate(view, shadow, 0.5));
      session->Commit();
    }
  }
}

TEST(IncrementalEvalTest, RestagingReplacesThePendingMove) {
  const MajorityObjective objective;
  const std::vector<Worker> pool = {Worker("a", 0.9, 0.0),
                                    Worker("b", 0.6, 0.0)};
  const WorkerPoolView view(pool);
  auto session = objective.StartSession(view, 0.5);
  session->ScoreAdd(0);
  session->ScoreAdd(1);  // replaces the staged move
  session->Commit();
  EXPECT_EQ(session->members(), std::vector<std::size_t>{1});
  EXPECT_NEAR(session->current_jq(), 0.6, kTol);
}

TEST(IncrementalEvalTest, CountersSplitFullAndIncremental) {
  const MajorityObjective objective;
  objective.ResetEvaluationCounters();
  const std::vector<Worker> pool = {Worker("w", 0.7, 0.0)};
  const WorkerPoolView view(pool);
  auto session = objective.StartSession(view, 0.5);
  session->ScoreAdd(0);
  session->Commit();
  session->ScoreAdd(0);
  session->Rollback();
  EXPECT_EQ(objective.evaluation_counters().incremental, 2u);
  EXPECT_EQ(objective.evaluation_counters().full, 0u);

  objective.Evaluate(view, std::vector<std::size_t>{0}, 0.5);
  EXPECT_EQ(objective.evaluation_counters().full, 1u);
  EXPECT_EQ(objective.evaluations(), 3u);  // legacy total

  auto reference = objective.StartSession(view, 0.5, /*incremental=*/false);
  reference->ScoreAdd(0);
  EXPECT_EQ(objective.evaluation_counters().full, 2u);
  EXPECT_EQ(objective.evaluation_counters().incremental, 2u);
}

/// Shared harness for the unified (view-index) move-scan contract: against
/// committed juries of several sizes, the index-based `ScoreAddBatch`,
/// `ScoreRemoveBatch`, and `ScoreSwapBatch` must reproduce the scalar
/// `Score*` score of every candidate bit for bit, independently of batch
/// composition — and spend exactly the evaluation-counter budget the
/// scalar scan spends (the relaxed atomic accumulation must not lose
/// counts; see JqObjective::evaluation_counters).
void UnifiedScanMatchesScalar(const JqObjective& objective, double alpha,
                              bool incremental, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Worker> pool;
  for (int j = 0; j < 20; ++j) pool.push_back(RandomWorker(&rng, j));
  // Bucket-backend special cases: §4.4 shortcut, grid mover, coin, flip.
  pool.push_back(Worker("hq", 0.995, 0.0));
  pool.push_back(Worker("gridmove", 0.949, 0.0));
  pool.push_back(Worker("coin", 0.5, 0.0));
  pool.push_back(Worker("flip", 0.2, 0.0));
  const WorkerPoolView view(pool);
  auto session = objective.StartSession(view, alpha, incremental);
  std::vector<std::size_t> ids(view.size());
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = i;

  for (int committed = 0; committed < 5; ++committed) {
    const std::size_t size = session->size();
    // ---- adds (index-based) ----
    std::vector<double> scalar(ids.size());
    objective.ResetEvaluationCounters();
    for (std::size_t j = 0; j < ids.size(); ++j) {
      scalar[j] = session->ScoreAdd(ids[j]);
      session->Rollback();
    }
    const EvaluationCounters scalar_adds = objective.evaluation_counters();
    objective.ResetEvaluationCounters();
    std::vector<double> batched(ids.size(), -1.0);
    session->ScoreAddBatch(ids.data(), ids.size(), batched.data());
    const EvaluationCounters batch_adds = objective.evaluation_counters();
    for (std::size_t j = 0; j < ids.size(); ++j) {
      EXPECT_EQ(batched[j], scalar[j])
          << objective.name() << " add committed=" << committed
          << " j=" << j << " (" << pool[ids[j]].id << ")";
    }
    EXPECT_EQ(batch_adds.total(), scalar_adds.total())
        << objective.name() << " add counters, committed=" << committed;
    // Batch-composition independence.
    const std::size_t half = ids.size() / 2;
    std::vector<double> split(ids.size(), -1.0);
    session->ScoreAddBatch(ids.data(), half, split.data());
    session->ScoreAddBatch(ids.data() + half, ids.size() - half,
                           split.data() + half);
    for (std::size_t j = 0; j < ids.size(); ++j) {
      EXPECT_EQ(split[j], batched[j]) << objective.name() << " add split";
    }

    if (size > 0) {
      // ---- removes (member positions) ----
      std::vector<std::size_t> positions(size);
      for (std::size_t pos = 0; pos < size; ++pos) positions[pos] = pos;
      std::vector<double> rm_scalar(size);
      objective.ResetEvaluationCounters();
      for (std::size_t pos = 0; pos < size; ++pos) {
        rm_scalar[pos] = session->ScoreRemove(pos);
        session->Rollback();
      }
      const EvaluationCounters scalar_rm = objective.evaluation_counters();
      objective.ResetEvaluationCounters();
      std::vector<double> rm_batched(size, -1.0);
      session->ScoreRemoveBatch(positions.data(), size, rm_batched.data());
      const EvaluationCounters batch_rm = objective.evaluation_counters();
      for (std::size_t pos = 0; pos < size; ++pos) {
        EXPECT_EQ(rm_batched[pos], rm_scalar[pos])
            << objective.name() << " remove committed=" << committed
            << " pos=" << pos;
      }
      EXPECT_EQ(batch_rm.total(), scalar_rm.total())
          << objective.name() << " remove counters";

      // ---- swaps (one out position, batch of partners) ----
      for (const std::size_t out_pos :
           {std::size_t{0}, size / 2, size - 1}) {
        std::vector<double> sw_scalar(ids.size());
        objective.ResetEvaluationCounters();
        for (std::size_t j = 0; j < ids.size(); ++j) {
          sw_scalar[j] = session->ScoreSwap(out_pos, ids[j]);
          session->Rollback();
        }
        const EvaluationCounters scalar_sw = objective.evaluation_counters();
        objective.ResetEvaluationCounters();
        std::vector<double> sw_batched(ids.size(), -1.0);
        session->ScoreSwapBatch(out_pos, ids.data(), ids.size(),
                                sw_batched.data());
        const EvaluationCounters batch_sw = objective.evaluation_counters();
        for (std::size_t j = 0; j < ids.size(); ++j) {
          EXPECT_EQ(sw_batched[j], sw_scalar[j])
              << objective.name() << " swap committed=" << committed
              << " out=" << out_pos << " j=" << j;
        }
        EXPECT_EQ(batch_sw.total(), scalar_sw.total())
            << objective.name() << " swap counters";
      }
    }
    EXPECT_FALSE(session->has_staged_move());
    // Grow through a batch-scored winner, as the solvers do.
    const std::size_t winner = static_cast<std::size_t>(committed);
    session->CommitAdd(winner, batched[winner]);
    EXPECT_EQ(session->current_jq(), batched[winner]);
  }
}

TEST(IncrementalEvalTest, UnifiedScanMatchesScalarBucketBv) {
  UnifiedScanMatchesScalar(BucketBvObjective(), 0.5, true, 41001);
  UnifiedScanMatchesScalar(BucketBvObjective(), 0.7, true, 41003);
  BucketJqOptions no_shortcut;
  no_shortcut.high_quality_cutoff = 1.0;
  UnifiedScanMatchesScalar(BucketBvObjective(no_shortcut), 0.5, true, 41005);
}

TEST(IncrementalEvalTest, UnifiedScanMatchesScalarMajority) {
  UnifiedScanMatchesScalar(MajorityObjective(), 0.5, true, 41011);
  UnifiedScanMatchesScalar(MajorityObjective(), 0.65, true, 41013);
}

TEST(IncrementalEvalTest, UnifiedScanMatchesScalarExactBv) {
  // Exercises the base-class scalar-loop fallbacks of the unified API.
  UnifiedScanMatchesScalar(ExactBvObjective(), 0.5, true, 41021);
}

TEST(IncrementalEvalTest, UnifiedScanMatchesScalarFullRecompute) {
  UnifiedScanMatchesScalar(BucketBvObjective(), 0.5, /*incremental=*/false,
                           41031);
  UnifiedScanMatchesScalar(MajorityObjective(), 0.5, /*incremental=*/false,
                           41033);
}

TEST(IncrementalEvalTest, MemberIndicesTrackMoves) {
  const MajorityObjective objective;
  Rng rng(41041);
  std::vector<Worker> pool;
  for (int j = 0; j < 8; ++j) pool.push_back(RandomWorker(&rng, j));
  const WorkerPoolView view(pool);
  auto session = objective.StartSession(view, 0.5);
  for (std::size_t i = 0; i < 6; ++i) {
    session->ScoreAdd(i);
    session->Commit();
  }
  session->ScoreSwap(2, 7);
  session->Commit();
  session->ScoreRemove(0);
  session->Commit();
  session->CommitAdd(6, session->ScoreAdd(6));
  EXPECT_EQ(session->members(),
            (std::vector<std::size_t>{1, 7, 3, 4, 5, 6}));
}

TEST(IncrementalEvalTest, ScoreAddBatchOnClonesMatchesParent) {
  // The parallel greedy scan scores through per-shard clones; their batch
  // scores must be bit-identical to the parent session's.
  const BucketBvObjective objective;
  Rng rng(31041);
  // Pool positions 0-4 are the committed jury, 5-20 the scanned candidates.
  std::vector<Worker> pool;
  for (int i = 0; i < 5; ++i) pool.push_back(RandomWorker(&rng, 100 + i));
  for (int j = 0; j < 16; ++j) pool.push_back(RandomWorker(&rng, j));
  const WorkerPoolView view(pool);
  auto session = objective.StartSession(view, 0.5);
  for (std::size_t i = 0; i < 5; ++i) {
    session->ScoreAdd(i);
    session->Commit();
  }
  std::vector<std::size_t> ids;
  for (std::size_t j = 5; j < pool.size(); ++j) ids.push_back(j);
  std::vector<double> parent(ids.size());
  session->ScoreAddBatch(ids.data(), ids.size(), parent.data());
  auto clone = session->Clone();
  ASSERT_NE(clone, nullptr);
  std::vector<double> cloned(ids.size());
  clone->ScoreAddBatch(ids.data(), ids.size(), cloned.data());
  for (std::size_t j = 0; j < ids.size(); ++j) {
    EXPECT_EQ(cloned[j], parent[j]) << "j=" << j;
  }
}

/// Every scalar and batched add/remove/swap score of the committed jury's
/// neighbourhood over candidates `ins` (view indices), as one flat list.
/// Leaves nothing staged.
std::vector<double> NeighbourhoodScores(IncrementalJqEvaluator& session,
                                        const std::vector<std::size_t>& ins) {
  std::vector<double> scores;
  std::vector<double> batch(std::max(ins.size(), session.size()));
  const auto append_batch = [&](std::size_t count) {
    scores.insert(scores.end(), batch.begin(),
                  batch.begin() + static_cast<std::ptrdiff_t>(count));
  };
  for (std::size_t in : ins) {
    scores.push_back(session.ScoreAdd(in));
    session.Rollback();
  }
  session.ScoreAddBatch(ins.data(), ins.size(), batch.data());
  append_batch(ins.size());
  std::vector<std::size_t> positions(session.size());
  std::iota(positions.begin(), positions.end(), std::size_t{0});
  for (std::size_t pos : positions) {
    scores.push_back(session.ScoreRemove(pos));
    session.Rollback();
    for (std::size_t in : ins) {
      scores.push_back(session.ScoreSwap(pos, in));
      session.Rollback();
    }
    session.ScoreSwapBatch(pos, ins.data(), ins.size(), batch.data());
    append_batch(ins.size());
  }
  session.ScoreRemoveBatch(positions.data(), positions.size(), batch.data());
  append_batch(positions.size());
  return scores;
}

TEST(IncrementalEvalTest, IncrementalSessionsReadOnlyViewColumns) {
  // Sessions name candidates by view index and score from the view's
  // columns, so a view adopted from bare columns drives every backend —
  // the delta-updating ones and the full-recompute session alike — to
  // the same bits as an owning view of the same pool.
  Rng rng(41051);
  std::vector<Worker> pool;
  for (int j = 0; j < 24; ++j) {
    pool.push_back(RandomWorker(&rng, j, 0.55, 0.9));
  }
  pool.push_back(Worker("hq", 0.995, 0.0));  // 24: §4.4 shortcut
  pool.push_back(Worker("coin", 0.5, 0.0));  // 25
  pool.push_back(Worker("flip", 0.2, 0.0));  // 26
  const WorkerPoolView owning(pool);
  const auto copy = [](std::span<const double> column) {
    return std::vector<double>(column.begin(), column.end());
  };
  const std::vector<double> quality = copy(owning.quality());
  const std::vector<double> cost = copy(owning.cost());
  const std::vector<double> norm = copy(owning.norm_quality());
  const std::vector<double> phi = copy(owning.log_odds());
  const WorkerPoolView columns =
      WorkerPoolView::FromColumns(quality, cost, norm, phi);

  const std::vector<std::size_t> scan = {6, 7, 8, 24, 25, 26};
  const BucketBvObjective bucket;
  const MajorityObjective majority;
  const ExactBvObjective exact;
  for (const JqObjective* objective :
       std::vector<const JqObjective*>{&bucket, &majority, &exact}) {
    for (const bool incremental : {true, false}) {
      SCOPED_TRACE(objective->name() +
                   (incremental ? "" : " (full recompute)"));
      const auto by_struct =
          objective->StartSession(owning, 0.6, incremental);
      const auto by_column =
          objective->StartSession(columns, 0.6, incremental);
      // Runs `op` on both sessions: same result, same committed state.
      const auto both = [&](const auto& op) {
        EXPECT_EQ(op(*by_struct), op(*by_column));
        EXPECT_EQ(by_struct->current_jq(), by_column->current_jq());
        EXPECT_EQ(by_struct->members(), by_column->members());
      };
      // Grows the jury by `in`, committing through `Commit` and
      // `CommitAdd` in turn.
      const auto add = [](std::size_t in) {
        return [in](IncrementalJqEvaluator& session) {
          const double score = session.ScoreAdd(in);
          if (in % 2 == 0) {
            session.Commit();
          } else {
            session.CommitAdd(in, score);
          }
          return score;
        };
      };
      for (std::size_t in = 0; in < 6; ++in) both(add(in));
      both([&](IncrementalJqEvaluator& session) {
        return NeighbourhoodScores(session, scan);
      });
      // The full-recompute session enumerates every exact-BV score from
      // scratch, so it skips the 21-member stretch below.
      if (!incremental) continue;
      both([&](IncrementalJqEvaluator& session) {
        return NeighbourhoodScores(*session.Clone(), scan);
      });
      both([](IncrementalJqEvaluator& session) {
        const double score = session.ScoreSwap(1, 26);
        session.Commit();
        return score;
      });
      both([](IncrementalJqEvaluator& session) {
        const double score = session.ScoreRemove(0);
        session.Commit();
        return score;
      });
      // The 21st member is scored past the exact-BV cache cap, by full
      // enumeration; removals then fold back under it.
      for (std::size_t in = 6; in < 22; ++in) both(add(in));
      ASSERT_EQ(by_column->size(), 21u);
      both([](IncrementalJqEvaluator& session) {
        const std::vector<std::size_t> positions = {0, 20};
        std::vector<double> scores(positions.size());
        session.ScoreRemoveBatch(positions.data(), positions.size(),
                                 scores.data());
        scores.push_back(session.ScoreRemove(20));
        session.Commit();
        return scores;
      });
    }
  }
}

}  // namespace
}  // namespace jury
