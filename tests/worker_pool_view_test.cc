// Tests for the columnar worker-pool view: column values must equal the
// per-worker expressions the evaluation backends run (bit-for-bit, since
// sessions substitute the columns for the struct reads).

#include <vector>

#include "gtest/gtest.h"
#include "model/worker_pool_view.h"
#include "test_util.h"
#include "util/math.h"
#include "util/rng.h"

namespace jury {
namespace {

using jury::testing::RandomPool;

TEST(WorkerPoolViewTest, ColumnsMatchStructFields) {
  Rng rng(5501);
  const std::vector<Worker> pool = RandomPool(&rng, 64, 0.0, 1.0, 0.0, 2.0);
  const WorkerPoolView view(pool);
  ASSERT_EQ(view.size(), pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    EXPECT_EQ(view.quality()[i], pool[i].quality) << i;
    EXPECT_EQ(view.cost()[i], pool[i].cost) << i;
  }
}

TEST(WorkerPoolViewTest, DerivedColumnsAreBackendExpressionsVerbatim) {
  // Sessions read these columns where `EstimateJq` and the bucket
  // backend's prior pseudo-worker run LogOdds(EffectiveQuality(norm_q));
  // the columns must hold exactly those doubles or session scores would
  // drift from the one-shot estimator's.
  Rng rng(5503);
  std::vector<Worker> pool = RandomPool(&rng, 40, 0.0, 1.0, 0.0, 1.0);
  pool.push_back(Worker("half", 0.5, 0.0));
  pool.push_back(Worker("zero", 0.0, 0.0));
  pool.push_back(Worker("one", 1.0, 0.0));
  const WorkerPoolView view(pool);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const double norm = NormalizedQuality(pool[i].quality);
    EXPECT_EQ(view.norm_quality()[i], norm) << i;
    EXPECT_GE(view.norm_quality()[i], 0.5) << i;
    EXPECT_EQ(view.log_odds()[i], LogOdds(EffectiveQuality(norm))) << i;
  }
}

TEST(WorkerPoolViewTest, EmptyPool) {
  const WorkerPoolView view{std::span<const Worker>{}};
  EXPECT_TRUE(view.empty());
  EXPECT_EQ(view.size(), 0u);
}

}  // namespace
}  // namespace jury
