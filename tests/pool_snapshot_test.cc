// Tests for the binary pool-snapshot format: a written snapshot must load
// back bit-identical (columns and ids), every truncation and every
// single-bit corruption of a small image must be rejected as a Status
// (never UB, never a silently wrong pool), and a snapshot-planned solve
// must report exactly what the CSV-planned solve reports.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "api/solve.h"
#include "model/pool_snapshot.h"
#include "model/worker_pool_view.h"
#include "test_util.h"
#include "util/rng.h"
#include "util/simd_dispatch.h"

namespace jury {
namespace {

using jury::testing::Figure1Workers;
using jury::testing::RandomPool;

std::string TempPath(const char* name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr && dir[0] != '\0' ? dir : "/tmp") + "/" +
         name;
}

std::vector<std::byte> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::vector<std::byte> bytes;
  if (f != nullptr) {
    std::fseek(f, 0, SEEK_END);
    bytes.resize(static_cast<std::size_t>(std::ftell(f)));
    std::fseek(f, 0, SEEK_SET);
    EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  }
  return bytes;
}

void ExpectSnapshotMatchesView(const PoolSnapshot& snapshot,
                               const std::vector<Worker>& workers,
                               const WorkerPoolView& view) {
  ASSERT_EQ(snapshot.size(), workers.size());
  for (std::size_t i = 0; i < workers.size(); ++i) {
    EXPECT_EQ(snapshot.id(i), workers[i].id) << i;
    EXPECT_EQ(snapshot.quality()[i], view.quality()[i]) << i;
    EXPECT_EQ(snapshot.cost()[i], view.cost()[i]) << i;
    EXPECT_EQ(snapshot.norm_quality()[i], view.norm_quality()[i]) << i;
    EXPECT_EQ(snapshot.log_odds()[i], view.log_odds()[i]) << i;
  }
}

TEST(PoolSnapshotTest, RoundTripIsBitIdentical) {
  Rng rng(9901);
  std::vector<Worker> workers = RandomPool(&rng, 300, 0.0, 1.0, 0.0, 3.0);
  workers.push_back(Worker("", 0.5, 0.0));  // empty id is legal
  const WorkerPoolView view(workers);
  const std::string path = TempPath("juryopt_snapshot_test.snap");
  ASSERT_TRUE(PoolSnapshot::Write(path, workers, view).ok());

  auto loaded = PoolSnapshot::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  ExpectSnapshotMatchesView(loaded.value(), workers, view);

  // FromBytes over the same image must agree with the mapped load.
  const std::vector<std::byte> bytes = ReadFile(path);
  auto adopted = PoolSnapshot::FromBytes(bytes.data(), bytes.size());
  ASSERT_TRUE(adopted.ok()) << adopted.status().message();
  ExpectSnapshotMatchesView(adopted.value(), workers, view);

  const std::vector<Worker> materialized =
      loaded.value().MaterializeWorkers();
  ASSERT_EQ(materialized.size(), workers.size());
  for (std::size_t i = 0; i < workers.size(); ++i) {
    EXPECT_EQ(materialized[i].id, workers[i].id);
    EXPECT_EQ(materialized[i].quality, workers[i].quality);
    EXPECT_EQ(materialized[i].cost, workers[i].cost);
  }
  std::remove(path.c_str());
}

TEST(PoolSnapshotTest, EmptyPoolRoundTrips) {
  const std::vector<Worker> none;
  const WorkerPoolView view(none);
  const std::string path = TempPath("juryopt_snapshot_empty.snap");
  ASSERT_TRUE(PoolSnapshot::Write(path, none, view).ok());
  auto loaded = PoolSnapshot::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(loaded.value().size(), 0u);
  std::remove(path.c_str());
}

TEST(PoolSnapshotTest, EveryTruncationIsRejected) {
  const std::vector<Worker> workers = Figure1Workers();
  const WorkerPoolView view(workers);
  const std::string path = TempPath("juryopt_snapshot_trunc.snap");
  ASSERT_TRUE(PoolSnapshot::Write(path, workers, view).ok());
  const std::vector<std::byte> bytes = ReadFile(path);
  std::remove(path.c_str());
  ASSERT_GT(bytes.size(), PoolSnapshot::kHeaderBytes);
  for (std::size_t prefix = 0; prefix < bytes.size(); ++prefix) {
    auto result = PoolSnapshot::FromBytes(bytes.data(), prefix);
    EXPECT_FALSE(result.ok()) << "prefix " << prefix << " accepted";
  }
}

TEST(PoolSnapshotTest, EverySingleBitFlipIsRejected) {
  // Header bytes are covered by the header checksum (or are the checksum /
  // reserved field themselves), payload bytes by the blocked payload
  // checksum — so no single-bit corruption anywhere in the image may
  // attach.
  const std::vector<Worker> workers = Figure1Workers();
  const WorkerPoolView view(workers);
  const std::string path = TempPath("juryopt_snapshot_flip.snap");
  ASSERT_TRUE(PoolSnapshot::Write(path, workers, view).ok());
  const std::vector<std::byte> bytes = ReadFile(path);
  std::remove(path.c_str());
  std::vector<std::byte> corrupted = bytes;
  for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      corrupted[byte] = bytes[byte] ^ static_cast<std::byte>(1u << bit);
      auto result = PoolSnapshot::FromBytes(corrupted.data(), corrupted.size());
      EXPECT_FALSE(result.ok()) << "byte " << byte << " bit " << bit;
      corrupted[byte] = bytes[byte];
    }
  }
}

TEST(PoolSnapshotTest, ChecksumIsIdenticalAcrossSimdLevels) {
  // The checksum is part of the wire format, so the scalar and vector
  // hash kernels must produce byte-identical images — and each level must
  // accept what the other wrote.
  Rng rng(9907);
  const std::vector<Worker> workers = RandomPool(&rng, 500, 0.0, 1.0, 0.0, 2.0);
  const WorkerPoolView view(workers);
  const std::string scalar_path = TempPath("juryopt_snapshot_scalar.snap");
  const std::string vector_path = TempPath("juryopt_snapshot_vector.snap");

  const simd::Level previous = simd::ActiveLevel();
  ASSERT_TRUE(simd::SetLevel(simd::Level::kScalar));
  ASSERT_TRUE(PoolSnapshot::Write(scalar_path, workers, view).ok());
  const std::vector<std::byte> scalar_bytes = ReadFile(scalar_path);

  if (simd::Avx2Available()) {
    ASSERT_TRUE(simd::SetLevel(simd::Level::kAvx2));
    ASSERT_TRUE(PoolSnapshot::Write(vector_path, workers, view).ok());
    const std::vector<std::byte> vector_bytes = ReadFile(vector_path);
    ASSERT_EQ(scalar_bytes.size(), vector_bytes.size());
    EXPECT_EQ(std::memcmp(scalar_bytes.data(), vector_bytes.data(),
                          scalar_bytes.size()),
              0);
    EXPECT_TRUE(
        PoolSnapshot::FromBytes(scalar_bytes.data(), scalar_bytes.size())
            .ok());
    std::remove(vector_path.c_str());
  }
  ASSERT_TRUE(simd::SetLevel(simd::Level::kScalar));
  EXPECT_TRUE(PoolSnapshot::FromBytes(scalar_bytes.data(), scalar_bytes.size())
                  .ok());
  simd::SetLevel(previous);
  std::remove(scalar_path.c_str());
}

TEST(PoolSnapshotTest, SnapshotPlanSolvesLikeCsvPlan) {
  Rng rng(9909);
  const std::vector<Worker> workers = RandomPool(&rng, 400, 0.0, 1.0, 0.01, 1.0);
  const WorkerPoolView view(workers);
  const std::string path = TempPath("juryopt_snapshot_plan.snap");
  ASSERT_TRUE(PoolSnapshot::Write(path, workers, view).ok());

  auto memory_plan = api::PoolPlanContext::Plan(workers);
  ASSERT_TRUE(memory_plan.ok());
  auto snapshot_plan = api::PoolPlanContext::PlanFromSnapshot(path);
  ASSERT_TRUE(snapshot_plan.ok()) << snapshot_plan.status().message();
  std::remove(path.c_str());
  EXPECT_STREQ(memory_plan.value().pool_source(), "memory");
  EXPECT_STREQ(snapshot_plan.value().pool_source(), "snapshot");
  ASSERT_EQ(snapshot_plan.value().num_candidates(), workers.size());

  for (const char* solver : {"greedy-mg", "greedy-quality", "annealing"}) {
    api::SolveRequest request;
    request.solver = solver;
    request.budget = 2.5;
    auto memory_report = memory_plan.value().Solve(request);
    auto snapshot_report = snapshot_plan.value().Solve(request);
    ASSERT_TRUE(memory_report.ok()) << solver;
    ASSERT_TRUE(snapshot_report.ok()) << solver;
    // Identical up to wall clock: same jury, same score, same counters.
    EXPECT_EQ(memory_report.value().solution.selected,
              snapshot_report.value().solution.selected)
        << solver;
    EXPECT_EQ(memory_report.value().solution.jq,
              snapshot_report.value().solution.jq)
        << solver;
    EXPECT_EQ(memory_report.value().solution.cost,
              snapshot_report.value().solution.cost)
        << solver;
    EXPECT_EQ(memory_report.value().stats, snapshot_report.value().stats)
        << solver;
  }
}

}  // namespace
}  // namespace jury
