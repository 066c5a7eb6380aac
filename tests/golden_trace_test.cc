// The golden-trace determinism gate (see src/api/trace.h).
//
// Each fixture under tests/golden/ is a recorded (pool, request stream,
// report stream). The test replays every fixture under the *current*
// execution configuration and asserts byte-identical normalized report
// JSON; CI runs this binary across JURYOPT_THREADS in {1, 8} x
// JURYOPT_SIMD in {scalar, avx2}, so a determinism regression in any
// solver, kernel tier, or the scheduler fails the matrix — not just a
// same-process property test.
//
// Regenerating fixtures (after an *intentional* behavior change):
//   JURYOPT_REGEN_GOLDEN=1 ./golden_trace_test
// rewrites every fixture from the request streams defined below, then
// fails the run as a reminder that the diff must be reviewed and
// committed deliberately.

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "api/trace.h"
#include "gtest/gtest.h"

namespace jury::api {
namespace {

#ifndef JURYOPT_GOLDEN_DIR
#error "build must define JURYOPT_GOLDEN_DIR (see CMakeLists.txt)"
#endif

std::filesystem::path GoldenPath(const std::string& name) {
  return std::filesystem::path(JURYOPT_GOLDEN_DIR) / (name + ".json");
}

bool RegenRequested() {
  const char* regen = std::getenv("JURYOPT_REGEN_GOLDEN");
  return regen != nullptr && *regen != '\0' && std::string(regen) != "0";
}

/// The paper's Fig. 1 pool (7 workers, "A".."G") plus a free rider and a
/// sub-half worker — the pool every fixture solves against.
std::vector<Worker> FixturePool() {
  return {
      {"A", 0.90, 5.0}, {"B", 0.85, 4.0}, {"C", 0.80, 3.0},
      {"D", 0.75, 2.0}, {"E", 0.70, 2.0}, {"F", 0.65, 1.0},
      {"G", 0.60, 1.0}, {"free", 0.55, 0.0}, {"sub", 0.35, 0.5},
  };
}

/// One fixture = one named request stream. Streams deliberately mix
/// solver families, thread knobs, and both objective backends so the
/// replay crosses every seam the determinism contract covers (restart
/// fan-out, Gray-code sharding, bucket vs exact scoring).
struct Fixture {
  std::string name;
  std::vector<SolveRequest> requests;
};

std::vector<Fixture> Fixtures() {
  std::vector<Fixture> fixtures;

  {
    Fixture deterministic;
    deterministic.name = "deterministic_solvers";
    for (const char* solver :
         {"greedy-quality", "greedy-value", "greedy-mg", "odd-top-k"}) {
      SolveRequest request;
      request.solver = solver;
      request.budget = 8.0;
      request.alpha = 0.4;
      deterministic.requests.push_back(request);
    }
    {
      SolveRequest request;
      request.solver = "exhaustive";
      request.budget = 6.0;
      request.tuning.exhaustive.num_threads = 4;
      deterministic.requests.push_back(request);
    }
    {
      SolveRequest request;
      request.solver = "branch-bound";
      request.budget = 9.0;
      request.alpha = 0.55;
      deterministic.requests.push_back(request);
    }
    fixtures.push_back(std::move(deterministic));
  }

  {
    Fixture stochastic;
    stochastic.name = "stochastic_solvers";
    for (const std::uint64_t seed : {11ull, 22ull, 33ull}) {
      SolveRequest request;
      request.solver = "annealing";
      request.budget = 7.0;
      request.rng_seed = seed;
      request.tuning.annealing.num_restarts = 4;
      request.tuning.annealing.num_threads = 4;
      request.tuning.annealing.return_best_seen = true;
      stochastic.requests.push_back(request);
    }
    {
      SolveRequest request;
      request.solver = "optjs";
      request.budget = 8.0;
      request.rng_seed = 99;
      request.tuning.optjs.num_threads = 4;
      stochastic.requests.push_back(request);
    }
    {
      SolveRequest request;
      request.solver = "mvjs";
      request.budget = 5.0;
      request.rng_seed = 7;
      stochastic.requests.push_back(request);
    }
    fixtures.push_back(std::move(stochastic));
  }

  {
    Fixture objectives;
    objectives.name = "objective_backends";
    for (const char* objective : {"bv-bucket", "bv-exact", "mv-exact"}) {
      SolveRequest request;
      request.solver = "greedy-mg";
      request.budget = 6.0;
      request.alpha = 0.45;
      request.tuning.objective = objective;
      objectives.requests.push_back(request);
    }
    {
      SolveRequest request;
      request.solver = "annealing";
      request.budget = 6.0;
      request.rng_seed = 5;
      request.tuning.objective = "bv-bucket";
      request.tuning.bucket.num_buckets = 200;
      objectives.requests.push_back(request);
    }
    fixtures.push_back(std::move(objectives));
  }

  {
    // Every solver's `use_incremental = false` reference path: the
    // from-scratch `JqObjective::Evaluate` scoring the delta-updating
    // sessions are checked against. No other fixture runs these paths.
    Fixture reference;
    reference.name = "reference_paths";
    for (const char* solver :
         {"greedy-quality", "greedy-value", "greedy-mg", "odd-top-k"}) {
      SolveRequest request;
      request.solver = solver;
      request.budget = 8.0;
      request.alpha = 0.4;
      request.tuning.greedy.use_incremental = false;
      reference.requests.push_back(request);
    }
    for (const char* objective : {"bv-exact", "mv-exact"}) {
      SolveRequest request;
      request.solver = "greedy-mg";
      request.budget = 6.0;
      request.alpha = 0.45;
      request.tuning.objective = objective;
      request.tuning.greedy.use_incremental = false;
      reference.requests.push_back(request);
    }
    {
      SolveRequest request;
      request.solver = "exhaustive";  // the ascending-mask sweep
      request.budget = 6.0;
      request.tuning.exhaustive.use_incremental = false;
      reference.requests.push_back(request);
    }
    {
      SolveRequest request;
      request.solver = "branch-bound";
      request.budget = 9.0;
      request.alpha = 0.55;
      request.tuning.branch_bound.use_incremental = false;
      reference.requests.push_back(request);
    }
    {
      SolveRequest request;
      request.solver = "annealing";
      request.budget = 7.0;
      request.rng_seed = 11;
      request.tuning.annealing.use_incremental = false;
      reference.requests.push_back(request);
    }
    for (const std::size_t threshold : {std::size_t{12}, std::size_t{0}}) {
      SolveRequest request;
      request.solver = "optjs";
      request.budget = 8.0;
      request.rng_seed = 99;
      request.tuning.optjs.exhaustive_threshold = threshold;
      request.tuning.optjs.use_incremental = false;
      reference.requests.push_back(request);
    }
    {
      SolveRequest request;
      request.solver = "mvjs";
      request.budget = 5.0;
      request.rng_seed = 7;
      request.tuning.mvjs.use_incremental = false;
      reference.requests.push_back(request);
    }
    fixtures.push_back(std::move(reference));
  }

  return fixtures;
}

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

class GoldenTraceTest : public ::testing::TestWithParam<Fixture> {};

TEST_P(GoldenTraceTest, ReplayIsByteIdentical) {
  const Fixture& fixture = GetParam();
  const std::filesystem::path path = GoldenPath(fixture.name);

  if (RegenRequested()) {
    Result<SolveTrace> recorded =
        RecordTrace(FixturePool(), fixture.requests);
    ASSERT_TRUE(recorded.ok()) << recorded.status().ToString();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << recorded.value().ToJson() << "\n";
    out.close();
    FAIL() << "regenerated " << path
           << " — review and commit the diff, then rerun without "
              "JURYOPT_REGEN_GOLDEN";
  }

  ASSERT_TRUE(std::filesystem::exists(path))
      << path << " missing — run JURYOPT_REGEN_GOLDEN=1 ./golden_trace_test";
  Result<SolveTrace> trace = SolveTrace::Parse(ReadFile(path));
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  ASSERT_EQ(trace.value().entries.size(), fixture.requests.size())
      << "fixture " << fixture.name
      << " is stale — regenerate with JURYOPT_REGEN_GOLDEN=1";

  Result<std::size_t> replayed = ReplayTrace(trace.value());
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(replayed.value(), fixture.requests.size());
}

// Round-trip of the fixture format itself: Parse(ToJson(trace)) must be
// lossless, so fixtures survive re-recording and review edits.
TEST(GoldenTraceFormat, TraceJsonRoundTrips) {
  std::vector<SolveRequest> requests;
  SolveRequest request;
  request.solver = "greedy-quality";
  request.budget = 4.0;
  requests.push_back(request);
  Result<SolveTrace> recorded = RecordTrace(FixturePool(), requests);
  ASSERT_TRUE(recorded.ok()) << recorded.status().ToString();

  const std::string dumped = recorded.value().ToJson();
  Result<SolveTrace> reparsed = SolveTrace::Parse(dumped);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed.value().ToJson(), dumped);
  EXPECT_EQ(reparsed.value().entries[0].report_json,
            recorded.value().entries[0].report_json);
}

TEST(GoldenTraceFormat, NormalizeZeroesWallClock) {
  Result<std::string> normalized = NormalizeReportJson(
      R"({"solver":"x","wall_seconds":123.456,"stats":{}})");
  ASSERT_TRUE(normalized.ok()) << normalized.status().ToString();
  EXPECT_EQ(normalized.value(),
            R"({"solver":"x","stats":{},"wall_seconds":0})");
  EXPECT_FALSE(NormalizeReportJson(R"({"no_wall":1})").ok());
  EXPECT_FALSE(NormalizeReportJson("[1,2]").ok());
  EXPECT_FALSE(NormalizeReportJson("not json").ok());
}

INSTANTIATE_TEST_SUITE_P(
    Fixtures, GoldenTraceTest, ::testing::ValuesIn(Fixtures()),
    [](const ::testing::TestParamInfo<Fixture>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace jury::api
