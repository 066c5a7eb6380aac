// Contract tests of the unified solve API (src/api/): the SolverRegistry,
// the SolveRequest/SolveReport facade, and the reusable PoolPlanContext.
//
// The central claims, property-tested over seeded instances:
//  * every registered solver returns the *bit-identical* jury through the
//    SolveRequest path and a direct call of its core free function;
//  * SolveMany over shuffled request batches is order- and
//    thread-count-invariant;
//  * unknown solver names and invalid options surface as non-OK Status —
//    never aborts.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <numeric>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "api/registry.h"
#include "api/solve.h"
#include "core/annealing.h"
#include "core/branch_bound.h"
#include "core/exhaustive.h"
#include "core/greedy.h"
#include "core/mvjs.h"
#include "core/optjs.h"
#include "gtest/gtest.h"
#include "model/pool_snapshot.h"
#include "model/sharded_pool.h"
#include "test_util.h"
#include "util/rng.h"
#include "util/stats_registry.h"

namespace jury::api {
namespace {

using jury::testing::RandomPool;

std::vector<std::vector<Worker>> SeededPools(int count, int n) {
  std::vector<std::vector<Worker>> pools;
  Rng rng(20150323);
  for (int i = 0; i < count; ++i) {
    Rng pool_rng = rng.Fork();
    pools.push_back(RandomPool(&pool_rng, n, 0.5, 0.95, 0.05, 0.5));
  }
  return pools;
}

/// The direct core call the registry adapter for `name` must match
/// bit-for-bit.
Result<JspSolution> DirectSolve(const std::string& name,
                                const JspInstance& instance,
                                const SolveRequest& request) {
  const WorkerPoolView view(instance.candidates);
  Rng rng(request.rng_seed);
  if (name == "optjs") {
    const BucketBvObjective objective(request.tuning.optjs.bucket);
    return SolveOptjs(instance, view, objective, &rng, request.tuning.optjs);
  }
  if (name == "mvjs") {
    const MajorityObjective objective;
    return SolveMvjs(instance, view, objective, &rng, request.tuning.mvjs);
  }
  auto objective = MakeObjective(request.tuning);
  if (!objective.ok()) return objective.status();
  if (name == "annealing") {
    return SolveAnnealing(instance, view, *objective.value(), &rng,
                          request.tuning.annealing);
  }
  if (name == "exhaustive") {
    return SolveExhaustive(instance, view, *objective.value(),
                           request.tuning.exhaustive);
  }
  if (name == "greedy-quality") {
    return SolveGreedyByQuality(instance, view, *objective.value(),
                                request.tuning.greedy);
  }
  if (name == "greedy-value") {
    return SolveGreedyByValuePerCost(instance, view, *objective.value(),
                                     request.tuning.greedy);
  }
  if (name == "greedy-mg") {
    return SolveGreedyMarginalGain(instance, view, *objective.value(),
                                   request.tuning.greedy);
  }
  if (name == "odd-top-k") {
    return SolveOddTopK(instance, view, *objective.value(),
                        request.tuning.greedy);
  }
  if (name == "branch-bound") {
    return SolveBranchAndBound(instance, view, *objective.value(),
                               request.tuning.branch_bound);
  }
  return Status::NotFound("test has no direct mapping for '" + name + "'");
}

TEST(RegistryTest, NamesAreStableAndResolvable) {
  const std::vector<std::string> names = RegisteredSolverNames();
  const std::vector<std::string> expected = {
      "annealing",   "exhaustive", "greedy-quality", "greedy-value",
      "greedy-mg",   "odd-top-k",  "branch-bound",   "optjs",
      "mvjs"};
  EXPECT_EQ(names, expected);
  for (const std::string& name : names) {
    auto solver = FindSolver(name);
    ASSERT_TRUE(solver.ok()) << name;
    EXPECT_EQ(solver.value()->name(), name);
  }
}

TEST(RegistryTest, UnknownSolverIsNotFoundNotAbort) {
  EXPECT_EQ(FindSolver("no-such-solver").status().code(),
            StatusCode::kNotFound);
  auto context =
      PoolPlanContext::Plan(jury::testing::Figure1Workers()).value();
  SolveRequest request;
  request.solver = "no-such-solver";
  request.budget = 15.0;
  EXPECT_EQ(context.Solve(request).status().code(), StatusCode::kNotFound);
}

class RegistryContractTest : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(AllSolvers, RegistryContractTest,
                         ::testing::ValuesIn(RegisteredSolverNames()),
                         [](const auto& info) {
                           std::string name = info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

/// (a) of the registry contract: the SolveRequest path equals the direct
/// core call bit-for-bit on seeded instances.
TEST_P(RegistryContractTest, MatchesDirectSolverCallBitForBit) {
  const std::string name = GetParam();
  for (const std::vector<Worker>& pool : SeededPools(5, 10)) {
    auto context = PoolPlanContext::Plan(pool).value();
    for (const double budget : {0.25, 0.8}) {
      for (const std::uint64_t seed : {11ull, 20150323ull}) {
        SolveRequest request;
        request.solver = name;
        request.budget = budget;
        request.alpha = 0.4;
        request.rng_seed = seed;
        if (seed == 11ull) {
          // Cover OPTJS's annealing-plus-fallbacks branch too (N = 10
          // takes the exhaustive shortcut at the default threshold).
          request.tuning.optjs.exhaustive_threshold = 4;
        }
        auto report = context.Solve(request);
        ASSERT_TRUE(report.ok()) << name << ": " << report.status();
        EXPECT_EQ(report.value().solver, name);

        JspInstance instance;
        instance.candidates = pool;
        instance.budget = budget;
        instance.alpha = 0.4;
        auto direct = DirectSolve(name, instance, request);
        ASSERT_TRUE(direct.ok()) << name << ": " << direct.status();
        EXPECT_EQ(report.value().solution.selected, direct.value().selected)
            << name << " B=" << budget << " seed=" << seed;
        EXPECT_EQ(report.value().solution.jq, direct.value().jq);
        EXPECT_EQ(report.value().solution.cost, direct.value().cost);
      }
    }
  }
}

/// The registry path is bit-deterministic in the thread count, like every
/// core solver (the PR 2-4 invariant carried through the facade).
TEST_P(RegistryContractTest, ThreadCountInvariant) {
  const std::string name = GetParam();
  const auto pools = SeededPools(3, 10);
  std::vector<JspSolution> reference;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    std::size_t at = 0;
    for (const std::vector<Worker>& pool : pools) {
      auto context = PoolPlanContext::Plan(pool).value();
      SolveRequest request;
      request.solver = name;
      request.budget = 0.6;
      request.alpha = 0.5;
      request.rng_seed = 99;
      request.tuning.annealing.num_restarts = 4;  // exercise the chains
      request.tuning.annealing.num_threads = threads;
      request.tuning.greedy.num_threads = threads;
      request.tuning.exhaustive.num_threads = threads;
      request.tuning.optjs.num_threads = threads;
      request.tuning.optjs.annealing.num_restarts = 4;
      request.tuning.mvjs.annealing.num_restarts = 4;
      request.tuning.mvjs.annealing.num_threads = threads;
      auto report = context.Solve(request);
      ASSERT_TRUE(report.ok()) << name << ": " << report.status();
      if (threads == 1) {
        reference.push_back(report.value().solution);
      } else {
        EXPECT_EQ(report.value().solution.selected,
                  reference[at].selected)
            << name << " pool " << at;
        EXPECT_EQ(report.value().solution.jq, reference[at].jq);
      }
      ++at;
    }
  }
}

/// (b) of the registry contract: SolveMany over shuffled batches is
/// order- and thread-count-invariant, and equals the serial per-request
/// path.
TEST(SolveManyTest, OrderAndThreadCountInvariant) {
  const auto pools = SeededPools(1, 12);
  auto context = PoolPlanContext::Plan(pools[0]).value();

  const std::vector<std::string> names = RegisteredSolverNames();
  std::vector<SolveRequest> requests;
  for (std::size_t i = 0; i < 3 * names.size(); ++i) {
    SolveRequest request;
    request.solver = names[i % names.size()];
    request.budget = 0.3 + 0.25 * static_cast<double>(i % 3);
    request.alpha = i % 2 == 0 ? 0.5 : 0.35;
    request.rng_seed = 1000 + i;
    requests.push_back(std::move(request));
  }

  // Serial reference: one Solve per request.
  std::vector<JspSolution> expected;
  for (const SolveRequest& request : requests) {
    auto report = context.Solve(request);
    ASSERT_TRUE(report.ok()) << request.solver << ": " << report.status();
    expected.push_back(report.value().solution);
  }

  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    auto batch = context.SolveMany(requests, {.num_threads = threads});
    ASSERT_TRUE(batch.ok()) << batch.status();
    ASSERT_EQ(batch.value().size(), requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      EXPECT_EQ(batch.value()[i].solution, expected[i])
          << requests[i].solver << " at " << threads << " threads";
    }
  }

  // Shuffled batch: report i must still answer shuffled request i.
  std::vector<std::size_t> order(requests.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  Rng shuffle_rng(7);
  shuffle_rng.Shuffle(&order);
  std::vector<SolveRequest> shuffled;
  for (const std::size_t idx : order) shuffled.push_back(requests[idx]);
  auto batch = context.SolveMany(shuffled, {.num_threads = 8});
  ASSERT_TRUE(batch.ok()) << batch.status();
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(batch.value()[i].solution, expected[order[i]])
        << "shuffled position " << i;
  }
}

/// Report bytes, not just juries: a batch report equals its serial
/// `Solve` byte for byte, wall clock aside (the one timing-dependent
/// field), over a mix of deterministic and stochastic solvers.
TEST(SolveManyTest, ReportBytesMatchSerialSolvesAcrossThreadCounts) {
  Rng rng(20150323);
  auto context =
      PoolPlanContext::Plan(RandomPool(&rng, 32, 0.55, 0.9, 0.05, 0.6))
          .value();
  const char* solvers[] = {"optjs", "annealing", "greedy-value", "mvjs"};
  std::vector<SolveRequest> requests;
  for (std::size_t i = 0; i < 12; ++i) {
    SolveRequest request;
    request.solver = solvers[i % 4];
    request.budget = 1.0 + 0.15 * static_cast<double>(i);
    request.alpha = 0.35 + 0.02 * static_cast<double>(i % 8);
    request.rng_seed = 1000 + i;
    requests.push_back(request);
  }
  const auto canonical = [](SolveReport report) {
    report.wall_seconds = 0.0;
    return report.ToJson();
  };
  std::vector<std::string> expected;
  for (const SolveRequest& request : requests) {
    auto report = context.Solve(request);
    ASSERT_TRUE(report.ok()) << request.solver << ": " << report.status();
    expected.push_back(canonical(report.value()));
  }

  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
    auto batch = context.SolveMany(requests, {.num_threads = threads});
    ASSERT_TRUE(batch.ok()) << batch.status();
    ASSERT_EQ(batch.value().size(), requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      EXPECT_EQ(canonical(batch.value()[i]), expected[i])
          << "request " << i << " at " << threads << " threads";
    }
  }

  auto empty = context.SolveMany({}, {.num_threads = 8});
  ASSERT_TRUE(empty.ok()) << empty.status();
  EXPECT_TRUE(empty.value().empty());
}

TEST(SolveManyTest, FailsWithTheLowestIndexError) {
  auto context =
      PoolPlanContext::Plan(jury::testing::Figure1Workers()).value();
  std::vector<SolveRequest> requests(3);
  requests[0].solver = "greedy-quality";
  requests[0].budget = 10.0;
  requests[1].solver = "not-a-solver";
  requests[1].budget = 10.0;
  requests[2].solver = "greedy-quality";
  requests[2].budget = -1.0;  // also invalid, but later in the batch
  const auto result = context.SolveMany(requests, {.num_threads = 8});
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

/// (c) of the registry contract: invalid options are a Status, not an
/// abort, for every entry that consumes them.
TEST(OptionsValidationTest, BadKnobsReturnStatusNotAbort) {
  auto context =
      PoolPlanContext::Plan(jury::testing::Figure1Workers()).value();
  const auto expect_invalid = [&](SolveRequest request,
                                  StatusCode code =
                                      StatusCode::kInvalidArgument) {
    request.budget = request.budget == 0.0 ? 15.0 : request.budget;
    const auto result = context.Solve(request);
    EXPECT_FALSE(result.ok()) << request.solver;
    EXPECT_EQ(result.status().code(), code) << result.status();
  };

  {
    SolveRequest request;
    request.solver = "annealing";
    request.tuning.annealing.cooling_factor = 1.5;
    expect_invalid(request);
  }
  {
    SolveRequest request;
    request.solver = "annealing";
    request.tuning.annealing.num_restarts = 0;
    expect_invalid(request);
  }
  {
    SolveRequest request;
    request.solver = "optjs";
    request.tuning.optjs.annealing.epsilon = 0.0;
    expect_invalid(request);
  }
  {
    SolveRequest request;
    request.solver = "optjs";
    request.tuning.optjs.bucket.num_buckets = 0;
    expect_invalid(request);
  }
  {
    SolveRequest request;
    request.solver = "mvjs";
    request.tuning.mvjs.annealing.initial_temperature = -1.0;
    expect_invalid(request);
  }
  {
    SolveRequest request;
    request.solver = "exhaustive";
    request.tuning.exhaustive.max_candidates = 0;
    expect_invalid(request);
  }
  {
    SolveRequest request;
    request.solver = "branch-bound";
    request.tuning.branch_bound.max_nodes = 0;
    expect_invalid(request);
  }
  {
    // MV is not monotone: branch-and-bound must reject it, not abort.
    SolveRequest request;
    request.solver = "branch-bound";
    request.tuning.objective = "mv-exact";
    expect_invalid(request);
  }
  {
    SolveRequest request;
    request.solver = "greedy-mg";
    request.tuning.objective = "no-such-objective";
    expect_invalid(request, StatusCode::kNotFound);
  }
  {
    SolveRequest request;
    request.solver = "greedy-quality";
    request.budget = -2.0;
    const auto result = context.Solve(request);
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
  {
    SolveRequest request;
    request.solver = "greedy-quality";
    request.budget = 1.0;
    request.alpha = 1.5;
    const auto result = context.Solve(request);
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(OptionsValidationTest, DirectValidateCalls) {
  EXPECT_TRUE(AnnealingOptions{}.Validate().ok());
  EXPECT_TRUE(GreedyOptions{}.Validate().ok());
  EXPECT_TRUE(ExhaustiveOptions{}.Validate().ok());
  EXPECT_TRUE(BranchBoundOptions{}.Validate().ok());
  EXPECT_TRUE(OptjsOptions{}.Validate().ok());
  EXPECT_TRUE(MvjsOptions{}.Validate().ok());

  AnnealingOptions bad_removal;
  bad_removal.removal_probability = 2.0;
  EXPECT_FALSE(bad_removal.Validate().ok());
  ExhaustiveOptions too_wide;
  too_wide.max_candidates = 63;
  EXPECT_FALSE(too_wide.Validate().ok());
  OptjsOptions bad_threshold;
  bad_threshold.exhaustive_threshold = 63;
  EXPECT_FALSE(bad_threshold.Validate().ok());

  // The core entry points validate their options too.
  const std::vector<Worker> workers = jury::testing::Figure1Workers();
  JspInstance instance;
  instance.candidates = workers;
  instance.budget = 15.0;
  const BucketBvObjective objective;
  Rng rng(1);
  AnnealingOptions bad_schedule;
  bad_schedule.cooling_factor = 0.0;
  const WorkerPoolView view(instance.candidates);
  EXPECT_EQ(SolveAnnealing(instance, view, objective, &rng, bad_schedule)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  BranchBoundOptions zero_nodes;
  zero_nodes.max_nodes = 0;
  EXPECT_EQ(SolveBranchAndBound(instance, view, objective, zero_nodes)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(PlanContextTest, RejectsInvalidPools) {
  std::vector<Worker> bad = jury::testing::Figure1Workers();
  bad[2].quality = 1.5;
  EXPECT_EQ(PoolPlanContext::Plan(bad).status().code(),
            StatusCode::kInvalidArgument);
}

// An instance borrows its pool, so a temporary vector must not bind.
static_assert(!std::is_assignable_v<decltype(JspInstance::candidates)&,
                                    std::vector<Worker>&&>);
static_assert(std::is_assignable_v<decltype(JspInstance::candidates)&,
                                   const std::vector<Worker>&>);

TEST(PlanContextTest, LeasesBorrowTheEpochCandidateTable) {
  auto context =
      PoolPlanContext::Plan(jury::testing::Figure1Workers()).value();
  const auto first = context.AcquireInstance(5.0, 0.5);
  const auto second = context.AcquireInstance(10.0, 0.3);
  // Concurrent leases read the epoch's one candidate table, not copies.
  EXPECT_EQ(first.instance().candidates.data(), context.candidates().data());
  EXPECT_EQ(second.instance().candidates.data(), context.candidates().data());
  EXPECT_EQ(first.instance().budget, 5.0);
  EXPECT_EQ(second.instance().budget, 10.0);
  EXPECT_EQ(second.instance().alpha, 0.3);
}

TEST(PlanContextTest, LeaseKeepsItsEpochAcrossPoolDeltas) {
  auto context =
      PoolPlanContext::Plan(jury::testing::Figure1Workers()).value();
  const Worker* const old_table = context.candidates().data();
  const Worker old_worker = context.candidates()[0];
  const auto before = context.AcquireInstance(5.0, 0.5);
  const PoolDeltaUpdate update{0, 0.99, old_worker.cost};
  ASSERT_TRUE(context.ApplyPoolDelta({&update, 1}).ok());
  const auto after = context.AcquireInstance(5.0, 0.5);

  EXPECT_EQ(before.instance().candidates.data(), old_table);
  EXPECT_EQ(before.instance().candidates[0], old_worker);
  EXPECT_EQ(after.instance().candidates.data(), context.candidates().data());
  EXPECT_NE(after.instance().candidates.data(), old_table);
  EXPECT_EQ(after.instance().candidates[0].quality, 0.99);
  // The view and the sharded index come from the lease's epoch too.
  EXPECT_EQ(before.view().quality()[0], old_worker.quality);
  EXPECT_EQ(before.sharded_pool()->view().quality()[0], old_worker.quality);
  EXPECT_EQ(after.view().quality()[0], 0.99);
  EXPECT_EQ(after.sharded_pool()->view().quality()[0], 0.99);
}

TEST(PlanContextTest, ExactObjectiveRejectsPoolsOverItsJuryCap) {
  const std::size_t cap = ExactBvObjective().max_jury_size();
  Rng rng(2515);
  const std::vector<Worker> workers =
      RandomPool(&rng, static_cast<int>(cap) + 1, 0.5, 0.95, 0.05, 0.5);
  const std::string path = ::testing::TempDir() + "juryopt_jury_cap.snap";
  ASSERT_TRUE(
      PoolSnapshot::Write(path, workers, WorkerPoolView(workers)).ok());
  auto snapshot_plan = PoolPlanContext::PlanFromSnapshot(path);
  std::remove(path.c_str());
  ASSERT_TRUE(snapshot_plan.ok()) << snapshot_plan.status();
  auto memory_plan = PoolPlanContext::Plan(workers);
  ASSERT_TRUE(memory_plan.ok()) << memory_plan.status();

  const std::string cap_error =
      "exceeds the 'bv-exact' objective's jury cap of " + std::to_string(cap);
  for (PoolPlanContext* context :
       {&memory_plan.value(), &snapshot_plan.value()}) {
    for (const char* solver :
         {"annealing", "exhaustive", "greedy-mg", "branch-bound"}) {
      SolveRequest request;
      request.solver = solver;
      request.budget = 2.0;
      request.tuning.objective = "bv-exact";
      const auto result = context->Solve(request);
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
          << context->pool_source() << " " << solver;
      EXPECT_NE(result.status().message().find(cap_error), std::string::npos)
          << context->pool_source() << " " << solver << ": "
          << result.status();
    }
  }
}

TEST(PlanContextTest, ZeroBudgetReturnsTheEmptyJury) {
  auto context =
      PoolPlanContext::Plan(jury::testing::Figure1Workers()).value();
  SolveRequest request;
  request.solver = "optjs";
  request.budget = 0.0;
  request.alpha = 0.3;
  const auto report = context.Solve(request);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report.value().solution.selected.empty());
  EXPECT_DOUBLE_EQ(report.value().solution.jq, 0.7);  // max(alpha, 1-alpha)
}

TEST(ToJsonTest, SolutionSerializationIsDeterministic) {
  JspSolution solution;
  solution.selected = {1, 2, 6};
  solution.jq = 0.845;
  solution.cost = 14.0;
  EXPECT_EQ(solution.ToJson(),
            "{\"cost\":14,\"jq\":0.845,\"selected\":[1,2,6]}");
  EXPECT_EQ(solution.ToJson(), solution.ToJson());
}

TEST(ToJsonTest, ReportSerializationSortsKeys) {
  SolveReport report;
  report.solver = "annealing";
  report.solution.selected = {0};
  report.solution.jq = 0.75;
  report.solution.cost = 2.0;
  report.wall_seconds = 0.5;
  report.evaluations.full = 3;
  report.evaluations.incremental = 7;
  report.stats = {{"zeta", 1.0}, {"alpha", 2.0}};
  EXPECT_EQ(report.ToJson(),
            "{\"evaluations\":{\"full\":3,\"incremental\":7},"
            "\"solution\":{\"cost\":2,\"jq\":0.75,\"selected\":[0]},"
            "\"solver\":\"annealing\","
            "\"stats\":{\"alpha\":2,\"zeta\":1},"
            "\"wall_seconds\":0.5}");
}

TEST(ReportTest, StatsAreUniformAcrossSolvers) {
  // The stats block that historically only annealing exposed: every
  // stochastic solver reports the SA counters, branch-and-bound its node
  // counts, and all of them the evaluation split.
  auto context =
      PoolPlanContext::Plan(jury::testing::Figure1Workers()).value();
  SolveRequest request;
  request.budget = 15.0;
  request.solver = "annealing";
  auto annealing = context.Solve(request).value();
  EXPECT_GT(annealing.stats.at("moves_attempted"), 0.0);
  EXPECT_GT(annealing.evaluations.total(), 0u);
  EXPECT_GT(annealing.wall_seconds, 0.0);

  request.solver = "branch-bound";
  auto branch_bound = context.Solve(request).value();
  EXPECT_GT(branch_bound.stats.at("nodes_explored"), 0.0);
  EXPECT_GT(branch_bound.evaluations.total(), 0u);

  request.solver = "optjs";
  auto optjs = context.Solve(request).value();
  EXPECT_EQ(optjs.stats.at("used_exhaustive_shortcut"), 1.0);  // N=7 <= 12
  EXPECT_GT(optjs.evaluations.total(), 0u);
}

// --------------------------------------------- per-field Validate contract
//
// Every options field is flipped to each hostile value class in turn
// (NaN, ±inf, negative, zero, huge) and the Status must name *that*
// field; when several fields are bad, the lowest-declared one wins. The
// fuzzers rely on this contract to map a crash back to a knob.

struct FieldCase {
  const char* name;
  std::function<void(SolveRequest*)> mutate;
  const char* error_fragment;  // "" means the request must stay valid
};

class RequestFieldValidation : public ::testing::TestWithParam<FieldCase> {};

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

INSTANTIATE_TEST_SUITE_P(
    AllFields, RequestFieldValidation,
    ::testing::Values(
        // SolveRequest scalars, declaration order: solver, budget, alpha.
        FieldCase{"solver_empty", [](SolveRequest* r) { r->solver.clear(); },
                  "must name a solver"},
        FieldCase{"budget_nan", [](SolveRequest* r) { r->budget = kNan; },
                  "budget must be finite and non-negative"},
        FieldCase{"budget_neg_inf",
                  [](SolveRequest* r) { r->budget = -kInf; },
                  "budget must be finite and non-negative"},
        FieldCase{"budget_pos_inf", [](SolveRequest* r) { r->budget = kInf; },
                  "budget must be finite and non-negative"},
        FieldCase{"budget_negative",
                  [](SolveRequest* r) { r->budget = -1.0; },
                  "budget must be finite and non-negative"},
        FieldCase{"budget_zero_is_valid",
                  [](SolveRequest* r) { r->budget = 0.0; }, ""},
        FieldCase{"budget_huge_is_valid",
                  [](SolveRequest* r) {
                    r->budget = std::numeric_limits<double>::max();
                  },
                  ""},
        FieldCase{"alpha_nan", [](SolveRequest* r) { r->alpha = kNan; },
                  "alpha outside [0,1]"},
        FieldCase{"alpha_above_one",
                  [](SolveRequest* r) { r->alpha = 1.0 + 1e-9; },
                  "alpha outside [0,1]"},
        FieldCase{"alpha_negative", [](SolveRequest* r) { r->alpha = -0.1; },
                  "alpha outside [0,1]"},
        FieldCase{"alpha_endpoints_are_valid",
                  [](SolveRequest* r) { r->alpha = 1.0; }, ""},
        // AnnealingOptions, declaration order: initial_temperature,
        // epsilon, cooling_factor, ..., removal_probability, num_restarts.
        FieldCase{"temperature_nan",
                  [](SolveRequest* r) {
                    r->solver = "annealing";
                    r->tuning.annealing.initial_temperature = kNan;
                  },
                  "initial_temperature must be finite and > 0"},
        FieldCase{"temperature_inf",
                  [](SolveRequest* r) {
                    r->solver = "annealing";
                    r->tuning.annealing.initial_temperature = kInf;
                  },
                  "initial_temperature must be finite and > 0"},
        FieldCase{"temperature_zero",
                  [](SolveRequest* r) {
                    r->solver = "annealing";
                    r->tuning.annealing.initial_temperature = 0.0;
                  },
                  "initial_temperature must be finite and > 0"},
        FieldCase{"epsilon_nan",
                  [](SolveRequest* r) {
                    r->solver = "annealing";
                    r->tuning.annealing.epsilon = kNan;
                  },
                  "epsilon must be finite and > 0"},
        FieldCase{"epsilon_negative",
                  [](SolveRequest* r) {
                    r->solver = "annealing";
                    r->tuning.annealing.epsilon = -1e-8;
                  },
                  "epsilon must be finite and > 0"},
        FieldCase{"cooling_nan",
                  [](SolveRequest* r) {
                    r->solver = "annealing";
                    r->tuning.annealing.cooling_factor = kNan;
                  },
                  "cooling_factor must be in (0, 1)"},
        FieldCase{"cooling_one",
                  [](SolveRequest* r) {
                    r->solver = "annealing";
                    r->tuning.annealing.cooling_factor = 1.0;
                  },
                  "cooling_factor must be in (0, 1)"},
        FieldCase{"removal_probability_nan",
                  [](SolveRequest* r) {
                    r->solver = "annealing";
                    r->tuning.annealing.removal_probability = kNan;
                  },
                  "removal_probability must be a probability"},
        FieldCase{"restarts_zero",
                  [](SolveRequest* r) {
                    r->solver = "annealing";
                    r->tuning.annealing.num_restarts = 0;
                  },
                  "num_restarts must be >= 1"},
        FieldCase{"restarts_huge",
                  [](SolveRequest* r) {
                    r->solver = "annealing";
                    r->tuning.annealing.num_restarts =
                        AnnealingOptions::kMaxRestarts + 1;
                  },
                  "num_restarts must be <= 1000000"},
        // Lowest-index-field: initial_temperature is declared before
        // cooling_factor, so it names the error even with both bad.
        FieldCase{"lowest_field_wins_in_annealing",
                  [](SolveRequest* r) {
                    r->solver = "annealing";
                    r->tuning.annealing.initial_temperature = kNan;
                    r->tuning.annealing.cooling_factor = 7.0;
                  },
                  "initial_temperature must be finite and > 0"},
        // Bucket knobs, declaration order: num_buckets, then cutoff.
        FieldCase{"buckets_zero",
                  [](SolveRequest* r) {
                    r->solver = "optjs";
                    r->tuning.optjs.bucket.num_buckets = 0;
                  },
                  "bucket.num_buckets must be >= 1"},
        FieldCase{"buckets_huge",
                  [](SolveRequest* r) {
                    r->solver = "optjs";
                    r->tuning.optjs.bucket.num_buckets =
                        BucketJqOptions::kMaxBuckets + 1;
                  },
                  "bucket.num_buckets must be <= 1000000"},
        FieldCase{"cutoff_nan",
                  [](SolveRequest* r) {
                    r->solver = "optjs";
                    r->tuning.optjs.bucket.high_quality_cutoff = kNan;
                  },
                  "bucket.high_quality_cutoff must lie in (0, 1]"},
        // OptjsOptions validates bucket before annealing before the
        // threshold; with all three bad, bucket's error surfaces.
        FieldCase{"optjs_validates_bucket_first",
                  [](SolveRequest* r) {
                    r->solver = "optjs";
                    r->tuning.optjs.bucket.num_buckets = 0;
                    r->tuning.optjs.annealing.epsilon = kNan;
                    r->tuning.optjs.exhaustive_threshold = 63;
                  },
                  "bucket.num_buckets must be >= 1"},
        FieldCase{"optjs_threshold_too_wide",
                  [](SolveRequest* r) {
                    r->solver = "optjs";
                    r->tuning.optjs.exhaustive_threshold = 63;
                  },
                  "exhaustive_threshold must be <= 62"},
        FieldCase{"exhaustive_zero",
                  [](SolveRequest* r) {
                    r->solver = "exhaustive";
                    r->tuning.exhaustive.max_candidates = 0;
                  },
                  "max_candidates must lie in [1, 62]"},
        FieldCase{"exhaustive_huge",
                  [](SolveRequest* r) {
                    r->solver = "exhaustive";
                    r->tuning.exhaustive.max_candidates = 10000;
                  },
                  "max_candidates must lie in [1, 62]"},
        FieldCase{"branch_bound_zero_nodes",
                  [](SolveRequest* r) {
                    r->solver = "branch-bound";
                    r->tuning.branch_bound.max_nodes = 0;
                  },
                  "max_nodes must be >= 1"},
        FieldCase{"mvjs_inherits_annealing_contract",
                  [](SolveRequest* r) {
                    r->solver = "mvjs";
                    r->tuning.mvjs.annealing.cooling_factor = 0.0;
                  },
                  "cooling_factor must be in (0, 1)"}),
    [](const ::testing::TestParamInfo<FieldCase>& info) {
      return std::string(info.param.name);
    });

TEST_P(RequestFieldValidation, StatusNamesTheField) {
  const FieldCase& field_case = GetParam();
  auto context =
      PoolPlanContext::Plan(jury::testing::Figure1Workers()).value();
  SolveRequest request;
  request.solver = "greedy-quality";
  request.budget = 15.0;
  field_case.mutate(&request);
  const auto result = context.Solve(request);
  if (std::string(field_case.error_fragment).empty()) {
    EXPECT_TRUE(result.ok()) << result.status();
    return;
  }
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
      << result.status();
  EXPECT_NE(result.status().message().find(field_case.error_fragment),
            std::string::npos)
      << "status was: " << result.status();
}

// --------------------------------------------------- SolveRequest JSON

TEST(RequestJsonTest, RoundTripsThroughJson) {
  SolveRequest request;
  request.solver = "annealing";
  request.budget = 12.5;
  request.alpha = 0.65;
  request.rng_seed = 424242;
  request.collect_process_stats = true;
  request.tuning.objective = "bv-exact";
  request.tuning.annealing.num_restarts = 4;
  request.tuning.annealing.cooling_factor = 0.75;
  request.tuning.annealing.return_best_seen = true;
  request.tuning.bucket.num_buckets = 250;
  request.tuning.optjs.exhaustive_threshold = 10;
  request.tuning.mvjs.use_odd_top_k = false;

  const std::string wire = request.ToJson();
  auto reparsed = SolveRequest::FromJsonText(wire);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  // The binding writes every field, so equal wire bytes mean equal
  // requests; byte-stable serialization is the golden-trace bedrock.
  EXPECT_EQ(reparsed.value().ToJson(), wire);
  EXPECT_EQ(reparsed.value().solver, "annealing");
  EXPECT_EQ(reparsed.value().rng_seed, 424242u);
  EXPECT_TRUE(reparsed.value().collect_process_stats);
  EXPECT_EQ(reparsed.value().tuning.annealing.num_restarts, 4u);

  // No deleted knob survives in the canonical form (the result-cache key).
  const std::string canonical = SolveRequest{}.ToJson();
  for (const char* name : {"backend", "trust_monotone_adds",
                           "order_by_marginal_gain", "frontier_exact"}) {
    EXPECT_EQ(canonical.find(name), std::string::npos) << name;
  }
}

TEST(RequestJsonTest, StrictBindingErrors) {
  const auto expect_error = [](std::string_view text,
                               std::string_view fragment) {
    auto parsed = SolveRequest::FromJsonText(text);
    ASSERT_FALSE(parsed.ok()) << text;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(parsed.status().message().find(fragment), std::string::npos)
        << "status was: " << parsed.status() << " for " << text;
  };
  expect_error(R"({"solvr":"greedy-quality"})", "unknown key");
  expect_error(R"({"solver":3})", "request.solver must be a string");
  expect_error(R"({"budget":"lots"})", "request.budget must be a number");
  expect_error(R"({"rng_seed":-1})",
               "request.rng_seed must be a non-negative integer");
  expect_error(R"({"tuning":{"annealing":{"num_restarts":1e99}}})",
               "request.tuning.annealing.num_restarts must be a "
               "non-negative integer");
  expect_error(R"({"tuning":{"bucket":{"num_buckets":4294967296}}})",
               "out of range");
  expect_error(R"({"tuning":{"annealing":{"warp_speed":9}}})",
               "unknown key");
  // Deleted knobs are unknown keys on every wire path that once set them.
  expect_error(R"({"tuning":{"bucket":{"backend":"sparse"}}})",
               R"(request.tuning.bucket: unknown key "backend")");
  expect_error(R"({"tuning":{"optjs":{"bucket":{"backend":"dense"}}}})",
               R"(request.tuning.optjs.bucket: unknown key "backend")");
  expect_error(
      R"({"tuning":{"annealing":{"trust_monotone_adds":true}}})",
      R"(request.tuning.annealing: unknown key "trust_monotone_adds")");
  expect_error(
      R"({"tuning":{"optjs":{"annealing":{"trust_monotone_adds":true}}}})",
      R"(request.tuning.optjs.annealing: unknown key "trust_monotone_adds")");
  expect_error(
      R"({"tuning":{"mvjs":{"annealing":{"trust_monotone_adds":false}}}})",
      R"(request.tuning.mvjs.annealing: unknown key "trust_monotone_adds")");
  expect_error(
      R"({"tuning":{"branch_bound":{"order_by_marginal_gain":true}}})",
      R"(request.tuning.branch_bound: unknown key "order_by_marginal_gain")");
  expect_error(R"({"tuning":{"annealing":{"frontier_exact":true}}})",
               R"(request.tuning.annealing: unknown key "frontier_exact")");
  expect_error(R"({"tuning":{"greedy":{"frontier_exact":false}}})",
               R"(request.tuning.greedy: unknown key "frontier_exact")");
  expect_error(R"({"tuning":{"branch_bound":{"frontier_exact":true}}})",
               R"(request.tuning.branch_bound: unknown key "frontier_exact")");
  expect_error(
      R"({"tuning":{"optjs":{"annealing":{"frontier_exact":true}}}})",
      R"(request.tuning.optjs.annealing: unknown key "frontier_exact")");
  expect_error(
      R"({"tuning":{"mvjs":{"annealing":{"frontier_exact":true}}}})",
      R"(request.tuning.mvjs.annealing: unknown key "frontier_exact")");
  expect_error(R"([1,2,3])", "request must be an object");
  expect_error("not json at all", "JSON parse error");

  // A malformed document must never mutate state: parse errors arrive
  // before any Solve, so the registry's error counter is untouched.
  auto ok = SolveRequest::FromJsonText(R"({"solver":"greedy-quality"})");
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(ok.value().solver, "greedy-quality");
}

// ------------------------------------------------- process-wide counters

TEST(ProcessStatsTest, CountersAdvanceAcrossASolve) {
  auto context =
      PoolPlanContext::Plan(jury::testing::Figure1Workers()).value();
  const auto before = StatsRegistry::Global().Snapshot();
  SolveRequest request;
  request.solver = "greedy-quality";
  request.budget = 15.0;
  ASSERT_TRUE(context.Solve(request).ok());
  const auto after = StatsRegistry::Global().Snapshot();
  EXPECT_EQ(after.at("api.requests_solved"),
            before.at("api.requests_solved") + 1);
  EXPECT_GT(after.at("eval.full") + after.at("eval.incremental"),
            before.at("eval.full") + before.at("eval.incremental"));
  EXPECT_EQ(after.at("plan.instances_leased"),
            before.at("plan.instances_leased") + 1);
  EXPECT_EQ(after.at("api.request_errors"), before.at("api.request_errors"));

  request.solver = "no-such-solver";
  ASSERT_FALSE(context.Solve(request).ok());
  const auto errored = StatsRegistry::Global().Snapshot();
  EXPECT_EQ(errored.at("api.request_errors"),
            after.at("api.request_errors") + 1);
  EXPECT_EQ(errored.at("api.requests_solved"),
            after.at("api.requests_solved"));
}

TEST(ProcessStatsTest, ReportCarriesSnapshotOnlyWhenRequested) {
  auto context =
      PoolPlanContext::Plan(jury::testing::Figure1Workers()).value();
  SolveRequest request;
  request.solver = "greedy-quality";
  request.budget = 15.0;

  auto plain = context.Solve(request).value();
  EXPECT_TRUE(plain.process_stats.empty());
  EXPECT_EQ(plain.ToJson().find("process_stats"), std::string::npos)
      << "default reports must stay byte-identical to the golden traces";

  request.collect_process_stats = true;
  auto with_stats = context.Solve(request).value();
  ASSERT_FALSE(with_stats.process_stats.empty());
  EXPECT_GT(with_stats.process_stats.at("api.requests_solved"), 0u);
  EXPECT_GT(with_stats.process_stats.at("plan.contexts_planned"), 0u);
  EXPECT_NE(with_stats.ToJson().find("\"process_stats\":{"),
            std::string::npos);
}

}  // namespace
}  // namespace jury::api
