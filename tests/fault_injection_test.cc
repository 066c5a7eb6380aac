// The fault-injection sweep (util/fault_injection.h): after a warm-up run
// registers every `JURY_FAULT_POINT`, each site is armed in turn and a
// representative API workload is driven through it. The contract under
// test: an injected fault surfaces as a clean `ResourceExhausted` Status
// at the solve boundary — never an abort, never a wedged scheduler — and
// the very next run is bit-identical to the no-fault baseline.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "api/registry.h"
#include "api/solve.h"
#include "core/budget_table.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "util/fault_injection.h"
#include "util/rng.h"

namespace jury {
namespace {

using jury::testing::RandomPool;

#if defined(JURYOPT_FAULT_INJECTION) && JURYOPT_FAULT_INJECTION
constexpr bool kFaultsCompiled = true;
#else
constexpr bool kFaultsCompiled = false;
#endif

std::vector<Worker> TestPool() {
  Rng rng(31);
  return RandomPool(&rng, 12, 0.55, 0.95, 0.05, 0.3);
}

std::vector<api::SolveRequest> WorkloadRequests() {
  std::vector<api::SolveRequest> requests;
  for (const char* solver : {"greedy-quality", "annealing", "optjs"}) {
    api::SolveRequest request;
    request.solver = solver;
    request.budget = 0.7;
    request.alpha = 0.5;
    request.rng_seed = 404;
    request.tuning.annealing.num_restarts = 2;
    request.tuning.annealing.num_threads = 4;
    request.tuning.greedy.num_threads = 4;
    request.tuning.optjs.num_threads = 4;
    request.tuning.optjs.annealing.num_restarts = 2;
    requests.push_back(std::move(request));
  }
  return requests;
}

/// One representative pass over the public surface: a parallel SolveMany
/// across three solver families plus a budget table. Every fault site in
/// the library is downstream of one of these. Returns the solutions so
/// the recovery check can compare runs bit-for-bit.
Result<std::vector<JspSolution>> RunWorkload() {
  std::vector<JspSolution> solutions;
  auto planned = api::PoolPlanContext::Plan(TestPool());
  JURY_RETURN_NOT_OK(planned.status());
  auto reports =
      planned.value().SolveMany(WorkloadRequests(), {.num_threads = 4});
  JURY_RETURN_NOT_OK(reports.status());
  for (const api::SolveReport& report : reports.value()) {
    solutions.push_back(report.solution);
  }
  Rng rng(9);
  auto rows = BuildBudgetQualityTable(TestPool(), {0.3, 0.6, 0.9}, 0.5, &rng);
  JURY_RETURN_NOT_OK(rows.status());
  for (const BudgetQualityRow& row : rows.value()) {
    JspSolution solution;
    solution.selected = row.selected;
    solution.jq = row.jq;
    solution.cost = row.required;
    solutions.push_back(std::move(solution));
  }
  return solutions;
}

TEST(FaultInjectionTest, SweepEverySiteCleanStatusAndFullRecovery) {
  if (!kFaultsCompiled) GTEST_SKIP() << "fault injection compiled out";
  FaultInjector& injector = FaultInjector::Global();

  // Warm-up: registers every site and doubles as the baseline.
  auto baseline = RunWorkload();
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  const std::vector<std::string> sites = injector.Sites();
  ASSERT_FALSE(sites.empty());
  // The sites the workload must reach (others, like the scheduler's
  // spawn hook, depend on thread-pool warm-up and are swept if present).
  for (const char* expected : {"plan.lease_instance", "eval.session_start"}) {
    EXPECT_NE(std::find(sites.begin(), sites.end(), expected), sites.end())
        << "site never registered: " << expected;
  }

  for (const std::string& site : sites) {
    for (const std::uint64_t hit : {std::uint64_t{1}, std::uint64_t{2}}) {
      injector.Arm(site, hit);
      auto faulted = RunWorkload();
      // The armed hit may or may not be reached; both outcomes are fine.
      // What is not fine: any status other than the transient class, or
      // (enforced by the process surviving at all) an abort.
      if (!faulted.ok()) {
        EXPECT_EQ(faulted.status().code(), StatusCode::kResourceExhausted)
            << site << " hit " << hit << ": " << faulted.status();
      }
      injector.Disarm();  // drop the trigger if the run never reached it
      auto recovered = RunWorkload();
      ASSERT_TRUE(recovered.ok())
          << site << " hit " << hit << " left damage: " << recovered.status();
      ASSERT_EQ(recovered.value().size(), baseline.value().size()) << site;
      for (std::size_t i = 0; i < baseline.value().size(); ++i) {
        EXPECT_EQ(recovered.value()[i].selected,
                  baseline.value()[i].selected)
            << site << " hit " << hit << " solution " << i;
        EXPECT_EQ(recovered.value()[i].jq, baseline.value()[i].jq)
            << site << " hit " << hit << " solution " << i;
      }
    }
  }
}

TEST(FaultInjectionTest, InjectedCountAdvancesWhenAFaultFires) {
  if (!kFaultsCompiled) GTEST_SKIP() << "fault injection compiled out";
  FaultInjector& injector = FaultInjector::Global();
  auto warmup = RunWorkload();
  ASSERT_TRUE(warmup.ok()) << warmup.status();
  const std::uint64_t before = injector.injected_count();
  injector.Arm("plan.lease_instance", 1);
  auto faulted = RunWorkload();
  injector.Disarm();
  ASSERT_FALSE(faulted.ok());
  EXPECT_EQ(faulted.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(injector.injected_count(), before + 1);
}

TEST(FaultInjectionTest, CompiledOutBuildsStillLink) {
  // The macro must compile to nothing without the define; this test only
  // documents that the disabled configuration is part of the matrix.
  JURY_FAULT_POINT("test.noop_site");
  SUCCEED();
}

}  // namespace
}  // namespace jury
