// jury_cli: jury planning for a worker pool loaded from CSV, through the
// unified solve API.
//
// Usage:
//   ./build/jury_cli [workers.csv] [alpha] [budget...]          budget table
//   ./build/jury_cli [workers.csv] --solver=NAME [flags] [budget...]
//   ./build/jury_cli --list-solvers
//
// Flags:
//   --solver=NAME    run one registry solver per budget (SolverRegistry
//                    names; see --list-solvers) instead of the table;
//                    bare numbers are then all budgets
//   --alpha=A        task prior (default 0.5; with this flag set, bare
//                    numbers are all budgets)
//   --seed=S         rng seed for the stochastic solvers (default 20150323)
//   --deadline-ms=D  wall-clock deadline per solve; an expired solve still
//                    succeeds with its best-so-far jury (anytime result,
//                    "terminated_early": true under --json)
//   --max-work-units=W  deterministic per-strand work budget per solve
//                    (0 = unlimited); same anytime semantics, but the
//                    stop point is reproducible
//   --json           print each SolveReport as one JSON line
//   --stats          after the run, print the process-wide stats registry
//                    (scheduler/eval/plan/pool counters) as one JSON
//                    line; the pool source shows up as `pool.csv_loads` vs
//                    `pool.snapshot_loads`
//   --pool-snapshot=PATH  plan from a binary pool snapshot instead of CSV
//                    (registry mode only: requires --solver). Loading maps
//                    the columns read-only and skips both CSV parsing and
//                    per-worker re-validation
//   --save-snapshot=PATH  after planning (registry mode), write the pool
//                    as a binary snapshot and continue
//   --frontier-k=K   opt the solve into candidate-frontier pre-selection
//                    (per-shard top-K slates; exact by construction for
//                    greedy/annealing, ordering-only for branch-bound)
//   --list-solvers   print the registry names, one per line, and exit
//
// workers.csv columns: id,quality,cost  (header optional, '#' comments ok)
// With no CSV, runs on the paper's Figure-1 pool as a demo.
//
// Robustness contract (enforced by scripts/cli_robustness_test.sh):
// malformed flags, unreadable or truncated files, unknown solver names,
// and bad numeric values all exit non-zero with an error on stderr —
// never an abort.

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "api/registry.h"
#include "api/solve.h"
#include "core/budget_table.h"
#include "model/pool_snapshot.h"
#include "model/worker_io.h"
#include "util/cancellation.h"
#include "util/rng.h"
#include "util/stats_registry.h"

namespace {

struct CliArgs {
  std::string csv_path;
  std::string solver;
  std::string pool_snapshot;
  std::string save_snapshot;
  double alpha = 0.5;
  std::uint64_t seed = 20150323;
  double deadline_ms = 0.0;
  std::uint64_t max_work_units = 0;
  std::uint64_t frontier_k = 0;
  bool json = false;
  bool stats = false;
  bool list_solvers = false;
  std::vector<double> budgets;
  bool alpha_flag_seen = false;
  bool alpha_positional_seen = false;
};

/// True iff `arg` parses as a double in its entirety — the test that
/// separates numeric positionals (alpha/budgets) from file paths, so a
/// digit-leading CSV name like "2024_pool.csv" is still a path.
bool IsNumber(const char* arg, double* value) {
  char* end = nullptr;
  *value = std::strtod(arg, &end);
  return end != arg && *end == '\0';
}

/// Full-string parse of a numeric flag value: trailing garbage
/// ("--alpha=0.5x") is an error, not a silent truncation.
bool ParseDoubleFlag(std::string_view flag, std::string_view text,
                     double* value) {
  const std::string copy(text);
  if (!copy.empty() && IsNumber(copy.c_str(), value)) return true;
  std::cerr << "error: " << flag << " needs a number, got \"" << text
            << "\"\n";
  return false;
}

bool ParseUint64Flag(std::string_view flag, std::string_view text,
                     std::uint64_t* value) {
  const std::string copy(text);
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(copy.c_str(), &end, 10);
  if (!copy.empty() && copy[0] != '-' && end == copy.c_str() + copy.size() &&
      errno == 0) {
    *value = parsed;
    return true;
  }
  std::cerr << "error: " << flag << " needs a non-negative integer, got \""
            << text << "\"\n";
  return false;
}

bool ParseArgs(int argc, char** argv, CliArgs* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    double value = 0.0;
    if (arg == "--list-solvers") {
      args->list_solvers = true;
    } else if (arg == "--json") {
      args->json = true;
    } else if (arg.rfind("--solver=", 0) == 0) {
      args->solver = std::string(arg.substr(9));
    } else if (arg == "--stats") {
      args->stats = true;
    } else if (arg.rfind("--alpha=", 0) == 0) {
      if (!ParseDoubleFlag("--alpha", arg.substr(8), &args->alpha)) {
        return false;
      }
      args->alpha_flag_seen = true;
    } else if (arg.rfind("--seed=", 0) == 0) {
      if (!ParseUint64Flag("--seed", arg.substr(7), &args->seed)) {
        return false;
      }
    } else if (arg.rfind("--deadline-ms=", 0) == 0) {
      if (!ParseDoubleFlag("--deadline-ms", arg.substr(14),
                           &args->deadline_ms) ||
          args->deadline_ms < 0.0) {
        if (args->deadline_ms < 0.0) {
          std::cerr << "error: --deadline-ms must be non-negative\n";
        }
        return false;
      }
    } else if (arg.rfind("--max-work-units=", 0) == 0) {
      if (!ParseUint64Flag("--max-work-units", arg.substr(17),
                           &args->max_work_units)) {
        return false;
      }
    } else if (arg.rfind("--pool-snapshot=", 0) == 0) {
      args->pool_snapshot = std::string(arg.substr(16));
    } else if (arg.rfind("--save-snapshot=", 0) == 0) {
      args->save_snapshot = std::string(arg.substr(16));
    } else if (arg.rfind("--frontier-k=", 0) == 0) {
      if (!ParseUint64Flag("--frontier-k", arg.substr(13),
                           &args->frontier_k)) {
        return false;
      }
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "error: unknown flag " << arg << "\n";
      return false;
    } else if (!IsNumber(argv[i], &value)) {
      if (!args->csv_path.empty()) {
        std::cerr << "error: more than one CSV path (" << args->csv_path
                  << ", " << arg << ")\n";
        return false;
      }
      args->csv_path = std::string(arg);
    } else if (!args->alpha_flag_seen && !args->alpha_positional_seen &&
               args->budgets.empty() && args->solver.empty()) {
      // Legacy positional form: csv [alpha] [budget...]. An explicit
      // --alpha (or --solver mode) routes every number to the budgets.
      args->alpha = value;
      args->alpha_positional_seen = true;
    } else {
      args->budgets.push_back(value);
    }
  }
  return true;
}

/// The run itself, factored out so `main` can append the --stats line on
/// every exit path.
int RunCli(const CliArgs& args_in) {
  using namespace jury;
  CliArgs args = args_in;

  if (args.list_solvers) {
    for (const std::string& name : api::RegisteredSolverNames()) {
      std::cout << name << "\n";
    }
    return 0;
  }

  const bool snapshot_mode = !args.pool_snapshot.empty();
  if (snapshot_mode && args.solver.empty()) {
    std::cerr << "error: --pool-snapshot requires --solver (the snapshot "
                 "path serves the registry mode)\n";
    return 1;
  }
  if (snapshot_mode && !args.csv_path.empty()) {
    std::cerr << "error: give either a CSV path or --pool-snapshot, not "
                 "both\n";
    return 1;
  }
  if (!args.save_snapshot.empty() && args.solver.empty()) {
    std::cerr << "error: --save-snapshot requires --solver\n";
    return 1;
  }

  std::vector<Worker> workers;
  std::optional<api::PoolPlanContext> context;
  if (snapshot_mode) {
    // The mmap fast path: the snapshot's columns become the plan's view
    // directly — no CSV parse, no per-worker re-validation (the loader
    // checksummed and range-checked everything), no column recompute.
    auto planned = api::PoolPlanContext::PlanFromSnapshot(args.pool_snapshot);
    if (!planned.ok()) {
      std::cerr << "error: " << planned.status() << "\n";
      return 1;
    }
    context.emplace(std::move(planned).value());
    if (context->num_candidates() == 0) {
      std::cerr << "error: empty worker pool\n";
      return 1;
    }
    if (args.budgets.empty()) {
      double total = 0.0;
      for (const double cost : context->view().cost()) total += cost;
      for (int step = 1; step <= 10; ++step) {
        args.budgets.push_back(total * step / 10);
      }
    }
  } else {
    if (!args.csv_path.empty()) {
      auto loaded = LoadWorkersCsv(args.csv_path);
      if (!loaded.ok()) {
        std::cerr << "error: " << loaded.status() << "\n";
        return 1;
      }
      workers = std::move(loaded).value();
    } else {
      std::cout << "(no CSV given; using the paper's Figure-1 pool)\n";
      workers = {{"A", 0.77, 9.0}, {"B", 0.70, 5.0}, {"C", 0.80, 6.0},
                 {"D", 0.65, 7.0}, {"E", 0.60, 5.0}, {"F", 0.60, 2.0},
                 {"G", 0.75, 3.0}};
    }
    if (workers.empty()) {
      std::cerr << "error: empty worker pool\n";
      return 1;
    }

    if (args.budgets.empty()) {
      // Default grid: 10 steps up to the full pool cost.
      double total = 0.0;
      for (const Worker& w : workers) total += w.cost;
      for (int step = 1; step <= 10; ++step) {
        args.budgets.push_back(total * step / 10);
      }
    }
  }

  if (args.solver.empty()) {
    // Historical default: the Fig. 1 budget-quality table. The limit
    // flags apply here too: a deadline truncates the table to the rows
    // finished in time, a work budget caps the row count
    // deterministically (and both wind down each row's inner solve).
    std::cout << "Pool: " << workers.size() << " workers, prior alpha = "
              << args.alpha << "\n\n";
    Rng rng(args.seed);
    OptjsOptions options;
    options.max_work_units = args.max_work_units;
    std::optional<CancelToken> deadline;
    if (args.deadline_ms > 0.0) {
      deadline.emplace(args.deadline_ms);
      options.cancel_token = &*deadline;
    }
    TerminationInfo termination;
    options.termination = &termination;
    auto rows = BuildBudgetQualityTable(workers, args.budgets, args.alpha,
                                        &rng, options);
    if (!rows.ok()) {
      std::cerr << "error: " << rows.status() << "\n";
      return 1;
    }
    std::cout << FormatBudgetQualityTable(rows.value());
    if (termination.terminated_early()) {
      std::cout << "(stopped early: " << StopReasonName(termination.reason)
                << "; " << rows.value().size() << " of "
                << args.budgets.size() << " rows)\n";
    }
    return 0;
  }

  // Registry path: plan the pool once, then answer one request per budget
  // against the long-lived context — the serving-layer shape.
  if (!context.has_value()) {
    // A CSV pool was already validated row-by-row by `LoadWorkersCsv` (and
    // the built-in demo pool is trivially valid), so planning skips the
    // per-worker re-validation pass — validation is hoisted to load time.
    api::PlanOptions plan_options;
    plan_options.assume_validated = true;
    auto planned = api::PoolPlanContext::Plan(std::move(workers),
                                              plan_options);
    if (!planned.ok()) {
      std::cerr << "error: " << planned.status() << "\n";
      return 1;
    }
    context.emplace(std::move(planned).value());
  }

  if (!args.save_snapshot.empty()) {
    const Status saved = PoolSnapshot::Write(
        args.save_snapshot, context->candidates(), context->view());
    if (!saved.ok()) {
      std::cerr << "error: " << saved << "\n";
      return 1;
    }
    if (!args.json) {
      std::cout << "(pool snapshot saved to " << args.save_snapshot << ")\n";
    }
  }

  std::vector<api::SolveRequest> requests;
  for (const double budget : args.budgets) {
    api::SolveRequest request;
    request.solver = args.solver;
    request.budget = budget;
    request.alpha = args.alpha;
    request.rng_seed = args.seed;
    request.deadline_ms = args.deadline_ms;
    request.max_work_units = args.max_work_units;
    if (args.frontier_k > 0) {
      const auto k = static_cast<std::size_t>(args.frontier_k);
      request.tuning.greedy.frontier_k = k;
      request.tuning.annealing.frontier_k = k;
      request.tuning.branch_bound.frontier_k = k;
    }
    requests.push_back(std::move(request));
  }
  auto reports = context->SolveMany(requests);
  if (!reports.ok()) {
    std::cerr << "error: " << reports.status() << "\n";
    return 1;
  }

  if (!args.json) {
    std::cout << "Pool: " << context->num_candidates()
              << " workers (source: " << context->pool_source()
              << "), prior alpha = " << args.alpha
              << ", solver = " << args.solver << "\n\n";
  }
  for (std::size_t i = 0; i < reports.value().size(); ++i) {
    const api::SolveReport& report = reports.value()[i];
    if (args.json) {
      std::cout << report.ToJson() << "\n";
      continue;
    }
    std::string ids = "{";
    for (std::size_t j = 0; j < report.solution.selected.size(); ++j) {
      if (j > 0) ids += ", ";
      ids += context->candidates()[report.solution.selected[j]].id;
    }
    ids += "}";
    std::cout << "B = " << requests[i].budget << ": jury " << ids
              << ", JQ = " << 100.0 * report.solution.jq << "%"
              << ", cost = " << report.solution.cost << ", "
              << report.evaluations.total() << " evals, "
              << 1e3 * report.wall_seconds << " ms";
    if (report.terminated_early) {
      std::cout << " [early: " << report.termination_reason << "]";
    }
    std::cout << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args;
  if (!ParseArgs(argc, argv, &args)) return 1;
  const int exit_code = RunCli(args);
  if (args.stats) {
    // Always the last stdout line, even after a failed run — the
    // counters (request_errors, parse_errors) are most interesting then.
    std::cout << jury::StatsRegistry::Global().ToJson() << "\n";
  }
  return exit_code;
}
