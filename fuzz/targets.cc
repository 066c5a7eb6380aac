#include "fuzz/targets.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "api/solve.h"
#include "core/annealing.h"
#include "model/pool_snapshot.h"
#include "model/worker.h"
#include "util/check.h"
#include "util/json.h"
#include "util/result.h"

namespace jury::fuzz {

namespace {

using api::PoolPlanContext;
using api::SolveReport;
using api::SolveRequest;

/// The fixed tiny pool the request target solves against: small enough
/// that any accepted request finishes fast, varied enough (a free
/// worker, a coin-flip worker, a strong expensive one) to reach the
/// interesting solver branches.
std::vector<Worker> TinyPool() {
  return {
      {"free", 0.70, 0.0}, {"coin", 0.50, 1.0}, {"strong", 0.95, 4.0},
      {"weak", 0.35, 0.5}, {"solid", 0.80, 2.0},
  };
}

/// Throughput clamps for valid-but-expensive knobs. The unclamped
/// values already went through `FromJson` + `Validate`, so rejection
/// paths are fully exercised; this only bounds the *accepted* work.
void ClampAnnealing(AnnealingOptions* annealing) {
  annealing->num_restarts = std::min<std::size_t>(annealing->num_restarts, 8);
  if (annealing->epsilon < 1e-12) annealing->epsilon = 1e-12;
  if (annealing->initial_temperature > 1e6) {
    annealing->initial_temperature = 1e6;
  }
  if (annealing->cooling_factor > 0.99) annealing->cooling_factor = 0.5;
  if (annealing->max_polish_moves != AnnealingOptions::kAutoPolishMoves) {
    annealing->max_polish_moves =
        std::min<std::size_t>(annealing->max_polish_moves, 64);
  }
}

void ClampRequest(SolveRequest* request) {
  auto& tuning = request->tuning;
  ClampAnnealing(&tuning.annealing);
  ClampAnnealing(&tuning.optjs.annealing);
  ClampAnnealing(&tuning.mvjs.annealing);
  tuning.bucket.num_buckets = std::min(tuning.bucket.num_buckets, 10'000);
  tuning.optjs.bucket.num_buckets =
      std::min(tuning.optjs.bucket.num_buckets, 10'000);
  tuning.branch_bound.max_nodes =
      std::min<std::size_t>(tuning.branch_bound.max_nodes, 100'000);
  // A process-stats snapshot per input is pure overhead here.
  request->collect_process_stats = false;
}

}  // namespace

void FuzzJson(const std::uint8_t* data, std::size_t size) {
  const std::string_view text(reinterpret_cast<const char*>(data), size);
  Result<Json> parsed = Json::Parse(text);
  if (!parsed.ok()) return;
  // Canonical-form round trip: dumping and reparsing any accepted
  // document must be byte-stable (the golden traces compare these
  // bytes). A violation is a real bug, so it *should* crash the fuzzer.
  const std::string dumped = parsed.value().Dump();
  Result<Json> reparsed = Json::Parse(dumped);
  JURY_CHECK(reparsed.ok()) << "canonical dump failed to reparse: " << dumped;
  JURY_CHECK(reparsed.value().Dump() == dumped)
      << "canonical dump is not a fixed point: " << dumped;
}

void FuzzSolveRequest(const std::uint8_t* data, std::size_t size) {
  const std::string_view text(reinterpret_cast<const char*>(data), size);
  Result<SolveRequest> parsed = SolveRequest::FromJsonText(text);
  if (!parsed.ok()) return;
  SolveRequest request = std::move(parsed).value();
  ClampRequest(&request);
  Result<PoolPlanContext> planned = PoolPlanContext::Plan(TinyPool());
  JURY_CHECK(planned.ok());
  // Any outcome is fine — accepted requests solve, bad knobs surface as
  // InvalidArgument, unknown solvers as NotFound — as long as nothing
  // aborts.
  Result<SolveReport> report = planned.value().Solve(request);
  (void)report;
}

void FuzzPoolSnapshot(const std::uint8_t* data, std::size_t size) {
  // Route 1: the binary `PoolSnapshot` wire format. Truncated headers,
  // bit-flipped checksums, oversized counts, foreign endianness, and
  // column values violating the numeric invariants must all surface as a
  // `Status` — never an abort. An input that *passes* the full
  // validation is as trusted as a validated CSV pool, so planning and a
  // frontier-assisted greedy solve over it must succeed.
  Result<PoolSnapshot> snapshot = PoolSnapshot::FromBytes(data, size);
  if (snapshot.ok() && snapshot.value().size() > 0) {
    Result<PoolPlanContext> from_snapshot =
        PoolPlanContext::PlanFromSnapshot(std::move(snapshot).value());
    JURY_CHECK(from_snapshot.ok())
        << "plan failed on a validated snapshot: "
        << from_snapshot.status().ToString();
    SolveRequest request;
    request.solver = "greedy-mg";
    request.budget = 8.0;
    request.tuning.greedy.frontier_k = 4;  // exercises the sharded pool
    Result<SolveReport> report = from_snapshot.value().Solve(request);
    JURY_CHECK(report.ok()) << "greedy solve failed on a validated "
                            << "snapshot pool: " << report.status().ToString();
  }
  // Route 2 (legacy): reinterpret the bytes as packed little-endian
  // (quality, cost) double pairs: raw IEEE bit patterns, so NaNs (quiet
  // and signaling), infinities, denormals, negative zeros, and wildly
  // out-of-range magnitudes all reach the validation layer.
  std::vector<Worker> pool;
  const std::size_t pairs = std::min<std::size_t>(size / 16, 256);
  pool.reserve(pairs);
  for (std::size_t i = 0; i < pairs; ++i) {
    double quality = 0.0;
    double cost = 0.0;
    std::memcpy(&quality, data + 16 * i, sizeof(quality));
    std::memcpy(&cost, data + 16 * i + 8, sizeof(cost));
    std::string id = "w";
    id += std::to_string(i);
    pool.emplace_back(std::move(id), quality, cost);
  }
  Result<PoolPlanContext> planned = PoolPlanContext::Plan(std::move(pool));
  if (!planned.ok()) return;
  // The pool validated, so it is made of honest workers; a cheap greedy
  // solve exercises the columnar view construction and a full scoring
  // pass over it.
  SolveRequest request;
  request.solver = "greedy-quality";
  request.budget = 8.0;
  Result<SolveReport> report = planned.value().Solve(request);
  JURY_CHECK(report.ok()) << "greedy solve failed on a validated pool: "
                          << report.status().ToString();
}

}  // namespace jury::fuzz
