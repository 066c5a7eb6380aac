#ifndef JURYOPT_CORE_JSP_H_
#define JURYOPT_CORE_JSP_H_

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "model/jury.h"
#include "model/worker.h"
#include "model/worker_pool_view.h"
#include "util/json.h"
#include "util/status.h"

namespace jury {

/// \brief An instance of the Jury Selection Problem (§2.2): candidate
/// workers W, a budget B, and the task prior alpha. The goal is
/// `J* = argmax_{J in C} max_S JQ(J, S, alpha)` over feasible juries
/// `C = { J subset of W : sum of costs <= B }`; by Corollary 1 the inner
/// max is attained by Bayesian Voting.
///
/// W is the columnar view of a validated pool, which must outlive every
/// solve on the instance. Worker ids are not part of an instance: a
/// caller that prints them keeps its own workers (see `Describe`).
struct JspInstance {
  const WorkerPoolView* pool = nullptr;
  double budget = 0.0;
  double alpha = 0.5;

  std::size_t num_candidates() const { return pool->size(); }
};

/// The O(1) check every `Solve*` entry runs before it reads the pool: a
/// valid prior, a non-negative budget, and `view` being the instance's
/// own pool (`instance.pool == &view`; an equal copy does not pass).
/// InvalidArgument otherwise. It does not re-validate the workers: the
/// caller validated the pool once, when it built the view. The entries'
/// `view` parameter repeats `instance.pool`; it stays while the
/// benchmark's probe calls the entries that way.
Status ValidateSolveEntry(const JspInstance& instance,
                          const WorkerPoolView& view);

/// \brief A solved jury: indices into the instance's pool, the objective
/// value attained, and the jury's actual cost (<= budget).
struct JspSolution {
  /// Sorted, de-duplicated candidate indices.
  std::vector<std::size_t> selected;
  /// Objective value (JQ estimate) of the selected jury.
  double jq = 0.0;
  /// Sum of selected workers' costs.
  double cost = 0.0;

  /// The selected workers as an anonymous `Jury`, read from the pool's
  /// quality and cost columns.
  Jury ToJury(const JspInstance& instance) const;
  /// Comma-separated ids of the selected `workers`, the pool the instance
  /// was built from, for reports.
  std::string Describe(std::span<const Worker> workers) const;
  /// Deterministic JSON serialization (sorted keys, round-trip doubles):
  /// `{"cost":...,"jq":...,"selected":[...]}`. Shared by
  /// `api::SolveReport::ToJson` and the bench/service logs, so the same
  /// solution always serializes to the same bytes.
  std::string ToJson() const;
  /// The same document as a `Json` value, for embedding in larger reports.
  Json ToJsonValue() const;

  bool operator==(const JspSolution& other) const = default;
};

/// JQ of the empty jury: the strategy can only follow the prior, so the
/// best achievable correctness probability is max(alpha, 1-alpha).
double EmptyJuryJq(double alpha);

/// Builds the (sorted) solution for an index set, computing its cost.
JspSolution MakeSolution(const JspInstance& instance,
                         std::vector<std::size_t> selected, double jq);

}  // namespace jury

#endif  // JURYOPT_CORE_JSP_H_
