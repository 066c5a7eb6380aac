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

/// \brief A non-owning view of a candidate pool. It binds to a named
/// `std::vector<Worker>` or to a span, never to a temporary vector: the
/// rvalue constructor is deleted, so `instance.candidates = MakePool()`
/// fails to compile instead of dangling.
class CandidateSpan : public std::span<const Worker> {
 public:
  CandidateSpan() = default;
  CandidateSpan(std::span<const Worker> workers)  // NOLINT
      : std::span<const Worker>(workers) {}
  CandidateSpan(const std::vector<Worker>& workers)  // NOLINT
      : std::span<const Worker>(workers) {}
  CandidateSpan(std::vector<Worker>&&) = delete;
};

/// \brief An instance of the Jury Selection Problem (§2.2): candidate
/// workers W, a budget B, and the task prior alpha. The goal is
/// `J* = argmax_{J in C} max_S JQ(J, S, alpha)` over feasible juries
/// `C = { J subset of W : sum of costs <= B }`; by Corollary 1 the inner
/// max is attained by Bayesian Voting.
///
/// The instance borrows its candidates, as `WorkerPoolView` does: the
/// pool they point at must outlive every solve on the instance.
struct JspInstance {
  CandidateSpan candidates;
  double budget = 0.0;
  double alpha = 0.5;

  /// Full O(n) check: a valid prior, a non-negative budget, and every
  /// candidate's quality and cost. Run once where a pool is built.
  Status Validate() const;
  std::size_t num_candidates() const { return candidates.size(); }
};

/// The O(1) check every `Solve*` entry runs before it reads the pool: a
/// valid prior, a non-negative budget, and a `view` with one entry per
/// candidate (the solvers index the view's columns with candidate
/// indices). InvalidArgument otherwise. It does not re-validate the
/// workers: the caller validated the pool once, when it built `view`.
Status ValidateSolveEntry(const JspInstance& instance,
                          const WorkerPoolView& view);

/// \brief A solved jury: indices into `JspInstance::candidates`, the
/// objective value attained, and the jury's actual cost (<= budget).
struct JspSolution {
  /// Sorted, de-duplicated candidate indices.
  std::vector<std::size_t> selected;
  /// Objective value (JQ estimate) of the selected jury.
  double jq = 0.0;
  /// Sum of selected workers' costs.
  double cost = 0.0;

  /// Materializes the selected workers as a `Jury`.
  Jury ToJury(const JspInstance& instance) const;
  /// Comma-separated worker ids, for reports.
  std::string Describe(const JspInstance& instance) const;
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
