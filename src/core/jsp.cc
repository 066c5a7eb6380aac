#include "core/jsp.h"

#include <algorithm>

#include "model/prior.h"
#include "util/check.h"
#include "util/json.h"

namespace jury {
namespace {

/// The pool-independent half of `JspInstance::Validate`.
Status ValidateAlphaAndBudget(const JspInstance& instance) {
  JURY_RETURN_NOT_OK(ValidateAlpha(instance.alpha));
  if (!(instance.budget >= 0.0)) {
    return Status::InvalidArgument("budget must be non-negative");
  }
  return Status::OK();
}

}  // namespace

Status JspInstance::Validate() const {
  JURY_RETURN_NOT_OK(ValidateAlphaAndBudget(*this));
  for (const Worker& w : candidates) {
    JURY_RETURN_NOT_OK(ValidateWorker(w));
  }
  return Status::OK();
}

Status ValidateSolveEntry(const JspInstance& instance,
                          const WorkerPoolView& view) {
  JURY_RETURN_NOT_OK(ValidateAlphaAndBudget(instance));
  if (view.size() != instance.num_candidates()) {
    return Status::InvalidArgument(
        "pool view covers " + std::to_string(view.size()) +
        " workers, instance has " +
        std::to_string(instance.num_candidates()) + " candidates");
  }
  return Status::OK();
}

Jury JspSolution::ToJury(const JspInstance& instance) const {
  Jury jury;
  for (std::size_t idx : selected) {
    JURY_CHECK_LT(idx, instance.candidates.size());
    jury.Add(instance.candidates[idx]);
  }
  return jury;
}

std::string JspSolution::Describe(const JspInstance& instance) const {
  std::string out = "{";
  for (std::size_t i = 0; i < selected.size(); ++i) {
    if (i > 0) out += ", ";
    out += instance.candidates[selected[i]].id;
  }
  out += "}";
  return out;
}

Json JspSolution::ToJsonValue() const {
  Json selected_json = Json::Array();
  for (const std::size_t idx : selected) {
    selected_json.Append(static_cast<std::uint64_t>(idx));
  }
  return Json::Object()
      .Set("cost", cost)
      .Set("jq", jq)
      .Set("selected", std::move(selected_json));
}

std::string JspSolution::ToJson() const { return ToJsonValue().Dump(); }

double EmptyJuryJq(double alpha) { return std::max(alpha, 1.0 - alpha); }

JspSolution MakeSolution(const JspInstance& instance,
                         std::vector<std::size_t> selected, double jq) {
  std::sort(selected.begin(), selected.end());
  selected.erase(std::unique(selected.begin(), selected.end()),
                 selected.end());
  JspSolution out;
  out.cost = 0.0;
  for (std::size_t idx : selected) {
    JURY_CHECK_LT(idx, instance.candidates.size());
    out.cost += instance.candidates[idx].cost;
  }
  out.selected = std::move(selected);
  out.jq = jq;
  return out;
}

}  // namespace jury
