#include "core/jsp.h"

#include <algorithm>

#include "model/prior.h"
#include "util/check.h"
#include "util/json.h"

namespace jury {

Status ValidateSolveEntry(const JspInstance& instance,
                          const WorkerPoolView& view) {
  JURY_RETURN_NOT_OK(ValidateAlpha(instance.alpha));
  if (!(instance.budget >= 0.0)) {
    return Status::InvalidArgument("budget must be non-negative");
  }
  if (instance.pool != &view) {
    return Status::InvalidArgument("view is not the instance's pool");
  }
  return Status::OK();
}

Jury JspSolution::ToJury(const JspInstance& instance) const {
  Jury jury;
  for (std::size_t idx : selected) {
    JURY_CHECK_LT(idx, instance.num_candidates());
    jury.Add(Worker("", instance.pool->quality()[idx],
                    instance.pool->cost()[idx]));
  }
  return jury;
}

std::string JspSolution::Describe(std::span<const Worker> workers) const {
  std::string out = "{";
  for (std::size_t i = 0; i < selected.size(); ++i) {
    if (i > 0) out += ", ";
    out += workers[selected[i]].id;
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
    JURY_CHECK_LT(idx, instance.num_candidates());
    out.cost += instance.pool->cost()[idx];
  }
  out.selected = std::move(selected);
  out.jq = jq;
  return out;
}

}  // namespace jury
