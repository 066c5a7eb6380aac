// JSON binding of `SolveRequest` — the wire format of the serving
// surface, and the most fuzzed path in the repo: arbitrary bytes ->
// `Json::Parse` -> `SolveRequest::FromJson` -> `Validate` -> `Solve`
// must never abort. The binding is strict: unknown keys are errors (a
// typoed knob must not silently solve with defaults), every type
// mismatch names the JSON path, and integers are range-checked before
// they are narrowed.

#include <cstdint>
#include <limits>
#include <string>
#include <utility>

#include "api/solve.h"
#include "util/json.h"
#include "util/result.h"

namespace jury::api {

namespace {

// -- Scalar field readers. Each takes the already-looked-up value plus
// -- the dotted path for the error message.

Status GetBoolField(const Json& value, const std::string& path, bool* out) {
  if (!value.is_bool()) {
    return Status::InvalidArgument(path + " must be a boolean");
  }
  *out = value.GetBool().value();
  return Status::OK();
}

Status GetDoubleField(const Json& value, const std::string& path,
                      double* out) {
  if (!value.is_number()) {
    return Status::InvalidArgument(path + " must be a number");
  }
  *out = value.GetDouble().value();
  return Status::OK();
}

Status GetUint64Field(const Json& value, const std::string& path,
                      std::uint64_t* out) {
  Result<std::uint64_t> parsed = value.GetUint64();
  if (!parsed.ok()) {
    return Status::InvalidArgument(path + " must be a non-negative integer");
  }
  *out = parsed.value();
  return Status::OK();
}

Status GetSizeField(const Json& value, const std::string& path,
                    std::size_t* out) {
  std::uint64_t parsed = 0;
  JURY_RETURN_NOT_OK(GetUint64Field(value, path, &parsed));
  if (parsed > std::numeric_limits<std::size_t>::max()) {
    return Status::InvalidArgument(path + " is out of range");
  }
  *out = static_cast<std::size_t>(parsed);
  return Status::OK();
}

Status GetIntField(const Json& value, const std::string& path, int* out) {
  std::uint64_t parsed = 0;
  JURY_RETURN_NOT_OK(GetUint64Field(value, path, &parsed));
  if (parsed > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
    return Status::InvalidArgument(path + " is out of range");
  }
  *out = static_cast<int>(parsed);
  return Status::OK();
}

Status GetStringField(const Json& value, const std::string& path,
                      std::string* out) {
  if (!value.is_string()) {
    return Status::InvalidArgument(path + " must be a string");
  }
  *out = value.GetString().value();
  return Status::OK();
}

Status ExpectObject(const Json& value, const std::string& path) {
  if (!value.is_object()) {
    return Status::InvalidArgument(path + " must be an object");
  }
  return Status::OK();
}

Status UnknownKey(const std::string& path, const std::string& key) {
  return Status::InvalidArgument(path + ": unknown key " + Json::Quote(key));
}

/// `frontier_k`, the one frontier knob every frontier-capable solver's
/// options share (greedy family, annealing polish, branch-and-bound
/// ordering), is emitted only when non-default, so frontier-free dumps —
/// every golden fixture among them — keep their historical byte layout.
/// The runtime-only `sharded_pool` / `frontier_stats` pointers have no
/// wire form.
void FrontierToJson(const SolverOptions& options, Json* doc) {
  if (options.frontier_k != 0) {
    doc->Set("frontier_k", static_cast<std::uint64_t>(options.frontier_k));
  }
}

// -- Per-struct binders. Each overlays the document onto an
// -- already-default-initialized struct, so absent keys keep defaults.

Status BindBucket(const Json& doc, const std::string& path,
                  BucketJqOptions* out) {
  JURY_RETURN_NOT_OK(ExpectObject(doc, path));
  for (const auto& [key, value] : *doc.GetObject()) {
    const std::string field = path + "." + key;
    if (key == "num_buckets") {
      JURY_RETURN_NOT_OK(GetIntField(value, field, &out->num_buckets));
    } else if (key == "enable_pruning") {
      JURY_RETURN_NOT_OK(GetBoolField(value, field, &out->enable_pruning));
    } else if (key == "high_quality_cutoff") {
      JURY_RETURN_NOT_OK(
          GetDoubleField(value, field, &out->high_quality_cutoff));
    } else {
      return UnknownKey(path, key);
    }
  }
  return Status::OK();
}

Status BindAnnealing(const Json& doc, const std::string& path,
                     AnnealingOptions* out) {
  JURY_RETURN_NOT_OK(ExpectObject(doc, path));
  for (const auto& [key, value] : *doc.GetObject()) {
    const std::string field = path + "." + key;
    if (key == "num_threads") {
      JURY_RETURN_NOT_OK(GetSizeField(value, field, &out->num_threads));
    } else if (key == "initial_temperature") {
      JURY_RETURN_NOT_OK(
          GetDoubleField(value, field, &out->initial_temperature));
    } else if (key == "epsilon") {
      JURY_RETURN_NOT_OK(GetDoubleField(value, field, &out->epsilon));
    } else if (key == "cooling_factor") {
      JURY_RETURN_NOT_OK(GetDoubleField(value, field, &out->cooling_factor));
    } else if (key == "return_best_seen") {
      JURY_RETURN_NOT_OK(GetBoolField(value, field, &out->return_best_seen));
    } else if (key == "removal_probability") {
      JURY_RETURN_NOT_OK(
          GetDoubleField(value, field, &out->removal_probability));
    } else if (key == "use_incremental") {
      JURY_RETURN_NOT_OK(GetBoolField(value, field, &out->use_incremental));
    } else if (key == "max_polish_moves") {
      JURY_RETURN_NOT_OK(GetSizeField(value, field, &out->max_polish_moves));
    } else if (key == "num_restarts") {
      JURY_RETURN_NOT_OK(GetSizeField(value, field, &out->num_restarts));
    } else if (key == "frontier_k") {
      JURY_RETURN_NOT_OK(GetSizeField(value, field, &out->frontier_k));
    } else {
      return UnknownKey(path, key);
    }
  }
  return Status::OK();
}

Status BindGreedy(const Json& doc, const std::string& path,
                  GreedyOptions* out) {
  JURY_RETURN_NOT_OK(ExpectObject(doc, path));
  for (const auto& [key, value] : *doc.GetObject()) {
    const std::string field = path + "." + key;
    if (key == "num_threads") {
      JURY_RETURN_NOT_OK(GetSizeField(value, field, &out->num_threads));
    } else if (key == "use_incremental") {
      JURY_RETURN_NOT_OK(GetBoolField(value, field, &out->use_incremental));
    } else if (key == "frontier_k") {
      JURY_RETURN_NOT_OK(GetSizeField(value, field, &out->frontier_k));
    } else {
      return UnknownKey(path, key);
    }
  }
  return Status::OK();
}

Status BindExhaustive(const Json& doc, const std::string& path,
                      ExhaustiveOptions* out) {
  JURY_RETURN_NOT_OK(ExpectObject(doc, path));
  for (const auto& [key, value] : *doc.GetObject()) {
    const std::string field = path + "." + key;
    if (key == "num_threads") {
      JURY_RETURN_NOT_OK(GetSizeField(value, field, &out->num_threads));
    } else if (key == "max_candidates") {
      JURY_RETURN_NOT_OK(GetSizeField(value, field, &out->max_candidates));
    } else if (key == "use_incremental") {
      JURY_RETURN_NOT_OK(GetBoolField(value, field, &out->use_incremental));
    } else {
      return UnknownKey(path, key);
    }
  }
  return Status::OK();
}

Status BindBranchBound(const Json& doc, const std::string& path,
                       BranchBoundOptions* out) {
  JURY_RETURN_NOT_OK(ExpectObject(doc, path));
  for (const auto& [key, value] : *doc.GetObject()) {
    const std::string field = path + "." + key;
    if (key == "max_nodes") {
      JURY_RETURN_NOT_OK(GetSizeField(value, field, &out->max_nodes));
    } else if (key == "use_incremental") {
      JURY_RETURN_NOT_OK(GetBoolField(value, field, &out->use_incremental));
    } else if (key == "frontier_k") {
      JURY_RETURN_NOT_OK(GetSizeField(value, field, &out->frontier_k));
    } else {
      return UnknownKey(path, key);
    }
  }
  return Status::OK();
}

Status BindOptjs(const Json& doc, const std::string& path, OptjsOptions* out) {
  JURY_RETURN_NOT_OK(ExpectObject(doc, path));
  for (const auto& [key, value] : *doc.GetObject()) {
    const std::string field = path + "." + key;
    if (key == "bucket") {
      JURY_RETURN_NOT_OK(BindBucket(value, field, &out->bucket));
    } else if (key == "annealing") {
      JURY_RETURN_NOT_OK(BindAnnealing(value, field, &out->annealing));
    } else if (key == "exhaustive_threshold") {
      JURY_RETURN_NOT_OK(
          GetSizeField(value, field, &out->exhaustive_threshold));
    } else if (key == "use_incremental") {
      JURY_RETURN_NOT_OK(GetBoolField(value, field, &out->use_incremental));
    } else if (key == "num_threads") {
      JURY_RETURN_NOT_OK(GetSizeField(value, field, &out->num_threads));
    } else {
      return UnknownKey(path, key);
    }
  }
  return Status::OK();
}

Status BindMvjs(const Json& doc, const std::string& path, MvjsOptions* out) {
  JURY_RETURN_NOT_OK(ExpectObject(doc, path));
  for (const auto& [key, value] : *doc.GetObject()) {
    const std::string field = path + "." + key;
    if (key == "annealing") {
      JURY_RETURN_NOT_OK(BindAnnealing(value, field, &out->annealing));
    } else if (key == "use_odd_top_k") {
      JURY_RETURN_NOT_OK(GetBoolField(value, field, &out->use_odd_top_k));
    } else if (key == "use_incremental") {
      JURY_RETURN_NOT_OK(GetBoolField(value, field, &out->use_incremental));
    } else {
      return UnknownKey(path, key);
    }
  }
  return Status::OK();
}

Status BindTuning(const Json& doc, const std::string& path,
                  SolverTuning* out) {
  JURY_RETURN_NOT_OK(ExpectObject(doc, path));
  for (const auto& [key, value] : *doc.GetObject()) {
    const std::string field = path + "." + key;
    if (key == "objective") {
      JURY_RETURN_NOT_OK(GetStringField(value, field, &out->objective));
    } else if (key == "bucket") {
      JURY_RETURN_NOT_OK(BindBucket(value, field, &out->bucket));
    } else if (key == "annealing") {
      JURY_RETURN_NOT_OK(BindAnnealing(value, field, &out->annealing));
    } else if (key == "greedy") {
      JURY_RETURN_NOT_OK(BindGreedy(value, field, &out->greedy));
    } else if (key == "exhaustive") {
      JURY_RETURN_NOT_OK(BindExhaustive(value, field, &out->exhaustive));
    } else if (key == "branch_bound") {
      JURY_RETURN_NOT_OK(BindBranchBound(value, field, &out->branch_bound));
    } else if (key == "optjs") {
      JURY_RETURN_NOT_OK(BindOptjs(value, field, &out->optjs));
    } else if (key == "mvjs") {
      JURY_RETURN_NOT_OK(BindMvjs(value, field, &out->mvjs));
    } else {
      return UnknownKey(path, key);
    }
  }
  return Status::OK();
}

// -- Writers (the ToJsonValue mirror). Every field is emitted, defaults
// -- included, so a dumped request reparses to an equal struct and the
// -- bytes are stable. (The top-level limit fields are the one exception;
// -- see ToJsonValue.)

Json BucketToJson(const BucketJqOptions& options) {
  return Json::Object()
      .Set("enable_pruning", options.enable_pruning)
      .Set("high_quality_cutoff", options.high_quality_cutoff)
      .Set("num_buckets", options.num_buckets);
}

Json AnnealingToJson(const AnnealingOptions& options) {
  Json doc = Json::Object()
                 .Set("cooling_factor", options.cooling_factor)
                 .Set("epsilon", options.epsilon)
                 .Set("initial_temperature", options.initial_temperature)
                 .Set("max_polish_moves",
                      static_cast<std::uint64_t>(options.max_polish_moves))
                 .Set("num_restarts",
                      static_cast<std::uint64_t>(options.num_restarts))
                 .Set("num_threads",
                      static_cast<std::uint64_t>(options.num_threads))
                 .Set("removal_probability", options.removal_probability)
                 .Set("return_best_seen", options.return_best_seen)
                 .Set("use_incremental", options.use_incremental);
  FrontierToJson(options, &doc);
  return doc;
}

Json GreedyToJson(const GreedyOptions& options) {
  Json doc = Json::Object()
                 .Set("num_threads",
                      static_cast<std::uint64_t>(options.num_threads))
                 .Set("use_incremental", options.use_incremental);
  FrontierToJson(options, &doc);
  return doc;
}

Json ExhaustiveToJson(const ExhaustiveOptions& options) {
  return Json::Object()
      .Set("max_candidates",
           static_cast<std::uint64_t>(options.max_candidates))
      .Set("num_threads", static_cast<std::uint64_t>(options.num_threads))
      .Set("use_incremental", options.use_incremental);
}

Json BranchBoundToJson(const BranchBoundOptions& options) {
  Json doc = Json::Object()
                 .Set("max_nodes", static_cast<std::uint64_t>(options.max_nodes))
                 .Set("use_incremental", options.use_incremental);
  FrontierToJson(options, &doc);
  return doc;
}

Json OptjsToJson(const OptjsOptions& options) {
  return Json::Object()
      .Set("annealing", AnnealingToJson(options.annealing))
      .Set("bucket", BucketToJson(options.bucket))
      .Set("exhaustive_threshold",
           static_cast<std::uint64_t>(options.exhaustive_threshold))
      .Set("num_threads", static_cast<std::uint64_t>(options.num_threads))
      .Set("use_incremental", options.use_incremental);
}

Json MvjsToJson(const MvjsOptions& options) {
  return Json::Object()
      .Set("annealing", AnnealingToJson(options.annealing))
      .Set("use_incremental", options.use_incremental)
      .Set("use_odd_top_k", options.use_odd_top_k);
}

Json TuningToJson(const SolverTuning& tuning) {
  return Json::Object()
      .Set("annealing", AnnealingToJson(tuning.annealing))
      .Set("branch_bound", BranchBoundToJson(tuning.branch_bound))
      .Set("bucket", BucketToJson(tuning.bucket))
      .Set("exhaustive", ExhaustiveToJson(tuning.exhaustive))
      .Set("greedy", GreedyToJson(tuning.greedy))
      .Set("mvjs", MvjsToJson(tuning.mvjs))
      .Set("objective", tuning.objective)
      .Set("optjs", OptjsToJson(tuning.optjs));
}

}  // namespace

Result<SolveRequest> SolveRequest::FromJson(const Json& doc) {
  JURY_RETURN_NOT_OK(ExpectObject(doc, "request"));
  SolveRequest request;
  for (const auto& [key, value] : *doc.GetObject()) {
    const std::string field = "request." + key;
    if (key == "solver") {
      JURY_RETURN_NOT_OK(GetStringField(value, field, &request.solver));
    } else if (key == "budget") {
      JURY_RETURN_NOT_OK(GetDoubleField(value, field, &request.budget));
    } else if (key == "alpha") {
      JURY_RETURN_NOT_OK(GetDoubleField(value, field, &request.alpha));
    } else if (key == "rng_seed") {
      JURY_RETURN_NOT_OK(GetUint64Field(value, field, &request.rng_seed));
    } else if (key == "deadline_ms") {
      JURY_RETURN_NOT_OK(GetDoubleField(value, field, &request.deadline_ms));
    } else if (key == "max_work_units") {
      JURY_RETURN_NOT_OK(
          GetUint64Field(value, field, &request.max_work_units));
    } else if (key == "collect_process_stats") {
      JURY_RETURN_NOT_OK(
          GetBoolField(value, field, &request.collect_process_stats));
    } else if (key == "tuning") {
      JURY_RETURN_NOT_OK(BindTuning(value, field, &request.tuning));
    } else {
      return UnknownKey("request", key);
    }
  }
  return request;
}

Result<SolveRequest> SolveRequest::FromJsonText(std::string_view text) {
  Json doc;
  JURY_ASSIGN_OR_RETURN(doc, Json::Parse(text));
  return FromJson(doc);
}

Json SolveRequest::ToJsonValue() const {
  Json doc = Json::Object()
                 .Set("alpha", alpha)
                 .Set("budget", budget)
                 .Set("collect_process_stats", collect_process_stats)
                 .Set("rng_seed", rng_seed)
                 .Set("solver", solver)
                 .Set("tuning", TuningToJson(tuning));
  // The two limit fields are the exception to "emit every field": written
  // only when set, so limit-free dumps — the checked-in golden fixtures
  // among them — keep their historical byte layout. (`cancel_token` is
  // runtime-only and has no wire form at all.)
  if (deadline_ms > 0.0) doc.Set("deadline_ms", deadline_ms);
  if (max_work_units != 0) doc.Set("max_work_units", max_work_units);
  return doc;
}

std::string SolveRequest::ToJson() const { return ToJsonValue().Dump(); }

}  // namespace jury::api
