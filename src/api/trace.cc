#include "api/trace.h"

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "model/worker.h"
#include "util/json.h"

namespace jury::api {

namespace {

Json WorkerToJson(const Worker& worker) {
  return Json::Object()
      .Set("cost", worker.cost)
      .Set("id", worker.id)
      .Set("quality", worker.quality);
}

Status ParseWorker(const Json& doc, std::size_t index, Worker* out) {
  const std::string path = "pool[" + std::to_string(index) + "]";
  if (!doc.is_object()) {
    return Status::InvalidArgument(path + " must be an object");
  }
  for (const auto& [key, value] : *doc.GetObject()) {
    if (key == "id") {
      Result<std::string> id = value.GetString();
      if (!id.ok()) {
        return Status::InvalidArgument(path + ".id must be a string");
      }
      out->id = id.value();
    } else if (key == "quality") {
      Result<double> quality = value.GetDouble();
      if (!quality.ok()) {
        return Status::InvalidArgument(path + ".quality must be a number");
      }
      out->quality = quality.value();
    } else if (key == "cost") {
      Result<double> cost = value.GetDouble();
      if (!cost.ok()) {
        return Status::InvalidArgument(path + ".cost must be a number");
      }
      out->cost = cost.value();
    } else {
      return Status::InvalidArgument(path + ": unknown key " +
                                     Json::Quote(key));
    }
  }
  return Status::OK();
}

}  // namespace

Result<std::string> NormalizeReportJson(std::string_view json) {
  Json doc;
  JURY_ASSIGN_OR_RETURN(doc, Json::Parse(json));
  const std::map<std::string, Json>* object = doc.GetObject();
  if (object == nullptr || doc.Find("wall_seconds") == nullptr) {
    return Status::InvalidArgument(
        "not a report document (no wall_seconds field)");
  }
  // Rebuild rather than mutate: Json has no in-place member update, and
  // the rebuild re-sorts keys, which is exactly the canonical form the
  // byte comparison wants.
  Json normalized = Json::Object();
  for (const auto& [key, value] : *object) {
    normalized.Set(key, key == "wall_seconds" ? Json(0.0) : value);
  }
  return normalized.Dump();
}

Json SolveTrace::ToJsonValue() const {
  Json pool_json = Json::Array();
  for (const Worker& worker : pool) pool_json.Append(WorkerToJson(worker));
  Json entries_json = Json::Array();
  for (const Entry& entry : entries) {
    // The report is stored as a document, not an escaped string, so
    // fixtures are reviewable diffs. Stored documents were produced by
    // NormalizeReportJson, so re-parsing them cannot fail.
    entries_json.Append(
        Json::Object()
            .Set("report", Json::Parse(entry.report_json).value())
            .Set("request", entry.request.ToJsonValue()));
  }
  return Json::Object()
      .Set("entries", std::move(entries_json))
      .Set("pool", std::move(pool_json));
}

std::string SolveTrace::ToJson() const { return ToJsonValue().Dump(); }

Result<SolveTrace> SolveTrace::Parse(std::string_view text) {
  Json doc;
  JURY_ASSIGN_OR_RETURN(doc, Json::Parse(text));
  if (!doc.is_object()) {
    return Status::InvalidArgument("trace must be an object");
  }
  SolveTrace trace;
  for (const auto& [key, value] : *doc.GetObject()) {
    if (key == "pool") {
      const std::vector<Json>* pool = value.GetArray();
      if (pool == nullptr) {
        return Status::InvalidArgument("trace.pool must be an array");
      }
      trace.pool.resize(pool->size());
      for (std::size_t i = 0; i < pool->size(); ++i) {
        JURY_RETURN_NOT_OK(ParseWorker((*pool)[i], i, &trace.pool[i]));
      }
    } else if (key == "entries") {
      const std::vector<Json>* entries = value.GetArray();
      if (entries == nullptr) {
        return Status::InvalidArgument("trace.entries must be an array");
      }
      for (std::size_t i = 0; i < entries->size(); ++i) {
        const Json& entry = (*entries)[i];
        const std::string path = "entries[" + std::to_string(i) + "]";
        if (!entry.is_object()) {
          return Status::InvalidArgument(path + " must be an object");
        }
        const Json* request = entry.Find("request");
        const Json* report = entry.Find("report");
        if (request == nullptr || report == nullptr ||
            entry.GetObject()->size() != 2) {
          return Status::InvalidArgument(
              path + " must have exactly the keys \"report\" and "
                     "\"request\"");
        }
        Entry parsed;
        JURY_ASSIGN_OR_RETURN(parsed.request,
                              SolveRequest::FromJson(*request));
        // Re-normalize: a hand-edited fixture must not be able to carry
        // a non-canonical (or wall-clock-bearing) report document into
        // the byte comparison.
        JURY_ASSIGN_OR_RETURN(parsed.report_json,
                              NormalizeReportJson(report->Dump()));
        trace.entries.push_back(std::move(parsed));
      }
    } else {
      return Status::InvalidArgument("trace: unknown key " +
                                     Json::Quote(key));
    }
  }
  return trace;
}

Result<SolveTrace> RecordTrace(std::vector<Worker> pool,
                               std::vector<SolveRequest> requests) {
  Result<PoolPlanContext> planned = PoolPlanContext::Plan(pool);
  JURY_RETURN_NOT_OK(planned.status());
  PoolPlanContext& context = planned.value();
  SolveTrace trace;
  trace.pool = std::move(pool);
  trace.entries.reserve(requests.size());
  for (SolveRequest& request : requests) {
    SolveReport report;
    JURY_ASSIGN_OR_RETURN(report, context.Solve(request));
    SolveTrace::Entry entry;
    entry.request = std::move(request);
    JURY_ASSIGN_OR_RETURN(entry.report_json,
                          NormalizeReportJson(report.ToJson()));
    trace.entries.push_back(std::move(entry));
  }
  return trace;
}

Result<std::size_t> ReplayTrace(const SolveTrace& trace) {
  Result<PoolPlanContext> planned = PoolPlanContext::Plan(trace.pool);
  JURY_RETURN_NOT_OK(planned.status());
  PoolPlanContext& context = planned.value();
  for (std::size_t i = 0; i < trace.entries.size(); ++i) {
    const SolveTrace::Entry& entry = trace.entries[i];
    SolveReport report;
    JURY_ASSIGN_OR_RETURN(report, context.Solve(entry.request));
    std::string replayed;
    JURY_ASSIGN_OR_RETURN(replayed, NormalizeReportJson(report.ToJson()));
    if (replayed != entry.report_json) {
      return Status::InvalidArgument(
          "golden-trace divergence at entry " + std::to_string(i) +
          ": recorded " + entry.report_json + " but replayed " + replayed);
    }
  }
  return trace.entries.size();
}

}  // namespace jury::api
