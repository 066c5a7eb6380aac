#include "model/jury.h"

#include <algorithm>
#include <string>
#include <utility>

#include "util/check.h"

namespace jury {

Jury Jury::FromQualities(const std::vector<double>& qualities) {
  std::vector<Worker> workers;
  workers.reserve(qualities.size());
  for (std::size_t i = 0; i < qualities.size(); ++i) {
    std::string id = "w";
    id += std::to_string(i);
    workers.emplace_back(std::move(id), qualities[i], 0.0);
  }
  return Jury(std::move(workers));
}

const Worker& Jury::worker(std::size_t i) const {
  JURY_CHECK_LT(i, workers_.size());
  return workers_[i];
}

double Jury::TotalCost() const {
  double acc = 0.0;
  for (const Worker& w : workers_) acc += w.cost;
  return acc;
}

std::vector<double> Jury::qualities() const {
  std::vector<double> qs;
  qs.reserve(workers_.size());
  for (const Worker& w : workers_) qs.push_back(w.quality);
  return qs;
}

Status Jury::Validate() const {
  for (const Worker& w : workers_) {
    JURY_RETURN_NOT_OK(ValidateWorker(w));
  }
  return Status::OK();
}

double Jury::MinQuality() const {
  JURY_CHECK(!workers_.empty());
  double m = 1.0;
  for (const Worker& w : workers_) m = std::min(m, w.quality);
  return m;
}

double Jury::MaxQuality() const {
  JURY_CHECK(!workers_.empty());
  double m = 0.0;
  for (const Worker& w : workers_) m = std::max(m, w.quality);
  return m;
}

Votes NormalizedJury::TranslateVotes(const Votes& votes) const {
  JURY_CHECK_EQ(votes.size(), flipped.size());
  Votes out(votes.size());
  for (std::size_t i = 0; i < votes.size(); ++i) {
    out[i] = flipped[i] ? static_cast<std::uint8_t>(votes[i] ? 0 : 1)
                        : votes[i];
  }
  return out;
}

NormalizedJury Normalize(const Jury& jury) {
  NormalizedJury out;
  out.flipped.assign(jury.size(), false);
  std::vector<Worker> workers = jury.workers();
  for (std::size_t i = 0; i < workers.size(); ++i) {
    if (workers[i].quality < 0.5) {
      workers[i].quality = 1.0 - workers[i].quality;
      out.flipped[i] = true;
    }
  }
  out.jury = Jury(std::move(workers));
  return out;
}

}  // namespace jury
