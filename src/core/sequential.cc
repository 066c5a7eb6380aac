#include "core/sequential.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "model/prior.h"
#include "model/worker_pool_view.h"
#include "util/check.h"
#include "util/math.h"

namespace jury {

SequentialDecision::SequentialDecision(double alpha) {
  JURY_CHECK(ValidateAlpha(alpha).ok()) << "alpha outside [0,1]";
  log_odds_ = LogOdds(EffectiveQuality(alpha));
}

void SequentialDecision::Observe(double quality, int vote) {
  JURY_CHECK(vote == 0 || vote == 1);
  const double phi = LogOdds(EffectiveQuality(quality));
  log_odds_ += (vote == 0 ? phi : -phi);
  ++votes_seen_;
}

double SequentialDecision::PosteriorZero() const {
  return Sigmoid(log_odds_);
}

double SequentialDecision::Confidence() const {
  const double p0 = PosteriorZero();
  return std::max(p0, 1.0 - p0);
}

Result<SequentialOutcome> RunSequentialPolicy(
    const std::vector<Worker>& stream,
    const std::function<int(const Worker&, std::size_t index)>& elicit,
    const SequentialConfig& config) {
  JURY_RETURN_NOT_OK(ValidateAlpha(config.alpha));
  if (!(config.confidence_threshold >= 0.5 &&
        config.confidence_threshold <= 1.0)) {
    return Status::InvalidArgument(
        "confidence_threshold must lie in [0.5, 1]");
  }
  if (!elicit) {
    return Status::InvalidArgument("elicit callback required");
  }

  SequentialDecision decision(config.alpha);
  // Columnar snapshot of the stream, bound to the projected session like
  // every other solver's pool view.
  const WorkerPoolView stream_view(stream);
  std::unique_ptr<IncrementalJqEvaluator> projected;
  if (config.projected_objective != nullptr) {
    projected = config.projected_objective->StartSession(
        stream_view, config.alpha, config.use_incremental);
  }
  SequentialOutcome outcome;
  outcome.answer = decision.CurrentAnswer();
  outcome.confidence = decision.Confidence();
  if (outcome.confidence >= config.confidence_threshold) {
    outcome.stopped_by_confidence = true;  // the prior alone suffices
    return outcome;
  }

  for (std::size_t i = 0; i < stream.size(); ++i) {
    const Worker& worker = stream[i];
    JURY_RETURN_NOT_OK(ValidateWorker(worker));
    if (outcome.votes_used >= config.max_votes) break;
    if (outcome.spent + worker.cost > config.budget) break;

    const int vote = elicit(worker, i);
    if (vote != 0 && vote != 1) {
      return Status::InvalidArgument("elicited vote must be 0 or 1");
    }
    decision.Observe(worker.quality, vote);
    if (projected != nullptr) {
      // The grow step: the purchased prefix gains one juror — an O(n)
      // session delta instead of re-scoring the prefix from scratch.
      projected->ScoreAdd(i);
      projected->Commit();
      outcome.projected_jq.push_back(projected->current_jq());
    }
    outcome.spent += worker.cost;
    ++outcome.votes_used;
    outcome.answer = decision.CurrentAnswer();
    outcome.confidence = decision.Confidence();
    if (outcome.confidence >= config.confidence_threshold) {
      outcome.stopped_by_confidence = true;
      break;
    }
  }
  return outcome;
}

}  // namespace jury
