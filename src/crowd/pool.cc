#include "crowd/pool.h"

#include <string>
#include <utility>

namespace jury::crowd {

Result<std::vector<Worker>> GeneratePool(const PoolConfig& config, Rng* rng) {
  if (rng == nullptr) {
    return Status::InvalidArgument("GeneratePool requires an Rng");
  }
  if (config.num_workers < 0) {
    return Status::InvalidArgument("num_workers must be non-negative");
  }
  if (!(config.quality_lo >= 0.0 && config.quality_hi <= 1.0 &&
        config.quality_lo <= config.quality_hi)) {
    return Status::InvalidArgument("quality truncation bounds invalid");
  }
  if (!(config.cost_lo >= 0.0 && config.cost_lo <= config.cost_hi)) {
    return Status::InvalidArgument("cost truncation bounds invalid");
  }
  std::vector<Worker> pool;
  pool.reserve(static_cast<std::size_t>(config.num_workers));
  for (int i = 0; i < config.num_workers; ++i) {
    const double q =
        rng->TruncatedGaussian(config.quality_mean, config.quality_stddev,
                               config.quality_lo, config.quality_hi);
    const double c = rng->TruncatedGaussian(
        config.cost_mean, config.cost_stddev, config.cost_lo, config.cost_hi);
    std::string id = "w";
    id += std::to_string(i);
    pool.emplace_back(std::move(id), q, c);
  }
  return pool;
}

}  // namespace jury::crowd
