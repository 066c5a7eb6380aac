#ifndef JURYOPT_TESTS_TEST_UTIL_H_
#define JURYOPT_TESTS_TEST_UTIL_H_

#include <vector>

#include "model/jury.h"
#include "model/worker.h"
#include "util/rng.h"

namespace jury::testing {

/// Random jury of size n with qualities uniform in [lo, hi], zero costs.
inline Jury RandomJury(Rng* rng, int n, double lo = 0.55, double hi = 0.95) {
  std::vector<double> qs;
  qs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) qs.push_back(rng->Uniform(lo, hi));
  return Jury::FromQualities(qs);
}

/// Random candidate pool with qualities in [qlo, qhi] and costs in
/// [clo, chi].
inline std::vector<Worker> RandomPool(Rng* rng, int n, double qlo, double qhi,
                                      double clo, double chi) {
  std::vector<Worker> pool;
  pool.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    std::string id = "w";
    id += std::to_string(i);
    pool.emplace_back(std::move(id), rng->Uniform(qlo, qhi),
                      rng->Uniform(clo, chi));
  }
  return pool;
}

/// The seven named workers of the paper's Fig. 1 (quality, cost).
inline std::vector<Worker> Figure1Workers() {
  return {
      {"A", 0.77, 9.0}, {"B", 0.70, 5.0}, {"C", 0.80, 6.0},
      {"D", 0.65, 7.0}, {"E", 0.60, 5.0}, {"F", 0.60, 2.0},
      {"G", 0.75, 3.0},
  };
}

/// The three-worker jury of the paper's Fig. 2 / Examples 2-3
/// (qualities 0.9, 0.6, 0.6).
inline Jury Figure2Jury() { return Jury::FromQualities({0.9, 0.6, 0.6}); }

}  // namespace jury::testing

#endif  // JURYOPT_TESTS_TEST_UTIL_H_
