#include "util/simd_dispatch.h"

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "util/simd_kernels_inl.h"

namespace jury::simd {

#if defined(JURYOPT_HAVE_AVX2)
// Defined in simd_avx2.cc (the only translation unit built with -mavx2).
const KernelTable& Avx2Table();
#endif

namespace {

// ------------------------------------------------------- scalar reference

void FusedStepScalar(double a, double b, const double* p, double* acc,
                     std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    acc[j] += a * (1.0 - p[j]) + b * p[j];
  }
}

void ConvolveMassScalar(const double* f, std::int64_t span,
                        const std::int64_t* bs, const double* qs,
                        std::size_t count, double* out) {
  internal::ConvolveMassBatch(f, span, bs, qs, count, out,
                              &internal::ConvolveMassOnePadded);
}

void RemoveQueryScalar(const double* pmf, int n, const double* p,
                       std::size_t count, int tail_k, int cdf_k,
                       double* tails, double* cdfs) {
  // One deconvolved row, reused across candidates and calls.
  static thread_local std::vector<double> g;
  const std::size_t entries = static_cast<std::size_t>(n);
  g.resize(entries);
  for (std::size_t j = 0; j < count; ++j) {
    internal::RemoveTrialRow(pmf, n, p[j], g.data());
    if (tails != nullptr) tails[j] = internal::TailFromRow(g.data(), entries, tail_k);
    if (cdfs != nullptr) cdfs[j] = internal::CdfFromRow(g.data(), entries, cdf_k);
  }
}

void DeconvolveMassScalar(const double* f, std::int64_t span,
                          const std::int64_t* bs, const double* qs,
                          std::size_t count, double* out) {
  internal::DeconvolveMassBatch(f, span, bs, qs, count, out,
                                &internal::DeconvolveMassOneRow);
}

void HashLanesScalar(const unsigned char* data, std::size_t num_strides,
                     std::uint64_t* lanes) {
  internal::HashLanesRange(data, 0, num_strides, lanes);
}

std::uint64_t AuditPoolColumnsScalar(const double* quality, const double* cost,
                                     const double* norm_quality,
                                     const double* log_odds, std::size_t n) {
  return internal::AuditPoolColumnsRange(quality, cost, norm_quality,
                                         log_odds, 0, n);
}

std::uint64_t AuditMonotoneU64Scalar(const std::uint64_t* values,
                                     std::size_t n) {
  return internal::AuditMonotoneU64Range(values, 0, n);
}

constexpr KernelTable kScalarTable{
    "scalar",
    &FusedStepScalar,
    &ConvolveMassScalar,
    &RemoveQueryScalar,
    &DeconvolveMassScalar,
    &HashLanesScalar,
    &AuditPoolColumnsScalar,
    &AuditMonotoneU64Scalar,
};

// ------------------------------------------------------------- selection

bool CpuHasAvx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

const KernelTable* TableFor(Level level) {
  switch (level) {
    case Level::kScalar:
      return &kScalarTable;
    case Level::kAvx2:
#if defined(JURYOPT_HAVE_AVX2)
      if (CpuHasAvx2()) return &Avx2Table();
#endif
      return nullptr;  // unavailable on this build/CPU
  }
  return nullptr;
}

Level BestLevel() {
  if (TableFor(Level::kAvx2) != nullptr) return Level::kAvx2;
  return Level::kScalar;
}

Level InitialLevel() {
  const char* env = std::getenv("JURYOPT_SIMD");
  if (env != nullptr && env[0] != '\0') {
    Level requested;
    if (ParseLevel(env, &requested)) {
      // Requested but unavailable degrades to scalar: a forced level is
      // a determinism/debug request.
      return TableFor(requested) != nullptr ? requested : Level::kScalar;
    }
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true, std::memory_order_relaxed)) {
      std::fprintf(stderr,
                   "juryopt: unrecognized JURYOPT_SIMD value \"%s\" "
                   "(expected scalar|avx2); autodetecting\n",
                   env);
    }
  }
  return BestLevel();
}

// The active table, published with release/acquire so a reader always sees
// a fully-initialized KernelTable. Both fields are only ever rewritten
// together from quiesced states (startup, SetLevel).
std::atomic<const KernelTable*> g_active{nullptr};
std::atomic<int> g_level{static_cast<int>(Level::kScalar)};

const KernelTable* EnsureInit() {
  const KernelTable* table = g_active.load(std::memory_order_acquire);
  if (table != nullptr) return table;
  // Benign race: concurrent first calls compute the same level and store
  // the same pointers.
  const Level level = InitialLevel();
  table = TableFor(level);
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
  g_active.store(table, std::memory_order_release);
  return table;
}

}  // namespace

const KernelTable& Kernels() { return *EnsureInit(); }

Level ActiveLevel() {
  EnsureInit();
  return static_cast<Level>(g_level.load(std::memory_order_relaxed));
}

bool Avx2Available() { return TableFor(Level::kAvx2) != nullptr; }

bool ParseLevel(const char* token, Level* out) {
  if (token == nullptr) return false;
  std::string lowered(token);
  for (char& c : lowered) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  if (lowered == "scalar") {
    *out = Level::kScalar;
  } else if (lowered == "avx2") {
    *out = Level::kAvx2;
  } else {
    return false;
  }
  return true;
}

bool SetLevel(Level level) {
  const KernelTable* table = TableFor(level);
  if (table == nullptr) return false;
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
  g_active.store(table, std::memory_order_release);
  return true;
}

const char* LevelName(Level level) {
  switch (level) {
    case Level::kAvx2:
      return "avx2";
    case Level::kScalar:
      return "scalar";
  }
  return "scalar";
}

}  // namespace jury::simd
