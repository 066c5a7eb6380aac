#ifndef JURYOPT_MODEL_POOL_SNAPSHOT_H_
#define JURYOPT_MODEL_POOL_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "model/worker.h"
#include "util/result.h"
#include "util/status.h"

namespace jury {

class WorkerPoolView;

/// \brief Versioned binary snapshot of a worker pool's columns.
///
/// A snapshot stores the four columns a `WorkerPoolView` derives from the
/// worker structs — quality, cost, normalized quality, and log-odds — plus
/// the worker id strings, in one flat little-endian file that can be mapped
/// read-only and served directly as view columns. Persisting the *derived*
/// columns (not just quality/cost) is the point: loading skips the per-worker
/// `log()` of a fresh columnar build, so a million-worker pool plans in
/// milliseconds, and the columns are bit-identical to the ones the writer
/// computed, which keeps solve reports byte-for-byte reproducible across a
/// save/load cycle.
///
/// Wire format (all integers little-endian; doubles IEEE-754 binary64):
///
///     offset  size  field
///     ------  ----  -----------------------------------------------
///          0     8  magic "JURYSNAP"
///          8     4  endian marker 0x01020304 (u32)
///         12     4  format version, currently 1 (u32)
///         16     8  worker count (u64)
///         24     8  id blob bytes (u64)
///         32     8  payload bytes (u64, redundant, validated)
///         40     8  payload checksum (u64): the payload is cut into
///                   fixed 4 MiB blocks; each block is hashed with
///                   eight rotate-xor lanes over the u64 words of its
///                   64-byte strides (lane l seeded with the FNV
///                   offset_basis + l, per stride
///                   `lane = rotl64(lane, 29) ^ word`), the lanes
///                   folded FNV-style, byte-wise FNV-1a for the tail,
///                   and the block hashes are folded FNV-style in file
///                   order. Blocked so the verify pass parallelizes
///                   without the value depending on thread count;
///                   multiply-free in the stride loop so the
///                   dispatched SIMD kernel streams at load bandwidth.
///         48     8  FNV-1a 64 checksum of header bytes [0, 48) (u64)
///         56     8  reserved, must be 0
///         64     -  payload:
///                     quality       f64[count]
///                     cost          f64[count]
///                     norm_quality  f64[count]
///                     log_odds      f64[count]
///                     id_offsets    u64[count + 1] (into the id blob)
///                     id_blob       bytes
///
/// The payload begins at byte 64, so every column is 8-byte aligned inside
/// the mapping. Loading validates the checksums, the structural bounds
/// (offsets monotone, last offset == blob size), and the numeric invariants
/// `quality in [0,1]`, `cost >= 0` (both finite),
/// `norm_quality == NormalizedQuality(quality)` (exact), and `log_odds`
/// finite — a snapshot that passes is as trusted as a validated CSV pool,
/// so planning from one skips per-worker re-validation. Corrupt, truncated,
/// or foreign-endian bytes return a `Status`; they never abort.
class PoolSnapshot {
 public:
  static constexpr char kMagic[8] = {'J', 'U', 'R', 'Y', 'S', 'N', 'A', 'P'};
  static constexpr std::uint32_t kEndianMarker = 0x01020304u;
  static constexpr std::uint32_t kVersion = 1;
  static constexpr std::size_t kHeaderBytes = 64;

  /// An empty snapshot (no columns); the normal way to get a populated
  /// one is `Load` / `FromBytes`.
  PoolSnapshot() = default;
  PoolSnapshot(PoolSnapshot&& other) noexcept;
  PoolSnapshot& operator=(PoolSnapshot&& other) noexcept;
  PoolSnapshot(const PoolSnapshot&) = delete;
  PoolSnapshot& operator=(const PoolSnapshot&) = delete;
  ~PoolSnapshot();

  /// Serializes `workers` plus the matching view columns to `path`.
  /// The view must be built over exactly these workers (same order); the
  /// columns are written bit-for-bit so a load reproduces them exactly.
  static Status Write(const std::string& path,
                      std::span<const Worker> workers,
                      const WorkerPoolView& view);

  /// Maps `path` read-only and validates it (falls back to a buffered read
  /// where mmap is unavailable). Bumps the `pool.snapshot_loads` counter on
  /// success.
  static Result<PoolSnapshot> Load(const std::string& path);

  /// Parses an in-memory image (copies the bytes). Same validation as
  /// `Load`; this is the fuzzing entry point.
  static Result<PoolSnapshot> FromBytes(const void* data, std::size_t size);

  std::size_t size() const { return count_; }
  std::span<const double> quality() const { return {quality_, count_}; }
  std::span<const double> cost() const { return {cost_, count_}; }
  std::span<const double> norm_quality() const {
    return {norm_quality_, count_};
  }
  std::span<const double> log_odds() const { return {log_odds_, count_}; }

  /// Id of worker `i` as a view into the mapped blob.
  std::string_view id(std::size_t i) const;

  /// Materializes full `Worker` structs (copies the id strings). The
  /// columns stay authoritative, and a plan never needs the structs; this
  /// exists for callers that print or re-save the ids (`jury_cli
  /// --pool-snapshot` calls it before handing the snapshot to
  /// `PlanFromSnapshot`).
  std::vector<Worker> MaterializeWorkers() const;

 private:
  /// Points the column members into `data` and validates everything.
  Status Attach(const std::byte* data, std::size_t size);

  // Exactly one of these owns the bytes the columns point into.
  void* map_base_ = nullptr;  // mmap region (munmap'd in the destructor)
  std::size_t map_bytes_ = 0;
  std::vector<std::byte> owned_;

  std::size_t count_ = 0;
  const double* quality_ = nullptr;
  const double* cost_ = nullptr;
  const double* norm_quality_ = nullptr;
  const double* log_odds_ = nullptr;
  const std::uint64_t* id_offsets_ = nullptr;
  const char* id_blob_ = nullptr;
};

}  // namespace jury

#endif  // JURYOPT_MODEL_POOL_SNAPSHOT_H_
