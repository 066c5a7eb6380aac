#include "model/pool_snapshot.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <utility>
#include <vector>

#include "model/worker_pool_view.h"
#include "util/fault_injection.h"
#include "util/scheduler.h"
#include "util/simd_dispatch.h"
#include "util/stats_registry.h"

namespace jury {
namespace {

StatsRegistry::Counter& g_snapshot_loads = RegisterStatsCounter("pool.snapshot_loads");

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x00000100000001b3ull;

std::uint64_t Fnv1a(const std::byte* data, std::size_t size) {
  std::uint64_t hash = kFnvOffset;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= static_cast<std::uint64_t>(std::to_integer<unsigned char>(data[i]));
    hash *= kFnvPrime;
  }
  return hash;
}

/// One checksum block: eight independent rotate-xor lanes over 64-byte
/// strides (`lane = rotl64(lane, 29) ^ word`, lane l seeded
/// `kFnvOffset + l`), folded FNV-style at the end, byte-wise FNV-1a for
/// the tail. Any flipped bit perturbs its lane — rotl and xor are
/// bijections — and therefore the fold, but unlike plain FNV-1a there is
/// no serial multiply chain and no multiply at all in the hot loop, so
/// the stride update is expressible in two integer vector ops and the
/// dispatched `hash_lanes` kernel (simd_dispatch.h) hashes at memory
/// bandwidth.
std::uint64_t BlockChecksum(const std::byte* data, std::size_t size) {
  std::uint64_t lanes[8];
  for (int l = 0; l < 8; ++l) {
    lanes[l] = kFnvOffset + static_cast<std::uint64_t>(l);
  }
  const std::size_t num_strides = size / 64;
  simd::Kernels().hash_lanes(reinterpret_cast<const unsigned char*>(data),
                             num_strides, lanes);
  std::uint64_t hash = kFnvOffset;
  for (int l = 0; l < 8; ++l) hash = (hash ^ lanes[l]) * kFnvPrime;
  for (std::size_t i = num_strides * 64; i < size; ++i) {
    hash ^= static_cast<std::uint64_t>(std::to_integer<unsigned char>(data[i]));
    hash *= kFnvPrime;
  }
  return hash;
}

/// Fixed block size for the payload checksum. Part of the wire format:
/// block boundaries fall every 4 MiB regardless of how many threads hash
/// them, so the checksum value is identical across thread counts.
constexpr std::size_t kChecksumBlockBytes = std::size_t{4} << 20;

/// The payload checksum: `BlockChecksum` over fixed 4 MiB blocks, block
/// hashes folded FNV-style in file order. The block structure makes the
/// verify pass embarrassingly parallel — a million-worker payload spreads
/// its blocks across the scheduler and verifies in the time one core
/// would need for a few blocks — while staying byte-deterministic.
std::uint64_t PayloadChecksum(const std::byte* data, std::size_t size) {
  const std::size_t num_blocks =
      (size + kChecksumBlockBytes - 1) / kChecksumBlockBytes;
  std::uint64_t hash = kFnvOffset;
  if (num_blocks <= 1) {
    if (num_blocks == 1) hash = (hash ^ BlockChecksum(data, size)) * kFnvPrime;
    return hash;
  }
  std::vector<std::uint64_t> block_hashes(num_blocks);
  // Capped at the resolved thread budget: on a single-core host (or
  // JURYOPT_THREADS=1) the cap is 1 and the shard loop runs inline, so
  // the serial path never pays scheduler overhead.
  Scheduler::GlobalParallelFor(
      0, num_blocks, 1,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t block = begin; block < end; ++block) {
          const std::size_t offset = block * kChecksumBlockBytes;
          const std::size_t bytes =
              std::min(kChecksumBlockBytes, size - offset);
          block_hashes[block] = BlockChecksum(data + offset, bytes);
        }
      },
      /*max_parallelism=*/ResolveThreadCount(0));
  for (const std::uint64_t block_hash : block_hashes) {
    hash = (hash ^ block_hash) * kFnvPrime;
  }
  return hash;
}

void PutU32(std::byte* dst, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    dst[i] = static_cast<std::byte>((value >> (8 * i)) & 0xffu);
  }
}

void PutU64(std::byte* dst, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    dst[i] = static_cast<std::byte>((value >> (8 * i)) & 0xffu);
  }
}

std::uint32_t GetU32(const std::byte* src) {
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<std::uint32_t>(std::to_integer<unsigned char>(src[i]))
             << (8 * i);
  }
  return value;
}

std::uint64_t GetU64(const std::byte* src) {
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<std::uint64_t>(std::to_integer<unsigned char>(src[i]))
             << (8 * i);
  }
  return value;
}

/// True on the little-endian hosts the column pointers assume. The
/// endianness marker in the header pins the file byte order; this pins the
/// host's, so a big-endian build refuses the zero-copy path instead of
/// misreading doubles.
bool HostIsLittleEndian() {
  const std::uint32_t probe = 1;
  unsigned char first;
  std::memcpy(&first, &probe, 1);
  return first == 1;
}

}  // namespace

PoolSnapshot::PoolSnapshot(PoolSnapshot&& other) noexcept
    : map_base_(std::exchange(other.map_base_, nullptr)),
      map_bytes_(std::exchange(other.map_bytes_, 0)),
      owned_(std::move(other.owned_)),
      count_(std::exchange(other.count_, 0)),
      quality_(std::exchange(other.quality_, nullptr)),
      cost_(std::exchange(other.cost_, nullptr)),
      norm_quality_(std::exchange(other.norm_quality_, nullptr)),
      log_odds_(std::exchange(other.log_odds_, nullptr)),
      id_offsets_(std::exchange(other.id_offsets_, nullptr)),
      id_blob_(std::exchange(other.id_blob_, nullptr)) {}

PoolSnapshot& PoolSnapshot::operator=(PoolSnapshot&& other) noexcept {
  if (this != &other) {
    if (map_base_ != nullptr) ::munmap(map_base_, map_bytes_);
    map_base_ = std::exchange(other.map_base_, nullptr);
    map_bytes_ = std::exchange(other.map_bytes_, 0);
    owned_ = std::move(other.owned_);
    count_ = std::exchange(other.count_, 0);
    quality_ = std::exchange(other.quality_, nullptr);
    cost_ = std::exchange(other.cost_, nullptr);
    norm_quality_ = std::exchange(other.norm_quality_, nullptr);
    log_odds_ = std::exchange(other.log_odds_, nullptr);
    id_offsets_ = std::exchange(other.id_offsets_, nullptr);
    id_blob_ = std::exchange(other.id_blob_, nullptr);
  }
  return *this;
}

PoolSnapshot::~PoolSnapshot() {
  if (map_base_ != nullptr) ::munmap(map_base_, map_bytes_);
}

Status PoolSnapshot::Write(const std::string& path,
                           std::span<const Worker> workers,
                           const WorkerPoolView& view) {
  if (view.size() != workers.size()) {
    return Status::InvalidArgument(
        "snapshot write: view covers " + std::to_string(view.size()) +
        " workers, got " + std::to_string(workers.size()) + " structs");
  }
  const std::uint64_t count = workers.size();
  std::uint64_t id_blob_bytes = 0;
  for (const Worker& w : workers) id_blob_bytes += w.id.size();

  const std::uint64_t payload_bytes =
      4 * 8 * count + 8 * (count + 1) + id_blob_bytes;
  std::vector<std::byte> image(kHeaderBytes + payload_bytes);
  std::byte* payload = image.data() + kHeaderBytes;

  std::byte* cursor = payload;
  const auto put_column = [&cursor, count](std::span<const double> column) {
    // An empty pool's column has a null data(), and memcpy requires a
    // non-null source even for zero bytes.
    if (count > 0) std::memcpy(cursor, column.data(), 8 * count);
    cursor += 8 * count;
  };
  put_column(view.quality());
  put_column(view.cost());
  put_column(view.norm_quality());
  put_column(view.log_odds());
  std::uint64_t offset = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    PutU64(cursor + 8 * i, offset);
    offset += workers[i].id.size();
  }
  PutU64(cursor + 8 * count, offset);
  cursor += 8 * (count + 1);
  for (const Worker& w : workers) {
    std::memcpy(cursor, w.id.data(), w.id.size());
    cursor += w.id.size();
  }

  std::byte* header = image.data();
  std::memcpy(header, kMagic, sizeof(kMagic));
  PutU32(header + 8, kEndianMarker);
  PutU32(header + 12, kVersion);
  PutU64(header + 16, count);
  PutU64(header + 24, id_blob_bytes);
  PutU64(header + 32, payload_bytes);
  try {
    PutU64(header + 40, PayloadChecksum(payload, payload_bytes));
  } catch (const FaultInjectedError& error) {
    return Status::ResourceExhausted(error.what());
  }
  PutU64(header + 48, Fnv1a(header, 48));
  PutU64(header + 56, 0);

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::NotFound("cannot open snapshot for writing: " + path);
  }
  out.write(reinterpret_cast<const char*>(image.data()),
            static_cast<std::streamsize>(image.size()));
  out.flush();
  if (!out) {
    return Status::Internal("short write to snapshot: " + path);
  }
  return Status::OK();
}

Status PoolSnapshot::Attach(const std::byte* data, std::size_t size) {
  if (!HostIsLittleEndian()) {
    return Status::NotImplemented(
        "pool snapshots require a little-endian host");
  }
  if (size < kHeaderBytes) {
    return Status::InvalidArgument(
        "snapshot truncated: " + std::to_string(size) +
        " bytes is smaller than the 64-byte header");
  }
  if (std::memcmp(data, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("snapshot magic mismatch");
  }
  if (GetU32(data + 8) != kEndianMarker) {
    return Status::InvalidArgument(
        "snapshot endianness marker mismatch (written on a foreign-endian "
        "host?)");
  }
  const std::uint32_t version = GetU32(data + 12);
  if (version != kVersion) {
    return Status::InvalidArgument("unsupported snapshot version " +
                                   std::to_string(version));
  }
  if (GetU64(data + 48) != Fnv1a(data, 48)) {
    return Status::InvalidArgument("snapshot header checksum mismatch");
  }
  if (GetU64(data + 56) != 0) {
    return Status::InvalidArgument("snapshot reserved field is non-zero");
  }
  const std::uint64_t count = GetU64(data + 16);
  const std::uint64_t id_blob_bytes = GetU64(data + 24);
  const std::uint64_t payload_bytes = GetU64(data + 32);
  // Overflow-safe structural bound: every field must fit in the actual
  // byte count before any arithmetic that could wrap.
  const std::uint64_t available = size - kHeaderBytes;
  if (count > available / 8 || id_blob_bytes > available) {
    return Status::InvalidArgument(
        "snapshot header oversized: count/id-blob exceed the image");
  }
  const std::uint64_t expected_payload =
      4 * 8 * count + 8 * (count + 1) + id_blob_bytes;
  if (payload_bytes != expected_payload || payload_bytes != available) {
    return Status::InvalidArgument(
        "snapshot payload size mismatch: header says " +
        std::to_string(payload_bytes) + ", expected " +
        std::to_string(expected_payload) + ", image holds " +
        std::to_string(available));
  }
  const std::byte* payload = data + kHeaderBytes;
  const double* quality = reinterpret_cast<const double*>(payload);
  const double* cost = quality + count;
  const double* norm_quality = cost + count;
  const double* log_odds = norm_quality + count;
  const std::uint64_t* id_offsets =
      reinterpret_cast<const std::uint64_t*>(log_odds + count);

  // Verify in two dispatched passes. Pass 1 recomputes the blocked
  // payload checksum with the same `PayloadChecksum` the writer used —
  // its inner loop is the dispatched `hash_lanes` kernel, so the bytes
  // stream through at load bandwidth. Pass 2 runs the semantic column
  // audits through the dispatched `audit_pool_columns` /
  // `audit_monotone_u64` kernels: branch-free ordered compares whose
  // failures double as NaN checks (`<= DBL_MAX` also rejects +inf), and
  // `max(q, 1 - q)` is exactly `NormalizedQuality(q)` for any q in
  // [0, 1]. Both passes shard across the scheduler on multi-core hosts;
  // only a detected violation pays for the scalar re-scan that names the
  // first offending index.
  std::uint64_t payload_hash = 0;
  try {
    payload_hash = PayloadChecksum(payload, payload_bytes);
  } catch (const FaultInjectedError& error) {
    // The parallel verify region's task spawn is a fault point; the
    // load boundary owns the Result contract.
    return Status::ResourceExhausted(error.what());
  }
  if (GetU64(data + 40) != payload_hash) {
    return Status::InvalidArgument("snapshot payload checksum mismatch");
  }
  if (id_offsets[0] != 0) {
    return Status::InvalidArgument("snapshot id offsets must start at 0");
  }
  if (id_offsets[count] != id_blob_bytes) {
    return Status::InvalidArgument(
        "snapshot id offsets do not cover the id blob");
  }
  std::uint64_t bad = 0;
  constexpr std::size_t kAuditGrain = std::size_t{1} << 17;
  if (count <= kAuditGrain) {
    bad = simd::Kernels().audit_pool_columns(quality, cost, norm_quality,
                                             log_odds, count);
    bad |= simd::Kernels().audit_monotone_u64(id_offsets, count);
  } else {
    std::atomic<std::uint64_t> bad_bits{0};
    try {
      // Same thread-budget cap as `PayloadChecksum`: single-core hosts
      // run the shard loop inline, scheduler untouched. An element shard
      // of the monotone audit reads one offset past its end, which is
      // exactly the next shard's first entry (or the final slot) — every
      // adjacent pair is covered once.
      Scheduler::GlobalParallelFor(
          0, count, kAuditGrain,
          [&](std::size_t begin, std::size_t end) {
            std::uint64_t shard_bad = simd::Kernels().audit_pool_columns(
                quality + begin, cost + begin, norm_quality + begin,
                log_odds + begin, end - begin);
            shard_bad |= simd::Kernels().audit_monotone_u64(
                id_offsets + begin, end - begin);
            if (shard_bad != 0) {
              bad_bits.fetch_or(shard_bad, std::memory_order_relaxed);
            }
          },
          /*max_parallelism=*/ResolveThreadCount(0));
    } catch (const FaultInjectedError& error) {
      return Status::ResourceExhausted(error.what());
    }
    bad = bad_bits.load(std::memory_order_relaxed);
  }
  if (bad != 0) {
    for (std::uint64_t i = 0; i < count; ++i) {
      if (id_offsets[i + 1] < id_offsets[i]) {
        return Status::InvalidArgument("snapshot id offsets not monotone");
      }
    }
    for (std::uint64_t i = 0; i < count; ++i) {
      const double q = quality[i];
      const double c = cost[i];
      if (!std::isfinite(q) || q < 0.0 || q > 1.0) {
        return Status::InvalidArgument("snapshot quality[" + std::to_string(i) +
                                       "] outside [0, 1]");
      }
      if (!std::isfinite(c) || c < 0.0) {
        return Status::InvalidArgument("snapshot cost[" + std::to_string(i) +
                                       "] negative or non-finite");
      }
      // The derived columns must match what a fresh columnar build would
      // compute: norm_quality has a closed form cheap enough to recheck
      // exactly; log_odds only has to be finite (rechecking would redo the
      // log() the snapshot exists to skip — a tampered-but-checksummed
      // value yields a wrong score, never undefined behaviour).
      if (norm_quality[i] != NormalizedQuality(q)) {
        return Status::InvalidArgument(
            "snapshot norm_quality[" + std::to_string(i) +
            "] does not match its quality");
      }
      if (!std::isfinite(log_odds[i])) {
        return Status::InvalidArgument("snapshot log_odds[" +
                                       std::to_string(i) + "] non-finite");
      }
    }
    return Status::Internal("snapshot column scan flagged a violation the "
                            "detailed re-scan could not locate");
  }

  count_ = count;
  quality_ = quality;
  cost_ = cost;
  norm_quality_ = norm_quality;
  log_odds_ = log_odds;
  id_offsets_ = id_offsets;
  id_blob_ = reinterpret_cast<const char*>(id_offsets + count + 1);
  return Status::OK();
}

Result<PoolSnapshot> PoolSnapshot::Load(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::NotFound("cannot open snapshot: " + path + " (" +
                           std::strerror(errno) + ")");
  }
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    const int err = errno;
    ::close(fd);
    return Status::Internal("cannot stat snapshot: " + path + " (" +
                           std::strerror(err) + ")");
  }
  const std::size_t size = static_cast<std::size_t>(st.st_size);
  PoolSnapshot snapshot;
  if (size > 0) {
    // MAP_POPULATE prefaults the image in one batch; the checksum pass
    // touches every page anyway, and batched faults are far cheaper than
    // taking them one at a time mid-verify.
    void* base =
        ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE | MAP_POPULATE, fd, 0);
    if (base != MAP_FAILED) {
      snapshot.map_base_ = base;
      snapshot.map_bytes_ = size;
    }
  }
  const std::byte* data = nullptr;
  if (snapshot.map_base_ != nullptr) {
    data = static_cast<const std::byte*>(snapshot.map_base_);
  } else {
    // mmap unavailable (or empty file): buffered read fallback.
    snapshot.owned_.resize(size);
    std::size_t done = 0;
    while (done < size) {
      const ssize_t got =
          ::pread(fd, snapshot.owned_.data() + done, size - done,
                  static_cast<off_t>(done));
      if (got <= 0) {
        ::close(fd);
        return Status::Internal("short read from snapshot: " + path);
      }
      done += static_cast<std::size_t>(got);
    }
    data = snapshot.owned_.data();
  }
  ::close(fd);
  const Status status = snapshot.Attach(data, size);
  if (!status.ok()) return status;
  g_snapshot_loads.Increment();
  return snapshot;
}

Result<PoolSnapshot> PoolSnapshot::FromBytes(const void* data,
                                             std::size_t size) {
  PoolSnapshot snapshot;
  snapshot.owned_.assign(static_cast<const std::byte*>(data),
                         static_cast<const std::byte*>(data) + size);
  const Status status = snapshot.Attach(snapshot.owned_.data(), size);
  if (!status.ok()) return status;
  g_snapshot_loads.Increment();
  return snapshot;
}

std::string_view PoolSnapshot::id(std::size_t i) const {
  const std::uint64_t begin = id_offsets_[i];
  const std::uint64_t end = id_offsets_[i + 1];
  return std::string_view(id_blob_ + begin, end - begin);
}

std::vector<Worker> PoolSnapshot::MaterializeWorkers() const {
  std::vector<Worker> workers(count_);
  for (std::size_t i = 0; i < count_; ++i) {
    workers[i].id = std::string(id(i));
    workers[i].quality = quality_[i];
    workers[i].cost = cost_[i];
  }
  return workers;
}

}  // namespace jury
