#ifndef MJOIN_NET_SHM_RING_H_
#define MJOIN_NET_SHM_RING_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/statusor.h"
#include "net/shm_memory_model.h"

namespace mjoin {

/// The process backend's shared-memory data plane. Control frames (the
/// handshake, heartbeats, the finish protocol) stay on the AF_UNIX socket;
/// bulk payloads move over mmap'd single-producer single-consumer ring
/// buffers laid over an arena the coordinator maps *before* forking the
/// fleet, so every worker inherits the same MAP_SHARED|MAP_ANONYMOUS region
/// and the same virtual addresses. "Serialize" onto a ring is a
/// bounds-checked memcpy of the batch's raw rows — the wire format is the
/// in-memory format.
///
/// Each ring carries a stream of 8-byte-aligned records:
///
///   u32  payload_bytes   bytes of payload that follow the header
///   u32  type            ShmRecordType
///   ...  payload         padded up to the next 8-byte boundary
///
/// A record never straddles the end of the data region: when the tail is
/// too close to the end, the producer publishes a kPad filler record
/// covering the remainder and the real record starts at offset 0.
///
/// Memory-ordering contract (the whole crash-safety story):
///   - the producer writes the record bytes, then publishes them with a
///     release store of the monotonic `tail` cursor;
///   - the consumer acquires `tail`, copies the payload out, then releases
///     the space with a release store of the monotonic `head` cursor.
/// A producer killed (SIGKILL) mid-write leaves `tail` unpublished, so a
/// half-written record is simply invisible — the consumer can never observe
/// torn payload bytes. Cursors are validated on every read; a cursor that
/// jumped backwards or a record that fails bounds/type checks reports
/// corrupt-wire kUnavailable, the same class the socket path uses.
enum class ShmRecordType : uint32_t {
  /// Routed data batch: ShmDataHeader + raw rows.
  kData = 1,
  /// End-of-stream marker: ShmEosHeader, no rows.
  kEos = 2,
  /// Base-relation fragment chunk (coordinator -> worker relay ring).
  kFragment = 3,
  /// Materialized final-result rows (worker -> coordinator relay ring).
  kResultRows = 4,
  /// Filler emitted to keep records contiguous across the wrap point.
  kPad = 5,
};

const char* ShmRecordTypeName(ShmRecordType type);

/// Per-ring shared header. `tail` and `head` live on their own cache lines
/// so the producer and consumer never false-share; both are *cursors*
/// (total bytes ever published/released), not offsets — offsets are the
/// cursor masked by data_bytes-1.
/// The cursor type is the ShmAtomicU64 seam alias: std::atomic<uint64_t>
/// in production, the model checker's instrumented atomic in mjoin_check
/// (see net/shm_memory_model.h).
struct ShmRingHdr {
  uint32_t magic;       // kShmRingMagic
  uint32_t version;     // kShmRingVersion
  uint32_t data_bytes;  // power of two
  uint32_t reserved;
  alignas(64) ShmAtomicU64 tail;  // producer-owned, release-stored
  alignas(64) ShmAtomicU64 head;  // consumer-owned, release-stored
};

inline constexpr uint32_t kShmRingMagic = 0x4252'4A4Du;  // "MJRB"
inline constexpr uint32_t kShmRingVersion = 1;
inline constexpr uint32_t kShmRecordAlign = 8;
inline constexpr uint32_t kShmRecordHdrBytes = 8;

// The cross-process contract: lock-free atomics on this platform are
// address-free, so the same ShmRingHdr works from every process mapping it.
static_assert(std::atomic<uint64_t>::is_always_lock_free,
              "shm rings require address-free 64-bit atomics");
static_assert(sizeof(ShmRingHdr) == 192, "tail/head must be cache-isolated");

/// One decoded record, valid until the next TryRead/Release on the ring.
/// `payload` points straight into the shared region: copy out before
/// releasing.
struct ShmRecordView {
  ShmRecordType type = ShmRecordType::kPad;
  const std::byte* payload = nullptr;
  uint32_t payload_bytes = 0;
};

/// Non-owning view of one SPSC ring (header + data region) inside a shared
/// mapping. The view's bookkeeping (pending reserve/release cursors) is
/// per-process; only ShmRingHdr is shared state.
class ShmRing {
 public:
  ShmRing() = default;

  /// Formats a zeroed region of `sizeof(ShmRingHdr) + data_bytes` bytes.
  /// `data_bytes` must be a power of two >= 4096.
  void Init(std::byte* mem, uint32_t data_bytes);
  /// Binds to an already-initialized region, validating magic and version.
  [[nodiscard]] Status Attach(std::byte* mem);

  uint32_t data_bytes() const { return data_bytes_; }
  /// Largest payload a single record may carry. Half the ring (minus
  /// headers) so a record plus its wrap pad always fits an empty ring —
  /// the producer can always make progress once the consumer drains.
  uint32_t max_payload() const {
    return data_bytes_ / 2 - kShmRecordHdrBytes * 2;
  }

  uint64_t tail_cursor() const {
    return hdr_->tail.load(std::memory_order_acquire);
  }
  uint64_t head_cursor() const {
    return hdr_->head.load(std::memory_order_acquire);
  }
  bool Empty() const { return tail_cursor() == head_cursor(); }

  /// Producer: reserves space for a record of `payload_bytes` and returns
  /// the payload slot, or nullptr when the ring is too full (try again
  /// after the consumer releases). May publish a kPad record as a side
  /// effect when the reservation has to wrap. `payload_bytes` must be
  /// <= max_payload().
  std::byte* TryReserve(uint32_t payload_bytes);
  /// Publishes the record reserved by the last successful TryReserve.
  /// `payload_bytes` must match the reservation.
  void Commit(ShmRecordType type, uint32_t payload_bytes);
  /// Reserve+copy+commit of a record laid out as `hdr` then `body`.
  /// Returns false when the ring is too full.
  bool TryPush(ShmRecordType type, const void* hdr, size_t hdr_bytes,
               const void* body, size_t body_bytes);

  /// Consumer: yields the next unconsumed record, skipping pads. Returns
  /// false when the ring is drained, kUnavailable when the shared header
  /// or a record fails validation (corrupt ring). The record stays
  /// readable until Release().
  [[nodiscard]] StatusOr<bool> TryRead(ShmRecordView* out);
  /// Consumer: returns the space of the last TryRead record (and any pads
  /// skipped reaching it) to the producer.
  void Release();

 private:
  ShmRingHdr* hdr_ = nullptr;
  std::byte* data_ = nullptr;
  uint32_t data_bytes_ = 0;
  uint64_t mask_ = 0;
  // Producer-side pending reservation (base cursor + full record bytes).
  uint64_t pending_base_ = 0;
  uint32_t pending_rec_ = 0;
  // Consumer-side cursor to publish on Release().
  uint64_t pending_release_ = 0;
};

/// Sentinel for "the directory has no such ring".
inline constexpr size_t kNoShmRing = static_cast<size_t>(-1);

/// Directory entry: the ring carrying records from endpoint `from` to
/// endpoint `to`. Endpoints are worker ids 0..W-1 plus the coordinator at
/// id W.
struct ShmRingSpec {
  uint32_t from = 0;
  uint32_t to = 0;
};

/// A fleet-lifetime shared region plus per-endpoint doorbells, created once
/// (pre-fork) by the owner of a worker fleet and inherited by every member.
/// Per query, both sides lay a ShmDataPlane *view* over the arena
/// (ShmDataPlane::CreateInArena): the coordinator formats the rings, the
/// workers attach to them. The arena outlives every view, so a warm fleet
/// maps and prefaults its shared memory exactly once instead of once per
/// query — the fork/copy-out cost the serving layer exists to remove.
class ShmArena {
 public:
  ShmArena() = default;
  ~ShmArena();
  ShmArena(const ShmArena&) = delete;
  ShmArena& operator=(const ShmArena&) = delete;

  /// Maps `bytes` of MAP_SHARED|MAP_ANONYMOUS memory and opens one eventfd
  /// doorbell per endpoint. Size the region for the worst-case directory
  /// the fleet may ever run: every ordered endpoint pair needs at most
  /// `sizeof(ShmRingHdr) + ring_bytes`.
  [[nodiscard]] static StatusOr<std::unique_ptr<ShmArena>> Create(
      uint32_t num_endpoints, size_t bytes);

  uint32_t num_endpoints() const { return num_endpoints_; }
  size_t bytes() const { return region_bytes_; }
  std::byte* base() const { return region_; }
  int doorbell(uint32_t endpoint) const { return doorbells_[endpoint]; }
  const std::vector<int>& doorbells() const { return doorbells_; }

 private:
  std::byte* region_ = nullptr;
  size_t region_bytes_ = 0;
  uint32_t num_endpoints_ = 0;
  std::vector<int> doorbells_;
};

/// InvalidArgument unless `ring_bytes` is a power of two >= 4096.
[[nodiscard]] Status CheckShmRingBytes(uint32_t ring_bytes);

/// One query's data plane: a view of every ring of its directory over a
/// fleet's ShmArena, plus the arena's per-endpoint doorbells.
class ShmDataPlane {
 public:
  /// Lays the view over `arena`: rings are laid out sequentially from the
  /// arena base in `specs` order (both sides derive identical specs from
  /// the plan, so the layout needs no negotiation). `specs` must be
  /// duplicate-free with endpoints < num_endpoints; `ring_bytes` must pass
  /// CheckShmRingBytes. The formatting side (`format` = true, the
  /// coordinator) re-initializes every ring header — it must do so only
  /// while every fleet member is parked idle; the attaching side validates
  /// the headers it finds. The view borrows the arena's mapping and
  /// doorbells, so destroying it releases nothing.
  [[nodiscard]] static StatusOr<std::unique_ptr<ShmDataPlane>> CreateInArena(
      ShmArena* arena, std::vector<ShmRingSpec> specs, uint32_t num_endpoints,
      uint32_t ring_bytes, bool format);

  /// Order- and size-sensitive hash of the directory; coordinator and
  /// workers cross-check it in the kHello handshake so a plan mismatch can
  /// never silently read the wrong ring.
  static uint64_t HashDirectory(const std::vector<ShmRingSpec>& specs,
                                uint32_t num_endpoints, uint32_t ring_bytes);

  size_t num_rings() const { return specs_.size(); }
  uint32_t num_endpoints() const { return num_endpoints_; }
  uint32_t ring_bytes() const { return ring_bytes_; }
  uint64_t directory_hash() const { return directory_hash_; }
  const ShmRingSpec& spec(size_t i) const { return specs_[i]; }
  ShmRing* ring(size_t i) { return &rings_[i]; }

  /// The ring from -> to, or nullptr when the directory has none.
  ShmRing* RingTo(uint32_t from, uint32_t to);
  /// Directory index of the ring from -> to, or kNoShmRing.
  size_t RingIndexTo(uint32_t from, uint32_t to) const;
  /// Indices of every ring whose consumer is `endpoint`, in directory
  /// order (relay rings first, then pair rings in plan order).
  const std::vector<size_t>& InboundRings(uint32_t endpoint) const {
    return inbound_[endpoint];
  }

  /// Wakes `endpoint`'s poll loop. Best-effort: eventfd semantics make a
  /// failed write (counter saturated) equivalent to an already-pending
  /// wakeup.
  void RingDoorbell(uint32_t endpoint);
  /// Clears pending wakeups; the caller then drains its inbound rings.
  void DrainDoorbell(uint32_t endpoint);
  int doorbell(uint32_t endpoint) const { return doorbells_[endpoint]; }

 private:
  /// Validates and indexes `specs` into index_/inbound_/specs_.
  [[nodiscard]] Status IndexSpecs(std::vector<ShmRingSpec> specs);

  std::vector<ShmRingSpec> specs_;
  std::vector<ShmRing> rings_;
  std::vector<std::vector<size_t>> inbound_;
  std::unordered_map<uint64_t, size_t> index_;  // (from<<32|to) -> ring
  std::vector<int> doorbells_;
  uint32_t num_endpoints_ = 0;
  uint32_t ring_bytes_ = 0;
  uint64_t directory_hash_ = 0;
};

}  // namespace mjoin

#endif  // MJOIN_NET_SHM_RING_H_
