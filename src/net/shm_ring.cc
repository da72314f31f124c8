#include "net/shm_ring.h"

#include <sys/eventfd.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstring>

namespace mjoin {
namespace {

constexpr uint32_t kMinRingBytes = 4096;

uint32_t PadUp(uint32_t bytes) {
  return (bytes + kShmRecordAlign - 1) & ~(kShmRecordAlign - 1);
}

bool IsPowerOfTwo(uint32_t v) { return v != 0 && (v & (v - 1)) == 0; }

bool ValidRecordType(uint32_t raw) {
  switch (static_cast<ShmRecordType>(raw)) {
    case ShmRecordType::kData:
    case ShmRecordType::kEos:
    case ShmRecordType::kFragment:
    case ShmRecordType::kResultRows:
    case ShmRecordType::kPad:
      return true;
  }
  return false;
}

// Local FNV-1a; the net layer cannot reach the engine's FnvHash64 without
// an upward dependency.
uint64_t FnvMix(uint64_t hash, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (i * 8)) & 0xFFu;
    hash *= 0x100'0000'01B3ull;
  }
  return hash;
}

}  // namespace

const char* ShmRecordTypeName(ShmRecordType type) {
  switch (type) {
    case ShmRecordType::kData:
      return "Data";
    case ShmRecordType::kEos:
      return "Eos";
    case ShmRecordType::kFragment:
      return "Fragment";
    case ShmRecordType::kResultRows:
      return "ResultRows";
    case ShmRecordType::kPad:
      return "Pad";
  }
  return "?";
}

void ShmRing::Init(std::byte* mem, uint32_t data_bytes) {
  // lint:allow-new placement-construction of the shared ring header
  hdr_ = new (mem) ShmRingHdr{};
  hdr_->magic = kShmRingMagic;
  hdr_->version = kShmRingVersion;
  hdr_->data_bytes = data_bytes;
  hdr_->tail.store(0, std::memory_order_relaxed);
  hdr_->head.store(0, std::memory_order_relaxed);
  data_ = mem + sizeof(ShmRingHdr);
  data_bytes_ = data_bytes;
  mask_ = data_bytes - 1;
}

Status ShmRing::Attach(std::byte* mem) {
  auto* hdr = reinterpret_cast<ShmRingHdr*>(mem);
  if (hdr->magic != kShmRingMagic) {
    return Status::Unavailable("corrupt shm ring: bad magic");
  }
  if (hdr->version != kShmRingVersion) {
    return Status::Unavailable("corrupt shm ring: version mismatch");
  }
  if (!IsPowerOfTwo(hdr->data_bytes) || hdr->data_bytes < kMinRingBytes) {
    return Status::Unavailable("corrupt shm ring: bad data_bytes");
  }
  hdr_ = hdr;
  data_ = mem + sizeof(ShmRingHdr);
  data_bytes_ = hdr->data_bytes;
  mask_ = data_bytes_ - 1;
  return Status::OK();
}

std::byte* ShmRing::TryReserve(uint32_t payload_bytes) {
  const uint32_t rec = kShmRecordHdrBytes + PadUp(payload_bytes);
  uint64_t tail = hdr_->tail.load(std::memory_order_relaxed);
  uint64_t head = hdr_->head.load(std::memory_order_acquire);
  uint64_t avail = data_bytes_ - (tail - head);
  uint32_t to_end = data_bytes_ - static_cast<uint32_t>(tail & mask_);
  // Mutation kStraddleRecord relaxes the wrap threshold by one alignment
  // unit, letting a maximal record straddle the end of the data region.
  const uint32_t wrap_threshold =
      MJOIN_SHM_MUTATION(kStraddleRecord) ? to_end + kShmRecordAlign : to_end;
  if (rec > wrap_threshold) {
    // The record would straddle the wrap point: publish a pad covering the
    // remainder so the real record can start at offset 0. Publishing the
    // pad eagerly (instead of bundling it with the reservation) guarantees
    // progress — the consumer swallows the pad, and once the ring drains
    // the next reservation starts at a clean wrap.
    // Mutation kPadOverwrite drops the refusal, so the pad tramples
    // records the consumer has not released yet.
    if (to_end > avail && !MJOIN_SHM_MUTATION(kPadOverwrite)) return nullptr;
    auto* pad = reinterpret_cast<uint32_t*>(data_ + (tail & mask_));
    ShmStoreU32(&pad[0], to_end - kShmRecordHdrBytes);
    ShmStoreU32(&pad[1], static_cast<uint32_t>(ShmRecordType::kPad));
    tail += to_end;
    avail -= to_end;
    hdr_->tail.store(tail, std::memory_order_release);
  }
  // Mutation kOverclaimAvail admits a record one alignment unit larger
  // than the free space, so the reservation overlaps unreleased records.
  const uint64_t claimable =
      MJOIN_SHM_MUTATION(kOverclaimAvail) ? avail + kShmRecordAlign : avail;
  if (rec > claimable) return nullptr;
  pending_base_ = tail;
  pending_rec_ = rec;
  return data_ + (tail & mask_) + kShmRecordHdrBytes;
}

void ShmRing::Commit(ShmRecordType type, uint32_t payload_bytes) {
  auto* hdr = reinterpret_cast<uint32_t*>(data_ + (pending_base_ & mask_));
  if (MJOIN_SHM_MUTATION(kPublishBeforeWrite)) {
    // Mutation: the record is published before its header exists, so a
    // consumer scheduled between the two stores reads garbage.
    hdr_->tail.store(pending_base_ + pending_rec_, std::memory_order_release);
    ShmStoreU32(&hdr[0], payload_bytes);
    ShmStoreU32(&hdr[1], static_cast<uint32_t>(type));
    return;
  }
  ShmStoreU32(&hdr[0], payload_bytes);
  ShmStoreU32(&hdr[1], static_cast<uint32_t>(type));
  // The release publishes the header and every payload byte written since
  // TryReserve; until this store the record is invisible, which is what
  // makes a producer killed mid-write harmless. Mutation
  // kCommitTailRelaxed drops the release, so the cursor may become
  // visible before the bytes it publishes.
  hdr_->tail.store(pending_base_ + pending_rec_,
                   MJOIN_SHM_MUTATION(kCommitTailRelaxed)
                       ? std::memory_order_relaxed
                       : std::memory_order_release);
}

bool ShmRing::TryPush(ShmRecordType type, const void* hdr, size_t hdr_bytes,
                      const void* body, size_t body_bytes) {
  const uint32_t payload = static_cast<uint32_t>(hdr_bytes + body_bytes);
  std::byte* slot = TryReserve(payload);
  if (slot == nullptr) return false;
  if (hdr_bytes > 0) ShmCopyIn(slot, hdr, hdr_bytes);
  if (body_bytes > 0) ShmCopyIn(slot + hdr_bytes, body, body_bytes);
  Commit(type, payload);
  return true;
}

StatusOr<bool> ShmRing::TryRead(ShmRecordView* out) {
  uint64_t head = hdr_->head.load(std::memory_order_relaxed);
  for (;;) {
    // Mutation kReadTailRelaxed drops the acquire, so the record bytes the
    // cursor claims to publish may not be visible yet.
    const uint64_t tail =
        hdr_->tail.load(MJOIN_SHM_MUTATION(kReadTailRelaxed)
                            ? std::memory_order_relaxed
                            : std::memory_order_acquire);
    if (tail - head > data_bytes_) {
      return Status::Unavailable("corrupt shm ring: cursors out of bounds");
    }
    if (head == tail) return false;
    const uint32_t off = static_cast<uint32_t>(head & mask_);
    const auto* hdr = reinterpret_cast<const uint32_t*>(data_ + off);
    const uint32_t payload_bytes = ShmLoadU32(&hdr[0]);
    const uint32_t type = ShmLoadU32(&hdr[1]);
    const uint32_t rec = kShmRecordHdrBytes + PadUp(payload_bytes);
    // `rec > tail - head` (never `head + rec > tail`): cursors are free-
    // running u64 counters, so near-2^64 values make `head + rec` wrap to
    // a small number while the modular difference stays correct. Mutation
    // kWrapUnsafeCompare restores the overflowing form.
    const bool overclaims = MJOIN_SHM_MUTATION(kWrapUnsafeCompare)
                                ? head + rec > tail
                                : rec > tail - head;
    if (!ValidRecordType(type) || payload_bytes > data_bytes_ ||
        off + rec > data_bytes_ || overclaims) {
      return Status::Unavailable("corrupt shm ring: bad record header");
    }
    if (static_cast<ShmRecordType>(type) == ShmRecordType::kPad) {
      head += rec;
      // Mutation kPadSkipNoRelease keeps the pad's space from the
      // producer: harmless while records follow (the next Release covers
      // it), but a ring drained right after a pad never returns it.
      if (!MJOIN_SHM_MUTATION(kPadSkipNoRelease)) {
        hdr_->head.store(head, std::memory_order_release);
      }
      continue;
    }
    out->type = static_cast<ShmRecordType>(type);
    out->payload = data_ + off + kShmRecordHdrBytes;
    out->payload_bytes = payload_bytes;
    pending_release_ = head + rec;
    return true;
  }
}

void ShmRing::Release() {
  hdr_->head.store(pending_release_, std::memory_order_release);
}

ShmArena::~ShmArena() {
  for (int fd : doorbells_) {
    if (fd >= 0) close(fd);
  }
  if (region_ != nullptr) munmap(region_, region_bytes_);
}

StatusOr<std::unique_ptr<ShmArena>> ShmArena::Create(uint32_t num_endpoints,
                                                     size_t bytes) {
  if (bytes == 0) {
    return Status::InvalidArgument("shm arena bytes must be positive");
  }
  auto arena = std::make_unique<ShmArena>();
  arena->num_endpoints_ = num_endpoints;
  // MAP_POPULATE prefaults the whole region once, pre-fork; every fleet
  // member inherits the populated page tables for its entire life.
  void* mem = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS | MAP_POPULATE, -1, 0);
  if (mem == MAP_FAILED) {
    return Status::ResourceExhausted("mmap of shm arena failed");
  }
  arena->region_ = static_cast<std::byte*>(mem);
  arena->region_bytes_ = bytes;
  arena->doorbells_.assign(num_endpoints, -1);
  for (uint32_t e = 0; e < num_endpoints; ++e) {
    const int fd = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (fd < 0) {
      return Status::ResourceExhausted("eventfd for shm doorbell failed");
    }
    arena->doorbells_[e] = fd;
  }
  return StatusOr<std::unique_ptr<ShmArena>>(std::move(arena));
}

uint64_t ShmDataPlane::HashDirectory(const std::vector<ShmRingSpec>& specs,
                                     uint32_t num_endpoints,
                                     uint32_t ring_bytes) {
  uint64_t hash = 0xCBF2'9CE4'8422'2325ull;
  hash = FnvMix(hash, num_endpoints);
  hash = FnvMix(hash, ring_bytes);
  for (const ShmRingSpec& spec : specs) {
    hash = FnvMix(hash, (uint64_t{spec.from} << 32) | spec.to);
  }
  return hash;
}

Status ShmDataPlane::IndexSpecs(std::vector<ShmRingSpec> specs) {
  inbound_.assign(num_endpoints_, {});
  index_.clear();
  for (size_t i = 0; i < specs.size(); ++i) {
    const ShmRingSpec& spec = specs[i];
    if (spec.from >= num_endpoints_ || spec.to >= num_endpoints_ ||
        spec.from == spec.to) {
      return Status::InvalidArgument("shm ring spec endpoint out of range");
    }
    const uint64_t key = (uint64_t{spec.from} << 32) | spec.to;
    if (!index_.emplace(key, i).second) {
      return Status::InvalidArgument("duplicate shm ring spec");
    }
    inbound_[spec.to].push_back(i);
  }
  specs_ = std::move(specs);
  return Status::OK();
}

Status CheckShmRingBytes(uint32_t ring_bytes) {
  if (!IsPowerOfTwo(ring_bytes) || ring_bytes < kMinRingBytes) {
    return Status::InvalidArgument("shm ring_bytes must be a power of two "
                                   ">= 4096");
  }
  return Status::OK();
}

StatusOr<std::unique_ptr<ShmDataPlane>> ShmDataPlane::CreateInArena(
    ShmArena* arena, std::vector<ShmRingSpec> specs, uint32_t num_endpoints,
    uint32_t ring_bytes, bool format) {
  MJOIN_RETURN_IF_ERROR(CheckShmRingBytes(ring_bytes));
  if (num_endpoints != arena->num_endpoints()) {
    return Status::InvalidArgument(
        "shm plane endpoint count disagrees with the arena's");
  }
  const size_t slot = sizeof(ShmRingHdr) + ring_bytes;
  if (slot * specs.size() > arena->bytes()) {
    return Status::ResourceExhausted(
        "the plan's ring directory does not fit the fleet's arena");
  }
  auto plane = std::make_unique<ShmDataPlane>();
  plane->num_endpoints_ = num_endpoints;
  plane->ring_bytes_ = ring_bytes;
  plane->directory_hash_ = HashDirectory(specs, num_endpoints, ring_bytes);
  MJOIN_RETURN_IF_ERROR(plane->IndexSpecs(std::move(specs)));
  plane->rings_.resize(plane->specs_.size());
  for (size_t i = 0; i < plane->specs_.size(); ++i) {
    std::byte* mem = arena->base() + i * slot;
    if (format) {
      plane->rings_[i].Init(mem, ring_bytes);
    } else {
      MJOIN_RETURN_IF_ERROR(plane->rings_[i].Attach(mem));
    }
  }
  plane->doorbells_ = arena->doorbells();
  return StatusOr<std::unique_ptr<ShmDataPlane>>(std::move(plane));
}

ShmRing* ShmDataPlane::RingTo(uint32_t from, uint32_t to) {
  auto it = index_.find((uint64_t{from} << 32) | to);
  if (it == index_.end()) return nullptr;
  return &rings_[it->second];
}

size_t ShmDataPlane::RingIndexTo(uint32_t from, uint32_t to) const {
  auto it = index_.find((uint64_t{from} << 32) | to);
  return it == index_.end() ? kNoShmRing : it->second;
}

void ShmDataPlane::RingDoorbell(uint32_t endpoint) {
  // A full counter (EAGAIN) already wakes the poller; any other failure
  // degrades to the poll timeout, never to a lost record.
  (void)eventfd_write(doorbells_[endpoint], 1);
}

void ShmDataPlane::DrainDoorbell(uint32_t endpoint) {
  eventfd_t value = 0;
  (void)eventfd_read(doorbells_[endpoint], &value);
}

}  // namespace mjoin
