#include "net/shm_ring.h"

#include <cstdlib>
#include <cstring>
#include <gtest/gtest.h>
#include <memory>
#include <thread>
#include <vector>

#include "engine/process_protocol.h"
#include "plan/wisconsin_query.h"
#include "strategy/strategy.h"

namespace mjoin {
namespace {

// The SPSC ring under the process backend's shared-memory data plane:
// record framing, wrap pads, full/drain progress, corruption detection,
// and the producer/consumer memory-ordering contract under real threads.
// The ShmDataPlane directory (ring lookup, inbound lists, hash) and its
// agreement with ComputeRingDirectory are covered here too, so a protocol
// change that skews the worker-side directory fails in-process before it
// can fail across a fork.

struct AlignedFree {
  void operator()(std::byte* p) const { std::free(p); }
};

// ShmRingHdr carries alignas(64) cursors, so the backing store must be
// cache-line aligned like the real mmap'd region.
using RingMem = std::unique_ptr<std::byte[], AlignedFree>;

RingMem MakeRingMem(uint32_t data_bytes) {
  void* p = std::aligned_alloc(64, sizeof(ShmRingHdr) + data_bytes);
  MJOIN_CHECK(p != nullptr);
  std::memset(p, 0, sizeof(ShmRingHdr) + data_bytes);
  return RingMem(static_cast<std::byte*>(p));
}

std::vector<std::byte> Pattern(size_t bytes, uint32_t seed) {
  std::vector<std::byte> out(bytes);
  for (size_t i = 0; i < bytes; ++i) {
    out[i] = static_cast<std::byte>((seed * 131 + i * 7 + 13) & 0xff);
  }
  return out;
}

TEST(ShmRingTest, RoundTripsRecords) {
  RingMem mem = MakeRingMem(4096);
  ShmRing ring;
  ring.Init(mem.get(), 4096);
  EXPECT_TRUE(ring.Empty());

  const size_t sizes[] = {0, 1, 7, 8, 64, 500};
  uint32_t seed = 0;
  for (size_t bytes : sizes) {
    std::vector<std::byte> payload = Pattern(bytes, ++seed);
    ASSERT_TRUE(ring.TryPush(ShmRecordType::kData, payload.data(),
                             payload.size(), nullptr, 0));
  }
  seed = 0;
  for (size_t bytes : sizes) {
    ShmRecordView rec;
    StatusOr<bool> any = ring.TryRead(&rec);
    ASSERT_TRUE(any.ok()) << any.status();
    ASSERT_TRUE(*any);
    EXPECT_EQ(rec.type, ShmRecordType::kData);
    ASSERT_EQ(rec.payload_bytes, bytes);
    std::vector<std::byte> expect = Pattern(bytes, ++seed);
    if (bytes > 0) {
      EXPECT_EQ(std::memcmp(rec.payload, expect.data(), bytes), 0);
    }
    ring.Release();
  }
  EXPECT_TRUE(ring.Empty());
}

TEST(ShmRingTest, SplitsHeaderAndBody) {
  RingMem mem = MakeRingMem(4096);
  ShmRing ring;
  ring.Init(mem.get(), 4096);

  std::vector<std::byte> hdr = Pattern(24, 1);
  std::vector<std::byte> body = Pattern(100, 2);
  ASSERT_TRUE(ring.TryPush(ShmRecordType::kFragment, hdr.data(), hdr.size(),
                           body.data(), body.size()));
  ShmRecordView rec;
  StatusOr<bool> any = ring.TryRead(&rec);
  ASSERT_TRUE(any.ok() && *any);
  EXPECT_EQ(rec.type, ShmRecordType::kFragment);
  ASSERT_EQ(rec.payload_bytes, hdr.size() + body.size());
  EXPECT_EQ(std::memcmp(rec.payload, hdr.data(), hdr.size()), 0);
  EXPECT_EQ(std::memcmp(rec.payload + hdr.size(), body.data(), body.size()),
            0);
  ring.Release();
}

TEST(ShmRingTest, PadsAcrossTheWrapPoint) {
  // Odd-sized records force the tail through every wrap phase; each
  // published payload must come back intact with the pads invisible.
  RingMem mem = MakeRingMem(4096);
  ShmRing ring;
  ring.Init(mem.get(), 4096);

  uint32_t pushed = 0, popped = 0;
  const uint32_t total = 4000;
  while (popped < total) {
    const uint32_t bytes = 40 + (pushed % 7) * 33;
    if (pushed < total) {
      std::vector<std::byte> payload = Pattern(bytes, pushed);
      if (ring.TryPush(ShmRecordType::kData, payload.data(), payload.size(),
                       nullptr, 0)) {
        ++pushed;
      }
    }
    ShmRecordView rec;
    StatusOr<bool> any = ring.TryRead(&rec);
    ASSERT_TRUE(any.ok()) << any.status();
    if (!*any) continue;
    const uint32_t expect_bytes = 40 + (popped % 7) * 33;
    ASSERT_EQ(rec.payload_bytes, expect_bytes) << "record " << popped;
    std::vector<std::byte> expect = Pattern(expect_bytes, popped);
    EXPECT_EQ(std::memcmp(rec.payload, expect.data(), expect_bytes), 0);
    ring.Release();
    ++popped;
  }
  EXPECT_TRUE(ring.Empty());
}

TEST(ShmRingTest, FullRingRefusesThenRecovers) {
  RingMem mem = MakeRingMem(4096);
  ShmRing ring;
  ring.Init(mem.get(), 4096);

  // max_payload is half the ring minus headers, so two records fill it.
  std::vector<std::byte> payload = Pattern(ring.max_payload(), 9);
  ASSERT_TRUE(ring.TryPush(ShmRecordType::kData, payload.data(),
                           payload.size(), nullptr, 0));
  ASSERT_TRUE(ring.TryPush(ShmRecordType::kData, payload.data(),
                           payload.size(), nullptr, 0));
  // A third cannot fit until space is released.
  EXPECT_FALSE(ring.TryPush(ShmRecordType::kData, payload.data(),
                            payload.size(), nullptr, 0));
  ShmRecordView rec;
  StatusOr<bool> any = ring.TryRead(&rec);
  ASSERT_TRUE(any.ok() && *any);
  ring.Release();
  // The progress guarantee behind max_payload(): one consumed record is
  // enough for the next max-payload record to fit, wrap pad included.
  EXPECT_TRUE(ring.TryPush(ShmRecordType::kData, payload.data(),
                           payload.size(), nullptr, 0));
}

TEST(ShmRingTest, UncommittedReservationIsInvisible) {
  // A producer killed between TryReserve and Commit must leave nothing
  // for the consumer — the record only exists once `tail` is published.
  RingMem mem = MakeRingMem(4096);
  ShmRing ring;
  ring.Init(mem.get(), 4096);

  std::byte* slot = ring.TryReserve(64);
  ASSERT_NE(slot, nullptr);
  std::memset(slot, 0xab, 64);
  ShmRecordView rec;
  StatusOr<bool> any = ring.TryRead(&rec);
  ASSERT_TRUE(any.ok());
  EXPECT_FALSE(*any);
}

TEST(ShmRingTest, AttachValidatesHeader) {
  RingMem mem = MakeRingMem(4096);
  ShmRing producer;
  producer.Init(mem.get(), 4096);

  ShmRing consumer;
  ASSERT_TRUE(consumer.Attach(mem.get()).ok());
  EXPECT_EQ(consumer.data_bytes(), 4096u);

  auto* hdr = reinterpret_cast<ShmRingHdr*>(mem.get());
  hdr->magic ^= 1;
  Status bad = consumer.Attach(mem.get());
  EXPECT_EQ(bad.code(), StatusCode::kUnavailable);
  hdr->magic ^= 1;
  hdr->data_bytes = 1000;  // not a power of two
  EXPECT_EQ(consumer.Attach(mem.get()).code(), StatusCode::kUnavailable);
}

TEST(ShmRingTest, DetectsCorruptCursorsAndHeaders) {
  {
    RingMem mem = MakeRingMem(4096);
    ShmRing ring;
    ring.Init(mem.get(), 4096);
    auto* hdr = reinterpret_cast<ShmRingHdr*>(mem.get());
    // Tail beyond head + capacity: impossible under the SPSC contract.
    hdr->tail.store(8192 + 8, std::memory_order_release);
    ShmRecordView rec;
    StatusOr<bool> any = ring.TryRead(&rec);
    EXPECT_EQ(any.status().code(), StatusCode::kUnavailable);
  }
  {
    RingMem mem = MakeRingMem(4096);
    ShmRing ring;
    ring.Init(mem.get(), 4096);
    std::vector<std::byte> payload = Pattern(64, 3);
    ASSERT_TRUE(ring.TryPush(ShmRecordType::kData, payload.data(),
                             payload.size(), nullptr, 0));
    // Smash the record's type field in place.
    auto* rec_hdr =
        reinterpret_cast<uint32_t*>(mem.get() + sizeof(ShmRingHdr));
    rec_hdr[1] = 0xdeadbeef;
    ShmRecordView rec;
    EXPECT_EQ(ring.TryRead(&rec).status().code(), StatusCode::kUnavailable);
  }
  {
    RingMem mem = MakeRingMem(4096);
    ShmRing ring;
    ring.Init(mem.get(), 4096);
    std::vector<std::byte> payload = Pattern(64, 4);
    ASSERT_TRUE(ring.TryPush(ShmRecordType::kData, payload.data(),
                             payload.size(), nullptr, 0));
    // Payload length pointing past the published tail.
    auto* rec_hdr =
        reinterpret_cast<uint32_t*>(mem.get() + sizeof(ShmRingHdr));
    rec_hdr[0] = 2048;
    ShmRecordView rec;
    EXPECT_EQ(ring.TryRead(&rec).status().code(), StatusCode::kUnavailable);
  }
}

TEST(ShmRingTest, SpscThreadStress) {
  // One real producer thread against one consumer: every record arrives
  // exactly once, in order, bit-identical. TSan runs this in CI, so the
  // release/acquire pairing itself is under test here, not just the data.
  RingMem mem = MakeRingMem(4096);
  ShmRing producer;
  producer.Init(mem.get(), 4096);
  ShmRing consumer;
  ASSERT_TRUE(consumer.Attach(mem.get()).ok());

  constexpr uint32_t total = 20000;
  std::thread t([&producer] {
    for (uint32_t i = 0; i < total;) {
      const uint32_t bytes = 8 + (i % 61) * 3;
      std::vector<std::byte> payload = Pattern(bytes, i);
      payload[0] = static_cast<std::byte>(i & 0xff);
      if (producer.TryPush(ShmRecordType::kData, payload.data(),
                           payload.size(), nullptr, 0)) {
        ++i;
      }
    }
  });
  for (uint32_t i = 0; i < total;) {
    ShmRecordView rec;
    StatusOr<bool> any = consumer.TryRead(&rec);
    ASSERT_TRUE(any.ok()) << any.status();
    if (!*any) continue;
    const uint32_t bytes = 8 + (i % 61) * 3;
    ASSERT_EQ(rec.payload_bytes, bytes) << "record " << i;
    std::vector<std::byte> expect = Pattern(bytes, i);
    expect[0] = static_cast<std::byte>(i & 0xff);
    ASSERT_EQ(std::memcmp(rec.payload, expect.data(), bytes), 0)
        << "record " << i;
    consumer.Release();
    ++i;
  }
  t.join();
  EXPECT_TRUE(consumer.Empty());
}

TEST(ShmRingTest, CursorsSurviveNumericWrapAtUint64Max) {
  // Cursors are free-running u64 counters, so a long-lived serve-mode
  // ring eventually crosses 2^64. Seed both cursors two laps below the
  // wrap and stream enough records that tail and head each cross it; the
  // record validation in TryRead must use modular arithmetic throughout
  // (`rec > tail - head`, never `head + rec > tail`, which overflows).
  constexpr uint32_t kBytes = 4096;
  RingMem mem = MakeRingMem(kBytes);
  ShmRing ring;
  ring.Init(mem.get(), kBytes);
  auto* hdr = reinterpret_cast<ShmRingHdr*>(mem.get());
  // 2 * kBytes below 2^64: ring offset 0, so no pad is implied by the
  // seed itself — pads still occur naturally as records wrap the region.
  const uint64_t base = ~uint64_t{0} - 2 * kBytes + 1;
  hdr->tail.store(base, std::memory_order_relaxed);
  hdr->head.store(base, std::memory_order_relaxed);

  uint32_t push_seed = 0;
  uint32_t read_seed = 0;
  // Push/drain in small bursts until both cursors are well past 2^64.
  while (ring.tail_cursor() >= base || ring.tail_cursor() < 3 * kBytes) {
    for (int burst = 0; burst < 3; ++burst) {
      const uint32_t bytes = 24 + (push_seed % 7) * 40;
      std::vector<std::byte> payload = Pattern(bytes, push_seed);
      if (!ring.TryPush(ShmRecordType::kData, payload.data(), payload.size(),
                        nullptr, 0)) {
        break;
      }
      ++push_seed;
    }
    for (;;) {
      ShmRecordView rec;
      StatusOr<bool> any = ring.TryRead(&rec);
      ASSERT_TRUE(any.ok()) << "tail=" << ring.tail_cursor()
                            << " head=" << ring.head_cursor() << ": "
                            << any.status();
      if (!*any) break;
      const uint32_t bytes = 24 + (read_seed % 7) * 40;
      ASSERT_EQ(rec.payload_bytes, bytes);
      std::vector<std::byte> expect = Pattern(bytes, read_seed);
      ASSERT_EQ(std::memcmp(rec.payload, expect.data(), bytes), 0)
          << "record " << read_seed << " near cursor " << ring.head_cursor();
      ring.Release();
      ++read_seed;
    }
    ASSERT_EQ(read_seed, push_seed);
    ASSERT_EQ(ring.head_cursor(), ring.tail_cursor());
  }
  // Both cursors crossed 2^64 and kept the full modular contract. The
  // last burst may overshoot the 3*kBytes loop threshold by a few
  // records, never by a full lap.
  EXPECT_LT(ring.tail_cursor(), 4 * uint64_t{kBytes});
  EXPECT_TRUE(ring.Empty());
}

// Maps an arena that fits `specs` and formats a plane over it, as a
// coordinator does at attach. The arena must outlive the plane.
StatusOr<std::unique_ptr<ShmDataPlane>> MakePlane(
    std::unique_ptr<ShmArena>* arena, std::vector<ShmRingSpec> specs,
    uint32_t num_endpoints, uint32_t ring_bytes) {
  StatusOr<std::unique_ptr<ShmArena>> mapped = ShmArena::Create(
      num_endpoints, (sizeof(ShmRingHdr) + ring_bytes) * specs.size());
  if (!mapped.ok()) return mapped.status();
  *arena = std::move(mapped).value();
  return ShmDataPlane::CreateInArena(arena->get(), std::move(specs),
                                     num_endpoints, ring_bytes,
                                     /*format=*/true);
}

TEST(ShmDataPlaneTest, DirectoryLookupsAndDoorbells) {
  std::vector<ShmRingSpec> specs = {{2, 0}, {2, 1}, {0, 2}, {1, 0}};
  std::unique_ptr<ShmArena> arena;
  auto plane = MakePlane(&arena, specs, /*num_endpoints=*/3,
                         /*ring_bytes=*/4096);
  ASSERT_TRUE(plane.ok()) << plane.status();
  ShmDataPlane& p = **plane;
  EXPECT_EQ(p.num_rings(), 4u);
  EXPECT_EQ(p.ring_bytes(), 4096u);

  EXPECT_NE(p.RingTo(2, 0), nullptr);
  EXPECT_EQ(p.RingTo(0, 1), nullptr);
  EXPECT_EQ(p.RingIndexTo(2, 1), 1u);
  EXPECT_EQ(p.RingIndexTo(1, 2), kNoShmRing);
  ASSERT_EQ(p.InboundRings(0).size(), 2u);  // 2->0 and 1->0, spec order
  EXPECT_EQ(p.InboundRings(0)[0], 0u);
  EXPECT_EQ(p.InboundRings(0)[1], 3u);
  EXPECT_EQ(p.InboundRings(1).size(), 1u);

  // A record pushed on 2->0 comes back out of the same directory slot.
  std::vector<std::byte> payload = Pattern(32, 5);
  ASSERT_TRUE(p.RingTo(2, 0)->TryPush(ShmRecordType::kResultRows,
                                      payload.data(), payload.size(),
                                      nullptr, 0));
  ShmRecordView rec;
  StatusOr<bool> any = p.ring(p.RingIndexTo(2, 0))->TryRead(&rec);
  ASSERT_TRUE(any.ok() && *any);
  EXPECT_EQ(rec.type, ShmRecordType::kResultRows);

  // Doorbells are per-endpoint, non-blocking, and drainable.
  for (uint32_t e = 0; e < 3; ++e) EXPECT_GE(p.doorbell(e), 0);
  p.RingDoorbell(1);
  p.DrainDoorbell(1);
}

TEST(ShmDataPlaneTest, RejectsBadConfigurations) {
  std::unique_ptr<ShmArena> arena;
  EXPECT_EQ(MakePlane(&arena, {{0, 1}}, 2, 1000).status().code(),
            StatusCode::kInvalidArgument);  // not a power of two
  EXPECT_EQ(MakePlane(&arena, {{0, 1}}, 2, 2048).status().code(),
            StatusCode::kInvalidArgument);  // below the 4 KiB floor
  EXPECT_EQ(MakePlane(&arena, {{0, 0}}, 2, 4096).status().code(),
            StatusCode::kInvalidArgument);  // self-ring
  EXPECT_EQ(MakePlane(&arena, {{0, 2}}, 2, 4096).status().code(),
            StatusCode::kInvalidArgument);  // endpoint out of range
  EXPECT_EQ(MakePlane(&arena, {{0, 1}, {0, 1}}, 2, 4096).status().code(),
            StatusCode::kInvalidArgument);  // duplicate ring
}

TEST(ShmDataPlaneTest, HashCoversEveryDirectoryDimension) {
  const std::vector<ShmRingSpec> specs = {{2, 0}, {0, 2}, {1, 2}};
  const uint64_t base = ShmDataPlane::HashDirectory(specs, 3, 4096);
  EXPECT_EQ(ShmDataPlane::HashDirectory(specs, 3, 4096), base);
  EXPECT_NE(ShmDataPlane::HashDirectory(specs, 4, 4096), base);
  EXPECT_NE(ShmDataPlane::HashDirectory(specs, 3, 8192), base);
  EXPECT_NE(ShmDataPlane::HashDirectory({{2, 0}, {1, 2}, {0, 2}}, 3, 4096),
            base);  // order-sensitive
  EXPECT_NE(ShmDataPlane::HashDirectory({{2, 0}, {0, 2}}, 3, 4096), base);
}

TEST(ShmDataPlaneTest, RingDirectoryMatchesAcrossIndependentDerivations) {
  // The coordinator and every worker derive the directory independently
  // (the worker from its re-hydrated plan); the kHello hash check assumes
  // the derivation is deterministic. Prove it for all four strategies.
  for (StrategyKind kind : kAllStrategies) {
    auto query = MakeWisconsinChainQuery(QueryShape::kLeftLinear,
                                         /*relations=*/5,
                                         /*cardinality=*/400);
    ASSERT_TRUE(query.ok());
    auto plan = MakeStrategy(kind)->Parallelize(*query, /*processors=*/8,
                                                TotalCostModel());
    ASSERT_TRUE(plan.ok()) << plan.status();
    for (uint32_t workers : {1u, 3u, 8u}) {
      std::vector<ShmRingSpec> a = ComputeRingDirectory(*plan, workers);
      std::vector<ShmRingSpec> b = ComputeRingDirectory(*plan, workers);
      ASSERT_EQ(a.size(), b.size());
      for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].from, b[i].from);
        EXPECT_EQ(a[i].to, b[i].to);
        // Every spec touches a live endpoint; relay rings lead.
        EXPECT_LE(a[i].from, workers);
        EXPECT_LE(a[i].to, workers);
        EXPECT_NE(a[i].from, a[i].to);
      }
      // Relay rings for every worker come first, coordinator at id W.
      ASSERT_GE(a.size(), 2 * workers);
      for (uint32_t w = 0; w < workers; ++w) {
        EXPECT_EQ(a[2 * w].from, workers);
        EXPECT_EQ(a[2 * w].to, w);
        EXPECT_EQ(a[2 * w + 1].from, w);
        EXPECT_EQ(a[2 * w + 1].to, workers);
      }
      EXPECT_EQ(ShmDataPlane::HashDirectory(a, workers + 1, 1u << 20),
                ShmDataPlane::HashDirectory(b, workers + 1, 1u << 20));
    }
  }
}

}  // namespace
}  // namespace mjoin
