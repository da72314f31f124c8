#include <poll.h>
#include <sys/eventfd.h>

#include <cstring>
#include <gtest/gtest.h>
#include <thread>
#include <vector>

#include "net/shm_ring.h"

namespace mjoin {
namespace {

// Single-process, dual-thread exercise of the shm data plane: one real
// producer thread and one real consumer thread drive the SAME production
// ShmRing + doorbell code the forked process backend uses, but inside one
// address space — exactly what ThreadSanitizer can instrument. The
// cross-process fork harness is invisible to TSan; this file is the
// sanitizer's window onto the release/acquire publish protocol and the
// eventfd wakeup discipline (tools/run_sanitized_tests.sh thread mode).
//
// mjoin_check explores these orderings exhaustively on a model; this
// harness runs the real atomics on real cores. The two catch different
// liars: the model catches logic that happens to work on x86, TSan
// catches instrumentation-visible races the model seam might miss.

constexpr int kWaitMillis = 10000;  // watchdog: a lost wakeup fails, not hangs

std::vector<std::byte> Pattern(size_t bytes, uint32_t seed) {
  std::vector<std::byte> out(bytes);
  for (size_t i = 0; i < bytes; ++i) {
    out[i] = static_cast<std::byte>((seed * 131 + i * 7 + 13) & 0xff);
  }
  return out;
}

// Blocks until the doorbell is readable; a timeout means a lost wakeup.
bool AwaitDoorbell(int fd) {
  pollfd pfd{fd, POLLIN, 0};
  return poll(&pfd, 1, kWaitMillis) > 0;
}

// Runs `total` records through a ring with both endpoints on their own
// thread, doorbell-paced in both directions: the consumer's bell says
// "records published", the producer's bell says "space released". Every
// push and every sleep is mediated by the same eventfd discipline the
// process backend's poll loops use; a lost wakeup trips the watchdog.
void RunBothEndpoints(uint32_t ring_bytes, uint32_t total,
                      uint32_t payload_step, uint32_t ring_every) {
  StatusOr<std::unique_ptr<ShmArena>> arena =
      ShmArena::Create(/*num_endpoints=*/2, sizeof(ShmRingHdr) + ring_bytes);
  ASSERT_TRUE(arena.ok()) << arena.status();
  StatusOr<std::unique_ptr<ShmDataPlane>> made = ShmDataPlane::CreateInArena(
      arena->get(), {{0, 1}}, /*num_endpoints=*/2, ring_bytes,
      /*format=*/true);
  ASSERT_TRUE(made.ok()) << made.status();
  std::unique_ptr<ShmDataPlane> plane = std::move(made).value();
  ShmRing* ring = plane->RingTo(0, 1);
  ASSERT_NE(ring, nullptr);

  const uint32_t max_payload = ring->max_payload();
  std::thread producer([&] {
    uint32_t rung = 0;
    for (uint32_t i = 0; i < total;) {
      const uint32_t bytes = 8 + (i * payload_step) % (max_payload - 8);
      std::vector<std::byte> payload = Pattern(bytes, i);
      if (ring->TryPush(ShmRecordType::kData, payload.data(), payload.size(),
                        nullptr, 0)) {
        ++i;
        // Coalesce wakeups: ring the consumer only every `ring_every`
        // records (and on the last one). The eventfd counter absorbs the
        // burst; the consumer must drain the ring, not count the bells.
        if (++rung >= ring_every || i == total) {
          rung = 0;
          plane->RingDoorbell(1);
        }
        continue;
      }
      // Full: make sure the consumer is awake, then sleep on our own
      // bell until it releases space.
      plane->RingDoorbell(1);
      if (!AwaitDoorbell(plane->doorbell(0))) {
        ADD_FAILURE() << "producer: lost wakeup waiting for ring space";
        return;
      }
      plane->DrainDoorbell(0);
    }
  });

  // The consumer runs on the test thread. EXPECT+break (never ASSERT):
  // an early return here would abandon the joinable producer thread.
  uint32_t received = 0;
  bool ok = true;
  auto consume_one = [&](const ShmRecordView& rec) {
    const uint32_t bytes = 8 + (received * payload_step) % (max_payload - 8);
    EXPECT_EQ(rec.payload_bytes, bytes) << "record " << received;
    std::vector<std::byte> expect = Pattern(bytes, received);
    if (rec.payload_bytes != bytes ||
        std::memcmp(rec.payload, expect.data(), bytes) != 0) {
      ADD_FAILURE() << "payload mismatch at record " << received;
      ok = false;
    }
    ring->Release();
    plane->RingDoorbell(0);
    ++received;
  };
  while (received < total && ok) {
    ShmRecordView rec;
    StatusOr<bool> any = ring->TryRead(&rec);
    EXPECT_TRUE(any.ok()) << any.status();
    if (!any.ok()) break;
    if (*any) {
      consume_one(rec);
      continue;
    }
    // Drained: drain the bell FIRST, then re-check the ring before
    // sleeping — the order that makes a publish-then-ring from the
    // producer impossible to miss.
    plane->DrainDoorbell(1);
    StatusOr<bool> retry = ring->TryRead(&rec);
    EXPECT_TRUE(retry.ok()) << retry.status();
    if (!retry.ok()) break;
    if (*retry) {
      consume_one(rec);
      continue;
    }
    ok = AwaitDoorbell(plane->doorbell(1));
    EXPECT_TRUE(ok) << "consumer: lost wakeup at record " << received;
  }
  producer.join();
  EXPECT_EQ(received, total);
  EXPECT_TRUE(ring->Empty());
}

TEST(ShmRingTsanTest, BothEndpointsUnderRealThreads) {
  // Comfortable ring, every record rings the bell: steady-state traffic.
  RunBothEndpoints(/*ring_bytes=*/4096, /*total=*/20000,
                   /*payload_step=*/37, /*ring_every=*/1);
}

TEST(ShmRingTsanTest, CoalescedDoorbellsOnAFullRing) {
  // The §14 no-lost-wakeup invariant under stress: payloads near
  // max_payload keep the ring almost permanently full, so the producer
  // sleeps constantly, and bells are rung only every 7 records, so the
  // eventfd counter coalesces bursts into single wakes. Any window where
  // "ring is full" and "consumer asleep" can coexist hangs this test
  // into the watchdog instead of passing by luck.
  RunBothEndpoints(/*ring_bytes=*/4096, /*total=*/8000,
                   /*payload_step=*/499, /*ring_every=*/7);
}

}  // namespace
}  // namespace mjoin
