#include "net/net_fault.h"

#include <algorithm>

#include "common/string_util.h"

namespace mjoin {

std::string NetFaultKindName(NetFaultKind kind) {
  switch (kind) {
    case NetFaultKind::kNone:
      return "none";
    case NetFaultKind::kCorruptOutbound:
      return "corrupt-out";
    case NetFaultKind::kCorruptInbound:
      return "corrupt-in";
    case NetFaultKind::kTruncateOutbound:
      return "truncate-out";
    case NetFaultKind::kShortWrites:
      return "short-writes";
    case NetFaultKind::kStallOutbound:
      return "stall-out";
    case NetFaultKind::kDropConnection:
      return "drop-conn";
    case NetFaultKind::kCorruptRingRecord:
      return "corrupt-ring";
  }
  return "unknown";
}

bool ParseNetFaultKind(const std::string& text, NetFaultKind* kind) {
  for (NetFaultKind candidate :
       {NetFaultKind::kNone, NetFaultKind::kCorruptOutbound,
        NetFaultKind::kCorruptInbound, NetFaultKind::kTruncateOutbound,
        NetFaultKind::kShortWrites, NetFaultKind::kStallOutbound,
        NetFaultKind::kDropConnection, NetFaultKind::kCorruptRingRecord}) {
    if (NetFaultKindName(candidate) == text) {
      *kind = candidate;
      return true;
    }
  }
  return false;
}

std::string SerializeNetFaultScenario(const NetFaultScenario& scenario) {
  return StrCat("kind=", NetFaultKindName(scenario.kind),
                " worker=", scenario.worker,
                " after=", scenario.after_frames,
                " max-fires=", scenario.max_fires,
                " write-cap=", scenario.write_cap, " seed=", scenario.seed);
}

NetFaultInjector::NetFaultInjector(const NetFaultScenario& scenario)
    : scenario_(scenario), rng_(scenario.seed) {}

size_t NetFaultInjector::PickOffset(size_t size) {
  if (size <= 5) return size - 1;  // the type byte of a payloadless frame
  return 4 + std::uniform_int_distribution<size_t>(0, size - 5)(rng_);
}

void NetFaultInjector::OnChannelRebind() {
  stalled_ = false;
  drop_pending_ = false;
}

void NetFaultInjector::OnOutboundFrame(std::vector<std::byte>* frame,
                                       bool* shutdown_write) {
  if (frame->empty()) return;
  switch (scenario_.kind) {
    case NetFaultKind::kCorruptOutbound: {
      if (outbound_seen_++ < scenario_.after_frames || !Armed()) return;
      ++fires_;
      size_t offset = PickOffset(frame->size());
      (*frame)[offset] ^= std::byte{0x20};
      return;
    }
    case NetFaultKind::kTruncateOutbound: {
      if (outbound_seen_++ < scenario_.after_frames || !Armed()) return;
      ++fires_;
      // Keep at least the length header so the peer commits to waiting for
      // a frame that never completes, then learns the truth from EOF.
      frame->resize(std::max<size_t>(4, frame->size() / 2));
      *shutdown_write = true;
      return;
    }
    case NetFaultKind::kStallOutbound:
      if (stalled_) return;
      if (outbound_seen_++ < scenario_.after_frames || !Armed()) return;
      ++fires_;
      stalled_ = true;
      return;
    case NetFaultKind::kDropConnection:
      if (drop_pending_) return;
      if (outbound_seen_++ < scenario_.after_frames || !Armed()) return;
      ++fires_;
      drop_pending_ = true;
      return;
    case NetFaultKind::kNone:
    case NetFaultKind::kCorruptInbound:
    case NetFaultKind::kShortWrites:
    case NetFaultKind::kCorruptRingRecord:
      return;
  }
}

size_t NetFaultInjector::CapWrite(size_t want) {
  if (stalled_) return 0;
  if (scenario_.kind != NetFaultKind::kShortWrites) return want;
  // A mode, not an event: every send is capped; counted once.
  if (fires_ == 0) fires_ = 1;
  return std::min(want, std::max<size_t>(1, scenario_.write_cap));
}

bool NetFaultInjector::ShouldDropConnection() { return drop_pending_; }

void NetFaultInjector::OnInboundBytes(std::byte* data, size_t size) {
  if (scenario_.kind != NetFaultKind::kCorruptInbound || size == 0) return;
  if (inbound_seen_++ < scenario_.after_frames || !Armed()) return;
  ++fires_;
  size_t offset = std::uniform_int_distribution<size_t>(0, size - 1)(rng_);
  data[offset] ^= std::byte{0x20};
}

bool NetFaultInjector::ShouldCorruptRingRecord() {
  if (scenario_.kind != NetFaultKind::kCorruptRingRecord) return false;
  if (ring_records_seen_++ < scenario_.after_frames || !Armed()) return false;
  ++fires_;
  return true;
}

}  // namespace mjoin
