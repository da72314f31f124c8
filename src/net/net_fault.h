#ifndef MJOIN_NET_NET_FAULT_H_
#define MJOIN_NET_NET_FAULT_H_

#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace mjoin {

/// What a NetFaultInjector does to a FrameChannel's wire traffic. Where the
/// engine-level FaultInjector (engine/fault_injector.h) models a misbehaving
/// *node*, this injector models a misbehaving *link*: it sits inside one
/// channel and damages bytes, not operator semantics.
enum class NetFaultKind {
  kNone = 0,
  /// Flip one byte of an outbound frame after it is encoded. The receiver
  /// must detect the damage (frame length bound, batch CRC, payload decode)
  /// and surface it as a retryable corrupt-wire failure.
  kCorruptOutbound,
  /// Flip one byte of an inbound read chunk before frame reassembly — the
  /// same corruption seen from the receiving side.
  kCorruptInbound,
  /// Cut an outbound frame short and shut down the write side, as a
  /// connection dying mid-frame would. The peer sees a truncated stream.
  kTruncateOutbound,
  /// Cap every send() at a few bytes: pathological short writes. Purely a
  /// stressor for the partial-write paths; traffic stays intact.
  kShortWrites,
  /// Stop sending entirely while keeping the socket open: a silent one-way
  /// hang. Only a liveness watchdog can notice this one.
  kStallOutbound,
  /// shutdown(SHUT_RDWR) mid-stream: an abrupt connection drop.
  kDropConnection,
  /// The coordinator publishes one relay-ring record toward the faulted
  /// worker with an invalid type word. The worker's record validation
  /// must turn it into a retryable corrupt-ring failure. `after_frames`
  /// counts ring records let through before firing.
  kCorruptRingRecord,
};

std::string NetFaultKindName(NetFaultKind kind);
bool ParseNetFaultKind(const std::string& text, NetFaultKind* kind);

/// Parameters of one injected link fault.
struct NetFaultScenario {
  NetFaultKind kind = NetFaultKind::kNone;
  /// Which worker's channel the coordinator installs the injector on.
  uint32_t worker = 0;
  /// Outbound frames (kCorruptOutbound/kTruncateOutbound/kDropConnection)
  /// or inbound read chunks (kCorruptInbound) let through before firing.
  uint64_t after_frames = 0;
  /// Total fires allowed across the injector's lifetime. The injector is
  /// caller-owned and survives query retries, so the default of 1 makes a
  /// fault a one-shot: attempt 1 hits it, attempt 2 runs clean — exactly
  /// the shape a recovery test needs. 0 = unlimited.
  uint64_t max_fires = 1;
  /// kShortWrites: bytes the kernel is allowed per send().
  size_t write_cap = 7;
  /// Seed choosing which byte of a frame gets flipped.
  uint64_t seed = 0;
};

/// One line of key=value text, for reproduction instructions on failure.
std::string SerializeNetFaultScenario(const NetFaultScenario& scenario);

/// Deterministic link chaos for one FrameChannel. The caller owns the
/// injector and installs it via FrameChannel::set_fault_injector; the
/// channel consults it on every queue/flush/read. Not thread-safe — a
/// channel belongs to one event loop, and so does its injector (it must
/// not be shared across channels that live on different threads).
///
/// State (frames seen, fires) persists across queries: retrying executors
/// reuse the injector, so a max_fires budget spans the retry sequence.
class NetFaultInjector {
 public:
  explicit NetFaultInjector(const NetFaultScenario& scenario);

  NetFaultInjector(const NetFaultInjector&) = delete;
  NetFaultInjector& operator=(const NetFaultInjector&) = delete;

  /// Called when the injector is installed on a (new) channel: clears the
  /// per-link latches (stall, pending drop) so a retry attempt's fresh
  /// socket starts clean while the max_fires budget keeps counting.
  void OnChannelRebind();

  /// Called with a fully encoded outbound frame (length header included)
  /// before it is queued. May flip a byte (kCorruptOutbound), shrink the
  /// frame (kTruncateOutbound), or latch a stall/drop for the flush path.
  /// Sets `*shutdown_write` when the channel should shut down its write
  /// side after sending what is left.
  void OnOutboundFrame(std::vector<std::byte>* frame, bool* shutdown_write);

  /// Called before each send() of `want` bytes; returns how many the
  /// channel may offer the kernel. 0 means "send nothing" — a latched
  /// kStallOutbound swallows traffic until the next channel rebind.
  size_t CapWrite(size_t want);

  /// Called once per flush; true when the connection should be torn down
  /// (shutdown both directions) right now.
  bool ShouldDropConnection();

  /// True while a kStallOutbound fault is latched: the channel must not
  /// write, and must not advertise pending output to poll().
  bool send_stalled() const { return stalled_; }

  /// Called with each raw inbound read chunk before frame reassembly; may
  /// flip a byte (kCorruptInbound).
  void OnInboundBytes(std::byte* data, size_t size);
  /// Called before the coordinator publishes a relay-ring record toward
  /// this injector's worker; true when the record must carry an invalid
  /// type word (kCorruptRingRecord).
  bool ShouldCorruptRingRecord();

  /// Faults actually fired so far (for test assertions and diagnostics).
  uint64_t fires() const { return fires_; }

  const NetFaultScenario& scenario() const { return scenario_; }

 private:
  bool Armed() const {
    return scenario_.max_fires == 0 || fires_ < scenario_.max_fires;
  }
  /// Picks the byte of an `size`-byte frame to damage; skips the 4-byte
  /// length header unless the frame is all header, so the damage lands in
  /// the type/payload bytes the receiver can actually validate.
  size_t PickOffset(size_t size);

  const NetFaultScenario scenario_;
  std::mt19937_64 rng_;
  uint64_t outbound_seen_ = 0;
  uint64_t inbound_seen_ = 0;
  uint64_t ring_records_seen_ = 0;
  uint64_t fires_ = 0;
  /// Per-link latches, cleared by OnChannelRebind.
  bool stalled_ = false;
  bool drop_pending_ = false;
};

}  // namespace mjoin

#endif  // MJOIN_NET_NET_FAULT_H_
