#ifndef MJOIN_NET_FRAME_TABLE_H_
#define MJOIN_NET_FRAME_TABLE_H_

#include <cstdint>

/// The single source of truth for the frame protocol's type table.
///
/// Every wire frame is one row of MJOIN_FRAME_TABLE. The row drives, from
/// this one definition site:
///
///   - the FrameType enum itself (net/wire.h),
///   - FrameTypeName() and ValidFrameType() (net/wire.cc),
///   - the per-frame direction and protocol-phase metadata consumed by the
///     runtime conformance checker (net/frame_conformance.{h,cc}),
///   - the MJOIN_FRAME_CASES(...) case-label generators that give frame
///     handlers their "frames that never arrive here" switch arms, so a
///     new frame type extends every handler's -Wswitch coverage without
///     any hand-maintained enumeration,
///   - tools/mjoin_lint.py's exhaustive-switch check, which parses this
///     table (not the generated enum) for the member list and the
///     MJOIN_FRAME_CASES expansions.
///
/// Adding a frame means adding one row here; the compiler (-Wswitch on the
/// handler switches) and the lint then point at every site that must make
/// a routing decision for it.
///
/// Row shape:
///
///   X(id, Name, "wire-name", KLASS, dirs, phases, next)
///
///   id      the FrameType wire value (never reuse a retired id; 3, 5, 6,
///           8 and 11 belonged to the retired socket data plane's
///           Fragment, Data, Eos, Credit and ResultRows frames)
///   Name    enum member name without the leading k
///   KLASS   routing class, a single token used by the case-label
///           filters: CW (coordinator->worker), WC (worker->coordinator),
///           SERVE (serve-layer client<->server). A
///           frame's class is where it is *handled*; `dirs` below is the
///           full set of legal wire directions (kBye is class WC but also
///           travels client->server on serve links).
///   dirs    bitmask of legal travel directions (FrameDir)
///   phases  bitmask of link phases the frame may be observed in
///           (FramePhase); the conformance checker enforces this per
///           connection in both directions
///   next    link phase the frame advances the connection to, or Keep
namespace mjoin {

/// Conformance phases of one coordinator<->worker link (a serve link sits
/// permanently in kPhServe). A link starts in kPhAwaitPlan; table `next`
/// entries advance it. Warm fleets loop: kIdle returns the link to
/// kPhAwaitPlan for the next query's kPlan.
enum FramePhase : uint32_t {
  kPhAwaitPlan = 1u << 0,  // parked; no query in flight
  kPhHandshake = 1u << 1,  // kPlan shipped, kHello not yet observed
  kPhExecute = 1u << 2,    // triggers/milestones flowing
  kPhReport = 1u << 3,     // kFinish observed; stats and results inbound
  kPhDone = 1u << 4,       // kShutdown observed
  kPhServe = 1u << 5,      // serve-layer client connection
};

/// Phase-transition sentinel: the frame leaves the link's phase alone.
inline constexpr uint32_t kPhKeep = 0;

/// Every worker-link phase; heartbeats and shutdown are legal throughout.
inline constexpr uint32_t kPhAnyWorker =
    kPhAwaitPlan | kPhHandshake | kPhExecute | kPhReport | kPhDone;

/// Legal travel directions of a frame, independent of where it is handled.
enum FrameDir : uint32_t {
  kDirToWorker = 1u << 0,       // coordinator -> worker
  kDirToCoordinator = 1u << 1,  // worker -> coordinator
  kDirToServer = 1u << 2,       // serve client -> server
  kDirToClient = 1u << 3,       // serve server -> client
};

// clang-format off
#define MJOIN_FRAME_TABLE(X)                                                   \
  /* worker -> coordinator: protocol version + echo hash of the plan text   */ \
  /* the worker parsed (the coordinator verifies the handshake round trip)  */ \
  /* plus the shm ring-directory hash the worker derived from its parse.    */ \
  X(1, Hello, "hello", WC, kDirToCoordinator, kPhHandshake, Execute)           \
  /* coordinator -> worker: run options + the plan in textual XRA.          */ \
  X(2, Plan, "plan", CW, kDirToWorker, kPhAwaitPlan, Handshake)                \
  /* coordinator -> worker: start every hosted instance of a trigger group. */ \
  X(4, Trigger, "trigger", CW, kDirToWorker,                                   \
    kPhHandshake | kPhExecute, Keep)                                           \
  /* worker -> coordinator: instance milestone for the scheduler.           */ \
  X(7, Milestone, "milestone", WC, kDirToCoordinator,                          \
    kPhExecute | kPhReport, Keep)                                              \
  /* coordinator -> worker: the plan completed; report results and stats.   */ \
  X(9, Finish, "finish", CW, kDirToWorker, kPhExecute, Report)                 \
  /* worker -> coordinator: partial ResultSummary of a stored result.       */ \
  X(10, Summary, "summary", WC, kDirToCoordinator, kPhReport, Keep)            \
  /* worker -> coordinator: merged OpMetrics of one hosted op.              */ \
  X(12, OpStats, "op-stats", WC, kDirToCoordinator, kPhReport, Keep)           \
  /* worker -> coordinator: the worker's run counters (serialize seconds,   */ \
  /* local deliveries, faults injected, peak memory, ...).                  */ \
  X(13, NetStats, "net-stats", WC, kDirToCoordinator, kPhReport, Keep)         \
  /* worker -> coordinator: recorded trace intervals.                       */ \
  X(14, TraceEvents, "trace-events", WC, kDirToCoordinator, kPhReport, Keep)   \
  /* worker -> coordinator: fatal worker-side status; the run aborts. Legal */ \
  /* from the moment the worker has a plan to fail (kPhHandshake on).       */ \
  X(15, Error, "error", WC, kDirToCoordinator,                                 \
    kPhHandshake | kPhExecute | kPhReport, Keep)                               \
  /* worker -> coordinator: finish-phase reporting done, awaiting shutdown. */ \
  /* Also serve client -> server: connection close notice.                  */ \
  X(16, Bye, "bye", WC, kDirToCoordinator | kDirToServer,                      \
    kPhReport | kPhServe, Keep)                                                \
  /* coordinator -> worker: exit cleanly. Legal in every phase: teardown    */ \
  /* and abort paths may shut a link down at any point in its life.         */ \
  X(17, Shutdown, "shutdown", CW, kDirToWorker, kPhAnyWorker, Done)            \
  /* coordinator -> worker: liveness probe (HeartbeatMsg). A worker answers */ \
  /* every ping with a kPong immediately; the coordinator's watchdog treats */ \
  /* prolonged silence as a hung worker.                                    */ \
  X(18, Ping, "ping", CW, kDirToWorker, kPhAnyWorker, Keep)                    \
  /* worker -> coordinator: echo of a kPing's sequence number.              */ \
  X(19, Pong, "pong", WC, kDirToCoordinator, kPhAnyWorker, Keep)               \
  /* client -> server (mjoin_serve): submit one query (SubmitMsg — tenant,  */ \
  /* backend, plan text, per-query limits). A connection may pipeline       */ \
  /* submits; results come back in completion order, matched by client_seq. */ \
  X(20, Submit, "submit", SERVE, kDirToServer, kPhServe, Keep)                 \
  /* server -> client: outcome of one kSubmit (QueryResultMsg — status,     */ \
  /* result summary, wall/queue seconds, cache/backend provenance).         */ \
  X(21, QueryResult, "query-result", SERVE, kDirToClient, kPhServe, Keep)      \
  /* worker -> coordinator: the worker tore down the previous query's      */ \
  /* state and is parked waiting for the next kPlan.                        */ \
  /* It answers the end-of-query kShutdown, so it is observed in kPhDone;   */ \
  /* it returns the link to kPhAwaitPlan for the next query.                */ \
  X(22, Idle, "idle", WC, kDirToCoordinator, kPhDone, AwaitPlan)               \
  /* worker -> coordinator: one defended join instance's build-side skew    */ \
  /* summary (SkewReportMsg — heavy-hitter candidates with their build rows */ \
  /* inline, plus the instance's build-key Bloom filter).                   */ \
  X(23, SkewReport, "skew-report", WC, kDirToCoordinator, kPhExecute, Keep)    \
  /* coordinator -> worker: the merged plan of action for one defended join */ \
  /* (SkewDirectiveMsg — hot keys, replicated build rows, OR'd Bloom).      */ \
  /* kPhHandshake: the directive is broadcast to every host of the join,    */ \
  /* including (on a respawned fleet) one whose kHello is still in flight.  */ \
  X(24, SkewDirective, "skew-directive", CW, kDirToWorker,                     \
    kPhHandshake | kPhExecute, Keep)
// clang-format on

/// MJOIN_FRAME_CASES(sel): case labels for every table row the selector
/// matches, for the "frames that never legitimately arrive here" arm of a
/// handler switch. Selectors:
///
///   NOT_CW   everything a worker never receives (classes WC and SERVE)
///   NOT_WC   everything a coordinator never receives (classes CW, SERVE)
///
/// The arm stays `default:`-free, so -Wswitch (and mjoin_lint, which
/// expands these selectors from the table) still flags any new frame type
/// that no handler has made a routing decision for.
#define MJOIN_FRAME_SEL_NOT_CW_CW(name)
#define MJOIN_FRAME_SEL_NOT_CW_WC(name) case ::mjoin::FrameType::k##name:
#define MJOIN_FRAME_SEL_NOT_CW_SERVE(name) case ::mjoin::FrameType::k##name:
#define MJOIN_FRAME_SEL_NOT_WC_CW(name) case ::mjoin::FrameType::k##name:
#define MJOIN_FRAME_SEL_NOT_WC_WC(name)
#define MJOIN_FRAME_SEL_NOT_WC_SERVE(name) case ::mjoin::FrameType::k##name:

#define MJOIN_FRAME_ROW_NOT_CW(id, name, wire, klass, dirs, phases, next) \
  MJOIN_FRAME_SEL_NOT_CW_##klass(name)
#define MJOIN_FRAME_ROW_NOT_WC(id, name, wire, klass, dirs, phases, next) \
  MJOIN_FRAME_SEL_NOT_WC_##klass(name)

#define MJOIN_FRAME_CASES(sel) MJOIN_FRAME_TABLE(MJOIN_FRAME_ROW_##sel)

}  // namespace mjoin

#endif  // MJOIN_NET_FRAME_TABLE_H_
