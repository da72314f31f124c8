#ifndef MJOIN_SERVE_SERVER_H_
#define MJOIN_SERVE_SERVER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/metrics.h"
#include "common/statusor.h"
#include "engine/warm_fleet.h"
#include "serve/plan_cache.h"
#include "serve/serve_protocol.h"

namespace mjoin {

class Database;

/// Configuration of one MjoinServer.
struct MjoinServeOptions {
  /// AF_UNIX socket path to listen on. A stale file at the path is
  /// unlinked before bind; the path is unlinked again at shutdown.
  std::string socket_path;
  /// Query-execution threads. Each runs one admitted query at a time, so
  /// this is the server's concurrency level for thread-backend queries
  /// (process-backend queries additionally serialize on the warm fleet).
  uint32_t exec_threads = 2;
  /// Global admission budget: the sum of admitted queries' declared
  /// memory budgets never exceeds this. Queries wait (FIFO per tenant)
  /// for headroom; a query that cannot ever fit is rejected outright.
  uint64_t admission_budget_bytes = 1ull << 30;
  /// Admission charge for a query that declares no budget of its own.
  uint64_t default_query_bytes = 64ull << 20;
  size_t plan_cache_capacity = 64;
  /// Spawn a warm process-worker fleet at startup and accept
  /// ServeBackend::kProcess submits. Off = process submits are rejected
  /// with FailedPrecondition (the thread backend still serves).
  bool enable_process_backend = true;
  /// Shape of the warm fleet (ignored unless enable_process_backend).
  WarmFleetOptions fleet;
  /// Test hook: overrides the plan cache's hash function (see PlanCache).
  std::function<uint64_t(const std::string&)> plan_cache_hash;
};

/// A long-lived multi-tenant query service over the frame protocol: warm
/// executors (a shared ThreadExecutor with executor-lifetime batch pools, a
/// pre-forked WarmProcessFleet), a plan cache, admission control against a
/// global memory budget, per-query deadlines and disconnect cancellation,
/// and FIFO-per-tenant fair scheduling.
///
/// Wire contract: clients connect to the AF_UNIX socket and send kSubmit
/// frames (SubmitMsg); the server answers each with one kQueryResult
/// frame (QueryResultMsg) carrying the submit's client_seq. A connection
/// may pipeline any number of submits; results return as queries finish,
/// in any order. Closing the connection cancels its queued and running
/// queries.
///
/// Threading: one IO thread owns every connection (accept, frame
/// reassembly, result writes); `exec_threads` workers pull admitted
/// queries from the fair scheduler and run them on the warm executors.
/// Shutdown() (also run by the destructor) drains running queries, fails
/// queued ones with Unavailable, parks and reaps the fleet, and unlinks
/// the socket — nothing outlives the object.
class MjoinServer {
 public:
  /// Spawns the fleet (before the listen socket, so workers never inherit
  /// it), binds the socket, and starts the IO and exec threads.
  [[nodiscard]] static StatusOr<std::unique_ptr<MjoinServer>> Start(
      const Database* database, MjoinServeOptions options);

  ~MjoinServer();
  MjoinServer(const MjoinServer&) = delete;
  MjoinServer& operator=(const MjoinServer&) = delete;

  /// Idempotent graceful stop; see the class comment for the order.
  void Shutdown();

  const std::string& socket_path() const;

  /// The server's own metrics ("serve." family plus whatever the backends
  /// publish). Live — counters move while queries run.
  MetricsRegistry* metrics();

  PlanCacheStats plan_cache_stats() const;

  /// The warm fleet (nullptr when the process backend is disabled). Test
  /// hook — used to assert respawn behavior under chaos.
  WarmProcessFleet* fleet();

 private:
  MjoinServer();

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace mjoin

#endif  // MJOIN_SERVE_SERVER_H_
