#ifndef MJOIN_ENGINE_WARM_FLEET_H_
#define MJOIN_ENGINE_WARM_FLEET_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>

#include "engine/process_executor.h"

namespace mjoin {

/// Knobs of a warm fleet, fixed at Spawn() time for the fleet's whole
/// lifetime (queries executed on it inherit them; the per-query
/// ProcessExecOptions fields shm_ring_bytes/num_workers are ignored in
/// favor of these).
struct WarmFleetOptions {
  /// Fixed fleet size. Plans with fewer processors than workers leave the
  /// surplus workers idle for that query (they still handshake and report),
  /// so one fleet serves any plan shape.
  uint32_t num_workers = 4;
  /// Data bytes per ring. Spawn maps one fleet-lifetime shm arena; each
  /// query lays its ring directory over it (ShmDataPlane::CreateInArena).
  /// Power of two >= 4096. The arena is sized for the worst-case directory
  /// of num_workers, so any plan's directory fits.
  uint32_t shm_ring_bytes = 1u << 18;
};

/// A pre-forked, long-lived worker-process fleet that executes queries
/// without paying the per-query fork + mmap cost of ProcessExecutor. Both
/// run the same attempt path; only the fleet's lifetime differs. After
/// each query the workers tear down its state, ack kIdle, and park waiting
/// for the next kPlan. The shm arena (mapping + doorbells) is created
/// once, pre-fork, sized for any plan's directory, and reused by every
/// query.
///
/// Execute() is serialized by an internal mutex — one query at a time per
/// fleet (callers wanting concurrency run several fleets). Any failed run
/// poisons the fleet (its workers may be mid-query and unable to accept a
/// new plan); the next Execute() — or the retry loop inside the current
/// one — kills and reaps the old fleet, respawns a fresh one, and re-runs.
/// The destructor shuts the fleet down gracefully (kShutdown to parked
/// workers) and reaps every child; like ProcessExecutor, no process or
/// descriptor outlives the object.
class WarmProcessFleet {
 public:
  /// Forks the fleet (and maps the arena) immediately. `database` must
  /// outlive the fleet.
  [[nodiscard]] static StatusOr<std::unique_ptr<WarmProcessFleet>> Spawn(
      const Database* database, const WarmFleetOptions& options);

  ~WarmProcessFleet();
  WarmProcessFleet(const WarmProcessFleet&) = delete;
  WarmProcessFleet& operator=(const WarmProcessFleet&) = delete;

  /// Runs `plan` on the warm fleet. Semantics match
  /// ProcessExecutor::Execute (same result shape, retry policy, failure
  /// diagnoses, degrade_to_thread) except that options.num_workers and
  /// options.shm_ring_bytes are overridden
  /// by the fleet's own spawn-time configuration, and the fleet outlives
  /// the query.
  [[nodiscard]] StatusOr<ProcessQueryResult> Execute(
      const ParallelPlan& plan, const ProcessExecOptions& options,
      ThreadExecStats* stats_out = nullptr, ProcessNetStats* net_out = nullptr,
      ProcessExecStats* proc_out = nullptr);

  uint32_t num_workers() const;
  /// Current pid of worker `w` (changes after a respawn). Test hook.
  pid_t worker_pid(uint32_t w) const;
  /// Fleets spawned beyond the first — each one replaced a poisoned fleet.
  uint64_t respawns() const;

 private:
  WarmProcessFleet();

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace mjoin

#endif  // MJOIN_ENGINE_WARM_FLEET_H_
