#ifndef MJOIN_ENGINE_PROCESS_WORKER_H_
#define MJOIN_ENGINE_PROCESS_WORKER_H_

namespace mjoin {

class ShmArena;

/// The worker half of the process backend: runs in a child process forked
/// by a process fleet (a ProcessExecutor's per-query fleet or a
/// WarmProcessFleet), speaking the net/wire.h frame protocol over `fd`
/// (one end of a socketpair; ownership is taken).
///
/// The worker is deliberately single-threaded — one poll loop interleaves
/// frame handling with source pumping — so a fork-without-exec child never
/// touches thread creation (fork-safe under TSan) and its teardown is one
/// _exit(). It receives each plan as textual XRA in a kPlan frame,
/// instantiates the operator instances of its hosted processors, and
/// exchanges batches with the rest of the fleet.
///
/// `arena` is the fleet's ShmArena, inherited through fork so its mapping
/// and doorbells are valid here; per query the worker lays a ShmDataPlane
/// view over it. Data batches, EOS markers, fragments, and result rows
/// travel over the rings while control frames stay on the socket. The
/// child never destroys the arena — _exit() skips destructors, and the
/// kernel drops its reference to the shared mapping.
///
/// Lifecycle: after each query's kShutdown the worker tears down the
/// query's state, acks with kIdle, and parks waiting for the next kPlan;
/// kShutdown received while parked (or EOF) exits it. The batch pool is
/// worker-lifetime, so a warm worker's steady-state queries reuse buffers
/// instead of allocating.
///
/// Returns the exit code for the child to _exit() with: 0 after a clean
/// kShutdown, 1 on any error (a fatal status is reported to the
/// coordinator as a kError frame first whenever the socket still works).
int RunProcessWorker(int fd, ShmArena* arena);

}  // namespace mjoin

#endif  // MJOIN_ENGINE_PROCESS_WORKER_H_
