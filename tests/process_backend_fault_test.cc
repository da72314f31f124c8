#include <dirent.h>
#include <signal.h>
#include <sys/wait.h>

#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/database.h"
#include "engine/fault_injector.h"
#include "engine/process_executor.h"
#include "plan/wisconsin_query.h"
#include "strategy/strategy.h"

namespace mjoin {
namespace {

// Failure-model tests for the process backend: a dead worker must surface
// as a clean kUnavailable with the fleet fully reaped (no zombies) and
// every socket closed (no fd leak), and the coordinator-enforced aborts
// (budget, cancellation, deadline, injected faults) must return the same
// status codes as the thread backend.

class ProcessBackendFaultTest : public testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>(
        MakeWisconsinDatabase(/*relations=*/5, /*cardinality=*/400,
                              /*seed=*/7));
    auto query = MakeWisconsinChainQuery(QueryShape::kLeftLinear, 5, 400);
    ASSERT_TRUE(query.ok());
    auto plan = MakeStrategy(StrategyKind::kFP)
                    ->Parallelize(*query, /*processors=*/8, TotalCostModel());
    ASSERT_TRUE(plan.ok()) << plan.status();
    plan_ = std::make_unique<ParallelPlan>(*std::move(plan));
  }

  static size_t CountOpenFds() {
    size_t count = 0;
    DIR* dir = opendir("/proc/self/fd");
    if (dir == nullptr) return 0;
    while (readdir(dir) != nullptr) ++count;
    closedir(dir);
    return count;
  }

  // True while `pid` exists at all — including as an unreaped zombie, which
  // kill(pid, 0) still reaches. ESRCH therefore means "fully reaped".
  static bool ProcessExists(pid_t pid) {
    return kill(pid, 0) == 0 || errno != ESRCH;
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<ParallelPlan> plan_;
};

TEST_F(ProcessBackendFaultTest, KilledWorkerYieldsUnavailableNoZombiesNoFds) {
  const size_t fds_before = CountOpenFds();

  std::vector<pid_t> pids;
  ProcessExecOptions options;
  options.num_workers = 4;
  options.worker_observer = [&pids](uint32_t worker, pid_t pid) {
    pids.push_back(pid);
    // Kill the last worker the moment it exists: the coordinator finds the
    // corpse during the handshake and must abort the whole run.
    if (worker == 3) kill(pid, SIGKILL);
  };

  ProcessExecutor executor(db_.get());
  auto run = executor.Execute(*plan_, options);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kUnavailable)
      << run.status();
  EXPECT_NE(run.status().message().find("killed by signal"),
            std::string::npos)
      << run.status();

  ASSERT_EQ(pids.size(), 4u);
  for (pid_t pid : pids) {
    EXPECT_FALSE(ProcessExists(pid)) << "worker pid " << pid
                                     << " survived or was left a zombie";
  }
  // Also via wait(): no reapable children may remain anywhere.
  EXPECT_EQ(waitpid(-1, nullptr, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
  EXPECT_EQ(CountOpenFds(), fds_before) << "leaked descriptors";
}

TEST_F(ProcessBackendFaultTest, KilledWorkerMidQueryYieldsUnavailable) {
  // Stretch the run far past the kill delay: every message on every worker
  // sleeps 20ms, and batch_size 1 multiplies the message count, so the
  // query takes many seconds unless aborted.
  FaultScenario scenario;
  scenario.kind = FaultKind::kSlowWorker;
  scenario.node = 0;
  scenario.delay = std::chrono::microseconds(20000);
  FaultInjector injector(scenario);

  std::vector<pid_t> pids;
  ProcessExecOptions options;
  options.num_workers = 4;
  options.exec.batch_size = 1;
  options.exec.fault_injector = &injector;

  std::thread killer;
  options.worker_observer = [&pids, &killer](uint32_t worker, pid_t pid) {
    pids.push_back(pid);
    if (worker == 3) {
      killer = std::thread([pid] {
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
        kill(pid, SIGKILL);
      });
    }
  };

  ProcessExecutor executor(db_.get());
  auto run = executor.Execute(*plan_, options);
  killer.join();
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kUnavailable)
      << run.status();
  for (pid_t pid : pids) EXPECT_FALSE(ProcessExists(pid));
}

TEST_F(ProcessBackendFaultTest, PartialStatsSurviveAnAbort) {
  std::vector<pid_t> pids;
  ProcessExecOptions options;
  options.num_workers = 2;
  options.worker_observer = [&pids](uint32_t worker, pid_t pid) {
    pids.push_back(pid);
    if (worker == 1) kill(pid, SIGKILL);
  };

  ThreadExecStats stats;
  ProcessNetStats net;
  ProcessExecutor executor(db_.get());
  auto run = executor.Execute(*plan_, options, &stats, &net);
  ASSERT_FALSE(run.ok());
  // The coordinator's own socket counters survive even though the run
  // died: the plan envelope at least went out to worker 0.
  EXPECT_EQ(net.num_workers, 2u);
  EXPECT_GT(net.bytes_sent, 0u);
  EXPECT_GT(net.frames_sent, 0u);
}

TEST_F(ProcessBackendFaultTest, TinyMemoryBudgetAbortsResourceExhausted) {
  ProcessExecOptions options;
  options.num_workers = 2;
  options.exec.memory_budget_bytes = 1;  // no hash table fits

  ProcessExecutor executor(db_.get());
  auto run = executor.Execute(*plan_, options);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted)
      << run.status();
  EXPECT_EQ(waitpid(-1, nullptr, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

TEST_F(ProcessBackendFaultTest, PreCancelledTokenAbortsCancelled) {
  ProcessExecOptions options;
  options.num_workers = 2;
  options.exec.cancellation.Cancel();

  ProcessExecutor executor(db_.get());
  auto run = executor.Execute(*plan_, options);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kCancelled) << run.status();
  EXPECT_EQ(waitpid(-1, nullptr, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

TEST_F(ProcessBackendFaultTest, DeadlineAbortsDeadlineExceeded) {
  // Slow every worker message down so the 30ms deadline cannot be met.
  FaultScenario scenario;
  scenario.kind = FaultKind::kSlowWorker;
  scenario.node = 0;
  scenario.delay = std::chrono::microseconds(20000);
  FaultInjector injector(scenario);

  ProcessExecOptions options;
  options.num_workers = 2;
  options.exec.batch_size = 1;
  options.exec.fault_injector = &injector;
  options.exec.deadline = std::chrono::milliseconds(30);

  ProcessExecutor executor(db_.get());
  auto run = executor.Execute(*plan_, options);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kDeadlineExceeded)
      << run.status();
  EXPECT_EQ(waitpid(-1, nullptr, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

TEST_F(ProcessBackendFaultTest, InjectedOperatorFailureAbortsInternal) {
  // op=-1: the first Consume() anywhere in the fleet fails, as a crashed
  // operation process would; the scenario rides the handshake so the hook
  // fires worker-side.
  FaultScenario scenario;
  scenario.kind = FaultKind::kFailOperator;
  scenario.op = -1;
  scenario.after_batches = 0;
  FaultInjector injector(scenario);

  ProcessExecOptions options;
  options.num_workers = 3;
  options.exec.fault_injector = &injector;

  ProcessExecutor executor(db_.get());
  auto run = executor.Execute(*plan_, options);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInternal) << run.status();
  EXPECT_NE(run.status().message().find("injected fault"),
            std::string::npos)
      << run.status();
  EXPECT_EQ(waitpid(-1, nullptr, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

TEST_F(ProcessBackendFaultTest, ShmPlaneTimersRunWithMetricsOff) {
  // Regression: serialize/deserialize_seconds came back 0.0 whenever
  // collect_metrics was off (the timers were gated on the observe flag),
  // which is exactly how benchmarks run. Bytes shipped over the rings
  // must imply nonzero ring-copy time regardless of the observability
  // knobs.
  ProcessExecOptions options;
  options.num_workers = 3;
  options.exec.collect_metrics = false;
  options.exec.materialize_result = false;

  ProcessNetStats net;
  ProcessExecutor executor(db_.get());
  auto run = executor.Execute(*plan_, options, nullptr, &net);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_GT(net.shm_rings, 0u);
  ASSERT_GT(net.shm_bytes_sent, 0u);
  EXPECT_GT(net.serialize_seconds, 0.0);
  EXPECT_GT(net.deserialize_seconds, 0.0);
}

TEST_F(ProcessBackendFaultTest, FullRingsReportAPeakQueueDepth) {
  // One-row batches on 4 KiB rings outrun the consumers: producers park
  // records in their ring backlogs, which are the process backend's
  // queues. A run that stalled on a full ring must report a nonzero peak
  // queue depth, as the thread backend does for its batch queues. 2000-row
  // relations keep the worker-to-worker traffic far above one ring's
  // worth, so the stalls are the workers' and not only the coordinator's.
  Database db = MakeWisconsinDatabase(/*relations=*/5, /*cardinality=*/2000,
                                      /*seed=*/7);
  auto query = MakeWisconsinChainQuery(QueryShape::kLeftLinear, 5, 2000);
  ASSERT_TRUE(query.ok());
  auto plan = MakeStrategy(StrategyKind::kFP)
                  ->Parallelize(*query, /*processors=*/8, TotalCostModel());
  ASSERT_TRUE(plan.ok()) << plan.status();

  ProcessExecOptions options;
  options.num_workers = 4;
  options.shm_ring_bytes = 4096;
  options.exec.batch_size = 1;

  ThreadExecStats stats;
  ProcessNetStats net;
  ProcessExecutor executor(&db);
  auto run = executor.Execute(*plan, options, &stats, &net);
  ASSERT_TRUE(run.ok()) << run.status();
  ASSERT_GT(net.ring_full_stalls, 0u) << "no ring ever filled";
  EXPECT_GT(stats.peak_queue_depth, 0u);
  EXPECT_EQ(run->exec.stats.peak_queue_depth, stats.peak_queue_depth);
}

TEST_F(ProcessBackendFaultTest, RepeatedRunsLeakNoDescriptors) {
  const size_t fds_before = CountOpenFds();
  ProcessExecutor executor(db_.get());
  for (int i = 0; i < 3; ++i) {
    ProcessExecOptions options;
    options.num_workers = 3;
    auto run = executor.Execute(*plan_, options);
    ASSERT_TRUE(run.ok()) << run.status();
    EXPECT_GT(run->exec.result.cardinality, 0u);
  }
  EXPECT_EQ(CountOpenFds(), fds_before);
  EXPECT_EQ(waitpid(-1, nullptr, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

}  // namespace
}  // namespace mjoin
