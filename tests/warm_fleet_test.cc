#include <dirent.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "engine/database.h"
#include "engine/reference.h"
#include "engine/thread_executor.h"
#include "engine/warm_fleet.h"
#include "opt/general_query.h"
#include "plan/wisconsin_query.h"
#include "strategy/strategy.h"

namespace mjoin {
namespace {

// Repeated-run invariants on warm executors: a query served 100 times by
// one long-lived executor must behave like 100 one-shot runs — identical
// results, identical per-run stats (no counter leaking across reuses), no
// net descriptor growth, no silent fleet respawn. Plus the directed
// recovery cases a long-lived fleet flushes out: kill -9 between queries,
// and two fleets reaping strictly their own children.

size_t CountOpenFds() {
  size_t n = 0;
  DIR* dir = opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  while (readdir(dir) != nullptr) ++n;
  closedir(dir);
  return n;
}

struct Fixture {
  Database db;
  JoinQuery query;
  ParallelPlan plan;
  ResultSummary reference;

  static Fixture Make(QueryShape shape, int relations, uint32_t card,
                      uint32_t procs, StrategyKind strategy) {
    Fixture f{MakeWisconsinDatabase(relations, card, /*seed=*/7), {}, {}, {}};
    auto query = MakeWisconsinChainQuery(shape, relations, card);
    EXPECT_TRUE(query.ok());
    f.query = *std::move(query);
    auto plan =
        MakeStrategy(strategy)->Parallelize(f.query, procs, TotalCostModel());
    EXPECT_TRUE(plan.ok()) << plan.status();
    f.plan = *std::move(plan);
    auto ref = ReferenceSummary(f.query, f.db);
    EXPECT_TRUE(ref.ok());
    f.reference = *ref;
    return f;
  }
};

TEST(WarmFleetTest, RepeatedQueryStableStatsAndNoFdGrowth) {
  Fixture f = Fixture::Make(QueryShape::kLeftLinear, /*relations=*/4,
                            /*card=*/400, /*procs=*/6, StrategyKind::kFP);
  auto fleet = WarmProcessFleet::Spawn(&f.db, WarmFleetOptions{});
  ASSERT_TRUE(fleet.ok()) << fleet.status();

  std::vector<pid_t> pids;
  for (uint32_t w = 0; w < (*fleet)->num_workers(); ++w) {
    pids.push_back((*fleet)->worker_pid(w));
  }

  // First run warms the pools and the arena mapping.
  ThreadExecStats first;
  auto warmup = (*fleet)->Execute(f.plan, ProcessExecOptions{}, &first);
  ASSERT_TRUE(warmup.ok()) << warmup.status();
  EXPECT_EQ(warmup->exec.result.cardinality, f.reference.cardinality);
  const size_t fds_warm = CountOpenFds();

  for (int run = 0; run < 100; ++run) {
    ThreadExecStats stats;
    ProcessNetStats net;
    auto result = (*fleet)->Execute(f.plan, ProcessExecOptions{}, &stats, &net);
    ASSERT_TRUE(result.ok()) << "run " << run << ": " << result.status();
    // Identical result every time.
    EXPECT_EQ(result->exec.result.cardinality, f.reference.cardinality);
    EXPECT_EQ(result->exec.result.checksum, f.reference.checksum);
    // Identical per-run counters: a counter that grows run over run is
    // state leaking across executor reuse.
    EXPECT_EQ(stats.batches_sent, first.batches_sent) << "run " << run;
    EXPECT_EQ(stats.batches_processed, first.batches_processed)
        << "run " << run;
    EXPECT_EQ(result->proc.attempts, 1u) << "run " << run;
    // Per-run wire counters, not fleet-lifetime cumulative ones.
    EXPECT_GT(net.frames_sent, 0u);
    EXPECT_LT(net.frames_sent, 10000u) << "cumulative leak across reuse";
  }

  // The fleet never respawned and no descriptor leaked.
  EXPECT_EQ((*fleet)->respawns(), 0u);
  EXPECT_EQ(CountOpenFds(), fds_warm) << "descriptor growth across 100 runs";
  for (uint32_t w = 0; w < (*fleet)->num_workers(); ++w) {
    EXPECT_EQ((*fleet)->worker_pid(w), pids[w]) << "worker " << w;
  }
}

TEST(WarmFleetTest, RepeatedQueryStableMetricsDeltaOnThreadExecutor) {
  Fixture f = Fixture::Make(QueryShape::kWideBushy, /*relations=*/4,
                            /*card=*/300, /*procs=*/6, StrategyKind::kFP);
  ThreadExecutor exec(&f.db);
  MetricsRegistry registry;
  ThreadExecOptions options;
  options.metrics_registry = &registry;

  MetricsSnapshot prev_delta_base = registry.Snapshot();
  MetricsSnapshot first_delta;
  for (int run = 0; run < 100; ++run) {
    auto result = exec.Execute(f.plan, options);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->result.checksum, f.reference.checksum);
    const MetricsSnapshot now = registry.Snapshot();
    const MetricsSnapshot delta = MetricsDelta(prev_delta_base, now);
    prev_delta_base = now;
    // The per-query delta is the same every run even though the registry's
    // cumulative counters keep growing: that is what makes one registry
    // reusable across queries on a warm executor.
    if (run == 0) {
      first_delta = delta;
      EXPECT_GT(delta.counters.at("thread.batches_sent"), 0u);
    } else {
      EXPECT_EQ(delta.counters.at("thread.batches_sent"),
                first_delta.counters.at("thread.batches_sent"))
          << "run " << run;
      EXPECT_EQ(delta.counters.at("thread.batches_processed"),
                first_delta.counters.at("thread.batches_processed"))
          << "run " << run;
    }
  }
}

TEST(WarmFleetTest, SurplusWorkersServeNarrowPlans) {
  // A fixed-size fleet must serve plans narrower than itself: the surplus
  // workers idle through the query but still handshake and park again.
  Fixture f = Fixture::Make(QueryShape::kLeftLinear, /*relations=*/3,
                            /*card=*/200, /*procs=*/2, StrategyKind::kSP);
  WarmFleetOptions options;
  options.num_workers = 6;
  auto fleet = WarmProcessFleet::Spawn(&f.db, options);
  ASSERT_TRUE(fleet.ok()) << fleet.status();
  for (int run = 0; run < 3; ++run) {
    auto result = (*fleet)->Execute(f.plan, ProcessExecOptions{});
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->exec.result.checksum, f.reference.checksum);
  }
  EXPECT_EQ((*fleet)->respawns(), 0u);
}

TEST(WarmFleetTest, RowsWiderThanARingRecordAreRefusedUpFront) {
  // Two relations of 2104-byte rows joined on their key: no row fits one
  // record of a 4 KiB ring (2032 payload bytes). Data never falls back to
  // another path, so both the one-shot executor and the warm fleet must
  // refuse the plan with InvalidArgument before shipping anything — no
  // abort, no hang, no poisoned fleet.
  auto schema = std::make_shared<const Schema>(
      Schema({Column::Int32("k"), Column::FixedString("pad", 2100)}));
  GeneralQuerySpec spec;
  const int a = spec.AddRelation("wide_a", 8, schema);
  const int b = spec.AddRelation("wide_b", 8, schema);
  ASSERT_TRUE(spec.AddEquiJoin(a, 0, b, 0).ok());
  JoinTree tree;
  tree.AddJoin(tree.AddLeaf("wide_a", 8), tree.AddLeaf("wide_b", 8), 8);
  auto query = spec.BindTree(tree);
  ASSERT_TRUE(query.ok()) << query.status();
  Database db;
  for (const char* name : {"wide_a", "wide_b"}) {
    Relation rel(*schema);
    std::vector<std::byte> row(schema->tuple_size());
    for (int32_t k = 0; k < 8; ++k) {
      std::memcpy(row.data() + schema->offset(0), &k, sizeof(k));
      rel.AppendRow(row.data());
    }
    ASSERT_TRUE(db.Add(name, std::move(rel)).ok());
  }
  auto plan =
      MakeStrategy(StrategyKind::kFP)->Parallelize(*query, 4, TotalCostModel());
  ASSERT_TRUE(plan.ok()) << plan.status();

  ProcessExecOptions options;
  options.shm_ring_bytes = 4096;
  ProcessExecutor one_shot(&db);
  auto refused = one_shot.Execute(*plan, options);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument)
      << refused.status();

  WarmFleetOptions fleet_options;
  fleet_options.num_workers = 2;
  fleet_options.shm_ring_bytes = 4096;
  auto fleet = WarmProcessFleet::Spawn(&db, fleet_options);
  ASSERT_TRUE(fleet.ok()) << fleet.status();
  const pid_t pid = (*fleet)->worker_pid(0);
  auto warm = (*fleet)->Execute(*plan, options);
  ASSERT_FALSE(warm.ok());
  EXPECT_EQ(warm.status().code(), StatusCode::kInvalidArgument)
      << warm.status();
  EXPECT_EQ((*fleet)->respawns(), 0u);
  EXPECT_EQ((*fleet)->worker_pid(0), pid);

  // The thread backend has no ring, so the same plan runs there.
  auto reference = ReferenceSummary(*query, db);
  ASSERT_TRUE(reference.ok());
  auto threads = ThreadExecutor(&db).Execute(*plan, ThreadExecOptions{});
  ASSERT_TRUE(threads.ok()) << threads.status();
  EXPECT_EQ(threads->result, *reference);
}

TEST(WarmFleetTest, KillNineBetweenQueriesRespawnsAndSucceeds) {
  Fixture f = Fixture::Make(QueryShape::kLeftLinear, /*relations=*/4,
                            /*card=*/300, /*procs=*/4, StrategyKind::kFP);
  auto fleet = WarmProcessFleet::Spawn(&f.db, WarmFleetOptions{});
  ASSERT_TRUE(fleet.ok()) << fleet.status();

  ProcessExecOptions options;
  options.max_retries = 1;
  auto before = (*fleet)->Execute(f.plan, options);
  ASSERT_TRUE(before.ok()) << before.status();

  // Chaos: kill -9 a parked warm worker between queries. The next query
  // must notice the dead member, respawn the fleet, and succeed.
  std::mt19937 rng(1995);
  uint64_t kills = 0;
  for (int round = 0; round < 6; ++round) {
    if (round % 2 == 0) {
      const uint32_t victim = rng() % (*fleet)->num_workers();
      ASSERT_EQ(kill((*fleet)->worker_pid(victim), SIGKILL), 0);
      ++kills;
    }
    auto result = (*fleet)->Execute(f.plan, options);
    ASSERT_TRUE(result.ok()) << "round " << round << ": " << result.status();
    EXPECT_EQ(result->exec.result.checksum, f.reference.checksum);
  }
  EXPECT_GE((*fleet)->respawns(), kills) << "dead workers went unnoticed";
}

TEST(WarmFleetTest, FleetsReapOnlyTheirOwnChildren) {
  // Two fleets side by side: killing a worker of fleet A while fleet B is
  // mid-query must not disturb B (a waitpid(-1) in A's recovery would
  // steal B's exit notifications and corrupt B's supervision).
  Fixture fa = Fixture::Make(QueryShape::kLeftLinear, /*relations=*/4,
                             /*card=*/300, /*procs=*/4, StrategyKind::kFP);
  Fixture fb = Fixture::Make(QueryShape::kWideBushy, /*relations=*/4,
                             /*card=*/300, /*procs=*/4, StrategyKind::kRD);
  auto fleet_a = WarmProcessFleet::Spawn(&fa.db, WarmFleetOptions{});
  auto fleet_b = WarmProcessFleet::Spawn(&fb.db, WarmFleetOptions{});
  ASSERT_TRUE(fleet_a.ok() && fleet_b.ok());

  std::atomic<bool> b_done{false};
  std::atomic<int> b_failures{0};
  std::thread b_loop([&] {
    ProcessExecOptions options;
    for (int run = 0; run < 12; ++run) {
      auto result = (*fleet_b)->Execute(fb.plan, options);
      if (!result.ok() ||
          result->exec.result.checksum != fb.reference.checksum) {
        ++b_failures;
      }
    }
    b_done = true;
  });

  // While B churns, repeatedly kill an A worker and recover A.
  ProcessExecOptions recover;
  recover.max_retries = 1;
  int a_rounds = 0;
  while (!b_done.load() && a_rounds < 50) {
    ASSERT_EQ(kill((*fleet_a)->worker_pid(0), SIGKILL), 0);
    auto result = (*fleet_a)->Execute(fa.plan, recover);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->exec.result.checksum, fa.reference.checksum);
    ++a_rounds;
  }
  b_loop.join();

  EXPECT_GT(a_rounds, 0);
  EXPECT_EQ(b_failures.load(), 0)
      << "fleet A's recovery disturbed fleet B's query";
  EXPECT_EQ((*fleet_b)->respawns(), 0u)
      << "fleet B respawned: its children were reaped out from under it";
}

}  // namespace
}  // namespace mjoin
