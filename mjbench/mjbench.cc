// mjbench: the repository's single benchmark.
//
//   mjbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--out-dir DIR] [--commit SHA]
//
// One workload runs from one seed: the seed drives data generation. Every
// result is checked against the single-threaded reference (served results
// through their checksum).
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separate run records a span around every call into an engine layer and
// reports the per-layer metrics, writing the spans (Chrome trace_event
// JSON) and a per-layer self-time table to --out-dir.
//
// Every workload runs the same phases over its own data and plan deck, so
// every metric exists on every workload. Rounds repeat for --seconds, each
// with timed set-ups, one pass of the deck per backend and two of serving:
//   setup     data, plans and a server with its fleet, built and torn down
//   process   each plan on a one-shot ProcessExecutor (fork per query)
//   thread    each plan on one warm ThreadExecutor
//   sim       each plan on SimExecutor
//   serve     an in-process MjoinServer with its warm fleet: one client
//             sending the deck one plan at a time, then kTenants clients
//             sharing one pass of the deck
// The workloads differ in what dominates: chain_oneshot (42 MB of 1:1
// Wisconsin data) is join kernels and ring copies, skew_mn (Zipf m:n data,
// skew defense on) is duplicate-key probing and the skew layer.
// mjbench/WORKLOADS.md defines every metric.
#include <malloc.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/utsname.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "engine/database.h"
#include "engine/process_executor.h"
#include "engine/reference.h"
#include "engine/sim_executor.h"
#include "engine/thread_executor.h"
#include "plan/wisconsin_query.h"
#include "serve/client.h"
#include "serve/server.h"
#include "storage/partitioner.h"
#include "strategy/strategy.h"
#include "trace.h"
#include "workload/workload.h"
#include "xra/text.h"

namespace mjbench {
namespace {

using mjoin::Database;
using mjoin::JoinQuery;
using mjoin::ParallelPlan;
using mjoin::QueryShape;
using mjoin::ResultSummary;
using mjoin::StrategyKind;

// Processors per deck plan: this host's nproc, and the smallest count FP
// accepts for a five-relation chain (four joins).
constexpr uint32_t kProcessors = 4;
// Timed set-ups before each pass of every round, besides the one the run
// keeps; setup_s rests on samples spread over the whole run.
constexpr int kSetupsPerPass = 2;
// The fewest measured rounds: each plan's median needs three walls.
constexpr int kMinRounds = 3;
// Concurrent clients of the capacity pass; also the server's exec threads.
constexpr int kTenants = 4;

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Sample statistics.

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

// ---------------------------------------------------------------------------
// Workloads.

struct WorkloadDef {
  std::string name;
  int relations = 5;
  uint32_t cardinality = 1000;
  /// Generate the adversarial preset (Zipf 1, m:n fanout 4) instead of the
  /// paper's 1:1 Wisconsin relations.
  bool adversarial = false;
  std::vector<QueryShape> shapes;
  /// Chain lengths of the deck's queries (relations joined).
  std::vector<int> lengths;
  std::vector<uint32_t> processors;
  /// Processors of the simulated machine; 0 simulates the deck's plans.
  uint32_t sim_processors = 0;
  bool skew_defense = false;
};

std::vector<WorkloadDef> Workloads() {
  const std::vector<QueryShape> all(std::begin(mjoin::kAllShapes),
                                    std::end(mjoin::kAllShapes));
  WorkloadDef chain;
  chain.name = "chain_oneshot";
  chain.relations = 5;
  chain.cardinality = 40000;
  chain.shapes = all;
  chain.lengths = {5};
  chain.processors = {kProcessors};
  chain.sim_processors = 40;

  WorkloadDef skew;
  skew.name = "skew_mn";
  skew.relations = 4;
  skew.cardinality = 2000;
  skew.adversarial = true;
  skew.shapes = {QueryShape::kRightLinear, QueryShape::kRightOrientedBushy};
  skew.lengths = {4};
  skew.processors = {kProcessors};
  skew.skew_defense = true;
  return {chain, skew};
}

// ---------------------------------------------------------------------------
// Set-up: data, deck and server.

struct DeckPlan {
  std::string label;
  size_t query = 0;  // index into Setup::queries
  ParallelPlan plan;
  std::string text;
  /// The plan the simulator runs, when it has its own processor count.
  std::optional<ParallelPlan> sim_plan;
};

struct Setup {
  std::unique_ptr<Database> db;
  std::vector<JoinQuery> queries;
  std::vector<DeckPlan> deck;
  std::unique_ptr<mjoin::MjoinServer> server;
};

// The wall of one set-up's parts: data, plans (parallelize, serialize,
// parse) and the server with its fleet.
struct SetupTimes {
  std::vector<double> data_s, plans_s, server_s;
};

// The m:n chain's result is dominated by a few coincidences among hot
// keys, whose counts are small: drawn from different seeds, the same spec
// gives results that differ threefold in size, and which worker the few
// hot keys hash to swings the load as much again. So the skewed data is
// drawn once, from the spec's fixed seed, and the run seed relabels its
// matchable key values with one permutation across every relation and
// both join columns. The permutation only swaps values whose hashes agree
// modulo 12, so every key stays on its fragment for 1 to 4 (and 6 and 12)
// fragments: each seed does the same work with the same balance, while the
// key values and their hash-table slots change.
Database RelabelKeys(const Database& db, const mjoin::WorkloadSpec& spec,
                     uint64_t seed) {
  mjoin::Random rng(seed);
  std::vector<std::vector<uint32_t>> classes(12);
  for (uint32_t v = 0; v < spec.domain(); ++v) {
    classes[mjoin::HashJoinKey(static_cast<int32_t>(v)) % 12].push_back(v);
  }
  std::vector<uint32_t> perm(spec.domain());
  for (std::vector<uint32_t>& values : classes) {
    std::vector<uint32_t> shuffled = values;
    rng.Shuffle(&shuffled);
    for (size_t i = 0; i < values.size(); ++i) perm[values[i]] = shuffled[i];
  }
  Database out;
  for (const std::string& name :
       mjoin::WisconsinRelationNames(spec.num_relations)) {
    const mjoin::Relation& in = **db.Get(name);
    const mjoin::Schema& schema = in.schema();
    mjoin::Relation rel(schema);
    rel.Reserve(in.num_tuples());
    std::vector<std::byte> row(schema.tuple_size());
    for (size_t i = 0; i < in.num_tuples(); ++i) {
      std::memcpy(row.data(), in.tuple(i).data(), row.size());
      for (size_t col : {0, 1}) {  // unique1, unique2: the join columns
        int32_t v;
        std::memcpy(&v, row.data() + schema.offset(col), sizeof(v));
        if (v >= 0 && static_cast<uint32_t>(v) < perm.size()) {
          v = static_cast<int32_t>(perm[static_cast<size_t>(v)]);
        }
        std::memcpy(row.data() + schema.offset(col), &v, sizeof(v));
      }
      rel.AppendRow(row.data());
    }
    (void)out.Add(name, std::move(rel));
  }
  return out;
}

mjoin::StatusOr<Setup> BuildSetup(const WorkloadDef& def, uint64_t seed,
                                  const std::string& socket, Tracer* tracer,
                                  SetupTimes* times) {
  Setup s;
  double t0 = NowS();
  if (def.adversarial) {
    MJOIN_ASSIGN_OR_RETURN(mjoin::WorkloadSpec spec,
                           mjoin::WorkloadPreset("adversarial"));
    spec.num_relations = def.relations;
    spec.cardinality = def.cardinality;
    spec.selectivity = 0.25;
    // The relabelling is part of making this workload's data.
    ScopedSpan span(tracer, "storage", "MakeWorkloadDatabase");
    MJOIN_ASSIGN_OR_RETURN(const Database db,
                           mjoin::MakeWorkloadDatabase(spec));
    s.db = std::make_unique<Database>(RelabelKeys(db, spec, seed));
  } else {
    ScopedSpan span(tracer, "storage", "MakeWisconsinDatabase");
    s.db = std::make_unique<Database>(
        mjoin::MakeWisconsinDatabase(def.relations, def.cardinality, seed));
  }

  times->data_s.push_back(NowS() - t0);

  t0 = NowS();
  const mjoin::TotalCostModel cost_model;
  std::set<std::string> seen;
  for (int length : def.lengths) {
    for (QueryShape shape : def.shapes) {
      MJOIN_ASSIGN_OR_RETURN(
          JoinQuery query,
          mjoin::MakeWisconsinChainQuery(shape, length, def.cardinality));
      s.queries.push_back(std::move(query));
      const size_t qi = s.queries.size() - 1;
      for (StrategyKind kind : mjoin::kAllStrategies) {
        const std::unique_ptr<mjoin::Strategy> strategy =
            mjoin::MakeStrategy(kind);
        for (uint32_t procs : def.processors) {
          DeckPlan d;
          d.query = qi;
          d.label = mjoin::StrategyName(kind) + " " + mjoin::ShapeName(shape) +
                    " n" + std::to_string(length) + " p" +
                    std::to_string(procs);
          mjoin::StatusOr<ParallelPlan> plan = [&] {
            ScopedSpan span(tracer, "strategy", "Strategy::Parallelize");
            return strategy->Parallelize(s.queries[qi], procs, cost_model);
          }();
          // A strategy that cannot place the query on so few processors
          // (FP needs one per join) leaves that combination out.
          if (!plan.ok()) continue;
          d.plan = *std::move(plan);
          {
            ScopedSpan span(tracer, "xra", "SerializePlan");
            d.text = mjoin::SerializePlan(d.plan);
          }
          if (!seen.insert(d.text).second) continue;
          {
            ScopedSpan span(tracer, "xra", "ParsePlan");
            MJOIN_RETURN_IF_ERROR(mjoin::ParsePlan(d.text).status());
          }
          if (def.sim_processors != 0) {
            ScopedSpan span(tracer, "strategy", "Strategy::Parallelize");
            MJOIN_ASSIGN_OR_RETURN(
                d.sim_plan, strategy->Parallelize(s.queries[qi],
                                                  def.sim_processors,
                                                  cost_model));
          }
          s.deck.push_back(std::move(d));
        }
      }
    }
  }
  if (s.deck.empty()) return mjoin::Status::Internal("empty plan deck");
  times->plans_s.push_back(NowS() - t0);

  t0 = NowS();
  mjoin::MjoinServeOptions options;
  options.socket_path = socket;
  options.exec_threads = kTenants;
  options.fleet.num_workers = kProcessors;
  {
    ScopedSpan span(tracer, "serve", "MjoinServer::Start");
    MJOIN_ASSIGN_OR_RETURN(s.server,
                           mjoin::MjoinServer::Start(s.db.get(), options));
  }
  times->server_s.push_back(NowS() - t0);
  return s;
}

void TearDown(Setup* s, Tracer* tracer) {
  if (s->server != nullptr) {
    ScopedSpan span(tracer, "serve", "MjoinServer::Shutdown");
    s->server->Shutdown();
  }
  s->server.reset();
  s->db.reset();
}

// Times set-ups in a child process forked before anything else runs. The
// benchmark process grows by hundreds of MB of freed hash tables as it
// runs queries, and forking the fleet from it grows slower with it; the
// child holds only set-up state, as a freshly started server does. The
// parent asks for set-ups between rounds, so the samples spread over the
// run, and waits for them, so nothing else runs meanwhile.
class SetupSampler {
 public:
  SetupSampler() = default;
  SetupSampler(const SetupSampler&) = delete;
  SetupSampler& operator=(const SetupSampler&) = delete;
  ~SetupSampler() { Stop(); }

  bool Start(const WorkloadDef& def, uint64_t seed, const std::string& socket) {
    int down[2], up[2];
    if (pipe(down) != 0) return false;
    if (pipe(up) != 0) {
      close(down[0]);
      close(down[1]);
      return false;
    }
    std::fflush(nullptr);
    pid_ = fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      close(down[1]);
      close(up[0]);
      _exit(Serve(def, seed, socket, down[0], up[1]));
    }
    close(down[0]);
    close(up[1]);
    to_child_ = down[1];
    from_child_ = up[0];
    return true;
  }

  /// Runs `n` set-ups in the child and appends the times of their parts.
  bool Sample(int n, SetupTimes* times) {
    if (!WriteAll(to_child_, &n, sizeof(n))) return false;
    for (int i = 0; i < n; ++i) {
      double parts[3];
      if (!ReadAll(from_child_, parts, sizeof(parts)) ||
          std::isnan(parts[0])) {
        return false;
      }
      times->data_s.push_back(parts[0]);
      times->plans_s.push_back(parts[1]);
      times->server_s.push_back(parts[2]);
    }
    return true;
  }

  /// Stops the child and waits for it to end.
  void Stop() {
    if (to_child_ >= 0) close(to_child_);
    if (from_child_ >= 0) close(from_child_);
    to_child_ = from_child_ = -1;
    if (pid_ > 0) waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

 private:
  static bool WriteAll(int fd, const void* buf, size_t n) {
    const char* p = static_cast<const char*>(buf);
    while (n > 0) {
      const ssize_t w = write(fd, p, n);
      if (w < 0 && errno == EINTR) continue;
      if (w <= 0) return false;
      p += w;
      n -= static_cast<size_t>(w);
    }
    return true;
  }
  static bool ReadAll(int fd, void* buf, size_t n) {
    char* p = static_cast<char*>(buf);
    while (n > 0) {
      const ssize_t r = read(fd, p, n);
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) return false;
      p += r;
      n -= static_cast<size_t>(r);
    }
    return true;
  }

  // The child: builds and tears down set-ups on request until the parent
  // closes its end. A failed set-up answers NaN and ends the child.
  static int Serve(const WorkloadDef& def, uint64_t seed,
                   const std::string& socket, int in, int out) {
    int n;
    while (ReadAll(in, &n, sizeof(n))) {
      for (int i = 0; i < n; ++i) {
        SetupTimes t;
        mjoin::StatusOr<Setup> s =
            BuildSetup(def, seed, socket, /*tracer=*/nullptr, &t);
        if (!s.ok()) {
          std::fprintf(stderr, "setup failed: %s\n",
                       s.status().ToString().c_str());
          const double nan[3] = {NAN, NAN, NAN};
          WriteAll(out, nan, sizeof(nan));
          return 1;
        }
        TearDown(&*s, nullptr);
        const double parts[3] = {t.data_s[0], t.plans_s[0], t.server_s[0]};
        if (!WriteAll(out, parts, sizeof(parts))) return 1;
      }
    }
    return 0;
  }

  pid_t pid_ = -1;
  int to_child_ = -1, from_child_ = -1;
};

// ---------------------------------------------------------------------------
// Run state.

struct ServedSample {
  double latency_ms = 0;  // from Submit to Await's return
  double wall_ms = 0;
  double queue_ms = 0;
};

// One backend's deck passes: each pass's wall, and each plan's wall in
// every pass.
struct Phase {
  std::vector<double> pass_s;
  std::vector<double> traced_s, untraced_s;
  std::vector<std::vector<double>> plan_s;

  void AddPlan(size_t plan, double seconds) {
    if (plan_s.size() <= plan) plan_s.resize(plan + 1);
    plan_s[plan].push_back(seconds);
  }
  /// One pass of the deck as the sum of every plan's median wall over the
  /// passes: a burst of noise from the host that slows a few queries of
  /// one pass does not move it.
  double DeckSeconds() const {
    double total = 0;
    for (const std::vector<double>& t : plan_s) total += Quantile(t, 0.5);
    return total;
  }
};

struct Run {
  const WorkloadDef* def = nullptr;
  uint64_t seed = 0;
  Tracer* tracer = nullptr;
  std::vector<ResultSummary> refs;  // per query
  uint64_t next_query = 0;

  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t completed = 0;
  bool correct = true;

  Phase thread, process, sim, served_deck;

  // engine.thread, exec and skew, summed over thread passes.
  uint64_t thread_batches_sent = 0, thread_queue_overflows = 0,
           thread_buffers_allocated = 0;
  size_t thread_peak_queue_depth = 0;
  double exec_build_s = 0, exec_probe_s = 0, exec_pipeline_s = 0,
         exec_scan_s = 0;
  uint64_t exec_rows_out = 0, exec_hash_table_rows = 0, exec_collisions = 0,
           exec_probe_rows = 0;
  size_t exec_peak_memory = 0;
  uint64_t skew_hot_keys = 0, skew_replicated = 0, skew_repartitioned = 0,
           skew_bloom_filtered = 0;
  double skew_bloom_fp_rate = 0;
  std::vector<double> busy_imbalance;

  // engine.process and net, summed over one-shot process passes.
  uint64_t process_retries = 0;
  mjoin::ProcessNetStats net;

  // sim: virtual response of one deck pass, which must repeat exactly.
  int64_t sim_response_ticks = -1;

  // serve: the one-client passes, and each capacity pass's rate.
  std::vector<ServedSample> served;
  std::vector<double> capacity_qps;
  std::vector<double> warm_process_wall_ms;

  void Fail(const std::string& what) {
    ++failed;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
  void Mismatch(const std::string& what) {
    correct = false;
    Fail("result mismatch: " + what);
  }
};

double BusyImbalance(const mjoin::ThreadTraceRecorder& trace) {
  std::vector<double> busy;
  for (const auto& events : trace.events_by_worker()) {
    double ns = 0;
    for (const mjoin::ThreadTraceEvent& e : events) {
      if (e.type != mjoin::ThreadWorkType::kBlocked) {
        ns += static_cast<double>(e.end_ns - e.start_ns);
      }
    }
    busy.push_back(ns);
  }
  const double mean = Mean(busy);
  return mean > 0 ? *std::max_element(busy.begin(), busy.end()) / mean : 0;
}

mjoin::ThreadExecOptions ExecOptions(const Run& run, bool record_trace) {
  mjoin::ThreadExecOptions o;
  o.collect_metrics = true;
  o.record_trace = record_trace;
  if (run.def->skew_defense) o.skew_defense.mode = mjoin::SkewDefenseMode::kOn;
  return o;
}

// ---------------------------------------------------------------------------
// Deck passes.

double ThreadPass(const Setup& s, const mjoin::ThreadExecutor& exec,
                  bool record_trace, Run* run, Phase* phase) {
  ScopedSpan pass(run->tracer, "bench", "thread_deck");
  const double t0 = NowS();
  const mjoin::ThreadExecOptions options = ExecOptions(*run, record_trace);
  for (size_t i = 0; i < s.deck.size(); ++i) {
    const DeckPlan& d = s.deck[i];
    ++run->attempted;
    const double q0 = NowS();
    mjoin::StatusOr<mjoin::ThreadQueryResult> r = [&] {
      ScopedSpan span(run->tracer, "engine.thread",
                      "ThreadExecutor::Execute", ++run->next_query);
      return exec.Execute(d.plan, options);
    }();
    phase->AddPlan(i, NowS() - q0);
    if (!r.ok()) {
      run->Fail("thread " + d.label + ": " + r.status().ToString());
      continue;
    }
    if (r->result != run->refs[d.query]) {
      run->Mismatch("thread " + d.label);
      continue;
    }
    ++run->completed;
    const mjoin::ThreadExecStats& st = r->stats;
    run->thread_batches_sent += st.batches_sent;
    run->thread_queue_overflows += st.queue_overflows;
    run->thread_buffers_allocated += st.batch_buffers_allocated;
    run->thread_peak_queue_depth =
        std::max(run->thread_peak_queue_depth, st.peak_queue_depth);
    run->exec_peak_memory = std::max(run->exec_peak_memory,
                                     st.peak_memory_bytes);
    for (const mjoin::ThreadOpStats& op : st.per_op) {
      const mjoin::OpMetrics& m = op.metrics;
      run->exec_build_s += m.build_seconds;
      run->exec_probe_s += m.probe_seconds;
      run->exec_pipeline_s += m.pipeline_seconds;
      run->exec_scan_s += m.scan_seconds;
      run->exec_rows_out += m.rows_out;
      run->exec_hash_table_rows += m.hash_table_rows;
      if (m.hash_table_rows > 0) {
        run->exec_collisions += m.hash_collisions;
        run->exec_probe_rows += m.rows_in[1];
      }
      run->skew_hot_keys += m.skew_hot_keys;
      run->skew_replicated += m.skew_replicated_rows;
      run->skew_repartitioned += m.skew_repartitioned_rows;
      run->skew_bloom_filtered += m.skew_bloom_filtered_rows;
      run->skew_bloom_fp_rate =
          std::max(run->skew_bloom_fp_rate, m.skew_bloom_fp_rate);
    }
    if (r->trace != nullptr) {
      run->busy_imbalance.push_back(BusyImbalance(*r->trace));
    }
  }
  return NowS() - t0;
}

double ProcessPass(const Setup& s, const mjoin::ProcessExecutor& exec,
                   Run* run, Phase* phase) {
  ScopedSpan pass(run->tracer, "bench", "process_deck");
  const double t0 = NowS();
  mjoin::ProcessExecOptions options;
  options.exec = ExecOptions(*run, /*record_trace=*/false);
  for (size_t i = 0; i < s.deck.size(); ++i) {
    const DeckPlan& d = s.deck[i];
    ++run->attempted;
    const double q0 = NowS();
    mjoin::StatusOr<mjoin::ProcessQueryResult> r = [&] {
      ScopedSpan span(run->tracer, "engine.process",
                      "ProcessExecutor::Execute", ++run->next_query);
      return exec.Execute(d.plan, options);
    }();
    phase->AddPlan(i, NowS() - q0);
    if (!r.ok()) {
      run->Fail("process " + d.label + ": " + r.status().ToString());
      continue;
    }
    if (r->exec.result != run->refs[d.query]) {
      run->Mismatch("process " + d.label);
      continue;
    }
    ++run->completed;
    run->process_retries += r->proc.retries;
    const mjoin::ProcessNetStats& n = r->net;
    run->net.shm_bytes_sent += n.shm_bytes_sent;
    run->net.shm_records_sent += n.shm_records_sent;
    run->net.ring_full_stalls += n.ring_full_stalls;
    run->net.serialize_seconds += n.serialize_seconds;
    run->net.deserialize_seconds += n.deserialize_seconds;
    run->net.bytes_sent += n.bytes_sent + n.bytes_received;
    run->net.frames_sent += n.frames_sent + n.frames_received;
  }
  return NowS() - t0;
}

double SimPass(const Setup& s, Run* run, Phase* phase) {
  ScopedSpan pass(run->tracer, "bench", "sim_deck");
  const double t0 = NowS();
  const mjoin::SimExecutor sim(s.db.get());
  const mjoin::SimExecOptions options;
  int64_t ticks = 0;
  for (size_t i = 0; i < s.deck.size(); ++i) {
    const DeckPlan& d = s.deck[i];
    ++run->attempted;
    const double q0 = NowS();
    mjoin::StatusOr<mjoin::SimQueryResult> r = [&] {
      ScopedSpan span(run->tracer, "sim", "SimExecutor::Execute",
                      ++run->next_query);
      return sim.Execute(d.sim_plan ? *d.sim_plan : d.plan, options);
    }();
    phase->AddPlan(i, NowS() - q0);
    if (!r.ok()) {
      run->Fail("sim " + d.label + ": " + r.status().ToString());
      continue;
    }
    if (r->result != run->refs[d.query]) {
      run->Mismatch("sim " + d.label);
      continue;
    }
    ++run->completed;
    ticks += static_cast<int64_t>(r->response_ticks);
  }
  // The simulator is deterministic: every pass over the same data and
  // deck must take exactly the same virtual time.
  if (run->sim_response_ticks >= 0 && ticks != run->sim_response_ticks) {
    run->Mismatch("sim virtual response differs between passes");
  }
  run->sim_response_ticks = ticks;
  return NowS() - t0;
}

// ---------------------------------------------------------------------------
// Serving.

// Every fourth plan goes to the warm process fleet and the rest to the
// thread backend: with half on each, the median latency would sit on the
// gap between the two backends' latencies and jump across it from run to
// run.
mjoin::SubmitMsg MakeSubmit(const DeckPlan& d, size_t plan, uint64_t seq,
                            int tenant) {
  mjoin::SubmitMsg m;
  m.client_seq = seq;
  m.tenant = "tenant-" + std::to_string(tenant);
  m.backend = plan % 4 == 3 ? mjoin::ServeBackend::kProcess
                            : mjoin::ServeBackend::kThread;
  m.plan_text = d.text;
  m.deadline_ms = 60000;
  return m;
}

// Sends plan `plan` through `client` and waits for its result; returns
// true when the result is correct, counting it either way.
bool ServeOne(const Setup& s, size_t plan, int tenant,
              mjoin::ServeClient* client, Run* run, std::mutex* mu,
              ServedSample* sample) {
  const DeckPlan& d = s.deck[plan];
  const uint64_t qid = [&] {
    std::lock_guard<std::mutex> lock(*mu);
    ++run->attempted;
    return ++run->next_query;
  }();
  const double send = NowS();
  mjoin::Status sent = [&] {
    ScopedSpan span(run->tracer, "serve", "ServeClient::Submit", qid);
    return client->Submit(MakeSubmit(d, plan, qid, tenant));
  }();
  mjoin::StatusOr<mjoin::QueryResultMsg> r = [&] {
    if (!sent.ok()) return mjoin::StatusOr<mjoin::QueryResultMsg>(sent);
    ScopedSpan span(run->tracer, "serve", "ServeClient::Await", qid);
    return client->Await(120000);
  }();
  const double done = NowS();
  std::lock_guard<std::mutex> lock(*mu);
  if (!r.ok()) {
    run->Fail("served " + d.label + ": " + r.status().ToString());
    return false;
  }
  if (r->status_code != 0) {
    run->Fail("served " + d.label + ": status " +
              std::to_string(r->status_code) + " " + r->message);
    return false;
  }
  const ResultSummary got{r->cardinality, r->checksum};
  if (got != run->refs[d.query]) {
    run->Mismatch("served " + d.label);
    return false;
  }
  ++run->completed;
  if (r->backend == mjoin::ServeBackend::kProcess) {
    run->warm_process_wall_ms.push_back(r->wall_seconds * 1e3);
  }
  *sample = ServedSample{(done - send) * 1e3, r->wall_seconds * 1e3,
                         r->queue_seconds * 1e3};
  return true;
}

// One closed-loop pass of the deck through the server: one client sends
// each plan when the previous one has returned. Each plan's latency lands
// in `phase`, whose per-plan medians give serve_p50_ms.
void ServedPass(const Setup& s, mjoin::ServeClient* client, Run* run,
                Phase* phase) {
  ScopedSpan pass(run->tracer, "serve", "served_deck");
  std::mutex mu;
  for (size_t i = 0; i < s.deck.size(); ++i) {
    ServedSample sample;
    if (!ServeOne(s, i, 0, client, run, &mu, &sample)) continue;
    phase->AddPlan(i, sample.latency_ms * 1e-3);
    run->served.push_back(sample);
  }
}

// The serving capacity: kTenants closed-loop clients, each on its own
// connection, take the deck's plans in turn from one shared counter until
// a pass of the deck is done. With every client waiting on its own query,
// the server always has kTenants queries to run; the pass's rate is the
// completed queries over its wall.
void CapacityPass(const Setup& s,
                  const std::vector<mjoin::ServeClient*>& clients, Run* run) {
  ScopedSpan pass(run->tracer, "serve", "capacity_deck");
  std::mutex mu;
  std::atomic<size_t> next{0};
  std::atomic<uint64_t> completed{0};
  const double t0 = NowS();
  std::vector<std::thread> threads;
  for (int t = 0; t < kTenants; ++t) {
    threads.emplace_back([&, t] {
      ServedSample sample;
      for (size_t i; (i = next.fetch_add(1)) < s.deck.size();) {
        if (ServeOne(s, i, t + 1, clients[static_cast<size_t>(t)], run, &mu,
                     &sample)) {
          completed.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  run->capacity_qps.push_back(static_cast<double>(completed.load()) /
                              (NowS() - t0));
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  // Quartiles and sample count for the printed line; n = 0 for a count.
  double q1 = 0, q3 = 0;
  size_t n = 0;
  std::vector<double> samples;
};

Metric Sampled(const std::string& name, const std::string& unit,
               const std::vector<double>& v) {
  return Metric{name, unit, Quantile(v, 0.5), Quantile(v, 0.25),
                Quantile(v, 0.75), v.size(), v};
}

Metric Value(const std::string& name, const std::string& unit, double v) {
  return Metric{name, unit, v, v, v, 0, {}};
}

std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string HostJson(const std::string& commit) {
  struct utsname u;
  std::string kernel = "unknown";
  if (uname(&u) == 0) kernel = std::string(u.sysname) + " " + u.release;
  return "{\"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"kernel\": \"" + kernel + "\", \"compiler\": \"gcc " +
         __VERSION__ + "\", \"build_type\": \"" + MJBENCH_BUILD_TYPE +
         "\", \"commit\": \"" + commit + "\"}";
}

std::string MetricsJson(const std::vector<Metric>& metrics, bool detail) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + Fmt(m.value) +
           ", \"unit\": \"" + m.unit + "\"";
    if (detail && m.n > 0) {
      out += ", \"q1\": " + Fmt(m.q1) + ", \"q3\": " + Fmt(m.q3) +
             ", \"n\": " + std::to_string(m.n);
    }
    out += "}";
  }
  return out + "}";
}

bool WriteFile(const std::string& path, const std::string& text) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

double CpuSeconds() {
  double total = 0;
  for (int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    struct rusage u;
    getrusage(who, &u);
    total += u.ru_utime.tv_sec + u.ru_utime.tv_usec * 1e-6 +
             u.ru_stime.tv_sec + u.ru_stime.tv_usec * 1e-6;
  }
  return total;
}

// Per-layer self time. The main thread runs every phase, so its spans
// split the traced wall among the layers; client threads run concurrently
// with the main thread's capacity span and are shown alongside. `bench`,
// the benchmark's own code, is left out of the cover, so a layer call
// without its span shows as wall the layers do not cover.
std::string SelfTimeTable(const Tracer& tracer, double traced_wall) {
  const std::map<std::string, LayerTime> main = tracer.SelfTimes(0);
  const std::map<std::string, LayerTime> all = tracer.SelfTimes(-1);
  std::string out = "layer            main_self_s  share_of_wall  all_threads_self_s  spans\n";
  double covered = 0;
  for (const auto& [layer, t] : all) {
    const auto it = main.find(layer);
    const double m = it == main.end() ? 0 : it->second.self_s;
    if (layer != "bench") covered += m;
    char line[160];
    std::snprintf(line, sizeof(line), "%-15s %12.4f %13.1f%% %19.4f %6llu\n",
                  layer.c_str(), m, 100.0 * m / traced_wall, t.self_s,
                  static_cast<unsigned long long>(t.spans));
    out += line;
  }
  char line[200];
  std::snprintf(line, sizeof(line),
                "layers but bench cover %.4f s of %.4f s traced wall "
                "(%.1f%%)\n",
                covered, traced_wall, 100.0 * covered / traced_wall);
  return out + line;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";
  std::string commit = "unknown";
};

int Usage(const char* msg) {
  std::fprintf(stderr,
               "mjbench: %s\nusage: mjbench --workload chain_oneshot|skew_mn "
               "--seed N --seconds S --trace 0|1 "
               "[--out-dir DIR] [--commit SHA]\n",
               msg);
  return 2;
}

int Main(const Args& args) {
  const WorkloadDef* def = nullptr;
  const std::vector<WorkloadDef> defs = Workloads();
  for (const WorkloadDef& d : defs) {
    if (d.name == args.workload) def = &d;
  }
  if (def == nullptr) return Usage("unknown workload");
  mkdir(args.out_dir.c_str(), 0755);
  const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0");
  const std::string socket =
      args.out_dir + "/mjbench-" + std::to_string(getpid()) + ".sock";

  Tracer tracer;
  tracer.set_enabled(args.trace);
  Run run;
  run.def = def;
  run.seed = args.seed;
  run.tracer = &tracer;
  const double run_t0 = NowS();

  // setup_s is timed in the sampler; the run keeps a set-up of its own.
  SetupSampler sampler;
  if (!sampler.Start(*def, args.seed, socket + ".setup")) {
    std::fprintf(stderr, "cannot start the set-up sampler\n");
    return 1;
  }
  SetupTimes setup_times, kept_times;
  mjoin::StatusOr<Setup> built = [&] {
    ScopedSpan span(&tracer, "bench", "setup");
    return BuildSetup(*def, args.seed, socket, &tracer, &kept_times);
  }();
  if (!built.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  Setup setup = *std::move(built);
  // The reference every result is checked against, outside the timing.
  {
    ScopedSpan span(&tracer, "bench", "reference");
    for (const JoinQuery& q : setup.queries) {
      mjoin::StatusOr<ResultSummary> ref = [&] {
        ScopedSpan call(&tracer, "reference", "ReferenceSummary");
        return mjoin::ReferenceSummary(q, *setup.db);
      }();
      if (!ref.ok()) {
        std::fprintf(stderr, "reference failed: %s\n",
                     ref.status().ToString().c_str());
        return 1;
      }
      run.refs.push_back(*ref);
    }
  }
  std::printf("# %s seed %llu: %zu plans, %zu queries, %.1f MB of data\n",
              def->name.c_str(), static_cast<unsigned long long>(args.seed),
              setup.deck.size(), setup.queries.size(),
              setup.db->TotalBytes() / 1048576.0);

  const double cpu0 = CpuSeconds();
  const mjoin::PlanCacheStats cache0 = setup.server->plan_cache_stats();
  const mjoin::MetricsSnapshot serve0 = setup.server->metrics()->Snapshot();
  const double measure_t0 = NowS();
  double untraced_wall = 0;
  {
    const mjoin::ThreadExecutor thread_exec(setup.db.get());
    const mjoin::ProcessExecutor process_exec(setup.db.get());
    // One unmeasured thread pass first: the first pass of a fresh process
    // pays for page faults on memory later passes reuse, and runs up to
    // twice as long, so the thread metric is of the warm executor.
    Phase warmup;
    tracer.set_enabled(false);
    const double warm_s = ThreadPass(setup, thread_exec, false, &run, &warmup);
    if (args.trace) untraced_wall += warm_s;
    // One connection for the one-client pass, kTenants for the capacity
    // pass.
    std::vector<std::unique_ptr<mjoin::ServeClient>> clients;
    for (int t = 0; t <= kTenants; ++t) {
      mjoin::StatusOr<std::unique_ptr<mjoin::ServeClient>> client =
          mjoin::ServeClient::Connect(socket);
      if (!client.ok()) {
        std::fprintf(stderr, "connect: %s\n",
                     client.status().ToString().c_str());
        return 1;
      }
      clients.push_back(*std::move(client));
    }
    const std::vector<mjoin::ServeClient*> tenants = [&] {
      std::vector<mjoin::ServeClient*> out;
      for (int t = 1; t <= kTenants; ++t) out.push_back(clients[t].get());
      return out;
    }();
    // Rounds of set-ups, one pass per backend and the serving passes repeat
    // for --seconds, at least kMinRounds times, so every median rests on
    // samples taken apart in time and a slow spell of the host moves few
    // of them. A traced run alternates untraced and traced rounds, so the
    // ratio of their walls is the tracing overhead.
    for (int round = 0;
         NowS() - measure_t0 < args.seconds || round < kMinRounds; ++round) {
      // Hand the heap the last round freed back to the system: a one-shot
      // query forks its workers from this process, and a fork's cost grows
      // with the parent's resident memory, which the concurrent serving
      // pass leaves hundreds of MB above what the data and executors hold.
      malloc_trim(0);
      const bool traced = args.trace && round % 2 == 1;
      tracer.set_enabled(traced);
      const double round_t0 = NowS();
      // The sampler's set-ups run in the child, outside the traced wall.
      bool sampled = true;
      const auto sample_setups = [&] {
        const double t0 = NowS();
        sampled = sampled && sampler.Sample(kSetupsPerPass, &setup_times);
        if (traced) untraced_wall += NowS() - t0;
      };
      {
        ScopedSpan span(&tracer, "bench", "round");
        const auto record = [&](Phase* phase, double wall) {
          phase->pass_s.push_back(wall);
          (traced ? phase->traced_s : phase->untraced_s).push_back(wall);
        };
        sample_setups();
        record(&run.process,
               ProcessPass(setup, process_exec, &run, &run.process));
        sample_setups();
        record(&run.thread,
               ThreadPass(setup, thread_exec, traced, &run, &run.thread));
        sample_setups();
        record(&run.sim, SimPass(setup, &run, &run.sim));
        sample_setups();
        ServedPass(setup, clients[0].get(), &run, &run.served_deck);
        sample_setups();
        CapacityPass(setup, tenants, &run);
      }
      if (!sampled) {
        std::fprintf(stderr, "set-up sampler failed\n");
        return 1;
      }
      if (args.trace && !traced) untraced_wall += NowS() - round_t0;
    }
    tracer.set_enabled(args.trace);
  }
  const mjoin::PlanCacheStats cache1 = setup.server->plan_cache_stats();
  const mjoin::MetricsSnapshot serve_delta = mjoin::MetricsDelta(
      serve0, setup.server->metrics()->Snapshot());
  const uint64_t respawns =
      setup.server->fleet() != nullptr ? setup.server->fleet()->respawns() : 0;
  // Worker CPU is in RUSAGE_CHILDREN only once the fleet has been reaped.
  // The sampler is reaped after the reading, so set-up CPU stays out.
  TearDown(&setup, &tracer);
  const double cpu_s = CpuSeconds() - cpu0;
  sampler.Stop();
  const uint64_t queries = run.completed;
  struct rusage self;
  getrusage(RUSAGE_SELF, &self);
  const double run_wall = NowS() - run_t0;

  // Served latency: each plan's median over the rounds.
  std::vector<double> latency;
  for (const std::vector<double>& t : run.served_deck.plan_s) {
    latency.push_back(Quantile(t, 0.5) * 1e3);
  }
  std::vector<Metric> metrics;
  std::vector<double> queue, overhead;
  for (const ServedSample& x : run.served) {
    queue.push_back(x.queue_ms);
    overhead.push_back(x.latency_ms - x.wall_ms - x.queue_ms);
  }
  if (!args.trace) {
    // Each part's median over the run's set-ups, added up.
    Metric setup_m = Sampled("setup_s", "s", [&] {
      std::vector<double> total;
      for (size_t i = 0; i < setup_times.data_s.size(); ++i) {
        total.push_back(setup_times.data_s[i] + setup_times.plans_s[i] +
                        setup_times.server_s[i]);
      }
      return total;
    }());
    setup_m.value = Quantile(setup_times.data_s, 0.5) +
                    Quantile(setup_times.plans_s, 0.5) +
                    Quantile(setup_times.server_s, 0.5);
    metrics.push_back(setup_m);
    metrics.push_back(Value("cpu_ms_per_query", "ms",
                            queries ? cpu_s * 1e3 / queries : 0));
    metrics.push_back(Value("peak_rss_mb", "MB", self.ru_maxrss / 1024.0));
    for (const auto& [name, phase] :
         {std::pair{"thread_deck_s", &run.thread},
          std::pair{"process_deck_s", &run.process},
          std::pair{"sim_deck_s", &run.sim}}) {
      Metric m = Sampled(name, "s", phase->pass_s);
      m.value = phase->DeckSeconds();
      metrics.push_back(m);
    }
    metrics.push_back(Sampled("serve_p50_ms", "ms", latency));
    metrics.push_back(Sampled("serve_max_qps", "q/s", run.capacity_qps));
  } else {
    const auto per = [](double total, uint64_t n) {
      return n ? total / static_cast<double>(n) : 0;
    };
    // Thread counters also count the warm-up pass.
    const double passes = run.thread.pass_s.size() + 1.0;
    const double ppasses = static_cast<double>(run.process.pass_s.size());
    const uint64_t hits = cache1.hits - cache0.hits;
    const uint64_t misses = cache1.misses - cache0.misses;
    const auto counter = [&](const char* name) -> double {
      auto it = serve_delta.counters.find(name);
      return it == serve_delta.counters.end() ? 0 : it->second;
    };
    std::vector<double> warm = run.warm_process_wall_ms;
    metrics = {
        Value("storage.generate_s", "s",
              per(tracer.TotalSeconds("MakeWisconsinDatabase") +
                      tracer.TotalSeconds("MakeWorkloadDatabase"),
                  tracer.Count("setup"))),
        Value("strategy.parallelize_ms", "ms",
              per(tracer.TotalSeconds("Strategy::Parallelize") * 1e3,
                  tracer.Count("setup"))),
        Value("xra.serialize_us", "us",
              per(tracer.TotalSeconds("SerializePlan") * 1e6,
                  tracer.Count("SerializePlan"))),
        Value("xra.parse_us", "us",
              per(tracer.TotalSeconds("ParsePlan") * 1e6,
                  tracer.Count("ParsePlan"))),
        Value("xra.plan_bytes", "bytes", [&] {
          double b = 0;
          for (const DeckPlan& d : setup.deck) b += d.text.size();
          return b / static_cast<double>(setup.deck.size());
        }()),
        Value("serve.p90_ms", "ms", Quantile(latency, 0.9)),
        Value("serve.queue_ms", "ms", Quantile(queue, 0.5)),
        Value("serve.overhead_ms", "ms", Quantile(overhead, 0.5)),
        Value("serve.plan_cache_hit_ratio", "ratio",
              per(static_cast<double>(hits), hits + misses)),
        Value("serve.plan_cache_evictions", "count",
              static_cast<double>(cache1.evictions - cache0.evictions)),
        Value("serve.admission_stalls", "count",
              counter("serve.admission_stalls")),
        Value("engine.thread.exec_ms", "ms",
              per(tracer.TotalSeconds("ThreadExecutor::Execute") * 1e3,
                  tracer.Count("ThreadExecutor::Execute"))),
        Value("engine.thread.batches_sent", "count",
              run.thread_batches_sent / passes),
        Value("engine.thread.peak_queue_depth", "count",
              static_cast<double>(run.thread_peak_queue_depth)),
        Value("engine.thread.queue_overflows", "count",
              run.thread_queue_overflows / passes),
        Value("engine.thread.buffers_allocated", "count",
              run.thread_buffers_allocated / passes),
        Value("engine.process.exec_ms", "ms",
              per(tracer.TotalSeconds("ProcessExecutor::Execute") * 1e3,
                  tracer.Count("ProcessExecutor::Execute"))),
        Value("engine.process.warm_exec_ms", "ms", Quantile(warm, 0.5)),
        Value("engine.process.fleet_spawn_s", "s",
              per(tracer.TotalSeconds("MjoinServer::Start"),
                  tracer.Count("MjoinServer::Start"))),
        Value("engine.process.retries", "count",
              static_cast<double>(run.process_retries)),
        Value("engine.process.respawns", "count",
              static_cast<double>(respawns)),
        Value("net.shm_bytes", "bytes", run.net.shm_bytes_sent / ppasses),
        Value("net.shm_records", "count", run.net.shm_records_sent / ppasses),
        Value("net.ring_full_stalls", "count",
              run.net.ring_full_stalls / ppasses),
        Value("net.serialize_ms", "ms",
              run.net.serialize_seconds * 1e3 / ppasses),
        Value("net.deserialize_ms", "ms",
              run.net.deserialize_seconds * 1e3 / ppasses),
        Value("net.coordinator_bytes", "bytes", run.net.bytes_sent / ppasses),
        Value("net.frames", "count", run.net.frames_sent / ppasses),
        Value("exec.build_ms", "ms", run.exec_build_s * 1e3 / passes),
        Value("exec.probe_ms", "ms", run.exec_probe_s * 1e3 / passes),
        Value("exec.pipeline_ms", "ms", run.exec_pipeline_s * 1e3 / passes),
        Value("exec.scan_ms", "ms", run.exec_scan_s * 1e3 / passes),
        Value("exec.rows_out", "count", run.exec_rows_out / passes),
        Value("exec.hash_table_rows", "count",
              run.exec_hash_table_rows / passes),
        Value("exec.collisions_per_probe", "ratio",
              per(static_cast<double>(run.exec_collisions),
                  run.exec_probe_rows)),
        Value("exec.peak_memory_mb", "MB", run.exec_peak_memory / 1048576.0),
        Value("skew.hot_keys", "count", run.skew_hot_keys / passes),
        Value("skew.replicated_rows", "count", run.skew_replicated / passes),
        Value("skew.repartitioned_rows", "count",
              run.skew_repartitioned / passes),
        Value("skew.bloom_filtered_rows", "count",
              run.skew_bloom_filtered / passes),
        Value("skew.bloom_fp_rate", "ratio", run.skew_bloom_fp_rate),
        Value("skew.busy_imbalance", "ratio", Mean(run.busy_imbalance)),
        Value("sim.exec_ms", "ms",
              per(tracer.TotalSeconds("SimExecutor::Execute") * 1e3,
                  tracer.Count("SimExecutor::Execute"))),
        Value("sim.response_ticks", "ticks",
              static_cast<double>(run.sim_response_ticks)),
        Value("trace.overhead_ratio", "ratio",
              [&] {
                double traced = 0, untraced = 0;
                for (const Phase* p : {&run.thread, &run.process, &run.sim}) {
                  traced += Mean(p->traced_s);
                  untraced += Mean(p->untraced_s);
                }
                return traced / untraced;
              }()),
    };
    const std::string table =
        SelfTimeTable(tracer, run_wall - untraced_wall);
    std::printf("%s", table.c_str());
    if (!WriteFile(stem + "-spans.json", tracer.ChromeJson()) ||
        !WriteFile(stem + "-layers.txt", table)) {
      std::fprintf(stderr, "cannot write trace files under %s\n",
                   args.out_dir.c_str());
      return 1;
    }
  }

  for (const Metric& m : metrics) {
    if (m.n > 0) {
      std::printf("%-32s %14.6f %-6s q1 %.6f q3 %.6f n %zu\n", m.name.c_str(),
                  m.value, m.unit.c_str(), m.q1, m.q3, m.n);
      if (m.n <= 12) {
        std::printf("%-32s", "");
        for (double v : m.samples) std::printf(" %.4f", v);
        std::printf("\n");
      }
    } else {
      std::printf("%-32s %14.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  std::printf("# setup parts, median of %zu: data %.6f s, plans %.6f s, "
              "server %.6f s\n",
              setup_times.data_s.size(), Quantile(setup_times.data_s, 0.5),
              Quantile(setup_times.plans_s, 0.5),
              Quantile(setup_times.server_s, 0.5));
  std::printf("# sim virtual response %lld ticks per deck pass\n",
              static_cast<long long>(run.sim_response_ticks));
  std::printf("# failed_ratio %.6f (%llu of %llu), %llu queries measured, "
              "%.1f s wall\n",
              run.attempted ? static_cast<double>(run.failed) / run.attempted
                            : 0.0,
              static_cast<unsigned long long>(run.failed),
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(queries), run_wall);
  const std::string host = HostJson(args.commit);
  std::printf("# host %s\n", host.c_str());
  const bool ok = run.correct && run.failed == 0 && run.attempted > 0;
  const std::string head = std::string("{\"correct\": ") +
                           (run.correct ? "true" : "false") +
                           ", \"attempted\": " + std::to_string(run.attempted) +
                           ", \"failed\": " + std::to_string(run.failed);
  WriteFile(stem + "-result.json",
            head + ", \"workload\": \"" + def->name + "\", \"seed\": " +
                std::to_string(args.seed) + ", \"seconds\": " +
                Fmt(args.seconds) + ", \"host\": " + host +
                ", \"metrics\": " + MetricsJson(metrics, true) + "}\n");
  std::printf("%s, \"metrics\": %s}\n", head.c_str(),
              MetricsJson(metrics, false).c_str());
  std::fflush(stdout);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace mjbench

int main(int argc, char** argv) {
  mjbench::Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return mjbench::Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end == '\0' && !(args.seconds > 0)) end = nullptr;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return mjbench::Usage("--trace takes 0 or 1");
      args.trace = value == "1";
      continue;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
      continue;
    } else if (flag == "--commit") {
      args.commit = value;
      continue;
    } else {
      return mjbench::Usage(("unknown flag " + flag).c_str());
    }
    if (flag != "--workload" && (end == nullptr || *end != '\0' || value.empty())) {
      return mjbench::Usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload) return mjbench::Usage("--workload is required");
  return mjbench::Main(args);
}
