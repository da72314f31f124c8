#include "engine/thread_executor.h"

#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/sync.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "engine/controller.h"
#include "engine/fault_injector.h"
#include "engine/op_host.h"
#include "exec/batch.h"
#include "exec/batch_pool.h"
#include "exec/simple_hash_join.h"
#include "skew/defense.h"
#include "storage/partitioner.h"

namespace mjoin {

namespace {

/// Producer stalls on a full queue shorter than this are not worth a trace
/// event (they are indistinguishable from lock hand-off noise).
constexpr int64_t kBlockedTraceThresholdNs = 50'000;  // 50 us

/// A worker node: one OS thread draining a message queue. Messages for all
/// operation processes placed on this node run serialized here, exactly
/// like on a shared-nothing node.
///
/// Control messages (triggers, end-of-stream, source self-pumps) enqueue
/// unconditionally; data batches respect `max_data` — a producer on
/// another node blocks in PostData() until the consumer drains below the
/// bound, the run aborts, or `block_timeout` passes (then it enqueues
/// anyway and the overflow is counted). Same-node sends bypass the bound:
/// blocking on one's own queue would deadlock, and a same-node producer is
/// self-throttled by the shared message loop anyway.
class WorkerNode {
 public:
  WorkerNode(uint32_t id, size_t max_data,
             std::chrono::milliseconds block_timeout, FaultInjector* injector,
             const std::atomic<bool>* aborted)
      : id_(id),
        max_data_(max_data),
        block_timeout_(block_timeout),
        injector_(injector),
        aborted_(aborted) {}

  void Start() {
    thread_ = std::thread([this] { Loop(); });
  }

  /// Control message: never blocks, never dropped.
  void Post(std::function<void()> fn) { Enqueue(std::move(fn), false); }

  /// Data batch from another node (or the same node with `bypass_bound`).
  /// Returns false — message dropped — when the run is stopping; the
  /// caller's query is being torn down anyway.
  bool PostData(std::function<void()> fn, bool bypass_bound) {
    {
      MutexLock lock(&mutex_);
      if (max_data_ != 0 && !bypass_bound) {
        // Absolute deadline so spurious wakeups never extend the total
        // wait beyond block_timeout_ (matches the old wait_for predicate).
        // lint:allow-clock backpressure timeout, read only on a full queue
        auto deadline = std::chrono::steady_clock::now() + block_timeout_;
        bool drained = true;
        while (!QueueDrained()) {
          if (!not_full_.WaitUntil(mutex_, deadline)) {
            drained = QueueDrained();
            break;
          }
        }
        if (stop_ || aborted_->load(std::memory_order_acquire)) return false;
        if (!drained) overflows_.fetch_add(1, std::memory_order_relaxed);
      }
      if (stop_) return false;
      queue_.push_back({std::move(fn), true});
      ++data_in_queue_;
      peak_depth_ = std::max(peak_depth_, data_in_queue_);
    }
    not_empty_.NotifyOne();
    return true;
  }

  /// Wakes blocked producers and the loop; used when the run aborts.
  void Interrupt() {
    MutexLock lock(&mutex_);
    not_full_.NotifyAll();
    not_empty_.NotifyAll();
  }

  /// Drains the remaining queue (callbacks are no-ops once the run
  /// aborted) and joins the thread.
  void Stop() {
    {
      MutexLock lock(&mutex_);
      stop_ = true;
    }
    not_full_.NotifyAll();
    not_empty_.NotifyOne();
    if (thread_.joinable()) thread_.join();
  }

  size_t peak_depth() const {
    MutexLock lock(&mutex_);
    return peak_depth_;
  }
  uint64_t overflows() const {
    return overflows_.load(std::memory_order_relaxed);
  }

 private:
  struct Message {
    std::function<void()> fn;
    bool is_data;
  };

  /// True once a blocked producer may proceed: the run is stopping, or the
  /// queue drained below the data bound.
  bool QueueDrained() const MJOIN_REQUIRES(mutex_) {
    return stop_ || aborted_->load(std::memory_order_acquire) ||
           data_in_queue_ < max_data_;
  }

  void Enqueue(std::function<void()> fn, bool is_data) {
    {
      MutexLock lock(&mutex_);
      queue_.push_back({std::move(fn), is_data});
      if (is_data) {
        ++data_in_queue_;
        peak_depth_ = std::max(peak_depth_, data_in_queue_);
      }
    }
    not_empty_.NotifyOne();
  }

  void Loop() {
    for (;;) {
      Message msg;
      {
        MutexLock lock(&mutex_);
        while (!stop_ && queue_.empty()) not_empty_.Wait(mutex_);
        // stop_ drains the queue before exiting: queued callbacks are
        // no-ops once the run aborted, but must still be destroyed here.
        if (queue_.empty()) return;
        msg = std::move(queue_.front());
        queue_.pop_front();
        if (msg.is_data) {
          --data_in_queue_;
          not_full_.NotifyOne();
        }
      }
      if (injector_ != nullptr) injector_->OnDequeue(id_);
      msg.fn();
    }
  }

  const uint32_t id_;
  const size_t max_data_;
  const std::chrono::milliseconds block_timeout_;
  FaultInjector* const injector_;
  const std::atomic<bool>* const aborted_;

  mutable Mutex mutex_;
  CondVar not_empty_;
  CondVar not_full_;
  std::deque<Message> queue_ MJOIN_GUARDED_BY(mutex_);
  size_t data_in_queue_ MJOIN_GUARDED_BY(mutex_) = 0;
  size_t peak_depth_ MJOIN_GUARDED_BY(mutex_) = 0;
  bool stop_ MJOIN_GUARDED_BY(mutex_) = false;
  std::atomic<uint64_t> overflows_{0};
  std::thread thread_;
};

/// One query on the thread backend: the shared operation-process host
/// (engine/op_host.h) over one worker thread per plan processor. The
/// transport posts batches and end-of-stream markers to the consumer's
/// node queue, merges skew reports under a mutex, and drives the
/// milestone scheduler.
class ThreadRun final : public OpTransport {
 public:
  ThreadRun(const ParallelPlan& plan, const Database& db,
            const ThreadExecOptions& options,
            std::vector<BatchPool*> pools)
      : plan_(plan),
        db_(db),
        options_(options),
        pools_(std::move(pools)),
        host_(plan, HostOptions(options), this),
        controller_(&plan) {
    if (options.record_trace) {
      std::vector<ThreadTraceOpInfo> infos;
      infos.reserve(plan.ops.size());
      for (const XraOp& o : plan.ops) {
        infos.push_back(ThreadTraceOpInfo{o.label, o.trace_label});
      }
      trace_ = std::make_shared<ThreadTraceRecorder>(plan.num_processors,
                                                     std::move(infos));
    }
  }

  Status Prepare();
  StatusOr<ThreadQueryResult> Run(ThreadExecStats* stats_out);

  // OpTransport:
  void ShipBatch(OpInstance* from, uint32_t dest, TupleBatch* rows,
                 int copies) override;
  void SendEos(OpInstance* from, uint32_t dest) override;
  void ScheduleSource(OpInstance* source) override;
  void ReportMilestone(const OpInstance* inst, Milestone milestone) override;
  void ReportSkew(OpInstance* join, SkewJoinReport report) override;
  void RecordTrace(uint32_t processor, int64_t t0, int64_t t1,
                   ThreadWorkType type, int op_id) override {
    trace_->Record(processor, t0, t1, type, op_id);
  }
  /// The per-batch-boundary runtime check: false once the query should do
  /// no further work. Promotes an externally fired cancellation token or
  /// an expired deadline into the abort status.
  bool CheckRuntime() override;
  /// Records the first failure and starts teardown: wakes blocked
  /// producers, the scheduler wait, and turns every queued callback into a
  /// no-op. Later calls are ignored (first error wins).
  void Abort(Status status) override;

 private:
  static OpHostOptions HostOptions(const ThreadExecOptions& options) {
    OpHostOptions host;
    host.batch_size = options.batch_size;
    host.memory_budget_bytes = options.memory_budget_bytes;
    host.collect_metrics = options.collect_metrics;
    host.record_trace = options.record_trace;
    host.skew_defense = options.skew_defense;
    host.injector = options.fault_injector;
    host.cancellation = &options.cancellation;
    return host;
  }

  /// Runs `fn` on the instance's node once the instance started (buffered
  /// there until its trigger otherwise).
  void PostToInstance(OpInstance* inst, std::function<void()> fn);
  void PumpSource(OpInstance* inst);
  void DispatchGroups(const std::vector<int>& groups);
  void BroadcastDirective(int op_id,
                          std::shared_ptr<const SkewDirective> directive);
  ThreadExecStats GatherStats() const;

  const ParallelPlan& plan_;
  const Database& db_;
  const ThreadExecOptions& options_;

  // One batch pool per worker node, owned by the ThreadExecutor (they
  // outlive the run, keeping their freelists warm for the next query);
  // flushes acquire from the *destination* node's pool. Pool counters are
  // cumulative across runs, so this run's traffic is reported as the
  // delta from the snapshot taken in Prepare().
  std::vector<BatchPool*> pools_;
  uint64_t pool_base_allocated_ = 0;
  uint64_t pool_base_reused_ = 0;

  OpHost host_;
  std::vector<std::unique_ptr<WorkerNode>> nodes_;

  /// Per-defended-join report merger. Instances of one join report from
  /// different worker threads; the mutex serializes the merge (the only
  /// cross-thread skew state — directives travel by value afterwards).
  struct SkewExchange {
    SkewExchange(int op, uint32_t num_instances,
                 const SkewDefenseOptions& options)
        : merger(op, num_instances, options) {}
    Mutex mutex;
    SkewReportMerger merger MJOIN_GUARDED_BY(mutex);
  };
  std::unordered_map<int, std::unique_ptr<SkewExchange>> skew_exchanges_;

  std::atomic<uint64_t> batches_sent_{0};

  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_point_;

  // Scheduler state (controller + completion flag + first error),
  // mutex-protected: any worker thread may deliver a milestone or abort.
  // QueryController itself is not thread-safe; guarding the member is what
  // serializes it (the contract its header documents).
  Mutex scheduler_mutex_;
  QueryController controller_ MJOIN_GUARDED_BY(scheduler_mutex_);
  Status run_status_ MJOIN_GUARDED_BY(scheduler_mutex_);
  CondVar done_cv_;
  bool done_ MJOIN_GUARDED_BY(scheduler_mutex_) = false;

  // The trace recorder exists only when tracing is on.
  std::shared_ptr<ThreadTraceRecorder> trace_;
};

Status ThreadRun::Prepare() {
  MJOIN_RETURN_IF_ERROR(CheckPlanCatalog(plan_, db_));
  nodes_.reserve(plan_.num_processors);
  for (uint32_t n = 0; n < plan_.num_processors; ++n) {
    nodes_.push_back(std::make_unique<WorkerNode>(
        n, options_.max_queued_batches, options_.queue_block_timeout,
        options_.fault_injector, host_.aborted_flag()));
  }
  for (const BatchPool* pool : pools_) {
    pool_base_allocated_ += pool->allocated();
    pool_base_reused_ += pool->reused();
  }

  if (options_.skew_defense.enabled()) {
    for (int id : DefendedJoinOps(plan_)) {
      skew_exchanges_.emplace(
          id, std::make_unique<SkewExchange>(
                  id, static_cast<uint32_t>(host_.op(id).processors.size()),
                  options_.skew_defense));
    }
  }

  std::vector<std::vector<Relation>> scan_fragments(plan_.ops.size());
  for (const XraOp& o : plan_.ops) {
    if (o.kind != XraOpKind::kScan) continue;
    MJOIN_ASSIGN_OR_RETURN(const Relation* base, db_.Get(o.relation));
    auto m = static_cast<uint32_t>(o.processors.size());
    const XraOp& consumer = host_.op(o.consumer);
    if (consumer.inputs[o.consumer_port].routing == Routing::kColocated &&
        consumer.is_join()) {
      size_t key = o.consumer_port == 0 ? consumer.join_spec.left_key
                                        : consumer.join_spec.right_key;
      MJOIN_ASSIGN_OR_RETURN(scan_fragments[static_cast<size_t>(o.id)],
                             HashPartition(*base, key, m));
    } else {
      scan_fragments[static_cast<size_t>(o.id)] =
          RoundRobinPartition(*base, m);
    }
  }
  return host_.Setup([](uint32_t) { return true; },
                     std::move(scan_fragments));
}

void ThreadRun::Abort(Status status) {
  {
    MutexLock lock(&scheduler_mutex_);
    if (done_ || host_.aborted()) return;
    run_status_ = std::move(status);
    host_.SetAborted();
  }
  for (auto& node : nodes_) node->Interrupt();
  done_cv_.NotifyAll();
}

bool ThreadRun::CheckRuntime() {
  if (host_.aborted()) return false;
  if (options_.cancellation.cancelled()) {
    Abort(Status::Cancelled("query cancelled by caller"));
    return false;
  }
  // lint:allow-clock deadline check, one read per scheduler tick
  if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_point_) {
    Abort(Status::DeadlineExceeded("query ran past its deadline"));
    return false;
  }
  return true;
}

void ThreadRun::PostToInstance(OpInstance* inst, std::function<void()> fn) {
  // Wrap so that pre-start buffering happens on the instance's own thread
  // (the started flag is only touched there).
  nodes_[inst->processor]->Post([inst, fn = std::move(fn)]() mutable {
    if (!inst->started) {
      inst->pre_start.push_back(std::move(fn));
    } else {
      fn();
    }
  });
}

void ThreadRun::DispatchGroups(const std::vector<int>& groups) {
  for (int g : groups) {
    for (int op_id : plan_.groups[static_cast<size_t>(g)].ops) {
      for (const auto& inst : host_.instances(op_id)) {
        OpInstance* raw = inst.get();
        nodes_[raw->processor]->Post([this, raw] { host_.Trigger(raw); });
      }
    }
  }
}

void ThreadRun::ScheduleSource(OpInstance* source) { PumpSource(source); }

void ThreadRun::PumpSource(OpInstance* inst) {
  if (!CheckRuntime()) return;
  // One batch per message so other processes on this node interleave.
  if (host_.Pump(inst)) {
    nodes_[inst->processor]->Post([this, inst] {
      if (!inst->complete) PumpSource(inst);
    });
  }
}

void ThreadRun::ShipBatch(OpInstance* from, uint32_t dest, TupleBatch* rows,
                          int copies) {
  const XraOp& o = host_.op(from->op_id);
  OpInstance* consumer = host_.instance(o.consumer, dest);
  // Swap the filled buffer out against a pooled one: the batch that ships
  // carries the pending bytes, and the pending batch inherits the recycled
  // buffer's capacity — steady state allocates nothing on either side. The
  // pool is the destination node's, so the consumer's release feeds its
  // own next acquisition.
  std::shared_ptr<TupleBatch> batch =
      pools_[consumer->processor]->Acquire(o.output_schema);
  std::swap(*batch, *rows);
  const int port = o.consumer_port;
  // Blocking on one's own queue would starve the very loop that drains
  // it, so same-node sends bypass the backpressure bound (the shared
  // message loop already throttles such producers).
  const bool same_node = consumer->processor == from->processor;
  // A cross-node PostData may block on backpressure; record stalls as
  // blocked-on-queue trace intervals (nested inside the producer's busy
  // interval when the flush happens mid-callback).
  const bool watch_block = trace_ != nullptr && !same_node;
  for (int c = 0; c < copies; ++c) {
    int64_t t0 = watch_block ? host_.NowNs() : 0;
    bool sent = nodes_[consumer->processor]->PostData(
        [this, consumer, port, batch] {
          host_.DeliverBatch(consumer, port, batch);
        },
        same_node);
    if (watch_block) {
      int64_t t1 = host_.NowNs();
      if (t1 - t0 >= kBlockedTraceThresholdNs) {
        trace_->Record(from->processor, t0, t1, ThreadWorkType::kBlocked,
                       /*op_id=*/-1);
      }
    }
    if (sent) batches_sent_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ThreadRun::SendEos(OpInstance* from, uint32_t dest) {
  const XraOp& o = host_.op(from->op_id);
  OpInstance* consumer = host_.instance(o.consumer, dest);
  const int port = o.consumer_port;
  nodes_[consumer->processor]->Post(
      [this, consumer, port] { host_.DeliverEos(consumer, port); });
}

void ThreadRun::ReportSkew(OpInstance* join, SkewJoinReport report) {
  SkewExchange* exchange = skew_exchanges_.at(join->op_id).get();
  std::shared_ptr<const SkewDirective> directive;
  {
    MutexLock lock(&exchange->mutex);
    exchange->merger.Add(std::move(report));
    if (exchange->merger.complete()) {
      directive =
          std::make_shared<const SkewDirective>(exchange->merger.Finish());
    }
  }
  // Broadcast before the milestone the host reports next: install/apply
  // posts enqueue ahead of any probe-group trigger the milestone may
  // dispatch, so a probe producer's writer is defended before its first
  // Produce() runs.
  if (directive != nullptr) BroadcastDirective(join->op_id, directive);
}

void ThreadRun::BroadcastDirective(
    int op_id, std::shared_ptr<const SkewDirective> directive) {
  // Defense hooks go to every producer instance of the probe edge; each
  // gets its own SkewEmitDefense (writers are single-threaded, the hook
  // holds per-instance state).
  const int producer =
      host_.op(op_id).inputs[SimpleHashJoinOp::kProbePort].producer;
  for (const auto& p : host_.instances(producer)) {
    OpInstance* raw = p.get();
    PostToInstance(raw, [this, raw, directive] {
      host_.InstallDefense(raw, *directive);
    });
  }
  // Replicated hot rows + the deferred InputDone(build) go to every join
  // instance (including the one that merged the directive).
  for (const auto& j : host_.instances(op_id)) {
    OpInstance* raw = j.get();
    PostToInstance(raw, [this, raw, directive] {
      host_.ApplyDirective(raw, *directive);
    });
  }
}

void ThreadRun::ReportMilestone(const OpInstance* inst, Milestone milestone) {
  std::vector<int> ready;
  bool all_done = false;
  {
    MutexLock lock(&scheduler_mutex_);
    if (host_.aborted()) return;
    ready = controller_.OnInstanceMilestone(inst->op_id, inst->index,
                                            milestone);
    all_done = controller_.AllOpsComplete();
  }
  if (!ready.empty()) DispatchGroups(ready);
  if (all_done) {
    {
      MutexLock lock(&scheduler_mutex_);
      done_ = true;
    }
    done_cv_.NotifyAll();
  }
}

ThreadExecStats ThreadRun::GatherStats() const {
  ThreadExecStats stats;
  stats.batches_sent = batches_sent_.load(std::memory_order_relaxed);
  stats.batches_processed = host_.batches_processed();
  stats.batches_dropped = host_.batches_dropped();
  stats.batches_duplicated = host_.batches_duplicated();
  for (const auto& node : nodes_) {
    stats.queue_overflows += node->overflows();
    stats.peak_queue_depth = std::max(stats.peak_queue_depth,
                                      node->peak_depth());
  }
  for (const BatchPool* pool : pools_) {
    stats.batch_buffers_allocated += pool->allocated();
    stats.batch_buffers_reused += pool->reused();
  }
  stats.batch_buffers_allocated -= pool_base_allocated_;
  stats.batch_buffers_reused -= pool_base_reused_;
  stats.peak_memory_bytes = host_.peak_memory_bytes();
  if (options_.collect_metrics) {
    stats.per_op.reserve(plan_.ops.size());
    for (const XraOp& o : plan_.ops) {
      ThreadOpStats per_op;
      per_op.op_id = o.id;
      per_op.name = o.label;
      per_op.kind = XraOpKindName(o.kind);
      per_op.trace_label = o.trace_label;
      per_op.instances = host_.MergeOpMetrics(o.id, &per_op.metrics);
      stats.per_op.push_back(std::move(per_op));
    }
  }
  return stats;
}

StatusOr<ThreadQueryResult> ThreadRun::Run(ThreadExecStats* stats_out) {
  // lint:allow-clock run wall-clock start, once per query
  auto start = std::chrono::steady_clock::now();
  // Trace t=0 and metric timestamps are run-relative.
  host_.set_clock_origin(std::chrono::duration_cast<std::chrono::nanoseconds>(
                             start.time_since_epoch())
                             .count());
  if (options_.deadline.has_value()) {
    has_deadline_ = true;
    deadline_point_ = start + *options_.deadline;
  }
  for (auto& node : nodes_) node->Start();

  // A pre-cancelled token (or a deadline that expires before dispatch)
  // aborts before any work is posted — but workers still started and must
  // be joined below, exercising the same teardown as a mid-flight abort.
  if (CheckRuntime()) {
    std::vector<int> initial;
    {
      MutexLock lock(&scheduler_mutex_);
      initial = controller_.TakeInitialGroups();
    }
    DispatchGroups(initial);
  }

  // Workers promote cancellation/deadline at batch boundaries; the 10 ms
  // poll here covers the corner where every worker is idle (or stalled by
  // an injected fault) when the token fires.
  for (;;) {
    {
      MutexLock lock(&scheduler_mutex_);
      auto poll_deadline =
          // lint:allow-clock scheduler poll tick, not a per-batch read
          std::chrono::steady_clock::now() + std::chrono::milliseconds(10);
      while (!done_ && !host_.aborted()) {
        if (!done_cv_.WaitUntil(scheduler_mutex_, poll_deadline)) break;
      }
      if (done_ || host_.aborted()) break;
    }
    if (!CheckRuntime()) break;
  }
  // lint:allow-clock run wall-clock end, once per query
  auto end = std::chrono::steady_clock::now();

  // Teardown: always join every worker, success or abort. Stop() wakes
  // blocked producers, drains queued messages (no-ops once aborted), and
  // joins, so no thread or queue outlives this function.
  for (auto& node : nodes_) node->Stop();

  ThreadExecStats stats = GatherStats();
  if (stats_out != nullptr) *stats_out = stats;

  double wall_seconds = std::chrono::duration<double>(end - start).count();
  // Published on the abort path too: partial progress is diagnosable.
  if (options_.metrics_registry != nullptr) {
    MetricsRegistry* registry = options_.metrics_registry;
    PublishExecMetrics("thread", stats, wall_seconds, registry);
    registry->counter("thread.queue_overflows")->Add(stats.queue_overflows);
    registry->gauge("thread.peak_queue_depth")
        ->Set(static_cast<int64_t>(stats.peak_queue_depth));
  }

  if (host_.aborted()) {
    MutexLock lock(&scheduler_mutex_);
    return run_status_;
  }

  ThreadQueryResult result;
  result.wall_seconds = wall_seconds;
  result.result = SummarizeFragments(host_.stored(plan_.final_result));
  if (options_.materialize_result) {
    result.materialized = ConcatFragments(host_.stored(plan_.final_result));
  }
  result.stats = stats;
  if (trace_ != nullptr) {
    auto makespan_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
            .count();
    result.utilization = trace_->Utilization(makespan_ns);
    result.utilization_diagram =
        trace_->RenderAscii(makespan_ns, options_.trace_width);
    result.trace = trace_;
  }
  return result;
}

}  // namespace

void PublishExecMetrics(const std::string& prefix,
                        const ThreadExecStats& stats, double wall_seconds,
                        MetricsRegistry* registry) {
  auto name = [&prefix](const char* metric) {
    return StrCat(prefix, ".", metric);
  };
  registry->counter(name("batches_sent"))->Add(stats.batches_sent);
  registry->counter(name("batches_processed"))->Add(stats.batches_processed);
  registry->counter(name("batches_dropped"))->Add(stats.batches_dropped);
  registry->counter(name("batches_duplicated"))
      ->Add(stats.batches_duplicated);
  registry->counter(name("batch_buffers_allocated"))
      ->Add(stats.batch_buffers_allocated);
  registry->counter(name("batch_buffers_reused"))
      ->Add(stats.batch_buffers_reused);
  registry->gauge(name("peak_memory_bytes"))
      ->Set(static_cast<int64_t>(stats.peak_memory_bytes));
  registry->histogram(name("wall_seconds"))->Observe(wall_seconds);
  Histogram* batch_hist = registry->histogram(name("batch_seconds"));
  uint64_t rows_out = 0;
  uint64_t hot_keys = 0;
  uint64_t replicated = 0;
  uint64_t repartitioned = 0;
  uint64_t bloom_filtered = 0;
  double bloom_fp_rate = 0;
  for (const ThreadOpStats& per_op : stats.per_op) {
    for (double sample : per_op.metrics.batch_seconds.values()) {
      batch_hist->Observe(sample);
    }
    rows_out += per_op.metrics.rows_out;
    hot_keys += per_op.metrics.skew_hot_keys;
    replicated += per_op.metrics.skew_replicated_rows;
    repartitioned += per_op.metrics.skew_repartitioned_rows;
    bloom_filtered += per_op.metrics.skew_bloom_filtered_rows;
    bloom_fp_rate =
        std::max(bloom_fp_rate, per_op.metrics.skew_bloom_fp_rate);
  }
  registry->counter(name("rows_emitted"))->Add(rows_out);
  registry->counter("skew.hot_keys_detected")->Add(hot_keys);
  registry->counter("skew.replicated_rows")->Add(replicated);
  registry->counter("skew.repartitioned_rows")->Add(repartitioned);
  registry->counter("skew.bloom_filtered_rows")->Add(bloom_filtered);
  registry->histogram("skew.bloom_fp_rate")->Observe(bloom_fp_rate);
}

std::string RenderThreadOpStats(const ThreadExecStats& stats) {
  if (stats.per_op.empty()) return "";
  TablePrinter table({"op", "kind", "label", "inst", "rows in", "rows out",
                      "busy [s]", "build [s]", "probe [s]", "batch p95 [ms]",
                      "ht rows", "collisions", "peak mem"});
  for (const ThreadOpStats& per_op : stats.per_op) {
    const OpMetrics& m = per_op.metrics;
    std::string p95 = "-";
    if (m.batch_seconds.count() > 0) {
      p95 = FormatDouble(m.batch_seconds.Percentile(95) * 1e3, 3);
    }
    table.AddRow(
        {StrCat(per_op.op_id), per_op.kind,
         StrCat(per_op.name, " '", std::string(1, per_op.trace_label), "'"),
         StrCat(per_op.instances), StrCat(m.rows_in[0] + m.rows_in[1]),
         StrCat(m.rows_out), FormatDouble(m.busy_seconds(), 3),
         FormatDouble(m.build_seconds, 3), FormatDouble(m.probe_seconds, 3),
         p95, StrCat(m.hash_table_rows), StrCat(m.hash_collisions),
         FormatBytes(m.peak_memory_bytes)});
  }
  return table.ToString();
}

StatusOr<ThreadQueryResult> ThreadExecutor::Execute(
    const ParallelPlan& plan, const ThreadExecOptions& options,
    ThreadExecStats* stats_out) const {
  if (options.batch_size == 0) {
    return Status::InvalidArgument(
        "ThreadExecOptions::batch_size must be positive");
  }
  if (options.deadline.has_value() && options.deadline->count() <= 0) {
    return Status::InvalidArgument(
        "ThreadExecOptions::deadline must be positive when set");
  }
  MJOIN_RETURN_IF_ERROR(plan.Validate());
  std::vector<BatchPool*> pools;
  {
    MutexLock lock(&pools_mutex_);
    while (pools_.size() < plan.num_processors) {
      pools_.push_back(std::make_unique<BatchPool>());
    }
    pools.reserve(plan.num_processors);
    for (uint32_t n = 0; n < plan.num_processors; ++n) {
      pools.push_back(pools_[n].get());
    }
  }
  ThreadRun run(plan, *database_, options, std::move(pools));
  MJOIN_RETURN_IF_ERROR(run.Prepare());
  return run.Run(stats_out);
}

ThreadExecutor::ThreadExecutor(const Database* database)
    : database_(database) {}

ThreadExecutor::~ThreadExecutor() = default;

}  // namespace mjoin
