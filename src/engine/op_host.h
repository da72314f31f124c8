#ifndef MJOIN_ENGINE_OP_HOST_H_
#define MJOIN_ENGINE_OP_HOST_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common/cancellation.h"
#include "common/memory_budget.h"
#include "common/statusor.h"
#include "engine/thread_trace.h"
#include "exec/batch.h"
#include "exec/emit.h"
#include "exec/operator.h"
#include "skew/defense.h"
#include "storage/relation.h"
#include "xra/plan.h"

namespace mjoin {

class FaultInjector;

/// Builds the operator of one instance of `op`. Scans and rescans read
/// `fragment` (resolved at Open, so the relation may still be filling when
/// the operator is built); every other kind ignores it. The one operator
/// factory of the simulator, thread and process backends.
[[nodiscard]] StatusOr<std::unique_ptr<Operator>> MakeOperator(
    const XraOp& op, const Relation* fragment);

/// Work type of a Consume() callback, for trace labels and the phase
/// buckets of OpMetrics.
ThreadWorkType ConsumeWorkType(XraOpKind kind, int port);

/// Work type of an InputDone() callback. The interesting cases do real
/// work there: a simple hash-join replays buffered probe batches when the
/// build side completes, a sort-merge join sorts and merges, an
/// aggregation emits its groups.
ThreadWorkType InputDoneWorkType(XraOpKind kind, int port);

/// The OpMetrics bucket a work type's seconds accumulate into.
double* PhaseBucket(OpMetrics* m, ThreadWorkType type);

class OpHost;

/// One hosted operation process of a real (wall-clock) backend. Its
/// callbacks all run on one thread — its node's worker thread, or the
/// single thread of a worker process — so the state needs no locking.
///
/// Output leaves through the instance's EmitWriter: operators that can
/// build rows in place write directly into out_pending (the zero-copy
/// path); EmitRow/EmitRows copy into it. Either way the writer's flush
/// threshold fires BatchFull(), and the host stores or ships the batch.
class OpInstance final : public OpContext, public EmitSink {
 public:
  OpInstance(OpHost* host, int op_id, uint32_t index, uint32_t processor)
      : host(host), op_id(op_id), index(index), processor(processor) {}

  void Charge(Ticks) override {}  // wall-clock backends: real work is time
  void EmitRow(const std::byte* row) override;
  void EmitRows(const std::byte* rows, size_t count,
                size_t row_bytes) override;
  EmitWriter* emit_writer() override {
    return writer_ready ? &writer : nullptr;
  }
  void BatchFull(uint32_t dest) override;
  const CostParams& costs() const override;
  MemoryBudget* memory_budget() const override;
  bool cancelled() const override;
  void ReportError(const Status& status) override;
  OpMetrics* metrics() const override;

  OpHost* const host;
  const int op_id;
  const uint32_t index;
  /// The plan processor this instance runs on (its trace lane).
  const uint32_t processor;
  std::unique_ptr<Operator> oper;

  /// This instance's metrics; touched only from its own thread, read by
  /// the host after the run.
  mutable OpMetrics op_metrics;

  bool started = false;
  bool complete = false;
  bool build_done_reported = false;
  int eos_remaining[2] = {0, 0};
  /// Pending output: one batch per consumer instance, or a single batch
  /// when this op stores its result locally.
  std::vector<TupleBatch> out_pending;
  /// The zero-copy channel over out_pending; rows_committed() is this
  /// instance's rows-out count (every emit path goes through it).
  EmitWriter writer;
  bool writer_ready = false;
  /// Callbacks that arrived before the trigger, replayed by Trigger().
  std::deque<std::function<void()>> pre_start;
  /// The skew-defense routing hook installed on this instance's writer
  /// when a directive for its consumer join arrives (probe-edge producers
  /// only). Owned here so it lives exactly as long as the writer uses it.
  std::unique_ptr<EmitDefense> skew_hook;
};

/// What a backend supplies to an OpHost: how batches, end-of-stream
/// markers, milestones and skew reports leave an instance, and how the
/// query is checked and stopped. Called once per batch or callback, never
/// once per row.
class OpTransport {
 public:
  virtual ~OpTransport() = default;

  /// Ships the flushed, non-empty `*rows` of `from` to instance `dest` of
  /// its consumer, `copies` times (the fault injector may duplicate), and
  /// leaves `*rows` empty and appendable.
  virtual void ShipBatch(OpInstance* from, uint32_t dest, TupleBatch* rows,
                         int copies) = 0;
  /// Ends `from`'s stream toward instance `dest` of its consumer; must
  /// follow the path the stream's batches took.
  virtual void SendEos(OpInstance* from, uint32_t dest) = 0;
  /// Starts driving a just-opened source: OpHost::Pump until it returns
  /// false.
  virtual void ScheduleSource(OpInstance* source) = 0;
  virtual void ReportMilestone(const OpInstance* inst,
                               Milestone milestone) = 0;
  /// A defended join instance finished its build: `report` summarizes its
  /// table. The merged directive comes back through OpHost::InstallDefense
  /// on the probe producers and OpHost::ApplyDirective on the join.
  virtual void ReportSkew(OpInstance* join, SkewJoinReport report) = 0;
  /// One timed interval of `processor`'s lane (only with record_trace).
  virtual void RecordTrace(uint32_t processor, int64_t t0, int64_t t1,
                           ThreadWorkType type, int op_id) = 0;
  /// False once the query should do no further work; a backend may
  /// promote cancellation or an expired deadline into an abort here.
  virtual bool CheckRuntime() = 0;
  /// Records the first failure and starts teardown. Must call
  /// OpHost::SetAborted() unless the run already finished or aborted.
  virtual void Abort(Status status) = 0;
};

struct OpHostOptions {
  uint32_t batch_size = 256;
  uint64_t memory_budget_bytes = 0;
  bool collect_metrics = false;
  bool record_trace = false;
  SkewDefenseOptions skew_defense;
  /// Caller-owned; null = no injected faults.
  FaultInjector* injector = nullptr;
  /// Caller-owned token operators poll through cancelled(); null = none.
  const CancellationToken* cancellation = nullptr;
};

/// The operation-process host shared by the thread and process backends:
/// the instances of the hosted share of one plan and their per-instance
/// state machine — trigger and pre-start replay, row routing through the
/// EmitWriter, stored-result appends under the memory budget, injected
/// drops and duplicates, Consume/InputDone with phase timing, the
/// defended-build hand-off, milestones, and end-of-stream propagation.
/// Everything that moves between instances goes through the OpTransport.
///
/// Thread-safety: each instance's methods run on that instance's thread;
/// the host's shared state (budget, counters, abort flag) is thread-safe.
class OpHost {
 public:
  OpHost(const ParallelPlan& plan, const OpHostOptions& options,
         OpTransport* transport);

  /// Builds an instance for every (op, index) whose processor `hosts`
  /// accepts. Scan instance i reads scan_fragments[op][i]; an empty entry
  /// gets empty fragments the caller fills before the scan opens.
  [[nodiscard]] Status Setup(
      const std::function<bool(uint32_t processor)>& hosts,
      std::vector<std::vector<Relation>> scan_fragments);

  const XraOp& op(int id) const { return plan_.ops[static_cast<size_t>(id)]; }
  /// Null when this host does not run that instance.
  OpInstance* instance(int op, uint32_t index) {
    return instances_[static_cast<size_t>(op)][index].get();
  }
  const std::vector<std::unique_ptr<OpInstance>>& instances(int op) const {
    return instances_[static_cast<size_t>(op)];
  }
  Relation* scan_fragment(int op, uint32_t index) {
    return &scan_fragments_[static_cast<size_t>(op)][index];
  }
  const std::vector<Relation>& stored(int result) const {
    return stored_[static_cast<size_t>(result)];
  }
  bool defended(int op) const { return defended_[static_cast<size_t>(op)]; }
  MemoryBudget* budget() { return &budget_; }
  uint64_t peak_memory_bytes() const { return budget_.peak(); }
  const CostParams& costs() const { return costs_; }
  bool collect_metrics() const { return options_.collect_metrics; }

  bool aborted() const { return aborted_.load(std::memory_order_acquire); }
  const std::atomic<bool>* aborted_flag() const { return &aborted_; }
  void SetAborted() { aborted_.store(true, std::memory_order_release); }
  void Abort(Status status) { transport_->Abort(std::move(status)); }
  /// Teardown started, or the caller's token fired.
  bool cancelled() const {
    return aborted() ||
           (options_.cancellation != nullptr &&
            options_.cancellation->cancelled());
  }

  /// Trace and phase timestamps are nanoseconds since `origin_ns`
  /// (steady_clock time since epoch).
  void set_clock_origin(int64_t origin_ns) { origin_ns_ = origin_ns; }
  int64_t NowNs() const;

  /// Marks the instance started, opens it, hands a source to the
  /// transport, and replays what arrived before the trigger.
  void Trigger(OpInstance* inst);
  /// One Produce() call of a started source; finishes the instance when
  /// the source is exhausted. Returns true while more remains.
  bool Pump(OpInstance* inst);
  /// Delivery on the instance's own thread: runs now once it started,
  /// buffers until its trigger otherwise.
  void DeliverBatch(OpInstance* inst, int port,
                    std::shared_ptr<TupleBatch> batch);
  void DeliverEos(OpInstance* inst, int port);
  void OnBatch(OpInstance* inst, int port, const TupleBatch& batch);
  void OnEos(OpInstance* inst, int port);
  /// Installs a merged directive's routing hook on a probe-edge producer
  /// that has not finished yet (one that did emitted undefended rows —
  /// correct, just unsprayed).
  void InstallDefense(OpInstance* producer, const SkewDirective& directive);
  /// Inserts a directive's replicated hot rows into a defended join and
  /// runs its deferred InputDone(build).
  void ApplyDirective(OpInstance* join, const SkewDirective& directive);

  void EmitRowFrom(OpInstance* inst, const std::byte* row);
  void EmitRowsFrom(OpInstance* inst, const std::byte* rows, size_t count,
                    size_t row_bytes);
  void FlushDest(OpInstance* inst, uint32_t dest);

  /// Merges the metrics of this host's instances of `op` into `out`: the
  /// observed phases, the writer's rows-out and skew counters, and the
  /// operator's own detail. Returns the number of hosted instances.
  uint32_t MergeOpMetrics(int op, OpMetrics* out) const;

  uint64_t batches_processed() const {
    return batches_processed_.load(std::memory_order_relaxed);
  }
  uint64_t batches_dropped() const {
    return batches_dropped_.load(std::memory_order_relaxed);
  }
  uint64_t batches_duplicated() const {
    return batches_duplicated_.load(std::memory_order_relaxed);
  }

 private:
  /// Runs one operator callback, timed when observability is on: the
  /// elapsed time lands in the instance's phase bucket and (when tracing)
  /// as an interval of its lane. With both switches off this is a plain
  /// call — no clock is read.
  template <typename Fn>
  void Observed(OpInstance* inst, ThreadWorkType type, Fn&& fn);
  /// The defended join's build input finished: its table is scanned into
  /// a skew report instead of completing the build. The kBuildDone
  /// milestone fires immediately (so dependent probe groups dispatch) but
  /// InputDone(build) waits for the merged directive — probe batches,
  /// including hot-key rows sprayed by already-defended producers, buffer
  /// inside the operator until then.
  void HandleDefendedBuildEos(OpInstance* inst);
  void AfterCallback(OpInstance* inst);
  void FinishInstance(OpInstance* inst);

  const ParallelPlan& plan_;
  const OpHostOptions options_;
  OpTransport* const transport_;
  const bool observe_;
  CostParams costs_;
  int64_t origin_ns_ = 0;

  // The budget precedes instances_ so operator reservations release into
  // a live budget during destruction.
  MemoryBudget budget_;
  std::vector<std::vector<Relation>> stored_;
  std::vector<std::vector<Relation>> scan_fragments_;
  std::vector<std::vector<std::unique_ptr<OpInstance>>> instances_;
  /// Per op: a defended join, whose build milestone trails a skew report.
  std::vector<bool> defended_;

  std::atomic<bool> aborted_{false};
  std::atomic<uint64_t> batches_processed_{0};
  std::atomic<uint64_t> batches_dropped_{0};
  std::atomic<uint64_t> batches_duplicated_{0};
};

}  // namespace mjoin

#endif  // MJOIN_ENGINE_OP_HOST_H_
