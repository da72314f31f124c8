#include "engine/sim_executor.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <vector>

#include "common/string_util.h"
#include "common/table_printer.h"
#include "engine/controller.h"
#include "exec/batch.h"
#include "exec/batch_pool.h"
#include "exec/emit.h"
#include "engine/op_host.h"
#include "exec/operator.h"
#include "exec/simple_hash_join.h"
#include "storage/partitioner.h"

namespace mjoin {

namespace {

class SimRun;

/// One operation process: an operator instance pinned to a simulated node,
/// implementing OpContext for it. All tasks of an instance run on its node
/// (serialized), so the per-task accumulators need no synchronization.
class Instance : public OpContext, public EmitSink {
 public:
  Instance(SimRun* run, int op_id, uint32_t index, uint32_t node)
      : run_(run), op_id_(op_id), index_(index), node_(node) {}

  // OpContext:
  void Charge(Ticks cost) override { task_cost_ += cost; }
  void EmitRow(const std::byte* row) override;
  void EmitRows(const std::byte* rows, size_t count,
                size_t row_bytes) override;
  EmitWriter* emit_writer() override {
    return writer_ready ? &writer : nullptr;
  }
  void BatchFull(uint32_t dest) override;
  const CostParams& costs() const override;

  SimRun* run_;
  int op_id_;
  uint32_t index_;
  uint32_t node_;
  std::unique_ptr<Operator> oper;

  /// Zero-copy emit channel over out_pending; rows_committed() is this
  /// instance's tuples-out count (every emit path goes through it).
  EmitWriter writer;
  bool writer_ready = false;

  bool initialized = false;     // the scheduler's serial init reached us
  bool triggered = false;       // our trigger group fired
  bool start_requested = false; // brokerage requested (gates re-entry)
  bool start_submitted = false; // start task on the node (gates buffering)
  bool open_done = false;
  bool complete = false;
  bool build_done_reported = false;
  int eos_remaining[2] = {0, 0};

  /// Per-destination pending output batches (a single batch when
  /// storing: the flush bulk-appends it into the stored fragment).
  std::vector<TupleBatch> out_pending;

  /// Messages that arrived before the start task was submitted.
  std::deque<std::function<void()>> pre_start;

  /// Memory last reported to the node-level accounting.
  size_t reported_memory = 0;

  // EXPLAIN ANALYZE counters.
  uint64_t tuples_in = 0;
  uint64_t tuples_out = 0;
  Ticks busy_ticks = 0;
  Ticks first_start = -1;
  Ticks finish_time = 0;

  // Current-task accumulators (valid only inside a task body).
  Ticks task_cost_ = 0;
  std::vector<DeferredAction> task_deferred_;
};

/// One full simulated execution of a plan.
class SimRun {
 public:
  SimRun(const ParallelPlan& plan, const Database& db,
         const SimExecOptions& options)
      : plan_(plan),
        db_(db),
        options_(options),
        machine_(plan.num_processors, options.costs, options.record_trace),
        controller_(&plan) {}

  Status Prepare();
  StatusOr<SimQueryResult> Run();

  const CostParams& costs() const { return machine_.costs(); }

  // --- routing / messaging -------------------------------------------------

  void EmitRowFrom(Instance* inst, const std::byte* row);
  void EmitRowsFrom(Instance* inst, const std::byte* rows, size_t count,
                    size_t row_bytes);
  void FlushDest(Instance* inst, uint32_t dest);

  Instance* instance(int op, uint32_t index) {
    return instances_[static_cast<size_t>(op)][index].get();
  }
  const XraOp& op(int id) const {
    return plan_.ops[static_cast<size_t>(id)];
  }

 private:
  // Submits a task running `fn(inst)` on the instance's node; the task's
  // cost is whatever fn charges, and its deferred actions are released at
  // completion.
  void SubmitTask(Instance* inst, char label, std::function<void(Instance*)> fn);

  // Delivers `msg` to `inst`, buffering if the instance has not started.
  void PostMessage(Instance* inst, std::function<void()> msg);

  void TryStart(Instance* inst);
  void BeginStart(Instance* inst);
  void RunStartTask(Instance* inst);
  void PumpSource(Instance* inst);
  void AfterCallback(Instance* inst);
  void FinishInstanceBody(Instance* inst);
  void DeliverBatch(Instance* producer, uint32_t dest,
                    std::shared_ptr<TupleBatch> batch);
  void SubmitConsume(Instance* consumer, int port,
                     std::shared_ptr<TupleBatch> batch, bool networked);
  void SubmitEos(Instance* consumer, int port);
  void NotifyScheduler(Instance* inst, Milestone milestone);
  void DispatchGroups(const std::vector<int>& groups);

  const ParallelPlan& plan_;
  const Database& db_;
  const SimExecOptions& options_;
  // The pool precedes machine_ and instances_ (whose queued events and
  // pre-start buffers hold pooled batches), so it is destroyed last.
  BatchPool pool_;
  SimMachine machine_;
  QueryController controller_;

  // [op][instance]
  std::vector<std::vector<std::unique_ptr<Instance>>> instances_;
  // [result_id][instance]
  std::vector<std::vector<Relation>> stored_;
  // [scan op id] -> fragments per instance
  std::vector<std::vector<Relation>> scan_fragments_;

  // Live operator memory per node, for the memory-pressure simulation.
  std::vector<size_t> node_memory_;

  Ticks last_finish_ = 0;
  std::string error_;
};

const CostParams& Instance::costs() const { return run_->costs(); }

void Instance::EmitRow(const std::byte* row) { run_->EmitRowFrom(this, row); }

void Instance::EmitRows(const std::byte* rows, size_t count,
                        size_t row_bytes) {
  run_->EmitRowsFrom(this, rows, count, row_bytes);
}

void Instance::BatchFull(uint32_t dest) { run_->FlushDest(this, dest); }

Status SimRun::Prepare() {
  MJOIN_RETURN_IF_ERROR(CheckPlanCatalog(plan_, db_));
  node_memory_.assign(plan_.num_processors + 2, 0);
  size_t num_ops = plan_.ops.size();
  instances_.resize(num_ops);
  scan_fragments_.resize(num_ops);
  stored_.resize(static_cast<size_t>(plan_.num_results));

  // Storage for stored results, aligned with the storing op's instances.
  for (const XraOp& o : plan_.ops) {
    if (o.store_result >= 0) {
      auto& frags = stored_[static_cast<size_t>(o.store_result)];
      frags.reserve(o.processors.size());
      for (size_t i = 0; i < o.processors.size(); ++i) {
        frags.emplace_back(*o.output_schema);
      }
    }
  }

  // Initial declustering of base relations: each scan's relation is
  // fragmented over the scan's processors on the key its consumer joins
  // on (the paper's "ideal initial fragmentation").
  for (const XraOp& o : plan_.ops) {
    if (o.kind != XraOpKind::kScan) continue;
    MJOIN_ASSIGN_OR_RETURN(const Relation* base, db_.Get(o.relation));
    auto m = static_cast<uint32_t>(o.processors.size());
    const XraOp& consumer = op(o.consumer);
    if (consumer.inputs[o.consumer_port].routing == Routing::kColocated &&
        consumer.is_join()) {
      size_t key = o.consumer_port == 0 ? consumer.join_spec.left_key
                                        : consumer.join_spec.right_key;
      MJOIN_ASSIGN_OR_RETURN(scan_fragments_[static_cast<size_t>(o.id)],
                             HashPartition(*base, key, m));
    } else {
      scan_fragments_[static_cast<size_t>(o.id)] =
          RoundRobinPartition(*base, m);
    }
  }

  // Operation processes.
  for (const XraOp& o : plan_.ops) {
    auto& list = instances_[static_cast<size_t>(o.id)];
    for (uint32_t i = 0; i < o.processors.size(); ++i) {
      auto inst = std::make_unique<Instance>(this, o.id, i, o.processors[i]);
      const Relation* fragment = nullptr;
      if (o.kind == XraOpKind::kScan) {
        fragment = &scan_fragments_[static_cast<size_t>(o.id)][i];
      } else if (o.kind == XraOpKind::kRescan) {
        fragment = &stored_[static_cast<size_t>(o.stored_result)][i];
      }
      MJOIN_ASSIGN_OR_RETURN(inst->oper, MakeOperator(o, fragment));
      // Expected end-of-stream messages per port.
      {
        for (int port = 0; port < inst->oper->num_input_ports(); ++port) {
          const XraInput& input = o.inputs[port];
          const XraOp& producer = op(input.producer);
          inst->eos_remaining[port] =
              input.routing == Routing::kColocated
                  ? 1
                  : static_cast<int>(producer.processors.size());
        }
      }
      // Output buffers + the zero-copy emit channel over them. A zero
      // batch_size cost model degrades to flush-per-row (threshold 1).
      const uint32_t flush_threshold =
          std::max<uint32_t>(1, costs().batch_size);
      if (o.store_result >= 0) {
        inst->out_pending.emplace_back(o.output_schema);
        inst->writer.Configure(inst->out_pending.data(), 1,
                               /*split_column=*/-1, /*fixed_dest=*/0,
                               flush_threshold, inst.get());
        inst->writer_ready = true;
      } else if (o.consumer >= 0) {
        const XraOp& consumer = op(o.consumer);
        const XraInput& input = consumer.inputs[o.consumer_port];
        inst->out_pending.reserve(consumer.processors.size());
        for (size_t d = 0; d < consumer.processors.size(); ++d) {
          inst->out_pending.emplace_back(o.output_schema);
        }
        int split_column = input.routing == Routing::kHashSplit
                               ? static_cast<int>(input.split_key)
                               : -1;
        uint32_t fixed_dest =
            input.routing == Routing::kColocated ? i : 0;
        inst->writer.Configure(
            inst->out_pending.data(),
            static_cast<uint32_t>(consumer.processors.size()), split_column,
            fixed_dest, flush_threshold, inst.get());
        inst->writer_ready = true;
      }
      list.push_back(std::move(inst));
    }
  }
  return Status::OK();
}

void SimRun::SubmitTask(Instance* inst, char label,
                        std::function<void(Instance*)> fn) {
  machine_.node(inst->node_).Submit(label, [this, inst, fn = std::move(fn)] {
    inst->task_cost_ = 0;
    inst->task_deferred_.clear();
    fn(inst);
    // Node-level memory accounting; a node over its memory budget pays
    // the paper's "increased disk traffic" penalty on its CPU work.
    size_t current = inst->oper->memory_bytes();
    node_memory_[inst->node_] += current;
    node_memory_[inst->node_] -= inst->reported_memory;
    inst->reported_memory = current;
    Ticks cost = inst->task_cost_;
    size_t limit = costs().memory_per_node_bytes;
    if (limit > 0 && node_memory_[inst->node_] > limit) {
      cost = static_cast<Ticks>(static_cast<double>(cost) *
                                costs().memory_pressure_factor);
    }
    if (inst->first_start < 0) inst->first_start = machine_.sim().Now();
    inst->busy_ticks += cost;
    return TaskResult{cost, std::move(inst->task_deferred_)};
  });
}

void SimRun::PostMessage(Instance* inst, std::function<void()> msg) {
  if (!inst->start_submitted) {
    inst->pre_start.push_back(std::move(msg));
  } else {
    msg();
  }
}

void SimRun::DispatchGroups(const std::vector<int>& groups) {
  for (int g : groups) {
    for (int op_id : plan_.groups[static_cast<size_t>(g)].ops) {
      for (auto& inst : instances_[static_cast<size_t>(op_id)]) {
        Instance* raw = inst.get();
        machine_.sim().Schedule(costs().trigger_latency, [this, raw] {
          raw->triggered = true;
          TryStart(raw);
        });
      }
    }
  }
}

void SimRun::TryStart(Instance* inst) {
  // A process starts once the scheduler's serial initialization reached it
  // *and* its trigger group fired.
  if (!inst->initialized || !inst->triggered || inst->start_requested) return;
  inst->start_requested = true;

  // Outgoing networked streams must be registered with the (serial)
  // stream broker before the process may open them; an n x m
  // refragmentation therefore costs n*m serialized broker ticks in total —
  // the quadratic part of the paper's coordination overhead.
  Ticks broker_cost = 0;
  const XraOp& o = op(inst->op_id_);
  if (o.consumer >= 0) {
    const XraOp& consumer = op(o.consumer);
    if (consumer.inputs[o.consumer_port].routing == Routing::kHashSplit) {
      broker_cost = static_cast<Ticks>(consumer.processors.size()) *
                    costs().broker_handshake;
    }
  }
  if (broker_cost == 0) {
    BeginStart(inst);
    return;
  }
  machine_.counters().handshake_ticks += broker_cost;
  machine_.node(machine_.broker_id()).Submit('b', [this, inst, broker_cost] {
    TaskResult result;
    result.cost = broker_cost;
    result.after.push_back(
        {costs().trigger_latency, [this, inst] { BeginStart(inst); }});
    return result;
  });
}

void SimRun::BeginStart(Instance* inst) {
  inst->start_submitted = true;
  RunStartTask(inst);
  // Release anything that arrived early; it runs after the start task on
  // the same node (FIFO per node).
  while (!inst->pre_start.empty()) {
    auto msg = std::move(inst->pre_start.front());
    inst->pre_start.pop_front();
    msg();
  }
}

void SimRun::RunStartTask(Instance* inst) {
  const XraOp& o = op(inst->op_id_);
  SubmitTask(inst, 'h', [this, &o](Instance* inst) {
    // Handshake: one unit of coordination per networked stream endpoint
    // this process participates in.
    Ticks handshake = 0;
    if (o.is_join()) {
      for (int port = 0; port < 2; ++port) {
        const XraInput& input = o.inputs[port];
        if (input.routing == Routing::kHashSplit) {
          handshake += static_cast<Ticks>(
              op(input.producer).processors.size());
        }
      }
    }
    if (o.consumer >= 0) {
      const XraOp& consumer = op(o.consumer);
      if (consumer.inputs[o.consumer_port].routing == Routing::kHashSplit) {
        handshake += static_cast<Ticks>(consumer.processors.size());
      }
    }
    Ticks handshake_cost = handshake * costs().stream_handshake;
    inst->Charge(handshake_cost);
    machine_.counters().handshake_ticks += handshake_cost;

    inst->oper->Open(inst);
    inst->open_done = true;
    if (inst->oper->is_source()) {
      inst->task_deferred_.push_back(
          {0, [this, inst] { PumpSource(inst); }});
    }
  });
}

void SimRun::PumpSource(Instance* inst) {
  const XraOp& o = op(inst->op_id_);
  SubmitTask(inst, o.trace_label, [this](Instance* inst) {
    bool more = inst->oper->Produce(inst);
    if (more) {
      inst->task_deferred_.push_back({0, [this, inst] { PumpSource(inst); }});
    } else {
      FinishInstanceBody(inst);
    }
  });
}

void SimRun::EmitRowFrom(Instance* inst, const std::byte* row) {
  // Copying fallback: the finished row still travels through the writer,
  // which owns routing, the flush threshold, and the tuples-out count.
  EmitWriter& writer = inst->writer;
  int32_t route = 0;
  if (writer.split_column() >= 0) {
    TupleRef ref(row, op(inst->op_id_).output_schema.get());
    route = ref.GetInt32(static_cast<size_t>(writer.split_column()));
  }
  writer.Append(row, route);
}

void SimRun::EmitRowsFrom(Instance* inst, const std::byte* rows, size_t count,
                          size_t row_bytes) {
  EmitWriter& writer = inst->writer;
  const int split = writer.split_column();
  if (split < 0) {
    writer.AppendRows(rows, count);
    return;
  }
  for (size_t i = 0; i < count; ++i) {
    const std::byte* row = rows + i * row_bytes;
    TupleRef ref(row, op(inst->op_id_).output_schema.get());
    writer.Append(row, ref.GetInt32(static_cast<size_t>(split)));
  }
}

void SimRun::FlushDest(Instance* inst, uint32_t dest) {
  TupleBatch& pending = inst->out_pending[dest];
  if (pending.empty()) return;
  const XraOp& o = op(inst->op_id_);
  if (o.store_result >= 0) {
    stored_[static_cast<size_t>(o.store_result)][inst->index_].AppendRows(
        pending.raw_data(), pending.num_tuples());
    pending.Clear();
    return;
  }
  // Swap the filled buffer against a pooled one: pending inherits the
  // recycled capacity, and the batch ships without a copy. It is wrapped
  // in a shared_ptr exactly once, here — DeliverBatch and SubmitConsume
  // pass the pointer along.
  std::shared_ptr<TupleBatch> batch = pool_.Acquire(o.output_schema);
  std::swap(*batch, pending);
  DeliverBatch(inst, dest, std::move(batch));
}

void SimRun::DeliverBatch(Instance* producer, uint32_t dest,
                          std::shared_ptr<TupleBatch> batch) {
  const XraOp& o = op(producer->op_id_);
  const XraOp& consumer_op = op(o.consumer);
  bool networked =
      consumer_op.inputs[o.consumer_port].routing == Routing::kHashSplit;
  Instance* consumer = instance(o.consumer, dest);
  int port = o.consumer_port;
  Ticks latency = 0;
  if (networked) {
    auto n = static_cast<Ticks>(batch->num_tuples());
    producer->Charge(costs().batch_overhead + n * costs().tuple_send);
    machine_.counters().batches_sent += 1;
    machine_.counters().tuples_sent += static_cast<uint64_t>(n);
    latency = costs().network_latency;
  }
  producer->task_deferred_.push_back(
      {latency, [this, consumer, port, batch = std::move(batch), networked] {
         PostMessage(consumer, [this, consumer, port, batch, networked] {
           SubmitConsume(consumer, port, batch, networked);
         });
       }});
}

void SimRun::SubmitConsume(Instance* consumer, int port,
                           std::shared_ptr<TupleBatch> batch, bool networked) {
  const XraOp& o = op(consumer->op_id_);
  SubmitTask(consumer, o.trace_label,
             [this, port, batch = std::move(batch), networked](Instance* inst) {
               if (networked) {
                 inst->Charge(costs().batch_overhead +
                              static_cast<Ticks>(batch->num_tuples()) *
                                  costs().tuple_recv);
               }
               inst->tuples_in += batch->num_tuples();
               inst->oper->Consume(port, *batch, inst);
               AfterCallback(inst);
             });
}

void SimRun::SubmitEos(Instance* consumer, int port) {
  const XraOp& o = op(consumer->op_id_);
  SubmitTask(consumer, o.trace_label, [this, port](Instance* inst) {
    MJOIN_CHECK(inst->eos_remaining[port] > 0)
        << "unexpected EOS on port " << port << " of " << op(inst->op_id_).label;
    if (--inst->eos_remaining[port] == 0) {
      inst->oper->InputDone(port, inst);
    }
    AfterCallback(inst);
  });
}

void SimRun::AfterCallback(Instance* inst) {
  const XraOp& o = op(inst->op_id_);
  if (o.kind == XraOpKind::kSimpleHashJoin && !inst->build_done_reported) {
    auto* join = static_cast<SimpleHashJoinOp*>(inst->oper.get());
    if (join->build_done()) {
      inst->build_done_reported = true;
      NotifyScheduler(inst, Milestone::kBuildDone);
    }
  }
  if (!inst->complete && inst->oper->finished()) FinishInstanceBody(inst);
}

void SimRun::FinishInstanceBody(Instance* inst) {
  MJOIN_CHECK(!inst->complete);
  inst->complete = true;
  // A finished operator frees its hash tables / buffers.
  inst->oper->ReleaseMemory();
  const XraOp& o = op(inst->op_id_);

  // Flush all pending output — the stored-result tail included — then
  // signal end-of-stream downstream.
  for (uint32_t d = 0; d < inst->out_pending.size(); ++d) FlushDest(inst, d);
  if (o.consumer >= 0) {
    const XraOp& consumer_op = op(o.consumer);
    bool networked =
        consumer_op.inputs[o.consumer_port].routing == Routing::kHashSplit;
    int port = o.consumer_port;
    if (networked) {
      for (uint32_t d = 0; d < consumer_op.processors.size(); ++d) {
        Instance* consumer = instance(o.consumer, d);
        inst->task_deferred_.push_back(
            {costs().network_latency, [this, consumer, port] {
               PostMessage(consumer,
                           [this, consumer, port] { SubmitEos(consumer, port); });
             }});
      }
    } else {
      Instance* consumer = instance(o.consumer, inst->index_);
      inst->task_deferred_.push_back({0, [this, consumer, port] {
                                        PostMessage(consumer,
                                                    [this, consumer, port] {
                                                      SubmitEos(consumer, port);
                                                    });
                                      }});
    }
  }

  // Record the completion time (at this task's completion) and notify the
  // scheduler.
  inst->task_deferred_.push_back({0, [this, inst] {
                                    inst->finish_time = machine_.sim().Now();
                                    last_finish_ =
                                        std::max(last_finish_,
                                                 machine_.sim().Now());
                                  }});
  NotifyScheduler(inst, Milestone::kComplete);
}

void SimRun::NotifyScheduler(Instance* inst, Milestone milestone) {
  int op_id = inst->op_id_;
  uint32_t index = inst->index_;
  inst->task_deferred_.push_back(
      {costs().trigger_latency, [this, op_id, index, milestone] {
         machine_.node(machine_.scheduler_id())
             .Submit('n', [this, op_id, index, milestone] {
               std::vector<int> ready =
                   controller_.OnInstanceMilestone(op_id, index, milestone);
               TaskResult result;
               result.cost = 0;
               if (!ready.empty()) {
                 result.after.push_back(
                     {0, [this, ready] { DispatchGroups(ready); }});
               }
               return result;
             });
       }});
}

StatusOr<SimQueryResult> SimRun::Run() {
  // The scheduler claims and initializes every operation process from the
  // pool, serially, in trigger-group order: the paper's startup barrier.
  // Join processes carry the full initialization cost; their colocated
  // scan/rescan pumps are part of the same claim and are near-free, which
  // matches the paper's process accounting (SP on 80 processors = 10 ops x
  // 80 = 800 processes; FP = one process per processor).
  for (const TriggerGroup& group : plan_.groups) {
    for (int op_id : group.ops) {
      bool is_join = op(op_id).is_join();
      for (auto& inst : instances_[static_cast<size_t>(op_id)]) {
        Instance* raw = inst.get();
        machine_.node(machine_.scheduler_id())
            .Submit('s', [this, raw, is_join] {
          Ticks init_cost = is_join ? costs().process_startup : 1;
          if (is_join) {
            machine_.counters().processes_started += 1;
            machine_.counters().startup_ticks += init_cost;
          }
          TaskResult result;
          result.cost = init_cost;
          // The init message reaches the worker after the trigger latency;
          // the process starts at max(init time, group trigger time).
          result.after.push_back({costs().trigger_latency, [this, raw] {
                                    raw->initialized = true;
                                    TryStart(raw);
                                  }});
          return result;
        });
      }
    }
  }
  machine_.counters().streams_opened = plan_.CountStreams();

  // Dependency-free groups fire at query start; each of their processes
  // still waits for the scheduler's serial initialization to reach it.
  DispatchGroups(controller_.TakeInitialGroups());

  machine_.sim().Run();

  // Verify global completion (a wiring bug would leave ops pending).
  if (!controller_.AllOpsComplete()) {
    std::vector<std::string> pending;
    for (const XraOp& o : plan_.ops) {
      if (!controller_.OpMilestoneFired(o.id, Milestone::kComplete)) {
        pending.push_back(o.label);
      }
    }
    return Status::Internal(
        StrCat("simulation drained but ops never completed: ",
               StrJoin(pending, ", ")));
  }

  SimQueryResult result;
  result.response_ticks = last_finish_;
  result.response_seconds = costs().ToSeconds(last_finish_);
  result.result =
      SummarizeFragments(stored_[static_cast<size_t>(plan_.final_result)]);
  if (options_.materialize_result) {
    result.materialized =
        ConcatFragments(stored_[static_cast<size_t>(plan_.final_result)]);
  }
  result.counters = machine_.counters();
  result.events = machine_.sim().num_events_processed();
  result.op_stats.resize(plan_.ops.size());
  for (const auto& list : instances_) {
    for (const auto& inst : list) {
      result.join_memory_bytes += inst->oper->peak_memory_bytes();
      OpStats& stats = result.op_stats[static_cast<size_t>(inst->op_id_)];
      stats.op_id = inst->op_id_;
      stats.tuples_in += inst->tuples_in;
      stats.tuples_out += inst->tuples_out + inst->writer.rows_committed();
      stats.busy_ticks += inst->busy_ticks;
      if (inst->first_start >= 0) {
        stats.first_start = stats.first_start == 0 && stats.last_finish == 0
                                ? inst->first_start
                                : std::min(stats.first_start,
                                           inst->first_start);
      }
      stats.last_finish = std::max(stats.last_finish, inst->finish_time);
    }
  }
  if (options_.record_trace) {
    std::vector<Ticks> busy = machine_.trace().BusyTicks();
    double total_busy = 0;
    for (uint32_t p = 0; p < plan_.num_processors; ++p) {
      total_busy += static_cast<double>(busy[p]);
    }
    if (result.response_ticks > 0) {
      result.utilization =
          total_busy / (static_cast<double>(result.response_ticks) *
                        plan_.num_processors);
    }
    result.utilization_diagram =
        machine_.trace().Render(result.response_ticks, options_.trace_width);
  }
  return result;
}

}  // namespace

std::string RenderOpStats(const ParallelPlan& plan,
                          const SimQueryResult& result) {
  TablePrinter table({"op", "kind", "label", "inst", "tuples in",
                      "tuples out", "busy [s]", "active [s]"});
  const double tick_s = result.response_ticks > 0 && result.response_seconds > 0
                            ? result.response_seconds /
                                  static_cast<double>(result.response_ticks)
                            : 0;
  for (const OpStats& stats : result.op_stats) {
    if (stats.op_id < 0) continue;
    const XraOp& op = plan.ops[static_cast<size_t>(stats.op_id)];
    table.AddRow({StrCat(op.id), XraOpKindName(op.kind), op.label,
                  StrCat(op.processors.size()), StrCat(stats.tuples_in),
                  StrCat(stats.tuples_out),
                  FormatDouble(static_cast<double>(stats.busy_ticks) * tick_s,
                               2),
                  StrCat(FormatDouble(
                             static_cast<double>(stats.first_start) * tick_s,
                             2),
                         " .. ",
                         FormatDouble(
                             static_cast<double>(stats.last_finish) * tick_s,
                             2))});
  }
  return table.ToString();
}

StatusOr<SimQueryResult> SimExecutor::Execute(
    const ParallelPlan& plan, const SimExecOptions& options) const {
  MJOIN_RETURN_IF_ERROR(plan.Validate());
  SimRun run(plan, *database_, options);
  MJOIN_RETURN_IF_ERROR(run.Prepare());
  return run.Run();
}

}  // namespace mjoin
