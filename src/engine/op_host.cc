#include "engine/op_host.h"

#include <chrono>
#include <utility>

#include "common/logging.h"
#include "engine/fault_injector.h"
#include "exec/aggregate.h"
#include "exec/filter.h"
#include "exec/pipelining_hash_join.h"
#include "exec/scan.h"
#include "exec/simple_hash_join.h"
#include "exec/sort_merge_join.h"

namespace mjoin {

StatusOr<std::unique_ptr<Operator>> MakeOperator(const XraOp& op,
                                                 const Relation* fragment) {
  switch (op.kind) {
    case XraOpKind::kScan:
    case XraOpKind::kRescan:
      return std::unique_ptr<Operator>(std::make_unique<ScanOp>(
          [fragment] { return fragment; }, op.output_schema));
    case XraOpKind::kSimpleHashJoin:
      return std::unique_ptr<Operator>(
          std::make_unique<SimpleHashJoinOp>(op.join_spec));
    case XraOpKind::kPipeliningHashJoin:
      return std::unique_ptr<Operator>(
          std::make_unique<PipeliningHashJoinOp>(op.join_spec));
    case XraOpKind::kSortMergeJoin:
      return std::unique_ptr<Operator>(
          std::make_unique<SortMergeJoinOp>(op.join_spec));
    case XraOpKind::kFilter: {
      MJOIN_ASSIGN_OR_RETURN(std::unique_ptr<FilterOp> filter,
                             FilterOp::Make(op.input_schema, op.filter));
      return std::unique_ptr<Operator>(std::move(filter));
    }
    case XraOpKind::kAggregate: {
      MJOIN_ASSIGN_OR_RETURN(
          std::unique_ptr<AggregateOp> aggregate,
          AggregateOp::Make(op.input_schema, op.group_column,
                            op.value_column));
      return std::unique_ptr<Operator>(std::move(aggregate));
    }
  }
  return Status::Internal("unknown operator kind");
}

ThreadWorkType ConsumeWorkType(XraOpKind kind, int port) {
  switch (kind) {
    case XraOpKind::kSimpleHashJoin:
      return port == SimpleHashJoinOp::kBuildPort ? ThreadWorkType::kBuild
                                                  : ThreadWorkType::kProbe;
    case XraOpKind::kPipeliningHashJoin:
    case XraOpKind::kFilter:
      return ThreadWorkType::kPipeline;
    case XraOpKind::kSortMergeJoin:
      return ThreadWorkType::kBuild;  // run-buffer fill
    case XraOpKind::kAggregate:
      return ThreadWorkType::kBuild;  // group-table fill
    default:
      return ThreadWorkType::kOther;
  }
}

ThreadWorkType InputDoneWorkType(XraOpKind kind, int port) {
  switch (kind) {
    case XraOpKind::kSimpleHashJoin:
      return port == SimpleHashJoinOp::kBuildPort ? ThreadWorkType::kProbe
                                                  : ThreadWorkType::kOther;
    case XraOpKind::kSortMergeJoin:
      return ThreadWorkType::kMerge;
    case XraOpKind::kAggregate:
      return ThreadWorkType::kEmit;
    default:
      return ThreadWorkType::kOther;
  }
}

double* PhaseBucket(OpMetrics* m, ThreadWorkType type) {
  switch (type) {
    case ThreadWorkType::kBuild:
      return &m->build_seconds;
    case ThreadWorkType::kProbe:
    case ThreadWorkType::kMerge:
      return &m->probe_seconds;
    case ThreadWorkType::kPipeline:
      return &m->pipeline_seconds;
    case ThreadWorkType::kScan:
      return &m->scan_seconds;
    case ThreadWorkType::kEmit:
      return &m->emit_seconds;
    case ThreadWorkType::kBloomBuild:
      return &m->skew_bloom_build_seconds;
    default:
      return &m->other_seconds;
  }
}

void OpInstance::EmitRow(const std::byte* row) {
  host->EmitRowFrom(this, row);
}

void OpInstance::EmitRows(const std::byte* rows, size_t count,
                          size_t row_bytes) {
  host->EmitRowsFrom(this, rows, count, row_bytes);
}

void OpInstance::BatchFull(uint32_t dest) { host->FlushDest(this, dest); }

const CostParams& OpInstance::costs() const { return host->costs(); }

MemoryBudget* OpInstance::memory_budget() const { return host->budget(); }

bool OpInstance::cancelled() const { return host->cancelled(); }

void OpInstance::ReportError(const Status& status) { host->Abort(status); }

OpMetrics* OpInstance::metrics() const {
  return host->collect_metrics() ? &op_metrics : nullptr;
}

OpHost::OpHost(const ParallelPlan& plan, const OpHostOptions& options,
               OpTransport* transport)
    : plan_(plan),
      options_(options),
      transport_(transport),
      observe_(options.collect_metrics || options.record_trace),
      budget_(options.memory_budget_bytes) {
  // Only batch_size is consulted by operators on the wall-clock backends.
  costs_.batch_size = options.batch_size;
}

Status OpHost::Setup(const std::function<bool(uint32_t processor)>& hosts,
                     std::vector<std::vector<Relation>> scan_fragments) {
  const size_t num_ops = plan_.ops.size();
  defended_.assign(num_ops, false);
  if (options_.skew_defense.enabled()) {
    for (int id : DefendedJoinOps(plan_)) {
      defended_[static_cast<size_t>(id)] = true;
    }
  }
  instances_.resize(num_ops);
  scan_fragments_ = std::move(scan_fragments);
  scan_fragments_.resize(num_ops);
  stored_.resize(static_cast<size_t>(plan_.num_results));
  for (const XraOp& o : plan_.ops) {
    if (o.store_result >= 0) {
      auto& frags = stored_[static_cast<size_t>(o.store_result)];
      for (size_t i = 0; i < o.processors.size(); ++i) {
        frags.emplace_back(*o.output_schema);
      }
    }
    auto& scan_frags = scan_fragments_[static_cast<size_t>(o.id)];
    if (o.kind == XraOpKind::kScan && scan_frags.empty()) {
      for (size_t i = 0; i < o.processors.size(); ++i) {
        scan_frags.emplace_back(*o.output_schema);
      }
    }
  }

  for (const XraOp& o : plan_.ops) {
    auto& list = instances_[static_cast<size_t>(o.id)];
    list.resize(o.processors.size());
    for (uint32_t i = 0; i < o.processors.size(); ++i) {
      if (!hosts(o.processors[i])) continue;
      auto inst = std::make_unique<OpInstance>(this, o.id, i, o.processors[i]);
      const Relation* fragment = nullptr;
      if (o.kind == XraOpKind::kScan) fragment = scan_fragment(o.id, i);
      if (o.kind == XraOpKind::kRescan) {
        fragment = &stored_[static_cast<size_t>(o.stored_result)][i];
      }
      MJOIN_ASSIGN_OR_RETURN(inst->oper, MakeOperator(o, fragment));
      for (int port = 0; port < inst->oper->num_input_ports(); ++port) {
        const XraInput& input = o.inputs[port];
        inst->eos_remaining[port] =
            input.routing == Routing::kColocated
                ? 1
                : static_cast<int>(op(input.producer).processors.size());
      }
      if (o.store_result >= 0) {
        // Store-mode: output accumulates in a single pending batch and is
        // bulk-appended to the local stored fragment at each flush (where
        // the budget is reserved for exactly the flushed bytes).
        inst->out_pending.emplace_back(o.output_schema);
        inst->writer.Configure(inst->out_pending.data(), 1,
                               /*split_column=*/-1, /*fixed_dest=*/0,
                               options_.batch_size, inst.get());
        inst->writer_ready = true;
      } else if (o.consumer >= 0) {
        const XraOp& consumer = op(o.consumer);
        const XraInput& input = consumer.inputs[o.consumer_port];
        for (size_t d = 0; d < consumer.processors.size(); ++d) {
          inst->out_pending.emplace_back(o.output_schema);
        }
        int split_column = input.routing == Routing::kHashSplit
                               ? static_cast<int>(input.split_key)
                               : -1;
        uint32_t fixed_dest = input.routing == Routing::kColocated ? i : 0;
        inst->writer.Configure(
            inst->out_pending.data(),
            static_cast<uint32_t>(consumer.processors.size()), split_column,
            fixed_dest, options_.batch_size, inst.get());
        inst->writer_ready = true;
      }
      list[i] = std::move(inst);
    }
  }
  return Status::OK();
}

int64_t OpHost::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             // lint:allow-clock phase timers and trace stamps, per callback
             std::chrono::steady_clock::now().time_since_epoch())
             .count() -
         origin_ns_;
}

template <typename Fn>
void OpHost::Observed(OpInstance* inst, ThreadWorkType type, Fn&& fn) {
  if (!observe_) {
    fn();
    return;
  }
  int64_t t0 = NowNs();
  fn();
  int64_t t1 = NowNs();
  if (options_.collect_metrics) {
    *PhaseBucket(&inst->op_metrics, type) +=
        static_cast<double>(t1 - t0) * 1e-9;
  }
  if (options_.record_trace) {
    transport_->RecordTrace(inst->processor, t0, t1, type, inst->op_id);
  }
}

void OpHost::Trigger(OpInstance* inst) {
  if (!transport_->CheckRuntime()) return;
  MJOIN_CHECK(!inst->started);
  inst->started = true;
  Observed(inst, ThreadWorkType::kStartup,
           [inst] { inst->oper->Open(inst); });
  if (inst->oper->is_source()) transport_->ScheduleSource(inst);
  while (!inst->pre_start.empty() && !aborted()) {
    auto fn = std::move(inst->pre_start.front());
    inst->pre_start.pop_front();
    fn();
  }
}

bool OpHost::Pump(OpInstance* inst) {
  bool more = false;
  Observed(inst, ThreadWorkType::kScan,
           [inst, &more] { more = inst->oper->Produce(inst); });
  if (!more) FinishInstance(inst);
  return more;
}

void OpHost::DeliverBatch(OpInstance* inst, int port,
                          std::shared_ptr<TupleBatch> batch) {
  if (inst->started) {
    OnBatch(inst, port, *batch);
  } else {
    inst->pre_start.push_back(
        [this, inst, port, batch] { OnBatch(inst, port, *batch); });
  }
}

void OpHost::DeliverEos(OpInstance* inst, int port) {
  if (inst->started) {
    OnEos(inst, port);
  } else {
    inst->pre_start.push_back([this, inst, port] { OnEos(inst, port); });
  }
}

void OpHost::EmitRowFrom(OpInstance* inst, const std::byte* row) {
  if (aborted_.load(std::memory_order_relaxed)) return;
  // Copying fallback: the finished row still travels through the writer,
  // which owns routing, the flush threshold, and the rows-out count.
  EmitWriter& writer = inst->writer;
  int32_t route = 0;
  if (writer.split_column() >= 0) {
    TupleRef ref(row, op(inst->op_id).output_schema.get());
    route = ref.GetInt32(static_cast<size_t>(writer.split_column()));
  }
  writer.Append(row, route);
}

void OpHost::EmitRowsFrom(OpInstance* inst, const std::byte* rows,
                          size_t count, size_t row_bytes) {
  if (aborted_.load(std::memory_order_relaxed)) return;
  EmitWriter& writer = inst->writer;
  const int split = writer.split_column();
  if (split < 0) {
    // Single destination: the whole slice lands in the pending batch in
    // one copy (scans feed stores and colocated consumers this way).
    writer.AppendRows(rows, count);
    return;
  }
  const Schema* schema = op(inst->op_id).output_schema.get();
  for (size_t i = 0; i < count; ++i) {
    const std::byte* row = rows + i * row_bytes;
    writer.Append(row, TupleRef(row, schema).GetInt32(
                           static_cast<size_t>(split)));
  }
}

void OpHost::FlushDest(OpInstance* inst, uint32_t dest) {
  TupleBatch& pending = inst->out_pending[dest];
  if (pending.empty()) return;
  if (aborted_.load(std::memory_order_relaxed)) {
    // Teardown: the rows are going nowhere; drop them but keep the buffer.
    pending.Clear();
    return;
  }
  const XraOp& o = op(inst->op_id);
  if (o.store_result >= 0) {
    // Local store: reserve the budget for exactly the flushed bytes in one
    // call (not per row), then bulk-append into the stored fragment. The
    // pending batch keeps its capacity for the next fill.
    Status reserved = budget_.Reserve(pending.byte_size());
    if (!reserved.ok()) {
      Abort(std::move(reserved));
      return;
    }
    stored_[static_cast<size_t>(o.store_result)][inst->index].AppendRows(
        pending.raw_data(), pending.num_tuples());
    pending.Clear();
    return;
  }
  int copies = 1;
  if (options_.injector != nullptr) {
    if (options_.injector->ShouldDropBatch(o.consumer)) {
      batches_dropped_.fetch_add(1, std::memory_order_relaxed);
      pending.Clear();
      return;
    }
    if (options_.injector->ShouldDuplicateBatch(o.consumer)) {
      batches_duplicated_.fetch_add(1, std::memory_order_relaxed);
      copies = 2;
    }
  }
  transport_->ShipBatch(inst, dest, &pending, copies);
}

void OpHost::OnBatch(OpInstance* inst, int port, const TupleBatch& batch) {
  if (!transport_->CheckRuntime()) return;
  if (options_.injector != nullptr) {
    Status status = options_.injector->BeforeConsume(inst->op_id);
    if (!status.ok()) {
      Abort(std::move(status));
      return;
    }
  }
  batches_processed_.fetch_add(1, std::memory_order_relaxed);
  if (!observe_) {
    inst->oper->Consume(port, batch, inst);
  } else {
    if (options_.collect_metrics) {
      inst->op_metrics.rows_in[port] += batch.num_tuples();
      ++inst->op_metrics.batches_in[port];
    }
    ThreadWorkType type = ConsumeWorkType(op(inst->op_id).kind, port);
    int64_t t0 = NowNs();
    inst->oper->Consume(port, batch, inst);
    int64_t t1 = NowNs();
    if (options_.collect_metrics) {
      double secs = static_cast<double>(t1 - t0) * 1e-9;
      *PhaseBucket(&inst->op_metrics, type) += secs;
      inst->op_metrics.batch_seconds.Add(secs);
    }
    if (options_.record_trace) {
      transport_->RecordTrace(inst->processor, t0, t1, type, inst->op_id);
    }
  }
  AfterCallback(inst);
}

void OpHost::OnEos(OpInstance* inst, int port) {
  if (!transport_->CheckRuntime()) return;
  MJOIN_CHECK(inst->eos_remaining[port] > 0);
  if (--inst->eos_remaining[port] == 0) {
    if (port == SimpleHashJoinOp::kBuildPort && defended(inst->op_id)) {
      HandleDefendedBuildEos(inst);
      return;
    }
    ThreadWorkType type = InputDoneWorkType(op(inst->op_id).kind, port);
    Observed(inst, type,
             [inst, port] { inst->oper->InputDone(port, inst); });
  }
  AfterCallback(inst);
}

void OpHost::HandleDefendedBuildEos(OpInstance* inst) {
  auto* join = static_cast<SimpleHashJoinOp*>(inst->oper.get());
  const auto num_instances =
      static_cast<uint32_t>(op(inst->op_id).processors.size());
  SkewJoinReport report;
  Observed(inst, ThreadWorkType::kBloomBuild, [&] {
    report = BuildSkewReport(join->table(), inst->op_id, inst->index,
                             num_instances, options_.skew_defense);
  });
  // Report before milestone: by the time the scheduler can act on this
  // build being done, the report (and, from the last reporter, the
  // directive) is already on its way. AfterCallback must not re-report
  // the milestone once InputDone(build) eventually runs.
  transport_->ReportSkew(inst, std::move(report));
  inst->build_done_reported = true;
  transport_->ReportMilestone(inst, Milestone::kBuildDone);
}

void OpHost::InstallDefense(OpInstance* producer,
                            const SkewDirective& directive) {
  if (producer->complete) return;  // already flushed everything undefended
  producer->skew_hook = std::make_unique<SkewEmitDefense>(directive);
  producer->writer.SetDefense(producer->skew_hook.get());
  if (options_.collect_metrics) {
    double fp = directive.bloom.EstimateFpRate();
    if (fp > producer->op_metrics.skew_bloom_fp_rate) {
      producer->op_metrics.skew_bloom_fp_rate = fp;
    }
  }
}

void OpHost::ApplyDirective(OpInstance* join, const SkewDirective& directive) {
  if (!transport_->CheckRuntime()) return;
  auto* table_join = static_cast<SimpleHashJoinOp*>(join->oper.get());
  uint64_t inserted =
      ApplySkewDirective(directive, table_join->mutable_table());
  table_join->NoteTableGrowth();
  if (options_.collect_metrics) {
    join->op_metrics.skew_replicated_rows += inserted;
    // Hot-key count is a per-join fact, not per-instance: record it once
    // (instance 0) so the cross-instance merge does not multiply it.
    if (join->index == 0) {
      join->op_metrics.skew_hot_keys +=
          static_cast<uint64_t>(directive.hot_keys.size());
    }
  }
  Observed(join,
           InputDoneWorkType(XraOpKind::kSimpleHashJoin,
                             SimpleHashJoinOp::kBuildPort),
           [join] {
             join->oper->InputDone(SimpleHashJoinOp::kBuildPort, join);
           });
  AfterCallback(join);
}

void OpHost::AfterCallback(OpInstance* inst) {
  if (aborted()) return;
  if (op(inst->op_id).kind == XraOpKind::kSimpleHashJoin &&
      !inst->build_done_reported) {
    auto* join = static_cast<SimpleHashJoinOp*>(inst->oper.get());
    if (join->build_done()) {
      inst->build_done_reported = true;
      transport_->ReportMilestone(inst, Milestone::kBuildDone);
    }
  }
  if (!inst->complete && inst->oper->finished()) FinishInstance(inst);
}

void OpHost::FinishInstance(OpInstance* inst) {
  if (aborted()) return;
  MJOIN_CHECK(!inst->complete);
  inst->complete = true;
  const XraOp& o = op(inst->op_id);
  // Flush every pending destination — the stored-result tail included.
  for (uint32_t d = 0; d < inst->out_pending.size(); ++d) {
    FlushDest(inst, d);
  }
  if (aborted()) return;
  if (o.consumer >= 0 && o.store_result < 0) {
    const XraOp& consumer = op(o.consumer);
    if (consumer.inputs[o.consumer_port].routing == Routing::kHashSplit) {
      for (uint32_t d = 0; d < consumer.processors.size(); ++d) {
        transport_->SendEos(inst, d);
      }
    } else {
      transport_->SendEos(inst, inst->index);
    }
  }
  transport_->ReportMilestone(inst, Milestone::kComplete);
}

uint32_t OpHost::MergeOpMetrics(int op, OpMetrics* out) const {
  uint32_t hosted = 0;
  for (const auto& inst : instances(op)) {
    if (inst == nullptr) continue;
    ++hosted;
    out->MergeFrom(inst->op_metrics);
    // Every emit path (zero-copy and fallback) runs through the writer, so
    // its commit count is the instance's rows-out; the writer also carries
    // the skew-defense drop/re-route counts (attributed to the producer
    // that saved the wire bytes).
    out->rows_out += inst->writer.rows_committed();
    out->skew_bloom_filtered_rows += inst->writer.rows_dropped();
    out->skew_repartitioned_rows += inst->writer.rows_repartitioned();
    inst->oper->CollectMetrics(out);
    out->peak_memory_bytes += inst->oper->peak_memory_bytes();
  }
  return hosted;
}

}  // namespace mjoin
