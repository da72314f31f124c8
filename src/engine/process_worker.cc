#include "engine/process_worker.h"

#include <errno.h>
#include <poll.h>
#include <signal.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <deque>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "engine/fault_injector.h"
#include "engine/op_host.h"
#include "engine/process_protocol.h"
#include "engine/result.h"
#include "exec/batch.h"
#include "exec/batch_pool.h"
#include "exec/simple_hash_join.h"
#include "net/channel.h"
#include "net/shm_ring.h"
#include "skew/defense.h"
#include "xra/text.h"

namespace mjoin {

namespace {

/// Ring-backlog bytes at which the worker stops pumping its sources and
/// lets its consumers drain the rings first (the worker's flow control).
constexpr size_t kRingBacklogWatermark = 4u << 20;

/// Worker-side state of one query: the shared operation-process host
/// (engine/op_host.h) over this worker's share of the plan, the shm data
/// plane that connects it to the rest of the fleet, the frame loop, and the
/// finish-phase reporting. The whole worker is one thread, so the state
/// needs no locking.
class WorkerRun final : public OpTransport {
 public:
  WorkerRun(FrameChannel* chan, PlanEnvelope env, ParallelPlan plan,
            ShmDataPlane* plane, BatchPool* pool)
      : chan_(chan),
        env_(std::move(env)),
        plan_(std::move(plan)),
        registry_(plan_),
        pool_(pool),
        pool_allocated_base_(pool->allocated()),
        pool_reused_base_(pool->reused()),
        plane_(plane),
        coord_ep_(env_.num_workers) {}

  Status Setup();
  /// Runs the event loop until kShutdown (returns OK) or a fatal error.
  Status Loop();

  // OpTransport:
  void ShipBatch(OpInstance* from, uint32_t dest, TupleBatch* rows,
                 int copies) override;
  void SendEos(OpInstance* from, uint32_t dest) override;
  void ScheduleSource(OpInstance* source) override {
    pump_queue_.push_back(source);
  }
  void ReportMilestone(const OpInstance* inst, Milestone milestone) override;
  /// The report rides the socket (candidate rows inline), queued before
  /// the kBuildDone milestone the host reports next: by the time the
  /// coordinator's scheduler can act on this build being done, it already
  /// holds the report.
  void ReportSkew(OpInstance* join, SkewJoinReport report) override;
  void RecordTrace(uint32_t processor, int64_t t0, int64_t t1,
                   ThreadWorkType type, int op_id) override {
    if (t1 > t0) {
      trace_events_.push_back(WireTraceEvent{
          processor, t0, t1, type, static_cast<int32_t>(op_id)});
    }
  }
  /// A worker cannot see the caller's token or deadline; the coordinator
  /// enforces both by tearing the fleet down.
  bool CheckRuntime() override { return !host_->aborted(); }
  void Abort(Status status) override {
    if (host_->aborted()) return;
    run_status_ = std::move(status);
    host_->SetAborted();
  }

 private:
  const XraOp& op(int id) const { return plan_.ops[static_cast<size_t>(id)]; }
  bool aborted() const { return host_->aborted(); }
  uint32_t WorkerOf(uint32_t processor) const {
    return WorkerOfProcessor(processor, env_.num_workers,
                             plan_.num_processors);
  }
  bool Hosts(uint32_t processor) const {
    return WorkerOf(processor) == env_.worker_id;
  }
  /// The hosted instance a ring record names, or InvalidArgument.
  StatusOr<OpInstance*> HostedInstance(int op_id, uint32_t index,
                                       const char* what);
  /// Times one transport copy whether or not metrics collection is on —
  /// transport cost is what the net counters exist to surface.
  template <typename Fn>
  void TimedCopy(double* seconds, OpInstance* inst, ThreadWorkType type,
                 Fn&& fn) {
    int64_t t0 = host_->NowNs();
    fn();
    int64_t t1 = host_->NowNs();
    *seconds += static_cast<double>(t1 - t0) * 1e-9;
    if (env_.record_trace) {
      RecordTrace(inst->processor, t0, t1, type, inst->op_id);
    }
  }

  Status HandleFrame(const Frame& frame);
  Status HandleTrigger(const Frame& frame);
  Status HandleSkewDirective(const Frame& frame);
  Status SendFinishReports();
  void PumpSources();

  // -- shm data plane -----------------------------------------------------
  void PushShmRecord(uint32_t dest_ep, ShmRecordType type, const void* hdr,
                     size_t hdr_bytes, const std::byte* body,
                     size_t body_bytes);
  void RetryBacklogs();
  void RingDirtyDoorbells();
  bool InboundRingsNonEmpty();
  Status DrainInboundRings();
  Status ConsumeShmRecord(ShmRing* ring, const ShmRecordView& rec);
  Status ConsumeShmData(ShmRing* ring, const ShmRecordView& rec);
  Status ConsumeShmEos(ShmRing* ring, const ShmRecordView& rec);
  Status ConsumeShmFragment(ShmRing* ring, const ShmRecordView& rec);

  FrameChannel* chan_;
  PlanEnvelope env_;
  ParallelPlan plan_;
  SchemaRegistry registry_;
  /// Worker-lifetime buffer pool (owned by RunProcessWorker): a persistent
  /// worker's buffers survive across queries, so steady-state runs reuse
  /// instead of allocating. The *_base_ counters pin the pool's lifetime
  /// totals at run start — the reported buffer stats are per-run deltas,
  /// identical from a warm or a freshly forked worker.
  BatchPool* pool_;
  const uint64_t pool_allocated_base_;
  const uint64_t pool_reused_base_;
  std::unique_ptr<FaultInjector> injector_;
  std::unique_ptr<OpHost> host_;
  /// Per op: ring schema id of its output rows.
  std::vector<uint32_t> out_schema_id_;
  std::deque<OpInstance*> pump_queue_;

  Status run_status_;
  bool shutdown_ = false;
  WorkerRunStats stats_;
  std::vector<WireTraceEvent> trace_events_;

  /// The query's shm data plane (inherited or laid over the fleet arena).
  ShmDataPlane* plane_;
  /// The coordinator's endpoint id in the ring directory.
  const uint32_t coord_ep_;
  /// Largest record payload any ring accepts.
  uint32_t shm_max_payload_ = 0;
  struct ShmBacklogRecord {
    ShmRecordType type;
    std::vector<std::byte> bytes;  // header + rows, render-complete
  };
  /// Per-ring FIFO of records that found their ring full. New records are
  /// appended behind the backlog, so per-edge order is preserved; the loop
  /// retries the backlog every turn and on the producer-side doorbell.
  std::unordered_map<size_t, std::deque<ShmBacklogRecord>> ring_backlog_;
  size_t ring_backlog_bytes_ = 0;
  /// Endpoints whose doorbell should ring this loop turn (coalesced: one
  /// eventfd write per endpoint per turn, not one per record).
  std::vector<bool> doorbell_dirty_;
  /// kBye is held until every backlog drained onto its ring, so the
  /// coordinator never tears the fleet down with result rows still queued.
  bool bye_pending_ = false;
};

Status WorkerRun::Setup() {
  // The coordinator refuses such a plan before shipping it; re-checked
  // here so a worker can never loop on a zero-rows-per-record chunking.
  MJOIN_RETURN_IF_ERROR(CheckRingFit(plan_, plane_->ring_bytes()));
  shm_max_payload_ = plane_->ring_bytes() / 2 - kShmRecordHdrBytes * 2;
  doorbell_dirty_.assign(plane_->num_endpoints(), false);
  if (!env_.fault_scenario.empty()) {
    MJOIN_ASSIGN_OR_RETURN(FaultScenario scenario,
                           ParseFaultScenario(env_.fault_scenario));
    // An attempt-scoped scenario arms only on its attempt: retries of a
    // first-attempt-only fault run entirely clean.
    if (scenario.on_attempt < 0 ||
        scenario.on_attempt == static_cast<int>(env_.attempt)) {
      injector_ = std::make_unique<FaultInjector>(scenario);
    }
  }
  out_schema_id_.resize(plan_.ops.size());
  for (const XraOp& o : plan_.ops) {
    MJOIN_ASSIGN_OR_RETURN(out_schema_id_[static_cast<size_t>(o.id)],
                           registry_.IdOf(*o.output_schema));
  }

  OpHostOptions options;
  options.batch_size = env_.batch_size;
  options.memory_budget_bytes = env_.memory_budget_bytes;
  options.collect_metrics = env_.collect_metrics;
  options.record_trace = env_.record_trace;
  options.skew_defense = env_.skew_defense;
  options.injector = injector_.get();
  host_ = std::make_unique<OpHost>(plan_, options, this);
  host_->set_clock_origin(env_.trace_origin_ns);
  // Scan fragments arrive over the relay ring after Setup.
  return host_->Setup([this](uint32_t p) { return Hosts(p); }, {});
}

void WorkerRun::PumpSources() {
  OpInstance* inst = pump_queue_.front();
  pump_queue_.pop_front();
  if (inst->complete || aborted()) return;
  if (injector_ != nullptr) injector_->OnDequeue(inst->processor);
  if (host_->Pump(inst)) pump_queue_.push_back(inst);
}

void WorkerRun::ShipBatch(OpInstance* from, uint32_t dest, TupleBatch* rows,
                          int copies) {
  const XraOp& o = op(from->op_id);
  const XraOp& consumer_op = op(o.consumer);
  const int port = o.consumer_port;
  if (Hosts(consumer_op.processors[dest])) {
    // Local consumer: the pending batch is consumed in place — no copy.
    // Only a not-yet-started consumer forces a pooled buffer swap so the
    // rows survive until its trigger.
    OpInstance* consumer = host_->instance(o.consumer, dest);
    stats_.local_deliveries += static_cast<uint64_t>(copies);
    if (consumer->started) {
      for (int c = 0; c < copies && !aborted(); ++c) {
        host_->OnBatch(consumer, port, *rows);
      }
      rows->Clear();
    } else {
      std::shared_ptr<TupleBatch> batch = pool_->Acquire(o.output_schema);
      std::swap(*batch, *rows);
      for (int c = 0; c < copies; ++c) {
        host_->DeliverBatch(consumer, port, batch);
      }
    }
    return;
  }
  // Remote consumer: "serialize" is a bounds-checked memcpy of the raw
  // rows onto the ring, chunked so every record fits one reservation.
  const uint32_t tuple_size = rows->schema().tuple_size();
  const uint32_t dest_ep = WorkerOf(consumer_op.processors[dest]);
  const size_t rows_per_record =
      (shm_max_payload_ - sizeof(ShmDataHeader)) / tuple_size;
  TimedCopy(&stats_.serialize_seconds, from, ThreadWorkType::kSerialize, [&] {
    for (int c = 0; c < copies; ++c) {
      size_t offset = 0;
      while (offset < rows->num_tuples()) {
        size_t count = std::min(rows_per_record, rows->num_tuples() - offset);
        ShmDataHeader hdr;
        hdr.consumer_op = o.consumer;
        hdr.dest_index = dest;
        hdr.port = static_cast<uint32_t>(port);
        hdr.schema_id = out_schema_id_[static_cast<size_t>(o.id)];
        hdr.tuple_size = tuple_size;
        hdr.num_tuples = static_cast<uint32_t>(count);
        PushShmRecord(dest_ep, ShmRecordType::kData, &hdr, sizeof(hdr),
                      rows->raw_data() + offset * tuple_size,
                      count * tuple_size);
        offset += count;
      }
      ++stats_.remote_batches;
    }
  });
  rows->Clear();
}

void WorkerRun::SendEos(OpInstance* from, uint32_t dest) {
  const XraOp& o = op(from->op_id);
  const XraOp& consumer = op(o.consumer);
  if (Hosts(consumer.processors[dest])) {
    host_->DeliverEos(host_->instance(o.consumer, dest), o.consumer_port);
    return;
  }
  // EOS follows the exact ring its data took, so it can never overtake
  // the last batch of the stream.
  ShmEosHeader hdr;
  hdr.consumer_op = o.consumer;
  hdr.dest_index = dest;
  hdr.port = static_cast<uint32_t>(o.consumer_port);
  PushShmRecord(WorkerOf(consumer.processors[dest]), ShmRecordType::kEos,
                &hdr, sizeof(hdr), nullptr, 0);
}

void WorkerRun::ReportMilestone(const OpInstance* inst, Milestone milestone) {
  std::vector<std::byte> payload;
  EncodeMilestone(
      MilestoneMsg{static_cast<int32_t>(inst->op_id), inst->index, milestone},
      &payload);
  chan_->QueueFrame(FrameType::kMilestone, payload);
}

void WorkerRun::ReportSkew(OpInstance*, SkewJoinReport report) {
  std::vector<std::byte> payload;
  EncodeSkewReport(report, &payload);
  chan_->QueueFrame(FrameType::kSkewReport, payload);
}

Status WorkerRun::HandleSkewDirective(const Frame& frame) {
  WireReader reader(frame.payload);
  SkewDirective directive;
  MJOIN_RETURN_IF_ERROR(DecodeSkewDirective(&reader, &directive));
  if (directive.op < 0 ||
      static_cast<size_t>(directive.op) >= plan_.ops.size() ||
      !host_->defended(directive.op)) {
    return Status::InvalidArgument(
        StrCat("skew directive for undefended op ", directive.op));
  }
  // Producers first: once the deferred InputDone below releases the
  // probe, every row this worker emits afterwards is already defended.
  const int producer =
      op(directive.op).inputs[SimpleHashJoinOp::kProbePort].producer;
  if (producer >= 0) {
    for (const auto& p : host_->instances(producer)) {
      if (p != nullptr) host_->InstallDefense(p.get(), directive);
    }
  }
  for (const auto& j : host_->instances(directive.op)) {
    if (j == nullptr) continue;
    host_->ApplyDirective(j.get(), directive);
    if (aborted()) return run_status_;
  }
  return Status::OK();
}

Status WorkerRun::HandleTrigger(const Frame& frame) {
  WireReader reader(frame.payload);
  int32_t group;
  MJOIN_RETURN_IF_ERROR(reader.ReadI32(&group));
  if (group < 0 || static_cast<size_t>(group) >= plan_.groups.size()) {
    return Status::OutOfRange(StrCat("trigger for unknown group ", group));
  }
  for (int op_id : plan_.groups[static_cast<size_t>(group)].ops) {
    for (const auto& inst : host_->instances(op_id)) {
      if (inst != nullptr) host_->Trigger(inst.get());
    }
  }
  return Status::OK();
}

StatusOr<OpInstance*> WorkerRun::HostedInstance(int op_id, uint32_t index,
                                               const char* what) {
  if (op_id < 0 || static_cast<size_t>(op_id) >= plan_.ops.size() ||
      index >= op(op_id).processors.size()) {
    return Status::InvalidArgument(
        StrCat(what, " routed to unknown instance"));
  }
  OpInstance* inst = host_->instance(op_id, index);
  if (inst == nullptr) {
    return Status::InvalidArgument(
        StrCat(what, " for op ", op_id, " instance ", index,
               " misrouted to worker ", env_.worker_id));
  }
  return inst;
}

void WorkerRun::PushShmRecord(uint32_t dest_ep, ShmRecordType type,
                              const void* hdr, size_t hdr_bytes,
                              const std::byte* body, size_t body_bytes) {
  const size_t ring_index = plane_->RingIndexTo(env_.worker_id, dest_ep);
  MJOIN_CHECK(ring_index != kNoShmRing)
      << "no ring toward endpoint " << dest_ep;
  ++stats_.shm_records_sent;
  stats_.shm_bytes_sent += hdr_bytes + body_bytes;
  auto& backlog = ring_backlog_[ring_index];
  if (backlog.empty() && plane_->ring(ring_index)
                             ->TryPush(type, hdr, hdr_bytes, body,
                                       body_bytes)) {
    doorbell_dirty_[dest_ep] = true;
    return;
  }
  // Ring full (or draining a backlog already): park the rendered record
  // instead of blocking — the single-threaded worker must keep consuming
  // its own inbound rings or two full rings facing each other deadlock.
  ++stats_.ring_full_stalls;
  ShmBacklogRecord rec;
  rec.type = type;
  rec.bytes.resize(hdr_bytes + body_bytes);
  std::memcpy(rec.bytes.data(), hdr, hdr_bytes);
  if (body_bytes > 0) {
    std::memcpy(rec.bytes.data() + hdr_bytes, body, body_bytes);
  }
  ring_backlog_bytes_ += rec.bytes.size();
  backlog.push_back(std::move(rec));
}

void WorkerRun::RetryBacklogs() {
  for (auto& [ring_index, backlog] : ring_backlog_) {
    if (backlog.empty()) continue;
    ShmRing* ring = plane_->ring(ring_index);
    bool pushed = false;
    while (!backlog.empty()) {
      ShmBacklogRecord& rec = backlog.front();
      if (!ring->TryPush(rec.type, rec.bytes.data(), rec.bytes.size(),
                         nullptr, 0)) {
        break;
      }
      ring_backlog_bytes_ -= rec.bytes.size();
      backlog.pop_front();
      pushed = true;
    }
    if (pushed) doorbell_dirty_[plane_->spec(ring_index).to] = true;
  }
}

void WorkerRun::RingDirtyDoorbells() {
  for (uint32_t ep = 0; ep < doorbell_dirty_.size(); ++ep) {
    if (!doorbell_dirty_[ep]) continue;
    doorbell_dirty_[ep] = false;
    plane_->RingDoorbell(ep);
  }
}

bool WorkerRun::InboundRingsNonEmpty() {
  for (size_t i : plane_->InboundRings(env_.worker_id)) {
    if (!plane_->ring(i)->Empty()) return true;
  }
  return false;
}

Status WorkerRun::DrainInboundRings() {
  for (size_t ring_index : plane_->InboundRings(env_.worker_id)) {
    ShmRing* ring = plane_->ring(ring_index);
    // Bounded drain: only records already published when we got here. A
    // producer publishing at full speed cannot pin this loop turn forever.
    const uint64_t limit = ring->tail_cursor();
    bool released = false;
    while (ring->head_cursor() < limit && !aborted()) {
      ShmRecordView rec;
      MJOIN_ASSIGN_OR_RETURN(bool any, ring->TryRead(&rec));
      if (!any) break;  // only pads remained below the snapshot
      MJOIN_RETURN_IF_ERROR(ConsumeShmRecord(ring, rec));
      released = true;
    }
    if (released) {
      // Space doorbell: the producer may be sitting on a full-ring backlog.
      doorbell_dirty_[plane_->spec(ring_index).from] = true;
    }
  }
  return Status::OK();
}

Status WorkerRun::ConsumeShmRecord(ShmRing* ring, const ShmRecordView& rec) {
  ++stats_.shm_records_received;
  stats_.shm_bytes_received += rec.payload_bytes;
  switch (rec.type) {
    case ShmRecordType::kData:
      return ConsumeShmData(ring, rec);
    case ShmRecordType::kEos:
      return ConsumeShmEos(ring, rec);
    case ShmRecordType::kFragment:
      return ConsumeShmFragment(ring, rec);
    // kResultRows flows worker -> coordinator only, and TryRead swallows
    // pads; listing them keeps -Wswitch honest about new record types.
    case ShmRecordType::kResultRows:
    case ShmRecordType::kPad:
      break;
  }
  ring->Release();
  return Status::InvalidArgument(StrCat("worker received unexpected shm ",
                                        ShmRecordTypeName(rec.type),
                                        " record"));
}

Status WorkerRun::ConsumeShmData(ShmRing* ring, const ShmRecordView& rec) {
  ShmDataHeader hdr;
  if (rec.payload_bytes < sizeof(hdr)) {
    ring->Release();
    return Status::Unavailable("corrupt shm record: short data header");
  }
  std::memcpy(&hdr, rec.payload, sizeof(hdr));
  StatusOr<OpInstance*> target =
      HostedInstance(hdr.consumer_op, hdr.dest_index, "shm data record");
  if (!target.ok()) {
    ring->Release();
    return target.status();
  }
  if (hdr.schema_id >= registry_.size()) {
    ring->Release();
    return Status::Unavailable("corrupt shm record: unknown schema id");
  }
  const std::shared_ptr<const Schema>& schema = registry_.Get(hdr.schema_id);
  if (schema->tuple_size() != hdr.tuple_size ||
      rec.payload_bytes !=
          sizeof(hdr) + uint64_t{hdr.num_tuples} * hdr.tuple_size) {
    ring->Release();
    return Status::Unavailable("corrupt shm record: row bytes disagree "
                               "with the data header");
  }
  if (injector_ != nullptr) injector_->OnDequeue((*target)->processor);
  // "Deserialize" here is the plane's whole point: one bounds-checked
  // memcpy out of the shared region.
  std::shared_ptr<TupleBatch> batch = pool_->Acquire(schema);
  TimedCopy(&stats_.deserialize_seconds, *target,
            ThreadWorkType::kDeserialize, [&] {
              batch->AppendRows(rec.payload + sizeof(hdr), hdr.num_tuples);
            });
  // Rows are copied out: hand the space back before the possibly long
  // Consume below, so the producer keeps streaming while we join.
  ring->Release();
  host_->DeliverBatch(*target, static_cast<int>(hdr.port), std::move(batch));
  return Status::OK();
}

Status WorkerRun::ConsumeShmEos(ShmRing* ring, const ShmRecordView& rec) {
  ShmEosHeader hdr;
  if (rec.payload_bytes != sizeof(hdr)) {
    ring->Release();
    return Status::Unavailable("corrupt shm record: bad eos header");
  }
  std::memcpy(&hdr, rec.payload, sizeof(hdr));
  ring->Release();
  MJOIN_ASSIGN_OR_RETURN(
      OpInstance * target,
      HostedInstance(hdr.consumer_op, hdr.dest_index, "shm eos record"));
  if (injector_ != nullptr) injector_->OnDequeue(target->processor);
  host_->DeliverEos(target, static_cast<int>(hdr.port));
  return Status::OK();
}

Status WorkerRun::ConsumeShmFragment(ShmRing* ring, const ShmRecordView& rec) {
  ShmFragmentHeader hdr;
  if (rec.payload_bytes < sizeof(hdr)) {
    ring->Release();
    return Status::Unavailable("corrupt shm record: short fragment header");
  }
  std::memcpy(&hdr, rec.payload, sizeof(hdr));
  if (hdr.op < 0 || static_cast<size_t>(hdr.op) >= plan_.ops.size() ||
      op(hdr.op).kind != XraOpKind::kScan) {
    ring->Release();
    return Status::InvalidArgument(
        StrCat("shm fragment for non-scan op ", hdr.op));
  }
  if (hdr.instance >= op(hdr.op).processors.size() ||
      !Hosts(op(hdr.op).processors[hdr.instance])) {
    ring->Release();
    return Status::InvalidArgument(
        StrCat("shm fragment for op ", hdr.op, " instance ", hdr.instance,
               " which this worker does not host"));
  }
  if (hdr.schema_id >= registry_.size() ||
      registry_.Get(hdr.schema_id)->tuple_size() != hdr.tuple_size ||
      rec.payload_bytes !=
          sizeof(hdr) + uint64_t{hdr.num_tuples} * hdr.tuple_size) {
    ring->Release();
    return Status::Unavailable("corrupt shm record: row bytes disagree "
                               "with the fragment header");
  }
  host_->scan_fragment(hdr.op, hdr.instance)
      ->AppendRows(rec.payload + sizeof(hdr), hdr.num_tuples);
  ring->Release();
  return Status::OK();
}

Status WorkerRun::SendFinishReports() {
  const XraOp* storer = nullptr;
  for (const XraOp& o : plan_.ops) {
    if (o.store_result == plan_.final_result) storer = &o;
  }
  MJOIN_CHECK(storer != nullptr);

  // Partial result summary over this worker's fragments of the final
  // result (the checksum is a sum mod 2^64, so per-worker summaries add up
  // to the query's).
  SummaryMsg summary;
  const auto& final_frags = host_->stored(plan_.final_result);
  std::vector<const Relation*> hosted;
  for (size_t i = 0; i < final_frags.size(); ++i) {
    if (!Hosts(storer->processors[i])) continue;
    ResultSummary frag = SummarizeRelation(final_frags[i]);
    summary.cardinality += frag.cardinality;
    summary.checksum += frag.checksum;
    hosted.push_back(&final_frags[i]);
  }
  std::vector<std::byte> payload;
  EncodeSummary(summary, &payload);
  chan_->QueueFrame(FrameType::kSummary, payload);

  if (env_.materialize_result) {
    MJOIN_ASSIGN_OR_RETURN(uint32_t schema_id,
                           registry_.IdOf(*storer->output_schema));
    uint32_t tuple_size = storer->output_schema->tuple_size();
    // Ship fragments in chunks that each fit one ring record.
    const size_t rows_per_record =
        (shm_max_payload_ - sizeof(ShmResultRowsHeader)) / tuple_size;
    for (const Relation* frag : hosted) {
      size_t offset = 0;
      while (offset < frag->num_tuples()) {
        size_t count = std::min(rows_per_record, frag->num_tuples() - offset);
        ShmResultRowsHeader hdr;
        hdr.schema_id = schema_id;
        hdr.tuple_size = tuple_size;
        hdr.num_tuples = static_cast<uint32_t>(count);
        PushShmRecord(coord_ep_, ShmRecordType::kResultRows, &hdr,
                      sizeof(hdr), frag->raw_data() + offset * tuple_size,
                      count * tuple_size);
        offset += count;
      }
    }
  }

  if (env_.collect_metrics) {
    for (const XraOp& o : plan_.ops) {
      OpStatsMsg msg;
      msg.op = o.id;
      msg.instances = host_->MergeOpMetrics(o.id, &msg.metrics);
      if (msg.instances == 0) continue;
      std::vector<std::byte> stats_payload;
      EncodeOpStats(msg, &stats_payload);
      chan_->QueueFrame(FrameType::kOpStats, stats_payload);
    }
  }

  stats_.buffers_allocated = pool_->allocated() - pool_allocated_base_;
  stats_.buffers_reused = pool_->reused() - pool_reused_base_;
  stats_.batches_processed = host_->batches_processed();
  stats_.batches_dropped = host_->batches_dropped();
  stats_.batches_duplicated = host_->batches_duplicated();
  stats_.peak_memory_bytes = host_->peak_memory_bytes();
  if (injector_ != nullptr) {
    stats_.faults_injected = injector_->faults_injected();
  }
  std::vector<std::byte> net_payload;
  EncodeWorkerRunStats(stats_, &net_payload);
  chan_->QueueFrame(FrameType::kNetStats, net_payload);

  if (env_.record_trace && !trace_events_.empty()) {
    std::vector<std::byte> trace_payload;
    EncodeTraceEvents(trace_events_, &trace_payload);
    chan_->QueueFrame(FrameType::kTraceEvents, trace_payload);
  }

  // kBye is the coordinator's signal that this worker's reporting is
  // complete, so it must trail every ring record still parked in a
  // backlog; the loop queues it once the backlogs drain.
  bye_pending_ = true;
  return Status::OK();
}

Status WorkerRun::HandleFrame(const Frame& frame) {
  switch (frame.type) {
    case FrameType::kTrigger:
      return HandleTrigger(frame);
    case FrameType::kSkewDirective:
      return HandleSkewDirective(frame);
    case FrameType::kFinish:
      return SendFinishReports();
    case FrameType::kPing: {
      // Answer immediately, before any query work: liveness must not queue
      // behind a long build. The pong reuses the ping's sequence number.
      WireReader reader(frame.payload);
      HeartbeatMsg ping;
      MJOIN_RETURN_IF_ERROR(DecodeHeartbeat(&reader, &ping));
      std::vector<std::byte> payload;
      EncodeHeartbeat(ping, &payload);
      chan_->QueueFrame(FrameType::kPong, payload);
      return Status::OK();
    }
    case FrameType::kShutdown:
      shutdown_ = true;
      return Status::OK();
    // Frames the table says never arrive at a worker (worker-to-
    // coordinator and serve-layer classes), generated from
    // MJOIN_FRAME_TABLE. kPlan is class CW but handled by the parked
    // outer loop, never here. The switch stays default:-free so -Wswitch
    // flags any new wire frame that is silently unrouted here.
    case FrameType::kPlan:
    MJOIN_FRAME_CASES(NOT_CW)
      break;
  }
  return Status::InvalidArgument(StrCat(
      "worker received unexpected ", FrameTypeName(frame.type), " frame"));
}

Status WorkerRun::Loop() {
  for (;;) {
    RetryBacklogs();
    RingDirtyDoorbells();
    MJOIN_RETURN_IF_ERROR(chan_->Flush());
    bool peer_closed = false;
    MJOIN_RETURN_IF_ERROR(chan_->ReadAvailable(&peer_closed));
    // Ring records are consumed before any control frame: the peer rings,
    // then sends its frames, so a kTrigger or kFinish read just now can
    // rely on every record published before it being delivered already.
    MJOIN_RETURN_IF_ERROR(DrainInboundRings());
    if (aborted()) return run_status_;
    Frame frame;
    while (chan_->NextFrame(&frame)) {
      MJOIN_RETURN_IF_ERROR(HandleFrame(frame));
      if (aborted()) return run_status_;
      if (shutdown_) {
        return chan_->Flush();
      }
    }
    if (aborted()) return run_status_;
    if (peer_closed) {
      return Status::Unavailable("coordinator closed the socket");
    }
    if (bye_pending_ && ring_backlog_bytes_ == 0) {
      bye_pending_ = false;
      chan_->QueueFrame(FrameType::kBye, {});
      continue;  // flush before waiting
    }
    if (!pump_queue_.empty()) {
      if (ring_backlog_bytes_ < kRingBacklogWatermark) {
        PumpSources();
        if (aborted()) return run_status_;
        continue;
      }
      ++stats_.pump_stalls;
    }
    RingDirtyDoorbells();
    if (chan_->has_frames()) continue;
    if (InboundRingsNonEmpty()) continue;
    // Nothing runnable: wait for the socket (readable, or writable when
    // the outbox is backed up) or our doorbell (a peer published records
    // or released ring space). A nonempty backlog caps the wait — the
    // space we need may already exist with no doorbell owed to us.
    struct pollfd pfds[2];
    pfds[0].fd = chan_->fd();
    pfds[0].events = static_cast<short>(
        POLLIN | (chan_->has_pending_output() ? POLLOUT : 0));
    pfds[0].revents = 0;
    pfds[1].fd = plane_->doorbell(env_.worker_id);
    pfds[1].events = POLLIN;
    pfds[1].revents = 0;
    const int timeout_ms = ring_backlog_bytes_ > 0 ? 10 : 1000;
    int rc = poll(pfds, 2, timeout_ms);
    if (rc < 0 && errno != EINTR) {
      return Status::Internal("worker poll failed");
    }
    plane_->DrainDoorbell(env_.worker_id);
  }
}

}  // namespace

int RunProcessWorker(int fd, ShmDataPlane* plane, ShmArena* arena) {
  // The channel sends with MSG_NOSIGNAL, but ignore SIGPIPE anyway so no
  // stray write to a dead coordinator can kill the worker with a signal
  // instead of the EPIPE -> kUnavailable path the supervisor understands.
  signal(SIGPIPE, SIG_IGN);
  if (!SetNonBlocking(fd).ok()) return 1;
  FrameChannel chan(fd, "coordinator");
  chan.EnableConformance(LinkRole::kWorker);
  // Worker-lifetime buffer pool: in persistent mode, steady-state queries
  // after the first reuse its freelist instead of allocating.
  BatchPool pool;

  auto fail = [&chan, fd](const Status& status) {
    std::vector<std::byte> payload;
    EncodeStatusPayload(status, &payload);
    chan.QueueFrame(FrameType::kError, payload);
    // Best effort: the coordinator may already be gone.
    for (int i = 0; i < 100 && chan.has_pending_output(); ++i) {
      if (!chan.Flush().ok()) break;
      if (!chan.has_pending_output()) break;
      struct pollfd pfd;
      pfd.fd = fd;
      pfd.events = POLLOUT;
      pfd.revents = 0;
      poll(&pfd, 1, 50);
    }
    return 1;
  };

  for (;;) {
    // Parked: wait for the next kPlan. A warm fleet idles here for
    // arbitrarily long between queries, so a WaitReadable timeout just
    // re-arms the wait; death of the coordinating process surfaces as EOF
    // (peer_closed) because the socketpair end it held is closed then.
    Frame plan_frame;
    for (;;) {
      bool peer_closed = false;
      if (!chan.ReadAvailable(&peer_closed).ok()) return 1;
      if (chan.NextFrame(&plan_frame)) break;
      if (peer_closed) return 1;
      StatusOr<bool> readable = WaitReadable(fd, 30'000);
      if (!readable.ok()) return 1;
    }
    // A persistent worker parks after its kIdle ack; the fleet's teardown
    // then sends a bare kShutdown to exit it cleanly.
    if (plan_frame.type == FrameType::kShutdown) return 0;
    if (plan_frame.type != FrameType::kPlan) return 1;

    PlanEnvelope env;
    {
      WireReader reader(plan_frame.payload);
      Status status = DecodePlanEnvelope(&reader, &env);
      if (!status.ok()) return fail(status);
    }
    if (env.protocol_version != kNetProtocolVersion) {
      return fail(Status::FailedPrecondition(
          StrCat("protocol version mismatch: coordinator speaks ",
                 env.protocol_version, ", worker speaks ",
                 kNetProtocolVersion)));
    }
    StatusOr<ParallelPlan> plan = ParsePlan(env.plan_text);
    if (!plan.ok()) return fail(plan.status());

    // The hello hash is FNV over our *re-serialization* of the parsed plan:
    // every process-backend query round-trips the textual XRA format and
    // the coordinator verifies the result. The hello also echoes the ring
    // directory this worker derived from its own parse — the coordinator
    // rejects the fleet before any record can cross a divergent directory.
    ShmDataPlane* data_plane = plane;
    std::unique_ptr<ShmDataPlane> arena_view;
    HelloMsg hello;
    hello.protocol_version = kNetProtocolVersion;
    hello.plan_hash = FnvHash64(SerializePlan(*plan));
    std::vector<ShmRingSpec> directory =
        ComputeRingDirectory(*plan, env.num_workers);
    hello.ring_directory_hash = ShmDataPlane::HashDirectory(
        directory, env.num_workers + 1, env.shm_ring_bytes);
    if (arena != nullptr) {
      // Warm fleet: lay this query's ring view over the inherited arena.
      // The coordinator formatted the rings before sending kPlan, so the
      // worker only attaches.
      StatusOr<std::unique_ptr<ShmDataPlane>> view =
          ShmDataPlane::CreateInArena(arena, std::move(directory),
                                      env.num_workers + 1, env.shm_ring_bytes,
                                      /*format=*/false);
      if (!view.ok()) return fail(view.status());
      arena_view = std::move(view).value();
      data_plane = arena_view.get();
    }
    if (data_plane == nullptr) {
      return fail(Status::Internal("the worker inherited no shm data plane"));
    }
    std::vector<std::byte> hello_payload;
    EncodeHello(hello, &hello_payload);
    chan.QueueFrame(FrameType::kHello, hello_payload);
    if (!chan.Flush().ok()) return 1;

    const bool persistent = env.persistent;
    {
      WorkerRun run(&chan, std::move(env), std::move(plan).value(),
                    data_plane, &pool);
      Status status = run.Setup();
      if (status.ok()) status = run.Loop();
      if (!status.ok()) return fail(status);
    }
    // The query's state (and its arena view) is down before the idle ack:
    // once the coordinator sees kIdle from every worker it may reformat the
    // arena's rings for the next query.
    arena_view.reset();
    if (!persistent) return 0;
    chan.QueueFrame(FrameType::kIdle, {});
    for (int i = 0; i < 100 && chan.has_pending_output(); ++i) {
      if (!chan.Flush().ok()) return 1;
      if (!chan.has_pending_output()) break;
      struct pollfd pfd;
      pfd.fd = fd;
      pfd.events = POLLOUT;
      pfd.revents = 0;
      poll(&pfd, 1, 50);
    }
    if (chan.has_pending_output()) return 1;
  }
}

}  // namespace mjoin
