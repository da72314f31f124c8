#ifndef MJBENCH_TRACE_H_
#define MJBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace mjbench {

/// One timed call into a layer, recorded by the benchmark around the
/// engine's public functions. Times are nanoseconds since the tracer's
/// origin; `parent` is the enclosing span on the same thread (-1 = root);
/// spans of one query share `query_id` (0 = not part of a query).
struct Span {
  std::string name;
  std::string layer;
  int64_t start_ns = 0;
  int64_t end_ns = -1;
  int64_t parent = -1;
  uint64_t query_id = 0;
  uint32_t tid = 0;
};

/// Per-layer self time: each span's duration minus the part its child
/// spans cover, summed by layer.
struct LayerTime {
  double self_s = 0;
  uint64_t spans = 0;
};

/// In-memory span recorder. Spans are kept until the run ends and then
/// written out as Chrome trace_event JSON (the format ThreadTraceRecorder
/// exports). When disabled, Begin() returns -1 and nothing is recorded, so
/// untraced runs pay one branch per layer call.
class Tracer {
 public:
  Tracer();

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  int64_t NowNs() const;

  /// Opens a span on the calling thread; its parent is the innermost span
  /// this thread still has open. Returns the span id, or -1 when disabled.
  int64_t Begin(const char* layer, std::string name, uint64_t query_id = 0);
  void End(int64_t id);
  /// Tags a span with the query it turned out to serve (a served Await
  /// learns which query returned only when it returns).
  void SetQuery(int64_t id, uint64_t query_id);

  /// Total duration and count of closed spans named `name`.
  double TotalSeconds(const std::string& name) const;
  uint64_t Count(const std::string& name) const;

  /// Self time by layer over the spans of thread `tid` (0 = the first
  /// thread that traced), or of every thread when `tid` is negative.
  std::map<std::string, LayerTime> SelfTimes(int tid) const;

  std::string ChromeJson() const;

 private:
  bool enabled_ = false;
  int64_t origin_ns_ = 0;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op when the tracer is null or disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* layer, std::string name,
             uint64_t query_id = 0)
      : tracer_(tracer),
        id_(tracer != nullptr && tracer->enabled()
                ? tracer->Begin(layer, std::move(name), query_id)
                : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_;
};

}  // namespace mjbench

#endif  // MJBENCH_TRACE_H_
