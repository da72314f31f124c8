#include "trace.h"

#include <chrono>
#include <cstdio>

namespace mjbench {
namespace {

int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint32_t ThreadId() {
  static std::mutex mu;
  static uint32_t next = 0;
  thread_local uint32_t id = [] {
    std::lock_guard<std::mutex> lock(mu);
    return next++;
  }();
  return id;
}

// Open spans of the calling thread, innermost last.
thread_local std::vector<int64_t> open_spans;

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

Tracer::Tracer() : origin_ns_(SteadyNs()) {}

int64_t Tracer::NowNs() const { return SteadyNs() - origin_ns_; }

int64_t Tracer::Begin(const char* layer, std::string name,
                      uint64_t query_id) {
  if (!enabled_) return -1;
  Span span;
  span.name = std::move(name);
  span.layer = layer;
  span.parent = open_spans.empty() ? -1 : open_spans.back();
  span.query_id = query_id;
  span.tid = ThreadId();
  int64_t id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<int64_t>(spans_.size());
    span.start_ns = NowNs();
    spans_.push_back(std::move(span));
  }
  open_spans.push_back(id);
  return id;
}

void Tracer::End(int64_t id) {
  const int64_t now = NowNs();
  if (!open_spans.empty() && open_spans.back() == id) open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

void Tracer::SetQuery(int64_t id, uint64_t query_id) {
  if (id < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].query_id = query_id;
}

double Tracer::TotalSeconds(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0;
  for (const Span& s : spans_) {
    if (s.end_ns >= 0 && s.name == name) total += (s.end_ns - s.start_ns) * 1e-9;
  }
  return total;
}

uint64_t Tracer::Count(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const Span& s : spans_) {
    if (s.end_ns >= 0 && s.name == name) ++n;
  }
  return n;
}

namespace {

// Self time of every closed span: its duration minus its children's. A
// child nests inside its parent on the same thread, so children never
// overlap one another and their durations simply add.
std::vector<int64_t> SelfNs(const std::vector<Span>& spans) {
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].end_ns < 0) continue;
    self[i] += spans[i].end_ns - spans[i].start_ns;
    if (spans[i].parent >= 0) {
      self[static_cast<size_t>(spans[i].parent)] -=
          spans[i].end_ns - spans[i].start_ns;
    }
  }
  return self;
}

}  // namespace

std::map<std::string, LayerTime> Tracer::SelfTimes(int tid) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<int64_t> self = SelfNs(spans_);
  std::map<std::string, LayerTime> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].end_ns < 0) continue;
    if (tid >= 0 && spans_[i].tid != static_cast<uint32_t>(tid)) continue;
    LayerTime& t = out[spans_[i].layer];
    t.self_s += self[i] * 1e-9;
    ++t.spans;
  }
  return out;
}

std::string Tracer::ChromeJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[512];
  bool first = true;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                  "\"args\":{\"span\":%zu,\"parent\":%lld,\"query\":%llu}}",
                  first ? "" : ",", JsonEscape(s.name).c_str(),
                  s.layer.c_str(), s.start_ns / 1e3,
                  (s.end_ns - s.start_ns) / 1e3, s.tid, i,
                  static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.query_id));
    out += buf;
    first = false;
  }
  out += "\n]}\n";
  return out;
}

}  // namespace mjbench
