#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>

namespace perfbench {

long PeakRssKb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atol(line.c_str() + 6);
  }
  return 0;
}

double Latencies::Mean() const {
  return ms.empty() ? 0.0 : busy_s * 1e3 / static_cast<double>(ms.size());
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

namespace {
bool TenBeyond(size_t samples, double p) {
  return static_cast<double>(samples) * (1.0 - p / 100.0) >= 10.0;
}
}  // namespace

double TailPercentile(size_t samples, double preferred) {
  if (TenBeyond(samples, preferred)) return preferred;
  double best = 50;
  for (double p : {75.0, 90.0, 95.0, 99.0}) {
    if (p < preferred && TenBeyond(samples, p)) best = p;
  }
  return best;
}

void Report::Check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failed <= 5) notes.push_back("check failed: " + what);
}

double BlockRate(const Latencies& lat, size_t rounds_per_block) {
  const size_t per = std::max<size_t>(rounds_per_block, 1);
  std::vector<double> block_s;
  for (size_t i = 0; i + per <= lat.round_s.size(); i += per) {
    block_s.push_back(0);
    for (size_t j = i; j < i + per; ++j) block_s.back() += lat.round_s[j];
  }
  if (block_s.empty()) return 0.0;
  // The mean of the middle half of the blocks.
  std::sort(block_s.begin(), block_s.end());
  const size_t lo = block_s.size() / 4, hi = block_s.size() - lo;
  double secs = 0;
  for (size_t i = lo; i < hi; ++i) secs += block_s[i];
  secs /= static_cast<double>(hi - lo);
  // Every round has the same number of requests.
  double per_block = static_cast<double>(lat.ms.size() * per) /
                     static_cast<double>(lat.round_s.size());
  return secs > 0 ? per_block / secs : 0.0;
}

void Report::AddEndToEnd(const std::string& backend, const Latencies& lat,
                         double ops_per_s, double preferred_tail) {
  Set(backend + ".ops_per_s", ops_per_s, "1/s");
  Set(backend + ".p50_ms", Percentile(lat.ms, 50), "ms");
  double p = TailPercentile(lat.ms.size(), preferred_tail);
  Set(backend + ".tail_ms", Percentile(lat.ms, p), "ms");
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s.tail_ms is p%g of %zu requests",
                backend.c_str(), p, lat.ms.size());
  notes.push_back(buf);
}

Counters Counters::Of(const maywsd::api::SessionStats& s) {
  Counters c;
  c.runs = s.runs;
  c.sharded_runs = s.sharded_runs;
  c.fallback_runs = s.fallback_runs;
  c.round_trips = s.round_trips;
  c.forced_evals = s.store_forced_evals;
  c.cow_breaks = s.store_cow_breaks;
  c.forks = s.forks;
  c.guard_materializations = s.guard_materializations;
  c.guard_shares = s.guard_shares;
  return c;
}

#define PERFBENCH_COUNTER_FIELDS(X)                                        \
  X(runs) X(sharded_runs) X(fallback_runs) X(round_trips) X(forced_evals)  \
  X(cow_breaks) X(forks) X(successor_hits) X(successor_misses)             \
  X(guard_materializations) X(guard_shares)

Counters Counters::operator-(const Counters& o) const {
  Counters d;
#define PERFBENCH_SUB(f) d.f = f - o.f;
  PERFBENCH_COUNTER_FIELDS(PERFBENCH_SUB)
#undef PERFBENCH_SUB
  return d;
}

Counters& Counters::operator+=(const Counters& o) {
#define PERFBENCH_ADD(f) f += o.f;
  PERFBENCH_COUNTER_FIELDS(PERFBENCH_ADD)
#undef PERFBENCH_ADD
  return *this;
}

Counters StoreCounters() {
  // Any session reports the process-wide store counters.
  static const maywsd::api::Session probe =
      maywsd::api::Session::Open(maywsd::api::BackendKind::kWsdt);
  maywsd::api::SessionStats s = probe.Stats();
  Counters c;
  c.forced_evals = s.store_forced_evals;
  c.cow_breaks = s.store_cow_breaks;
  return c;
}

// -- Tracer -----------------------------------------------------------------

std::atomic<bool> Tracer::enabled_{false};

namespace {

struct ThreadBuffer {
  std::vector<SpanRecord> spans;
  int64_t open = -1;  // innermost open span
  uint64_t request = 0;
};

std::mutex& BuffersMu() {
  static std::mutex mu;
  return mu;
}
std::vector<std::shared_ptr<ThreadBuffer>>& Buffers() {
  static std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  return buffers;
}
std::atomic<uint64_t> next_request{1};

ThreadBuffer& Local() {
  thread_local std::shared_ptr<ThreadBuffer> buf = [] {
    auto b = std::make_shared<ThreadBuffer>();
    std::lock_guard<std::mutex> lock(BuffersMu());
    Buffers().push_back(b);
    return b;
  }();
  return *buf;
}

}  // namespace

void Tracer::SetEnabled(bool on) {
  enabled_.store(on, std::memory_order_relaxed);
}

void Tracer::BeginRequest() {
  if (!enabled()) return;
  Local().request = next_request.fetch_add(1, std::memory_order_relaxed);
}

std::vector<SpanRecord> Tracer::Drain() {
  std::vector<SpanRecord> out;
  std::lock_guard<std::mutex> lock(BuffersMu());
  for (auto& b : Buffers()) {
    int64_t base = static_cast<int64_t>(out.size());
    for (SpanRecord& s : b->spans) {
      if (s.parent >= 0) s.parent += base;
      out.push_back(std::move(s));
    }
    b->spans.clear();
    b->open = -1;
  }
  return out;
}

Tracer::Span::Span(const char* name, std::string tag) {
  if (!enabled()) return;
  ThreadBuffer& b = Local();
  SpanRecord rec;
  rec.name = name;
  rec.tag = std::move(tag);
  rec.request = b.request;
  rec.parent = b.open;
  index_ = static_cast<int64_t>(b.spans.size());
  b.spans.push_back(std::move(rec));
  b.open = index_;
  open_ = true;
  b.spans.back().start = NowSeconds();
}

Tracer::Span::~Span() { End(); }

void Tracer::Span::End() {
  if (!open_) return;
  open_ = false;
  ThreadBuffer& b = Local();
  SpanRecord& rec = b.spans[static_cast<size_t>(index_)];
  rec.end = NowSeconds();
  b.open = rec.parent;
  if (rec.parent >= 0) {
    b.spans[static_cast<size_t>(rec.parent)].child_s += rec.end - rec.start;
  }
}

void Tracer::Span::SetDelta(const Counters& delta) {
  if (index_ < 0) return;
  SpanRecord& rec = Local().spans[static_cast<size_t>(index_)];
  rec.has_delta = true;
  rec.delta = delta;
}

std::map<std::pair<std::string, std::string>, SpanSummary> Summarize(
    const std::vector<SpanRecord>& spans) {
  std::map<std::pair<std::string, std::string>, SpanSummary> out;
  for (const SpanRecord& s : spans) {
    SpanSummary& sum = out[{s.name, s.tag}];
    ++sum.count;
    sum.total_s += s.Seconds();
    sum.self_s += s.SelfSeconds();
    sum.ms.push_back(s.Seconds() * 1e3);
    if (s.has_delta) sum.delta += s.delta;
  }
  return out;
}

std::string SelfTimeTable(const std::string& workload,
                          const std::vector<SpanRecord>& spans) {
  auto summary = Summarize(spans);
  double root_total = 0;
  for (const SpanRecord& s : spans) {
    if (s.parent < 0) root_total += s.Seconds();
  }
  std::ostringstream js;
  js << "{\"workload\": \"" << workload << "\", \"spans\": " << spans.size()
     << ", \"root_s\": " << root_total << ", \"layers\": [";
  std::printf("# self time per layer, %s (%zu spans, %.3f s under root "
              "spans)\n",
              workload.c_str(), spans.size(), root_total);
  bool first = true;
  for (const auto& [key, sum] : summary) {
    std::printf("#   %-28s %-12s n=%-6llu total=%9.3f ms self=%9.3f ms "
                "(%.1f%%)\n",
                key.first.c_str(), key.second.c_str(),
                static_cast<unsigned long long>(sum.count),
                sum.total_s * 1e3, sum.self_s * 1e3,
                root_total > 0 ? 100.0 * sum.self_s / root_total : 0.0);
    js << (first ? "" : ", ") << "{\"name\": \"" << key.first
       << "\", \"tag\": \"" << key.second << "\", \"count\": " << sum.count
       << ", \"total_s\": " << sum.total_s << ", \"self_s\": " << sum.self_s
       << "}";
    first = false;
  }
  js << "]}";
  return js.str();
}

}  // namespace perfbench
