// Serving under concurrency: MVCC snapshot reads vs a live writer, and
// batch update throughput, across all four backends.
//
// The paper's prototype served world-set relations from PostgreSQL — many
// clients, one store. This harness measures the serving properties of the
// in-process reproduction:
//
//   - read_only:  N reader threads answering possible(R) from pinned
//     Session snapshots, no writer. Baseline read p50/p99.
//   - mixed:      the same readers while a writer thread continuously
//     applies whole-relation modifies. Snapshot reads answer from their
//     pinned view, so they never wait behind the writer — the JSON
//     records the snapshots' blocked-on-writer wait count (structurally
//     0) and CI asserts it. The acceptance gate: mixed read p99 within
//     2x of the read-only p99.
//   - apply_seq: an unconditional update batch of 16 modifies and deletes
//     through one ApplyAll.
//   - server_batch: WorldServer::ExecuteAll throughput over one session
//     per backend under a mixed snapshot-read/update request batch.
//   - snapshot_pin: Snapshot() pin+teardown latency at three FIXED data
//     scales (1000/3000/10000 census rows, deliberately independent of
//     MAYWSD_SCALE). The COW pin is O(relations), not O(data): the
//     harness itself exits nonzero if the largest scale's pin p50
//     exceeds 1.5x the smallest scale's (plus a 0.02 ms noise floor) on
//     any backend, and CI's bench smoke re-asserts the section exists.
//
// Usage: fig_serving [--json PATH] — writes BENCH_fig_serving.json for
// CI. MAYWSD_SCALE scales the relation sizes as in the other harnesses.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/session.h"
#include "bench/bench_util.h"
#include "common/timer.h"
#include "rel/update.h"
#include "server/world_server.h"

namespace {

using namespace maywsd;
using rel::CmpOp;
using rel::Predicate;
using rel::UpdateOp;

constexpr int kReaderThreads = 4;
constexpr int kReadsPerThread = 400;
constexpr int kSnapshotRefresh = 16;  // reads served per pinned snapshot

struct Sample {
  std::string phase;
  const char* backend = "wsdt";
  int threads = 1;
  size_t rows = 0;  // data scale of the phase's store (0 = phase default)
  size_t ops = 0;
  double seconds = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double throughput = 0.0;       // ops/second
  uint64_t blocked_waits = 0;    // snapshot reads that waited on a writer
};

void WriteJson(const char* path, const std::vector<Sample>& samples) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    std::exit(1);
  }
  std::fprintf(f,
               "{\n  \"figure\": \"fig_serving\",\n"
               "  \"hardware_concurrency\": %u,\n  \"samples\": [\n",
               std::thread::hardware_concurrency());
  for (size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    std::fprintf(
        f,
        "    {\"phase\": \"%s\", \"backend\": \"%s\", \"threads\": %d, "
        "\"rows\": %zu, "
        "\"ops\": %zu, \"seconds\": %.6f, \"p50_ms\": %.4f, "
        "\"p99_ms\": %.4f, \"throughput\": %.1f, "
        "\"blocked_waits\": %llu}%s\n",
        s.phase.c_str(), s.backend, s.threads, s.rows, s.ops, s.seconds,
        s.p50_ms,
        s.p99_ms, s.throughput,
        static_cast<unsigned long long>(s.blocked_waits),
        i + 1 < samples.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(v.size() - 1));
  return v[idx];
}

/// The writer's update: rewrite FERTIL on the younger half of the
/// relation, alternating the value so every apply changes the store.
UpdateOp WriterOp(int k) {
  return UpdateOp::ModifyWhere(
      "R", Predicate::Cmp("AGE", CmpOp::kLt, rel::Value::Int(45)),
      {{"FERTIL", rel::Value::Int(k % 13)}});
}

/// Runs the reader fleet against `session`; a writer loops WriterOp when
/// `with_writer`. Returns the phase's Sample (latencies are per answer
/// read off the pinned snapshot; snapshot refreshes count toward wall
/// clock / throughput but not latency).
Sample ReadPhase(const api::Session& session, api::Session& writable,
                 const char* backend, bool with_writer) {
  std::vector<std::vector<double>> latencies(kReaderThreads);
  std::atomic<uint64_t> blocked{0};
  std::atomic<bool> stop{false};
  Timer wall;

  std::vector<std::thread> readers;
  readers.reserve(kReaderThreads);
  for (int r = 0; r < kReaderThreads; ++r) {
    readers.emplace_back([&session, &latencies, &blocked, r] {
      std::optional<api::Snapshot> snap;
      latencies[r].reserve(kReadsPerThread);
      for (int i = 0; i < kReadsPerThread; ++i) {
        if (i % kSnapshotRefresh == 0) {
          if (snap.has_value()) {
            blocked.fetch_add(snap->Stats().reader_blocked_waits);
          }
          snap.emplace(session.Snapshot());
        }
        Timer t;
        auto rows = snap->PossibleTuples("R");
        latencies[r].push_back(t.Millis());
        if (!rows.ok()) {
          std::fprintf(stderr, "read failed: %s\n",
                       rows.status().ToString().c_str());
          std::exit(1);
        }
      }
      blocked.fetch_add(snap->Stats().reader_blocked_waits);
    });
  }
  std::thread writer;
  if (with_writer) {
    writer = std::thread([&writable, &stop] {
      for (int k = 0; !stop.load(std::memory_order_acquire); ++k) {
        Status st = writable.Apply(WriterOp(k));
        if (!st.ok()) {
          std::fprintf(stderr, "apply failed: %s\n", st.ToString().c_str());
          std::exit(1);
        }
      }
    });
  }
  for (std::thread& t : readers) t.join();
  stop.store(true, std::memory_order_release);
  if (writer.joinable()) writer.join();

  Sample s;
  s.phase = with_writer ? "mixed" : "read_only";
  s.backend = backend;
  s.threads = kReaderThreads;
  s.seconds = wall.Seconds();
  std::vector<double> all;
  for (auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  s.ops = all.size();
  s.p50_ms = Percentile(all, 0.50);
  s.p99_ms = Percentile(all, 0.99);
  s.throughput = static_cast<double>(s.ops) / s.seconds;
  s.blocked_waits = blocked.load();
  return s;
}

/// The unconditional update batch of the apply phase: 16 same-relation
/// modifies and narrow deletes.
std::vector<UpdateOp> ApplyBatch() {
  std::vector<UpdateOp> ops;
  for (int k = 0; k < 16; ++k) {
    if (k % 4 == 3) {
      ops.push_back(UpdateOp::DeleteWhere(
          "R", Predicate::Cmp("AGE", CmpOp::kEq, rel::Value::Int(90 - k))));
    } else {
      ops.push_back(UpdateOp::ModifyWhere(
          "R", Predicate::Cmp("AGE", CmpOp::kGe, rel::Value::Int(k % 60)),
          {{"FERTIL", rel::Value::Int(k % 13)}}));
    }
  }
  return ops;
}

Sample ApplyPhase(const core::Wsdt& wsdt, api::BackendKind kind,
                  const char* backend) {
  auto session_or = api::Session::Open(kind, wsdt);
  if (!session_or.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 session_or.status().ToString().c_str());
    std::exit(1);
  }
  api::Session session = std::move(session_or).value();
  std::vector<UpdateOp> batch = ApplyBatch();
  Timer wall;
  Status st = session.ApplyAll(batch);
  double seconds = wall.Seconds();
  if (!st.ok()) {
    std::fprintf(stderr, "ApplyAll failed: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  Sample s;
  s.phase = "apply_seq";
  s.backend = backend;
  s.ops = batch.size();
  s.seconds = seconds;
  s.throughput = static_cast<double>(s.ops) / seconds;
  return s;
}

/// Snapshot pin+teardown latency over a store of `rows` census rows. The
/// pin is a copy-on-write clone — O(relations) handle copies, no data —
/// so the sample must not move as `rows` grows; main() enforces that.
Sample SnapshotPinPhase(api::BackendKind kind, const char* backend,
                        const core::Wsdt& wsdt, size_t rows) {
  constexpr int kPins = 128;
  auto session_or = api::Session::Open(kind, wsdt);
  if (!session_or.ok()) {
    std::fprintf(stderr, "open %s failed: %s\n", backend,
                 session_or.status().ToString().c_str());
    std::exit(1);
  }
  api::Session session = std::move(session_or).value();
  {
    // Warm-up: the first read may force shared lazy state; pins after it
    // measure the steady-state clone cost only.
    api::Snapshot warm = session.Snapshot();
    if (!warm.PossibleTuples("R").ok()) std::exit(1);
  }
  std::vector<double> latencies;
  latencies.reserve(kPins);
  Timer wall;
  for (int i = 0; i < kPins; ++i) {
    Timer t;
    {
      api::Snapshot snapshot = session.Snapshot();
      (void)snapshot;
    }
    latencies.push_back(t.Millis());
  }
  Sample s;
  s.phase = "snapshot_pin";
  s.backend = backend;
  s.threads = 1;
  s.rows = rows;
  s.ops = latencies.size();
  s.seconds = wall.Seconds();
  s.p50_ms = Percentile(latencies, 0.50);
  s.p99_ms = Percentile(latencies, 0.99);
  s.throughput = static_cast<double>(s.ops) / s.seconds;
  return s;
}

/// WorldServer::ExecuteAll throughput: one session per backend, a mixed
/// request batch (snapshot reads, direct reads, no-op deletes).
Sample ServerBatchPhase(const rel::Relation& base) {
  server::WorldServer server;
  const char* backends[] = {"wsd", "wsdt", "uniform", "urel"};
  for (const char* b : backends) {
    server::Request open;
    open.kind = server::Request::Kind::kOpenSession;
    open.session = b;
    open.backend = *api::ParseBackendKind(b);
    server.Execute(open);
    server::Request reg;
    reg.kind = server::Request::Kind::kRegister;
    reg.session = b;
    reg.relation = base;
    server.Execute(reg);
  }
  std::vector<server::Request> batch;
  for (int i = 0; i < 256; ++i) {
    server::Request req;
    req.session = backends[i % 4];
    req.target = "R";
    switch (i % 3) {
      case 0:
        req.kind = server::Request::Kind::kSnapshotRead;
        break;
      case 1:
        req.kind = server::Request::Kind::kApply;
        req.update = UpdateOp::DeleteWhere(
            "R", Predicate::Cmp("AGE", CmpOp::kLt, rel::Value::Int(0)));
        break;
      default:
        req.kind = server::Request::Kind::kPossible;
        break;
    }
    batch.push_back(std::move(req));
  }
  Timer wall;
  std::vector<server::Response> responses = server.ExecuteAll(batch);
  double seconds = wall.Seconds();
  for (const server::Response& r : responses) {
    if (!r.status.ok()) {
      std::fprintf(stderr, "server request failed: %s\n",
                   r.status.ToString().c_str());
      std::exit(1);
    }
  }
  Sample s;
  s.phase = "server_batch";
  s.backend = "all";
  s.threads = static_cast<int>(std::thread::hardware_concurrency());
  s.ops = batch.size();
  s.seconds = seconds;
  s.throughput = static_cast<double>(s.ops) / seconds;
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  const census::CensusSchema schema = census::CensusSchema::Standard();
  const size_t read_rows =
      static_cast<size_t>(2000 * maywsd::bench::ScaleFactor());
  const size_t apply_rows =
      static_cast<size_t>(10000 * maywsd::bench::ScaleFactor());
  core::Wsdt read_wsdt = bench::MakeCensusWsdt(schema, read_rows, 0.001);
  core::Wsdt apply_wsdt = bench::MakeCensusWsdt(schema, apply_rows, 0.001);

  std::vector<Sample> samples;
  const char* backends[] = {"wsd", "wsdt", "uniform", "urel"};
  for (const char* backend : backends) {
    api::BackendKind kind = *api::ParseBackendKind(backend);

    auto session_or = api::Session::Open(kind, read_wsdt);
    if (!session_or.ok()) {
      std::fprintf(stderr, "open %s failed: %s\n", backend,
                   session_or.status().ToString().c_str());
      return 1;
    }
    api::Session session = std::move(session_or).value();
    for (bool with_writer : {false, true}) {
      Sample s = ReadPhase(session, session, backend, with_writer);
      std::printf("%-13s %-8s ops=%-5zu p50=%.3fms p99=%.3fms "
                  "%.0f reads/s blocked=%llu\n",
                  s.phase.c_str(), backend, s.ops, s.p50_ms, s.p99_ms,
                  s.throughput,
                  static_cast<unsigned long long>(s.blocked_waits));
      samples.push_back(std::move(s));
    }

    Sample s = ApplyPhase(apply_wsdt, kind, backend);
    std::printf("%-13s %-8s ops=%zu %.3fs\n", s.phase.c_str(), backend, s.ops,
                s.seconds);
    samples.push_back(std::move(s));
  }

  // snapshot_pin: fixed scales so the flatness gate means the same thing
  // at every MAYWSD_SCALE. A 10x data sweep must leave pin p50 flat.
  const size_t pin_scales[] = {1000, 3000, 10000};
  std::vector<core::Wsdt> pin_stores;
  for (size_t rows : pin_scales) {
    pin_stores.push_back(bench::MakeCensusWsdt(schema, rows, 0.001));
  }
  bool pin_flat = true;
  for (const char* backend : backends) {
    api::BackendKind kind = *api::ParseBackendKind(backend);
    double smallest_p50 = 0.0;
    for (size_t i = 0; i < pin_stores.size(); ++i) {
      Sample s =
          SnapshotPinPhase(kind, backend, pin_stores[i], pin_scales[i]);
      std::printf("%-13s %-8s rows=%-6zu p50=%.4fms p99=%.4fms\n",
                  s.phase.c_str(), backend, s.rows, s.p50_ms, s.p99_ms);
      if (i == 0) smallest_p50 = s.p50_ms;
      // O(relations), not O(data): allow 1.5x plus a noise floor.
      if (i + 1 == pin_stores.size() &&
          s.p50_ms > smallest_p50 * 1.5 + 0.02) {
        std::fprintf(stderr,
                     "snapshot pin p50 grew with data on %s: "
                     "%.4fms at %zu rows vs %.4fms at %zu rows\n",
                     backend, s.p50_ms, pin_scales[i], smallest_p50,
                     pin_scales[0]);
        pin_flat = false;
      }
      samples.push_back(std::move(s));
    }
  }

  rel::Relation base =
      census::GenerateCensus(schema, read_rows, /*seed=*/0xC0FFEE ^ read_rows);
  Sample sb = ServerBatchPhase(base);
  std::printf("%-13s %-8s ops=%zu %.3fs %.0f req/s\n", sb.phase.c_str(),
              sb.backend, sb.ops, sb.seconds, sb.throughput);
  samples.push_back(std::move(sb));

  if (json_path != nullptr) WriteJson(json_path, samples);
  return pin_flat ? 0 : 1;  // JSON is written either way, for forensics
}
