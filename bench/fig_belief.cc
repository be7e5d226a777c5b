// Belief tracking across the four backends: move-apply throughput,
// knowledge-query latency (cold vs witness-cached), and the successor
// cache's cached-vs-cold expansion gap.
//
//   - move_apply:       Game::Step batches (guarded modifies + deletes)
//     through one agent's world set; per-batch p50/p99 and ops/s.
//   - knowledge_cold /  Knows() right after an invalidating observation
//     knowledge_cached: (witness re-materialized) vs the immediate
//     re-ask (served via the version-stamped witness cache and the
//     Session answer cache).
//   - successor_cold /  Game::Speculate on distinct action batches (COW
//     successor_hit:    fork + init + apply) vs re-expanding the same
//     batches. The harness exits non-zero if the hit pass forks or
//     applies ANYTHING (the memoized fork must be re-pinned as-is), or
//     if the cached expansion is not >= 10x cheaper than cold.
//   - guard_path:       a select[AθB] guard plan through Session::Run.
//     On the uniform backend this must run natively — the harness exits
//     non-zero if it pays any import → template → export round trip.
//
// Usage: fig_belief [--json PATH] — writes BENCH_fig_belief.json for CI.
// MAYWSD_SCALE scales the census world-set size as in the other
// harnesses.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "api/session.h"
#include "belief/belief.h"
#include "bench/bench_util.h"
#include "common/timer.h"
#include "rel/update.h"

namespace {

using namespace maywsd;
using rel::CmpOp;
using rel::Plan;
using rel::Predicate;
using rel::UpdateOp;
using rel::Value;

struct Sample {
  std::string phase;
  const char* backend = "wsdt";
  size_t ops = 0;
  double seconds = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double throughput = 0.0;        // ops/second
  uint64_t forks_delta = 0;       // belief-layer forks during the phase
  uint64_t applies_delta = 0;     // belief-layer applied ops during the phase
  uint64_t successor_hits = 0;    // cache hits during the phase
  uint64_t witness_hits = 0;      // knowledge-cache hits during the phase
  uint64_t witness_misses = 0;    // knowledge-cache misses during the phase
  uint64_t round_trips = 0;       // backend fallback round trips
  double cached_speedup = 0.0;    // cold p50 / hit p50 (successor phases)
};

void WriteJson(const char* path, const std::vector<Sample>& samples) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"figure\": \"fig_belief\",\n  \"samples\": [\n");
  for (size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    std::fprintf(
        f,
        "    {\"phase\": \"%s\", \"backend\": \"%s\", \"ops\": %zu, "
        "\"seconds\": %.6f, \"p50_ms\": %.5f, \"p99_ms\": %.5f, "
        "\"throughput\": %.1f, \"forks_delta\": %llu, "
        "\"applies_delta\": %llu, \"successor_hits\": %llu, "
        "\"witness_hits\": %llu, \"witness_misses\": %llu, "
        "\"round_trips\": %llu, \"cached_speedup\": %.1f}%s\n",
        s.phase.c_str(), s.backend, s.ops, s.seconds, s.p50_ms, s.p99_ms,
        s.throughput, static_cast<unsigned long long>(s.forks_delta),
        static_cast<unsigned long long>(s.applies_delta),
        static_cast<unsigned long long>(s.successor_hits),
        static_cast<unsigned long long>(s.witness_hits),
        static_cast<unsigned long long>(s.witness_misses),
        static_cast<unsigned long long>(s.round_trips), s.cached_speedup,
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

Plan AlwaysGuard() {
  return Plan::Select(Predicate::Cmp("AGE", CmpOp::kGe, Value::Int(0)),
                      Plan::Scan("R"));
}

/// One game move: a guarded modify plus a narrow delete — shaped like the
/// fig_updates writer so the apply path, not the batch construction,
/// dominates.
std::vector<UpdateOp> MoveBatch(int k) {
  std::vector<UpdateOp> batch;
  batch.push_back(UpdateOp::ModifyWhere("R",
                                        Predicate::Cmp("AGE", CmpOp::kLt,
                                                       Value::Int(45)),
                                        {{"FERTIL", Value::Int(k % 13)}})
                      .When(AlwaysGuard()));
  batch.push_back(UpdateOp::DeleteWhere(
      "R", Predicate::Cmp("AGE", CmpOp::kEq, Value::Int(200 + k))));
  return batch;
}

/// A speculative action batch, distinct per `k` so cold expansions never
/// collide in the successor cache.
std::vector<UpdateOp> ScenarioBatch(int k) {
  std::vector<UpdateOp> batch;
  batch.push_back(UpdateOp::ModifyWhere("R",
                                        Predicate::Cmp("AGE", CmpOp::kGe,
                                                       Value::Int(60)),
                                        {{"FERTIL", Value::Int(100 + k)}})
                      .When(AlwaysGuard()));
  return batch;
}

struct PhaseResult {
  std::vector<Sample> samples;
  bool ok = true;
};

PhaseResult RunBackend(api::BackendKind kind, const char* backend,
                       const core::Wsdt& wsdt, int moves, int queries,
                       int scenarios, int hit_rounds) {
  PhaseResult out;
  auto session_or = api::Session::Open(kind, wsdt);
  if (!session_or.ok()) {
    std::fprintf(stderr, "open %s failed: %s\n", backend,
                 session_or.status().ToString().c_str());
    std::exit(1);
  }
  belief::Game game;
  auto agent_or = game.AddAgent("hero", std::move(session_or).value());
  if (!agent_or.ok()) {
    std::fprintf(stderr, "agent failed: %s\n",
                 agent_or.status().ToString().c_str());
    std::exit(1);
  }
  belief::Agent* hero = agent_or.value();

  // -- move_apply -----------------------------------------------------------
  {
    std::vector<double> latencies;
    latencies.reserve(moves);
    size_t ops = 0;
    Timer wall;
    for (int k = 0; k < moves; ++k) {
      std::vector<UpdateOp> batch = MoveBatch(k);
      ops += batch.size();
      Timer t;
      Status st = game.Step(batch);
      latencies.push_back(t.Millis());
      if (!st.ok()) {
        std::fprintf(stderr, "step failed: %s\n", st.ToString().c_str());
        std::exit(1);
      }
    }
    Sample s;
    s.phase = "move_apply";
    s.backend = backend;
    s.ops = ops;
    s.seconds = wall.Seconds();
    s.p50_ms = Percentile(latencies, 0.50);
    s.p99_ms = Percentile(latencies, 0.99);
    s.throughput = static_cast<double>(ops) / s.seconds;
    s.round_trips = hero->session().Stats().round_trips;
    // Guarded modifies and deletes are native rewritings on the uniform
    // store: a move must not pay an import → template → export round trip.
    if (kind == api::BackendKind::kUniform && s.round_trips != 0) {
      std::fprintf(stderr, "uniform move_apply paid %llu round trips\n",
                   static_cast<unsigned long long>(s.round_trips));
      out.ok = false;
    }
    out.samples.push_back(std::move(s));
  }

  // A stable probe: some tuple possible in the stepped world set.
  auto probe_rows = hero->session().PossibleTuples("R");
  if (!probe_rows.ok() || probe_rows->NumRows() == 0) {
    std::fprintf(stderr, "no probe tuple on %s\n", backend);
    std::exit(1);
  }
  std::span<const Value> row0 = probe_rows->row(0).span();
  const std::vector<Value> probe(row0.begin(), row0.end());

  // -- knowledge_cold / knowledge_cached ------------------------------------
  {
    std::vector<double> cold, cached;
    cold.reserve(queries);
    cached.reserve(queries);
    belief::BeliefStats before = hero->Stats();
    Timer wall;
    for (int k = 0; k < queries; ++k) {
      // Invalidate the witness relations (version bump), then ask twice:
      // first ask re-materializes, the immediate re-ask is served from
      // the caches.
      std::vector<UpdateOp> nudge;
      nudge.push_back(UpdateOp::DeleteWhere(
          "R", Predicate::Cmp("AGE", CmpOp::kEq, Value::Int(-1 - k))));
      if (!hero->Observe(std::span<const UpdateOp>(nudge)).ok()) {
        std::exit(1);
      }
      Timer t1;
      auto first = hero->Knows("R", probe);
      cold.push_back(t1.Millis());
      Timer t2;
      auto again = hero->Knows("R", probe);
      cached.push_back(t2.Millis());
      if (!first.ok() || !again.ok() ||
          first.value() != again.value()) {
        std::fprintf(stderr, "knowledge query failed on %s\n", backend);
        std::exit(1);
      }
    }
    double seconds = wall.Seconds();
    belief::BeliefStats after = hero->Stats();
    Sample sc;
    sc.phase = "knowledge_cold";
    sc.backend = backend;
    sc.ops = cold.size();
    sc.seconds = seconds;
    sc.p50_ms = Percentile(cold, 0.50);
    sc.p99_ms = Percentile(cold, 0.99);
    sc.throughput = static_cast<double>(cold.size()) / seconds;
    sc.witness_misses = after.knowledge_cache_misses -
                        before.knowledge_cache_misses;
    out.samples.push_back(std::move(sc));
    Sample sh;
    sh.phase = "knowledge_cached";
    sh.backend = backend;
    sh.ops = cached.size();
    sh.seconds = seconds;
    sh.p50_ms = Percentile(cached, 0.50);
    sh.p99_ms = Percentile(cached, 0.99);
    sh.throughput = static_cast<double>(cached.size()) / seconds;
    sh.witness_hits = after.knowledge_cache_hits - before.knowledge_cache_hits;
    sh.cached_speedup =
        sh.p50_ms > 0 ? Percentile(cold, 0.50) / sh.p50_ms : 0.0;
    out.samples.push_back(std::move(sh));
  }

  // -- successor_cold / successor_hit ---------------------------------------
  {
    std::vector<double> cold;
    cold.reserve(scenarios);
    belief::BeliefStats s0 = game.Stats();
    Timer cold_wall;
    for (int k = 0; k < scenarios; ++k) {
      std::vector<UpdateOp> batch = ScenarioBatch(k);
      Timer t;
      auto succ = game.Speculate("hero", batch);
      cold.push_back(t.Millis());
      if (!succ.ok()) {
        std::fprintf(stderr, "speculate failed: %s\n",
                     succ.status().ToString().c_str());
        std::exit(1);
      }
    }
    double cold_seconds = cold_wall.Seconds();
    belief::BeliefStats s1 = game.Stats();

    std::vector<double> hits;
    hits.reserve(static_cast<size_t>(scenarios) * hit_rounds);
    Timer hit_wall;
    for (int round = 0; round < hit_rounds; ++round) {
      for (int k = 0; k < scenarios; ++k) {
        // Rebuilt from scratch: structural equality, not pointer reuse.
        std::vector<UpdateOp> batch = ScenarioBatch(k);
        Timer t;
        auto succ = game.Speculate("hero", batch);
        hits.push_back(t.Millis());
        if (!succ.ok()) std::exit(1);
      }
    }
    double hit_seconds = hit_wall.Seconds();
    belief::BeliefStats s2 = game.Stats();

    Sample sc;
    sc.phase = "successor_cold";
    sc.backend = backend;
    sc.ops = cold.size();
    sc.seconds = cold_seconds;
    sc.p50_ms = Percentile(cold, 0.50);
    sc.p99_ms = Percentile(cold, 0.99);
    sc.throughput = static_cast<double>(cold.size()) / cold_seconds;
    sc.forks_delta = s1.forks - s0.forks;
    sc.applies_delta = s1.applies - s0.applies;
    out.samples.push_back(std::move(sc));

    Sample sh;
    sh.phase = "successor_hit";
    sh.backend = backend;
    sh.ops = hits.size();
    sh.seconds = hit_seconds;
    sh.p50_ms = Percentile(hits, 0.50);
    sh.p99_ms = Percentile(hits, 0.99);
    sh.throughput = static_cast<double>(hits.size()) / hit_seconds;
    sh.forks_delta = s2.forks - s1.forks;
    sh.applies_delta = s2.applies - s1.applies;
    sh.successor_hits = s2.successor_hits - s1.successor_hits;
    sh.cached_speedup = sh.p50_ms > 0 ? sc.p50_ms / sh.p50_ms : 0.0;

    // The memoization contract, enforced here so CI fails loudly: a
    // re-expansion must re-pin the cached fork — zero forks, zero
    // re-applied ops — and be at least 10x cheaper than cold expansion.
    if (sh.forks_delta != 0 || sh.applies_delta != 0) {
      std::fprintf(stderr,
                   "successor cache violated on %s: hit pass forked %llu / "
                   "applied %llu\n",
                   backend, static_cast<unsigned long long>(sh.forks_delta),
                   static_cast<unsigned long long>(sh.applies_delta));
      out.ok = false;
    }
    if (sh.successor_hits !=
        static_cast<uint64_t>(scenarios) * static_cast<uint64_t>(hit_rounds)) {
      std::fprintf(stderr, "successor cache missed on %s\n", backend);
      out.ok = false;
    }
    if (sh.cached_speedup < 10.0) {
      std::fprintf(stderr,
                   "cached successor expansion only %.1fx cheaper than cold "
                   "on %s (need >= 10x)\n",
                   sh.cached_speedup, backend);
      out.ok = false;
    }
    out.samples.push_back(std::move(sh));
  }

  // -- guard_path -----------------------------------------------------------
  {
    auto fresh_or = api::Session::Open(kind, wsdt);
    if (!fresh_or.ok()) std::exit(1);
    api::Session fresh = std::move(fresh_or).value();
    Plan guard = Plan::Select(Predicate::CmpAttr("AGE", CmpOp::kGt, "FERTIL"),
                              Plan::Scan("R"));
    uint64_t rt0 = fresh.Stats().round_trips;
    std::vector<double> latencies;
    constexpr int kGuardRuns = 4;
    latencies.reserve(kGuardRuns);
    Timer wall;
    for (int k = 0; k < kGuardRuns; ++k) {
      std::string out_rel = "GP" + std::to_string(k);
      Timer t;
      Status st = fresh.Run(guard, out_rel);
      latencies.push_back(t.Millis());
      if (!st.ok()) {
        std::fprintf(stderr, "guard run failed on %s: %s\n", backend,
                     st.ToString().c_str());
        std::exit(1);
      }
    }
    Sample s;
    s.phase = "guard_path";
    s.backend = backend;
    s.ops = latencies.size();
    s.seconds = wall.Seconds();
    s.p50_ms = Percentile(latencies, 0.50);
    s.p99_ms = Percentile(latencies, 0.99);
    s.throughput = static_cast<double>(s.ops) / s.seconds;
    s.round_trips = fresh.Stats().round_trips - rt0;
    // The satellite's contract: select[AθB] runs natively on the uniform
    // store — no import → template → export round trip.
    if (kind == api::BackendKind::kUniform && s.round_trips != 0) {
      std::fprintf(stderr,
                   "uniform select[AθB] guard path paid %llu round trips\n",
                   static_cast<unsigned long long>(s.round_trips));
      out.ok = false;
    }
    out.samples.push_back(std::move(s));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  // The bad-witness plan (Product + Difference over the enumerated world
  // set) grows super-linearly in rows on every backend; the default sizes
  // keep the full-scale race honest but finite. The wsd session adopts
  // its WSD as a WSDT at the Session edge, so its cells track wsdt's.
  const double scale = maywsd::bench::ScaleFactor();
  const size_t rows = std::max<size_t>(static_cast<size_t>(64 * scale), 24);
  const int moves = std::max(4, static_cast<int>(16 * scale));
  const int queries = std::max(3, static_cast<int>(6 * scale));
  const int scenarios = std::max(4, static_cast<int>(8 * scale));
  const int hit_rounds = 5;
  const census::CensusSchema schema = census::CensusSchema::Standard();
  core::Wsdt wsdt = bench::MakeCensusWsdt(schema, rows, 0.001);

  std::vector<Sample> samples;
  bool ok = true;
  const char* backends[] = {"wsd", "wsdt", "uniform", "urel"};
  for (const char* backend : backends) {
    api::BackendKind kind = *api::ParseBackendKind(backend);
    PhaseResult result =
        RunBackend(kind, backend, wsdt, moves, queries, scenarios, hit_rounds);
    ok = ok && result.ok;
    for (Sample& s : result.samples) {
      std::printf("%-16s %-8s ops=%-5zu p50=%.4fms p99=%.4fms %.0f ops/s "
                  "forks=%llu applies=%llu hits=%llu rt=%llu speedup=%.1fx\n",
                  s.phase.c_str(), s.backend, s.ops, s.p50_ms, s.p99_ms,
                  s.throughput, static_cast<unsigned long long>(s.forks_delta),
                  static_cast<unsigned long long>(s.applies_delta),
                  static_cast<unsigned long long>(s.successor_hits),
                  static_cast<unsigned long long>(s.round_trips),
                  s.cached_speedup);
      samples.push_back(std::move(s));
    }
  }

  if (json_path != nullptr) WriteJson(json_path, samples);
  return ok ? 0 : 1;  // JSON is written either way, for forensics
}
