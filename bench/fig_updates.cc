// Update throughput and mixed read/write workloads across the backends,
// through the api::Session facade.
//
// The source paper's scope is representation AND processing; the follow-up
// WSD work treats updates — inserts, deletes, conditional modifies — as
// first-class operations alongside queries. This harness measures, per
// backend:
//   - bulk insert throughput (tuples/second into a census-sized relation),
//   - delete-where and modify-where passes over the whole relation,
//   - a world-conditional modify (exercising the guard lowering; on the
//     uniform backend this is the import→update→export fallback),
//   - a mixed read/write workload — updates interleaved with
//     possible/certain answer reads — with the Session answer cache on and
//     off, reporting the hit counters alongside the wall clock.
//
// Usage: fig_updates [--json PATH] — also writes the measurements as a
// flat JSON document (consumed by CI as BENCH_fig_updates.json).
// MAYWSD_SCALE scales the census sizes as in the other harnesses.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "api/session.h"
#include "bench/bench_util.h"
#include "rel/update.h"

namespace {

using namespace maywsd;
using rel::CmpOp;
using rel::Plan;
using rel::Predicate;
using rel::UpdateOp;

struct Sample {
  std::string workload;
  const char* backend = "wsdt";
  size_t rows = 0;     // relation size at the start of the workload
  size_t ops = 0;      // update operations (or tuples, for insert) applied
  double seconds = 0.0;
  int cache = -1;            // -1 = not applicable
  uint64_t answer_hits = 0;  // Session answer-cache hits (mixed workload)
};

void WriteJson(const char* path, const std::vector<Sample>& samples) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"figure\": \"fig_updates\",\n  \"samples\": [\n");
  for (size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    std::fprintf(f,
                 "    {\"workload\": \"%s\", \"backend\": \"%s\", "
                 "\"rows\": %zu, \"ops\": %zu, \"seconds\": %.6f, "
                 "\"cache\": %d, \"answer_hits\": %llu}%s\n",
                 s.workload.c_str(), s.backend, s.rows, s.ops, s.seconds,
                 s.cache, static_cast<unsigned long long>(s.answer_hits),
                 i + 1 < samples.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

Result<api::Session> OpenOver(const char* backend, api::SessionOptions opts) {
  MAYWSD_ASSIGN_OR_RETURN(api::BackendKind kind,
                          api::ParseBackendKind(backend));
  return api::Session::Open(kind, opts);
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  census::CensusSchema schema = census::CensusSchema::Standard();
  std::vector<Sample> samples;

  // The WSDT, uniform and U-relations stores take the paper-scale ticks;
  // the wsd session runs on the same WSDT backend (adopted at the Session
  // edge), so it stays at the smallest tick rather than repeat the wsdt
  // cells.
  // The urel cell runs every update natively on the columnar store,
  // cond-modify included (its guard splits the affected descriptors).
  std::vector<size_t> ticks = bench::SizeTicks();
  struct Cell {
    const char* backend;
    size_t rows;
  };
  std::vector<Cell> cells = {{"wsdt", ticks[0]},
                             {"wsdt", ticks[3]},
                             {"uniform", ticks[0]},
                             {"urel", ticks[0]},
                             {"urel", ticks[3]},
                             {"wsd", std::max<size_t>(ticks[0] / 4, 8)}};

  std::printf("%-8s %-10s %10s %8s %12s %10s\n", "backend", "workload",
              "rows", "ops", "seconds", "ops/sec");
  for (const Cell& cell : cells) {
    rel::Relation base = census::GenerateCensus(schema, cell.rows,
                                                /*seed=*/0xC0FFEE ^ cell.rows);
    rel::Relation batch =
        census::GenerateCensus(schema, std::max<size_t>(cell.rows / 10, 1),
                               /*seed=*/0xFEED ^ cell.rows);

    auto report = [&](const std::string& workload, size_t ops, double secs,
                      int cache = -1, uint64_t hits = 0) {
      samples.push_back(
          {workload, cell.backend, cell.rows, ops, secs, cache, hits});
      std::printf("%-8s %-10s %10zu %8zu %12.6f %10.0f%s\n", cell.backend,
                  workload.c_str(), cell.rows, ops, secs,
                  secs > 0 ? static_cast<double>(ops) / secs : 0.0,
                  cache >= 0 ? (cache ? "  [cache on]" : "  [cache off]")
                             : "");
    };

    // -- Update throughput, one session per workload. -----------------------
    {
      auto session_or = OpenOver(cell.backend, {});
      if (!session_or.ok()) return 1;
      api::Session session = std::move(session_or).value();
      if (!session.Register(base).ok()) return 1;
      auto apply = [&](const UpdateOp& op) {
        Status st = session.Apply(op);
        if (!st.ok()) {
          std::fprintf(stderr, "%s failed on %s: %s\n", op.ToString().c_str(),
                       cell.backend, st.ToString().c_str());
        }
        return st.ok();
      };

      Timer t;
      if (!apply(UpdateOp::InsertTuples("R", batch))) return 1;
      report("insert", batch.NumRows(), t.Seconds());

      t.Reset();
      if (!apply(UpdateOp::DeleteWhere(
              "R", Predicate::Cmp("AGE", CmpOp::kGe, rel::Value::Int(85))))) {
        return 1;
      }
      report("delete", 1, t.Seconds());

      t.Reset();
      if (!apply(UpdateOp::ModifyWhere(
              "R", Predicate::Cmp("SEX", CmpOp::kEq, rel::Value::Int(1)),
              {{"MARITAL", rel::Value::Int(0)}}))) {
        return 1;
      }
      report("modify", 1, t.Seconds());

      // World-conditional modify: on fully certain data the guard decides
      // uniformly, but the condition plan still runs through the engine.
      t.Reset();
      if (!apply(UpdateOp::ModifyWhere("R",
                                       Predicate::Cmp("RACE", CmpOp::kEq,
                                                      rel::Value::Int(3)),
                                       {{"HISPANIC", rel::Value::Int(1)}})
                     .When(Plan::Select(Predicate::Cmp("AGE", CmpOp::kGe,
                                                       rel::Value::Int(90)),
                                        Plan::Scan("R"))))) {
        return 1;
      }
      report("cond-modify", 1, t.Seconds());
    }

    // -- Mixed read/write, answer cache on vs off. --------------------------
    for (bool cache : {true, false}) {
      auto session_or =
          OpenOver(cell.backend, {.threads = 1, .cache = cache});
      if (!session_or.ok()) return 1;
      api::Session session = std::move(session_or).value();
      if (!session.Register(base).ok()) return 1;

      const size_t rounds = 5;
      const size_t reads_per_round = 4;
      rel::Relation one(base.schema(), "one");
      one.AppendRow(batch.row(0).span());

      Timer t;
      for (size_t round = 0; round < rounds; ++round) {
        if (!session.Apply(UpdateOp::InsertTuples("R", one)).ok()) return 1;
        for (size_t i = 0; i < reads_per_round; ++i) {
          if (!session.PossibleTuples("R").ok()) return 1;
          if (!session.CertainTuples("R").ok()) return 1;
        }
      }
      report("mixed", rounds * (1 + 2 * reads_per_round), t.Seconds(),
             cache ? 1 : 0, session.Stats().answer_cache_hits);
    }
  }

  if (json_path != nullptr) {
    WriteJson(json_path, samples);
    std::printf("\nwrote %s\n", json_path);
  }
  return 0;
}
