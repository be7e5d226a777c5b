// Figure 30 (a)–(f): evaluation time for queries Q1..Q6 of Figure 29 on
// UWSDTs of various sizes and placeholder densities, against the one-world
// baseline (density 0%: the original query evaluated on the plain template
// through the relational engine).
//
// Every world-set evaluation goes through api::Session — one facade, one
// engine lowering, interchangeable backends. Besides the paper's WSDT
// curves, a cross-backend section runs the same queries over a wsd
// session (the Section 4 WSD is adopted as its WSDT at the Session edge,
// so it runs the WSDT operators and tracks the wsdt column) and the
// Section 3 C/F/W uniform store of the same world set at small sizes (the
// uniform store rewrites its relations row by row and composes
// components by materializing their products, so this section stays
// small — which is the paper's point: the template refinement is what
// scales), tracking the WSD-vs-WSDT-vs-uniform trajectory.
//
// Expected shape: per query, time grows linearly with relation size, the
// density curves sit on top of each other and track the 0% one-world curve
// closely (processing incomplete information costs roughly one world);
// Q5's join is the most expensive query and grows superlinearly at the
// largest sizes in the paper.
//
// Usage: fig30_queries [--json PATH] — also writes the measurements as a
// flat JSON document (consumed by CI as BENCH_fig30_queries.json).

#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "api/session.h"
#include "bench/bench_util.h"
#include "rel/eval.h"

namespace {

struct Sample {
  int query = 0;
  size_t rows = 0;
  double density = 0.0;  // 0.0 = one-world baseline
  const char* backend = "wsdt";
  double seconds = 0.0;
  size_t result_rows = 0;
  // Import → template-semantics → export round trips the backend paid for
  // the run (Session::Stats): 0 on representation-native paths — the
  // U-relations claim is that positive RA stays at 0.
  uint64_t round_trips = 0;
};

void WriteJson(const char* path, const std::vector<Sample>& samples) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"figure\": \"fig30_queries\",\n  \"samples\": [\n");
  for (size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    std::fprintf(f,
                 "    {\"query\": %d, \"rows\": %zu, \"density\": %g, "
                 "\"backend\": \"%s\", \"seconds\": %.6f, "
                 "\"result_rows\": %zu, \"round_trips\": %llu}%s\n",
                 s.query, s.rows, s.density, s.backend, s.seconds,
                 s.result_rows,
                 static_cast<unsigned long long>(s.round_trips),
                 i + 1 < samples.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace maywsd;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  census::CensusSchema schema = census::CensusSchema::Standard();
  std::vector<size_t> sizes = bench::SizeTicks();
  std::vector<double> densities = bench::Densities();
  std::vector<Sample> samples;

  // times[q][size][density-column]; column 0 = one-world baseline.
  std::map<int, std::map<size_t, std::vector<double>>> times;
  std::map<int, std::map<size_t, size_t>> result_rows;

  for (size_t rows : sizes) {
    rel::Relation base =
        census::GenerateCensus(schema, rows, /*seed=*/0xC0FFEE ^ rows);
    // One-world baseline.
    rel::Database db;
    db.PutRelation(base);
    for (int q = 1; q <= 6; ++q) {
      Timer t;
      auto out = rel::Evaluate(census::CensusQuery(q, "R"), db);
      if (!out.ok()) {
        std::fprintf(stderr, "one-world Q%d failed\n", q);
        return 1;
      }
      double secs = t.Seconds();
      times[q][rows].push_back(secs);
      samples.push_back({q, rows, 0.0, "one-world", secs, out->NumRows()});
    }
    // Chased UWSDT per density; queries reuse it and run through the
    // Session facade over the WSDT backend.
    for (double density : densities) {
      auto wsdt_or = census::MakeNoisyWsdt(base, schema, density,
                                           /*seed=*/0xBEEF ^ rows);
      if (!wsdt_or.ok()) return 1;
      core::Wsdt wsdt = std::move(wsdt_or).value();
      bench::ChaseCensus(wsdt);
      for (int q = 1; q <= 6; ++q) {
        api::Session session = api::Session::Open(wsdt);
        Timer t;
        Status st = session.Run(census::CensusQuery(q, "R"), "OUT");
        if (!st.ok()) {
          std::fprintf(stderr, "Q%d failed: %s\n", q, st.ToString().c_str());
          return 1;
        }
        double secs = t.Seconds();
        size_t n = session.wsdt()->Template("OUT").value()->NumRows();
        times[q][rows].push_back(secs);
        result_rows[q][rows] = n;
        samples.push_back({q, rows, density, "wsdt", secs, n});
      }
    }
  }

  for (int q = 1; q <= 6; ++q) {
    std::printf("# Figure 30(%c): query Q%d time in seconds\n",
                static_cast<char>('a' + q - 1), q);
    std::printf("%10s %12s", "tuples", "0%");
    for (double d : densities) std::printf(" %12s", bench::DensityLabel(d));
    std::printf(" %12s\n", "|result|");
    for (size_t rows : sizes) {
      std::printf("%10zu", rows);
      for (double t : times[q][rows]) std::printf(" %12.4f", t);
      std::printf(" %12zu\n", result_rows[q][rows]);
    }
    std::printf("\n");
  }

  // Cross-backend trajectory: identical plans over WSD, WSDT, the uniform
  // C/F/W store and the columnar U-relations store through the one Session
  // facade. The wsd session runs on the WSDT backend; the uniform store
  // composes components by materializing their products in W and C, so
  // this section stays at small fixed sizes regardless of MAYWSD_SCALE —
  // which is the paper's point: the template refinement and the
  // descriptor rewriting are what scale. The rt column counts the
  // uniform/urel backends' import/export round trips: both stay at 0.
  const double kXDensity = 0.001;
  std::printf(
      "# Cross-backend: Session facade, WSD vs WSDT vs uniform vs urel "
      "(density %s)\n",
      bench::DensityLabel(kXDensity));
  std::printf("%10s %6s %12s %12s %12s %12s %8s %8s\n", "tuples", "query",
              "wsd", "wsdt", "uniform", "urel", "rt(unif)", "rt(urel)");
  for (size_t rows : {size_t{16}, size_t{32}}) {
    rel::Relation base =
        census::GenerateCensus(schema, rows, /*seed=*/0xC0FFEE ^ rows);
    auto wsdt_or = census::MakeNoisyWsdt(base, schema, kXDensity,
                                         /*seed=*/0xBEEF ^ rows);
    if (!wsdt_or.ok()) return 1;
    core::Wsdt wsdt = std::move(wsdt_or).value();
    bench::ChaseCensus(wsdt);
    for (int q = 1; q <= 6; ++q) {
      std::map<std::string, double> secs;
      std::map<std::string, uint64_t> trips;
      size_t n = 0;
      for (const char* backend : {"wsd", "wsdt", "uniform", "urel"}) {
        auto kind_or = api::ParseBackendKind(backend);
        if (!kind_or.ok()) return 1;
        auto session_or = api::Session::Open(*kind_or, wsdt);
        if (!session_or.ok()) return 1;
        api::Session session = std::move(session_or).value();
        Timer t;
        Status st = session.Run(census::CensusQuery(q, "R"), "OUT");
        if (!st.ok()) {
          std::fprintf(stderr, "%s Q%d failed: %s\n", backend, q,
                       st.ToString().c_str());
          return 1;
        }
        secs[backend] = t.Seconds();
        trips[backend] = session.Stats().round_trips;
        auto out = session.PossibleTuples("OUT");
        if (!out.ok()) return 1;
        n = out->NumRows();
        samples.push_back(
            {q, rows, kXDensity, backend, secs[backend], n, trips[backend]});
      }
      std::printf("%10zu %6d %12.4f %12.4f %12.4f %12.4f %8llu %8llu\n",
                  rows, q, secs["wsd"], secs["wsdt"], secs["uniform"],
                  secs["urel"],
                  static_cast<unsigned long long>(trips["uniform"]),
                  static_cast<unsigned long long>(trips["urel"]));
    }
  }
  std::printf("\n");

  if (json_path != nullptr) WriteJson(json_path, samples);
  return 0;
}
