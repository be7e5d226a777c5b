// Microbenchmarks of the relational-engine substrate (google-benchmark):
// scan+selection, projection with dedup, hash join — the operations the
// UWSDT rewritings bottom out in (the paper's "lion's share of the
// processing time is taken by the templates") — and the serve_worlds
// response text of a census answer.

#include <benchmark/benchmark.h>

#include "census/ipums.h"
#include "census/queries.h"
#include "rel/eval.h"
#include "rel/optimizer.h"
#include "server/protocol.h"

namespace maywsd::rel {
namespace {

Database MakeDb(size_t rows) {
  Database db;
  db.PutRelation(census::GenerateCensus(census::CensusSchema::Standard(),
                                        rows, /*seed=*/123));
  return db;
}

void BM_SelectScan(benchmark::State& state) {
  Database db = MakeDb(static_cast<size_t>(state.range(0)));
  Plan q = Plan::Select(
      Predicate::Cmp("YEARSCH", CmpOp::kEq, Value::Int(17)), Plan::Scan("R"));
  for (auto _ : state) {
    auto out = Evaluate(q, db);
    benchmark::DoNotOptimize(out->NumRows());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_SelectScan)->Arg(10000)->Arg(100000);

void BM_ProjectDedup(benchmark::State& state) {
  Database db = MakeDb(static_cast<size_t>(state.range(0)));
  Plan q = Plan::Project({"POWSTATE", "POB"}, Plan::Scan("R"));
  for (auto _ : state) {
    auto out = Evaluate(q, db);
    benchmark::DoNotOptimize(out->NumRows());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ProjectDedup)->Arg(10000)->Arg(100000);

void BM_Q5JoinPipeline(benchmark::State& state) {
  Database db = MakeDb(static_cast<size_t>(state.range(0)));
  Plan q = census::CensusQuery(5, "R");
  for (auto _ : state) {
    auto out = Evaluate(q, db);
    benchmark::DoNotOptimize(out->NumRows());
  }
}
BENCHMARK(BM_Q5JoinPipeline)->Arg(10000)->Arg(50000);

void BM_OptimizerRewrite(benchmark::State& state) {
  Database db = MakeDb(1000);
  Plan q = census::CensusQuery(5, "R");
  for (auto _ : state) {
    auto opt = Optimize(q, db);
    benchmark::DoNotOptimize(opt->NodeCount());
  }
}
BENCHMARK(BM_OptimizerRewrite);

/// A 500-row answer of an ID column beside the 50 census attributes — all
/// ints — as a serve_worlds `read` returns it, formatted for the wire.
void BM_FormatResponse(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  const census::CensusSchema schema = census::CensusSchema::Standard();
  const Relation census = census::GenerateCensus(schema, rows, /*seed=*/1);
  std::vector<std::string> names = {"ID"};
  for (const auto& a : schema.attributes()) {
    names.push_back(a.name);
  }
  Relation answer(Schema::FromNames(names), "R");
  std::vector<Value> row;
  for (size_t i = 0; i < census.NumRows(); ++i) {
    row.clear();
    row.push_back(Value::Int(static_cast<int64_t>(i)));
    const auto src = census.row(i).span();
    row.insert(row.end(), src.begin(), src.end());
    answer.AppendRow(row);
  }
  server::Response response;
  response.relation = std::move(answer);
  size_t bytes = 0;
  for (auto _ : state) {
    std::string out = server::FormatResponse(response);
    bytes = out.size();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * rows *
                                               names.size()));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * bytes));
}
BENCHMARK(BM_FormatResponse)->Arg(500);

}  // namespace
}  // namespace maywsd::rel

BENCHMARK_MAIN();
