// Concurrency/determinism layer for the sharded Session::Run fan-out.
//
// The headline property: for random plans over random world-sets, Run with
// threads=1 and threads=N produce identical world sets for the result
// relation on every enrolled backend (WSD, WSDT, uniform C/F/W,
// U-relations — testutil::AllBackendKinds), across 100+ seeded iterations. Plans cover both the sharded path (single-scan
// select/project/rename chains, products/joins/differences against a
// certain auxiliary) and the fallback path (unions, repeated scans,
// uncertain right sides of a difference).
//
// Also here: a deterministic known-shardable case per partitioning
// backend (wsd, wsdt, urel — so the fan-out path itself cannot silently
// stop being exercised), the engine's single-leaf cost rule on all four
// backends, the uniform store's sequential path for a join against a
// certain leaf (it does not partition), a ThreadPool unit test, and two
// concurrency checks the TSan CI job leans on: a many-sessions smoke and
// concurrent scratch scopes sharing the process-wide name pool.

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "api/session.h"
#include "core/engine/parallel.h"
#include "core/engine/plan_driver.h"
#include "core/engine/wsdt_backend.h"
#include "core/uniform.h"
#include "core/worldset.h"
#include "tests/test_util.h"

namespace maywsd::core {
namespace {

using rel::CmpOp;
using rel::Plan;
using rel::Predicate;
using rel::Value;
using testutil::I;
using testutil::RelSpec;
using testutil::SeededRng;

constexpr uint64_t kWorldCap = 4000000;

/// Enumerates the world set of relation OUT regardless of representation.
Result<std::vector<PossibleWorld>> OutWorlds(const api::Session& session) {
  return testutil::SessionWorlds(session, kWorldCap, {"OUT"});
}

/// A fully certain relation with `rows` random tuples.
rel::Relation RandomCertain(Rng& rng, const std::string& name,
                            const std::vector<std::string>& attrs,
                            size_t rows, int64_t domain) {
  rel::Relation r(rel::Schema::FromNames(attrs), name);
  std::vector<Value> row(attrs.size());
  for (size_t i = 0; i < rows; ++i) {
    for (size_t a = 0; a < attrs.size(); ++a) {
      row[a] = Value::Int(
          static_cast<int64_t>(rng.Uniform(static_cast<uint64_t>(domain))));
    }
    r.AppendRow(row);
  }
  r.SortDedup();
  return r;
}

/// Random plan over uncertain R/R2 ({A,B}) and certain S ({C,D}) and
/// S2 ({A,B}); biased toward shapes the fan-out can shard (single scan of
/// R behind σ/π/δ, × and ⋈ against certain relations, − with a certain
/// right side) while keeping fallback shapes (union, uncertain difference)
/// in the mix.
Plan RandomParallelPlan(Rng& rng) {
  auto pred = [&rng](const char* a, const char* b) {
    CmpOp ops[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt, CmpOp::kGe};
    CmpOp op = ops[rng.Uniform(4)];
    if (rng.Bernoulli(0.3)) return Predicate::CmpAttr(a, op, b);
    return Predicate::Cmp(rng.Bernoulli(0.5) ? a : b, op,
                          I(static_cast<int64_t>(rng.Uniform(3))));
  };
  Plan scan_r = Plan::Scan("R");
  switch (rng.Uniform(8)) {
    case 0:  // selection chain over R
      return Plan::Select(pred("A", "B"),
                          Plan::Select(pred("A", "B"), scan_r));
    case 1:  // projection over a selection
      return Plan::Project({rng.Bernoulli(0.5) ? "A" : "B"},
                           Plan::Select(pred("A", "B"), scan_r));
    case 2:  // rename over a selection
      return Plan::Rename({{"A", "X"}}, Plan::Select(pred("A", "B"), scan_r));
    case 3:  // product with a certain relation
      return Plan::Product(Plan::Select(pred("A", "B"), scan_r),
                           Plan::Scan("S"));
    case 4:  // join with a certain relation
      return Plan::Join(Predicate::CmpAttr("A", CmpOp::kEq, "C"), scan_r,
                        Plan::Scan("S"));
    case 5:  // difference with a certain right side
      return Plan::Difference(Plan::Select(pred("A", "B"), scan_r),
                              Plan::Scan("S2"));
    case 6:  // union: never sharded
      return Plan::Union(scan_r, Plan::Scan("R2"));
    default:  // difference with an uncertain right side: never sharded
      return Plan::Difference(Plan::Select(pred("A", "B"), scan_r),
                              Plan::Scan("R2"));
  }
}

/// Opens seq/par sessions over identical representations of `wsd` for one
/// backend kind, registering the same certain relations in both.
struct SessionPair {
  api::Session seq;
  api::Session par;
};

Result<SessionPair> MakePair(api::BackendKind kind, const Wsd& wsd,
                             const std::vector<rel::Relation>& certain,
                             int par_threads) {
  MAYWSD_ASSIGN_OR_RETURN(api::Session seq,
                          testutil::OpenSessionOver(kind, wsd));
  MAYWSD_ASSIGN_OR_RETURN(api::Session par,
                          testutil::OpenSessionOver(kind, wsd));
  par.set_options({.threads = par_threads, .cache = true});
  for (const rel::Relation& r : certain) {
    MAYWSD_RETURN_IF_ERROR(seq.Register(r));
    MAYWSD_RETURN_IF_ERROR(par.Register(r));
  }
  return SessionPair{std::move(seq), std::move(par)};
}

class ParallelDeterminismProperty : public ::testing::TestWithParam<int> {};

TEST_P(ParallelDeterminismProperty, ThreadedRunMatchesSequentialRun) {
  SeededRng rng(static_cast<uint64_t>(GetParam()) * 99991 + 17);
  MAYWSD_SEED_TRACE(rng);
  std::vector<RelSpec> specs = {RelSpec{"R", {"A", "B"}, 4, 3},
                                RelSpec{"R2", {"A", "B"}, 2, 3}};
  for (int round = 0; round < 3; ++round) {
    Wsd wsd = testutil::RandomWsd(rng, specs, 3);
    std::vector<rel::Relation> certain;
    certain.push_back(RandomCertain(rng, "S", {"C", "D"}, 2, 3));
    certain.push_back(RandomCertain(rng, "S2", {"A", "B"}, 2, 3));
    Plan plan = RandomParallelPlan(rng);
    int threads = 2 + static_cast<int>(rng.Uniform(3));  // 2..4

    for (api::BackendKind kind : testutil::AllBackendKinds()) {
      auto pair_or = MakePair(kind, wsd, certain, threads);
      ASSERT_TRUE(pair_or.ok()) << pair_or.status();
      api::Session seq = std::move(pair_or->seq);
      api::Session par = std::move(pair_or->par);

      Status seq_st = seq.Run(plan, "OUT");
      Status par_st = par.Run(plan, "OUT");
      ASSERT_EQ(seq_st.ok(), par_st.ok())
          << plan.ToString() << " on " << api::BackendKindName(kind) << ": "
          << seq_st << " vs " << par_st;
      if (!seq_st.ok()) continue;

      auto seq_worlds = OutWorlds(seq);
      auto par_worlds = OutWorlds(par);
      ASSERT_TRUE(seq_worlds.ok()) << seq_worlds.status();
      ASSERT_TRUE(par_worlds.ok()) << par_worlds.status();
      EXPECT_TRUE(WorldSetsEquivalent(*seq_worlds, *par_worlds))
          << "threads=1 vs threads=" << threads << " disagree on "
          << plan.ToString() << " over " << api::BackendKindName(kind)
          << (par.Stats().sharded_runs > 0 ? " (sharded)" : " (fallback)");

      // The scratch lifecycle must stay leak-free on the parallel path.
      for (const std::string& name : par.RelationNames()) {
        EXPECT_NE(name.rfind("__eng_", 0), 0u)
            << "leaked engine relation " << name;
      }
    }
  }
}

// 35 seeds × 3 rounds = 105 plan/world-set iterations per backend.
INSTANTIATE_TEST_SUITE_P(Seeds, ParallelDeterminismProperty,
                         ::testing::Range(0, 35));

/// A world set that is shardable by construction: three template rows,
/// two independent placeholder components, one certain row.
Wsdt KnownShardableWsdt() {
  rel::Relation tmpl(rel::Schema::FromNames({"A", "B"}), "R");
  tmpl.AppendRow({I(1), Value::Question()});
  tmpl.AppendRow({I(2), Value::Question()});
  tmpl.AppendRow({I(3), I(4)});
  Wsdt wsdt;
  EXPECT_TRUE(wsdt.AddTemplateRelation(std::move(tmpl)).ok());
  EXPECT_TRUE(
      wsdt.AddFieldComponent(FieldKey("R", 0, "B"), {I(5), I(6)}, {0.5, 0.5})
          .ok());
  EXPECT_TRUE(
      wsdt.AddFieldComponent(FieldKey("R", 1, "B"), {I(7), I(8)}, {0.25, 0.75})
          .ok());
  return wsdt;
}

/// Runs `plan` into OUT over KnownShardableWsdt plus a certain S(C) on
/// `kind`, once sequentially and once at threads=4, expects equal world
/// sets, and returns the threaded session's stats.
api::SessionStats RunSequentialAndThreaded(api::BackendKind kind,
                                           const Plan& plan) {
  SCOPED_TRACE(plan.ToString() + " on " +
               std::string(api::BackendKindName(kind)));
  rel::Relation s(rel::Schema::FromNames({"C"}), "S");
  s.AppendRow({I(1)});
  s.AppendRow({I(2)});
  s.AppendRow({I(3)});
  Wsdt wsdt = KnownShardableWsdt();
  auto seq_or = api::Session::Open(kind, wsdt);
  auto par_or = api::Session::Open(kind, wsdt);
  EXPECT_TRUE(seq_or.ok() && par_or.ok());
  if (!seq_or.ok() || !par_or.ok()) return {};
  api::Session seq = std::move(seq_or).value();
  api::Session par = std::move(par_or).value();
  EXPECT_TRUE(seq.Register(s).ok());
  EXPECT_TRUE(par.Register(s).ok());
  par.set_options({.threads = 4, .cache = true});

  EXPECT_TRUE(seq.Run(plan, "OUT").ok());
  EXPECT_TRUE(par.Run(plan, "OUT").ok());
  EXPECT_EQ(seq.Stats().sharded_runs, 0u);
  auto seq_worlds = OutWorlds(seq);
  auto par_worlds = OutWorlds(par);
  EXPECT_TRUE(seq_worlds.ok() && par_worlds.ok());
  if (seq_worlds.ok() && par_worlds.ok()) {
    EXPECT_TRUE(WorldSetsEquivalent(*seq_worlds, *par_worlds));
  }
  return par.Stats();
}

/// R ⋈_{A=C} S: the partitioned R against the certain leaf S.
Plan JoinRS() {
  return Plan::Join(Predicate::CmpAttr("A", CmpOp::kEq, "C"), Plan::Scan("R"),
                    Plan::Scan("S"));
}

TEST(ParallelSessionTest, ShardedPathActuallyRunsOnAllBackends) {
  // Every backend that partitions (wsd and wsdt share the WSDT backend;
  // urel) fans out a join against a certain leaf; a product with a
  // certain relation shards too. Single-leaf plans never fan out (the
  // engine's cost rule, below), and the uniform store does not partition
  // (UniformBackendRunsJoinSequentially).
  Plan join = JoinRS();
  Plan product = Plan::Product(Plan::Scan("R"), Plan::Scan("S"));
  std::vector<std::pair<api::BackendKind, const Plan*>> cases = {
      {api::BackendKind::kWsd, &join},
      {api::BackendKind::kWsdt, &join},
      {api::BackendKind::kUrel, &join},
      {api::BackendKind::kWsd, &product}};
  for (const auto& [kind, plan] : cases) {
    api::SessionStats stats = RunSequentialAndThreaded(kind, *plan);
    // The fan-out must actually have happened — this is the guard that
    // keeps the determinism property non-vacuous.
    EXPECT_EQ(stats.sharded_runs, 1u) << api::BackendKindName(kind);
    EXPECT_EQ(stats.fallback_runs, 0u) << api::BackendKindName(kind);
    EXPECT_GE(stats.shards_executed, 2u) << api::BackendKindName(kind);
  }
}

TEST(ParallelSessionTest, CostGateDeclinesFanOutForSingleLeafPlans) {
  // The engine's cost rule, on every backend: a unary select/project
  // chain over one leaf is a single bandwidth-bound pass; building shard
  // slices would copy the partitioned relation first, so the threaded run
  // must take the sequential path — and still produce the same world set.
  Plan plan = Plan::Select(Predicate::Cmp("A", CmpOp::kGe, I(0)),
                           Plan::Scan("R"));
  for (api::BackendKind kind : testutil::AllBackendKinds()) {
    api::SessionStats stats = RunSequentialAndThreaded(kind, plan);
    EXPECT_EQ(stats.sharded_runs, 0u) << api::BackendKindName(kind);
    EXPECT_EQ(stats.shards_executed, 0u) << api::BackendKindName(kind);
  }
}

TEST(ParallelSessionTest, UniformBackendRunsJoinSequentially) {
  // The uniform C/F/W store does not partition: even a join against a
  // certain leaf — a plan the other backends fan out — runs on the
  // sequential path at threads=4, with the threads=1 world set.
  api::SessionStats stats =
      RunSequentialAndThreaded(api::BackendKind::kUniform, JoinRS());
  EXPECT_EQ(stats.sharded_runs, 0u);
  EXPECT_EQ(stats.fallback_runs, 1u);
}

TEST(ParallelSessionTest, ShardedApplyMatchesSequentialApply) {
  // Unconditional deletes/modifies fan out over the same shard slices Run
  // uses (slice once per run, mutate each slice, stream them back). The
  // world set after a threaded ApplyAll must equal the sequential one on
  // every backend; wsd and wsdt (both on the WSDT backend) must actually
  // take the sharded path, while uniform (its store does not partition)
  // and urel (its native one-pass update beats the slice copy) do not.
  std::vector<rel::UpdateOp> updates;
  updates.push_back(rel::UpdateOp::ModifyWhere(
      "R", Predicate::Cmp("A", CmpOp::kEq, I(1)), {{"A", I(9)}}));
  updates.push_back(rel::UpdateOp::DeleteWhere(
      "R", Predicate::Cmp("A", CmpOp::kGe, I(3))));
  Wsdt wsdt = KnownShardableWsdt();

  for (api::BackendKind kind : testutil::AllBackendKinds()) {
    auto seq_or = api::Session::Open(kind, wsdt);
    auto par_or = api::Session::Open(kind, wsdt);
    ASSERT_TRUE(seq_or.ok() && par_or.ok());
    api::Session seq = std::move(seq_or).value();
    api::Session par = std::move(par_or).value();
    par.set_options({.threads = 4, .cache = true});

    ASSERT_TRUE(seq.ApplyAll(updates).ok()) << api::BackendKindName(kind);
    ASSERT_TRUE(par.ApplyAll(updates).ok()) << api::BackendKindName(kind);

    bool shards_updates =
        kind == api::BackendKind::kWsd || kind == api::BackendKind::kWsdt;
    EXPECT_EQ(par.Stats().sharded_applies, shards_updates ? 2u : 0u)
        << api::BackendKindName(kind);
    EXPECT_EQ(seq.Stats().sharded_applies, 0u);

    auto seq_worlds = testutil::SessionWorlds(seq, kWorldCap, {"R"});
    auto par_worlds = testutil::SessionWorlds(par, kWorldCap, {"R"});
    ASSERT_TRUE(seq_worlds.ok() && par_worlds.ok())
        << api::BackendKindName(kind);
    EXPECT_TRUE(WorldSetsEquivalent(*seq_worlds, *par_worlds))
        << api::BackendKindName(kind);
  }
}

TEST(ParallelSessionTest, ThreadPoolRunsTasksAndKeepsOrder) {
  engine::ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::atomic<int> ran{0};
  std::vector<std::function<Status()>> tasks;
  for (int i = 0; i < 32; ++i) {
    tasks.push_back([i, &ran]() -> Status {
      ran.fetch_add(1);
      if (i % 5 == 3) return Status::Internal("task " + std::to_string(i));
      return Status::Ok();
    });
  }
  std::vector<Status> results = pool.RunAll(std::move(tasks));
  EXPECT_EQ(ran.load(), 32);
  ASSERT_EQ(results.size(), 32u);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(results[i].ok(), i % 5 != 3) << i;
    if (i % 5 == 3) {
      EXPECT_NE(results[i].ToString().find(std::to_string(i)),
                std::string::npos);
    }
  }
  // Nested RunAll from a worker runs inline instead of deadlocking.
  engine::ThreadPool single(1);
  std::vector<Status> nested = single.RunAll({[&single]() -> Status {
    std::vector<Status> inner = single.RunAll(
        {[]() -> Status { return Status::Ok(); },
         []() -> Status { return Status::Internal("inner"); }});
    return inner[1];
  }});
  ASSERT_EQ(nested.size(), 1u);
  EXPECT_FALSE(nested[0].ok());
}

TEST(ParallelSessionTest, ConcurrentSessionsSmoke) {
  // Many sessions fanning out at once: stresses the shared pool, the
  // interner and the scratch-name counter. TSan watches this one.
  Wsdt base = KnownShardableWsdt();
  Plan plan = Plan::Project(
      {"B"}, Plan::Select(Predicate::Cmp("A", CmpOp::kGe, I(0)),
                          Plan::Scan("R")));
  constexpr int kSessions = 8;
  std::vector<std::thread> threads;
  std::vector<Status> statuses(kSessions, Status::Ok());
  threads.reserve(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    threads.emplace_back([&base, &plan, &statuses, i] {
      api::Session session =
          api::Session::Open(Wsdt(base), {.threads = 2, .cache = true});
      for (int r = 0; r < 3 && statuses[i].ok(); ++r) {
        statuses[i] = session.Run(plan, "OUT" + std::to_string(r));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 0; i < kSessions; ++i) {
    EXPECT_TRUE(statuses[i].ok()) << i << ": " << statuses[i];
  }
}

TEST(ParallelSessionTest, ConcurrentScratchScopesShareTheNamePool) {
  // Scopes on separate backends take names from and return names to one
  // process-wide pool at the same time: no name is ever held by two live
  // scopes, and every scope's temps are dropped from its own backend.
  constexpr int kThreads = 4;
  constexpr int kRounds = 150;
  constexpr int kTempsPerScope = 3;
  std::mutex mu;
  std::set<std::string> live;
  std::atomic<int> collisions{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      Wsdt wsdt;
      rel::Relation r(rel::Schema::FromNames({"A"}), "R");
      r.AppendRow({I(1)});
      if (!wsdt.AddTemplateRelation(std::move(r)).ok()) ++failures;
      engine::WsdtBackend backend(wsdt);
      for (int round = 0; round < kRounds; ++round) {
        engine::ScratchScope scope(backend);
        std::vector<std::string> names;
        for (int k = 0; k < kTempsPerScope; ++k) {
          names.push_back(scope.Fresh());
          {
            std::lock_guard<std::mutex> lock(mu);
            if (!live.insert(names.back()).second) ++collisions;
          }
          if (!backend.Copy("R", names.back()).ok()) ++failures;
        }
        {
          // Released before DropAll hands the names back to the pool.
          std::lock_guard<std::mutex> lock(mu);
          for (const std::string& name : names) live.erase(name);
        }
        if (!scope.DropAll().ok()) ++failures;
        for (const std::string& name : names) {
          if (backend.HasRelation(name)) ++failures;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(collisions.load(), 0);
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace maywsd::core
