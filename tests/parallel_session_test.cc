// Concurrency layer of api::Session and the engine's worker pool.
//
// Session::Run and Session::ApplyAll evaluate sequentially whatever
// SessionOptions::threads says: a threads=4 session must give the threads=1
// world set on every backend, report no sharded run, keep the result
// correlated with its inputs, and leave no engine scratch relation behind.
// Also here: a ThreadPool unit test (the pool serves
// WorldServer::ExecuteAll), and two concurrency checks the TSan CI job
// leans on: a many-sessions smoke and concurrent scratch scopes sharing the
// process-wide name pool.

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "api/session.h"
#include "core/engine/parallel.h"
#include "core/engine/plan_driver.h"
#include "core/engine/wsdt_backend.h"
#include "core/worldset.h"
#include "tests/test_util.h"

namespace maywsd::core {
namespace {

using rel::CmpOp;
using rel::Plan;
using rel::Predicate;
using rel::Value;
using testutil::I;

constexpr uint64_t kWorldCap = 4000000;

/// Three template rows of R(A, B): two with an independent placeholder
/// component each, one certain.
Wsdt TwoComponentWsdt() {
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

/// Applies `updates` with ApplyAll and then runs `plan` into OUT, over
/// TwoComponentWsdt() plus a certain S(C) on `kind`, once at threads=1 and
/// once at threads=4. Expects equal joint world sets of R and OUT — so the
/// result must stay correlated with its input — and no engine scratch
/// relation left; returns the threaded session's stats.
api::SessionStats RunSequentialAndThreaded(
    api::BackendKind kind, const Plan& plan,
    std::span<const rel::UpdateOp> updates) {
  SCOPED_TRACE(plan.ToString() + " on " +
               std::string(api::BackendKindName(kind)));
  rel::Relation s(rel::Schema::FromNames({"C"}), "S");
  s.AppendRow({I(1)});
  s.AppendRow({I(2)});
  s.AppendRow({I(3)});
  Wsdt wsdt = TwoComponentWsdt();
  auto seq_or = api::Session::Open(kind, wsdt);
  auto par_or = api::Session::Open(kind, wsdt);
  EXPECT_TRUE(seq_or.ok() && par_or.ok());
  if (!seq_or.ok() || !par_or.ok()) return {};
  api::Session seq = std::move(seq_or).value();
  api::Session par = std::move(par_or).value();
  EXPECT_TRUE(seq.Register(s).ok());
  EXPECT_TRUE(par.Register(s).ok());
  par.set_options({.threads = 4, .cache = true});

  EXPECT_TRUE(seq.ApplyAll(updates).ok());
  EXPECT_TRUE(par.ApplyAll(updates).ok());
  EXPECT_TRUE(seq.Run(plan, "OUT").ok());
  EXPECT_TRUE(par.Run(plan, "OUT").ok());
  auto seq_worlds = testutil::SessionWorlds(seq, kWorldCap, {"R", "OUT"});
  auto par_worlds = testutil::SessionWorlds(par, kWorldCap, {"R", "OUT"});
  EXPECT_TRUE(seq_worlds.ok() && par_worlds.ok());
  if (seq_worlds.ok() && par_worlds.ok()) {
    EXPECT_TRUE(WorldSetsEquivalent(*seq_worlds, *par_worlds));
  }
  for (const std::string& name : par.RelationNames()) {
    EXPECT_NE(name.rfind("__eng_", 0), 0u) << "leaked engine relation " << name;
  }
  return par.Stats();
}

/// R ⋈_{A=C} S: the uncertain R against the certain leaf S.
Plan JoinRS() {
  return Plan::Join(Predicate::CmpAttr("A", CmpOp::kEq, "C"), Plan::Scan("R"),
                    Plan::Scan("S"));
}

TEST(ParallelSessionTest, ThreadedSessionEvaluatesSequentially) {
  // threads=4 is accepted and ignored: a join against a certain leaf and a
  // modify+delete batch give the threads=1 world set on every backend,
  // nothing fans out, and the join result keeps its correlation with R.
  std::vector<rel::UpdateOp> updates;
  updates.push_back(rel::UpdateOp::ModifyWhere(
      "R", Predicate::Cmp("A", CmpOp::kEq, I(1)), {{"A", I(9)}}));
  updates.push_back(rel::UpdateOp::DeleteWhere(
      "R", Predicate::Cmp("A", CmpOp::kGe, I(3))));
  for (api::BackendKind kind : testutil::AllBackendKinds()) {
    api::SessionStats stats = RunSequentialAndThreaded(kind, JoinRS(), updates);
    EXPECT_EQ(stats.runs, 1u) << api::BackendKindName(kind);
    EXPECT_EQ(stats.applies, 2u) << api::BackendKindName(kind);
    EXPECT_EQ(stats.sharded_runs, 0u) << api::BackendKindName(kind);
    EXPECT_EQ(stats.fallback_runs, 0u) << api::BackendKindName(kind);
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
  // Many threaded sessions evaluating at once: stresses the interner, the
  // component store and the scratch-name pool. TSan watches this one.
  Wsdt base = TwoComponentWsdt();
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
