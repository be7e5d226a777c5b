// api::Session: the representation-agnostic facade must behave
// identically over every backend — same catalog semantics, same
// query results, same Section 6 answers — and manage the scratch
// lifecycle so no engine temporaries leak into any representation.

#include "api/session.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/interner.h"
#include "core/engine/plan_driver.h"
#include "core/engine/wsdt_backend.h"
#include "core/uniform.h"
#include "core/wsdt.h"
#include "core/wsdt_algebra.h"
#include "core/wsdt_confidence.h"
#include "tests/test_util.h"

namespace maywsd::api {
namespace {

using core::Wsd;
using core::Wsdt;
using rel::CmpOp;
using rel::Plan;
using rel::Predicate;
using testutil::I;

/// One session per enrolled backend over one random world set.
std::vector<Session> SessionsOver(const Wsd& wsd) {
  std::vector<Session> sessions;
  for (BackendKind kind : testutil::AllBackendKinds()) {
    auto session = testutil::OpenSessionOver(kind, wsd);
    EXPECT_TRUE(session.ok()) << BackendKindName(kind);
    sessions.push_back(std::move(session).value());
  }
  return sessions;
}

TEST(SessionTest, KindAndRepresentationAccess) {
  std::vector<Session> sessions = SessionsOver(Wsd());
  ASSERT_EQ(sessions.size(), 4u);
  EXPECT_EQ(sessions[0].kind(), BackendKind::kWsd);
  EXPECT_EQ(sessions[1].kind(), BackendKind::kWsdt);
  EXPECT_EQ(sessions[2].kind(), BackendKind::kUniform);
  EXPECT_EQ(sessions[3].kind(), BackendKind::kUrel);
  for (const Session& s : sessions) {
    EXPECT_EQ(s.BackendName(), BackendKindName(s.kind()));
  }
  // A kWsd session adopts its decomposition as a WSDT at the edge.
  EXPECT_NE(sessions[0].wsdt(), nullptr);
  EXPECT_EQ(sessions[0].uniform(), nullptr);
  EXPECT_EQ(sessions[0].urel(), nullptr);
  EXPECT_NE(sessions[1].wsdt(), nullptr);
  EXPECT_NE(sessions[2].uniform(), nullptr);
  EXPECT_EQ(sessions[2].wsdt(), nullptr);
  EXPECT_NE(sessions[3].urel(), nullptr);
  EXPECT_EQ(sessions[3].wsdt(), nullptr);
}

TEST(SessionTest, ParseBackendKindRoundTripsAndRejects) {
  for (BackendKind kind : testutil::AllBackendKinds()) {
    auto parsed = ParseBackendKind(BackendKindName(kind));
    ASSERT_TRUE(parsed.ok()) << BackendKindName(kind);
    EXPECT_EQ(*parsed, kind);
  }
  auto bad = ParseBackendKind("no-such-backend");
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(SessionTest, OpenByKindStartsEmpty) {
  for (BackendKind kind : testutil::AllBackendKinds()) {
    Session session = Session::Open(kind);
    EXPECT_EQ(session.kind(), kind);
    EXPECT_TRUE(session.RelationNames().empty()) << BackendKindName(kind);
  }
}

TEST(SessionTest, OpenAdoptsExistingRepresentations) {
  // The adopt-existing overloads must open the matching backend kind
  // (the old Over* factory shims promised this; Open(repr) carries it).
  auto adopted_wsd = Session::Open(Wsd());
  ASSERT_TRUE(adopted_wsd.ok());
  EXPECT_EQ(adopted_wsd->kind(), BackendKind::kWsd);
  EXPECT_EQ(Session::Open(Wsdt()).kind(), BackendKind::kWsdt);
  EXPECT_EQ(Session::Open(rel::Database()).kind(), BackendKind::kUniform);
  EXPECT_EQ(Session::Open(core::Urel()).kind(), BackendKind::kUrel);
  for (BackendKind kind : testutil::AllBackendKinds()) {
    auto converted = Session::Open(kind, Wsdt());
    ASSERT_TRUE(converted.ok()) << BackendKindName(kind);
    EXPECT_EQ(converted->kind(), kind);
  }
  // A malformed decomposition is rejected at the edge as an error, never
  // an abort: slot R.t0 covers A but not B.
  Wsd partial;
  ASSERT_TRUE(
      partial.AddRelation("R", rel::Schema::FromNames({"A", "B"}), 1).ok());
  ASSERT_TRUE(partial.AddCertainField(core::FieldKey("R", 0, "A"), I(1)).ok());
  ASSERT_FALSE(partial.Validate().ok());
  auto rejected = Session::Open(partial);
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
}

TEST(SessionTest, SnapshotPinsAViewAcrossApplies) {
  for (BackendKind kind : testutil::AllBackendKinds()) {
    Session session = Session::Open(kind);
    rel::Relation base(rel::Schema::FromNames({"A"}), "R");
    base.AppendRow({I(1)});
    base.AppendRow({I(2)});
    ASSERT_TRUE(session.Register(base).ok()) << BackendKindName(kind);

    Snapshot snapshot = session.Snapshot();
    uint64_t pinned = snapshot.RelationVersion("R");
    EXPECT_EQ(pinned, session.RelationVersion("R"));

    // Mutate the parent after the snapshot: the snapshot keeps answering
    // from its pinned view, the parent sees the update.
    ASSERT_TRUE(session
                    .Apply(rel::UpdateOp::DeleteWhere(
                        "R", Predicate::Cmp("A", CmpOp::kEq, I(1))))
                    .ok())
        << BackendKindName(kind);
    auto snap_rows = snapshot.PossibleTuples("R");
    auto live_rows = session.PossibleTuples("R");
    ASSERT_TRUE(snap_rows.ok() && live_rows.ok()) << BackendKindName(kind);
    EXPECT_EQ(snap_rows->NumRows(), 2u) << BackendKindName(kind);
    EXPECT_EQ(live_rows->NumRows(), 1u) << BackendKindName(kind);
    EXPECT_EQ(snapshot.RelationVersion("R"), pinned);
    EXPECT_NE(session.RelationVersion("R"), pinned);

    // Snapshot-local Run materializes only inside the snapshot.
    ASSERT_TRUE(snapshot.Run(Plan::Scan("R"), "LOCAL").ok());
    EXPECT_TRUE(snapshot.HasRelation("LOCAL"));
    EXPECT_FALSE(session.HasRelation("LOCAL"));

    EXPECT_EQ(snapshot.Stats().reader_blocked_waits, 0u);
    EXPECT_EQ(session.Stats().snapshots, 1u);
  }
}

TEST(SessionTest, RegisterRunAnswerOnEveryBackend) {
  rel::Relation base(rel::Schema::FromNames({"A", "B"}), "R");
  base.AppendRow({I(1), I(10)});
  base.AppendRow({I(2), I(20)});
  base.AppendRow({I(3), I(30)});

  for (BackendKind kind : testutil::AllBackendKinds()) {
    Session session = Session::Open(kind);
    SCOPED_TRACE(std::string(session.BackendName()));
    ASSERT_TRUE(session.Register(base).ok());
    EXPECT_FALSE(session.Register(base).ok());  // name collision
    EXPECT_TRUE(session.HasRelation("R"));
    auto schema = session.RelationSchema("R");
    ASSERT_TRUE(schema.ok());
    EXPECT_EQ(*schema, base.schema());  // uniform hides its TID column
    EXPECT_EQ(session.RelationNames(), std::vector<std::string>{"R"});

    Plan plan = Plan::Project(
        {"A"}, Plan::Select(Predicate::Cmp("B", CmpOp::kGe, I(20)),
                            Plan::Scan("R")));
    ASSERT_TRUE(session.Run(plan, "OUT").ok());

    auto possible = session.PossibleTuples("OUT");
    ASSERT_TRUE(possible.ok());
    rel::Relation expected(rel::Schema::FromNames({"A"}), "expected");
    expected.AppendRow({I(2)});
    expected.AppendRow({I(3)});
    EXPECT_TRUE(possible->EqualsAsSet(expected));

    // Certain data: certain answers coincide with possible ones, and every
    // tuple has confidence 1.
    auto certain = session.CertainTuples("OUT");
    ASSERT_TRUE(certain.ok());
    EXPECT_TRUE(certain->EqualsAsSet(expected));
    for (size_t i = 0; i < expected.NumRows(); ++i) {
      auto conf = session.TupleConfidence("OUT", expected.row(i).span());
      ASSERT_TRUE(conf.ok());
      EXPECT_NEAR(*conf, 1.0, 1e-12);
      EXPECT_TRUE(session.TupleCertain("OUT", expected.row(i).span()).value());
    }

    // No engine scratch relations leaked into the catalog.
    for (const std::string& name : session.RelationNames()) {
      EXPECT_NE(name.rfind("__eng_tmp", 0), 0u) << name;
    }

    // Drop removes the result from the catalog.
    ASSERT_TRUE(session.Drop("OUT").ok());
    EXPECT_FALSE(session.HasRelation("OUT"));
  }
}

/// A plan with several scratch intermediates (selection, projections,
/// rename, union) over the R(A, B), S(C, D) of ScratchWsd().
Plan ScratchHeavyPlan() {
  return Plan::Union(
      Plan::Project({"A"},
                    Plan::Select(Predicate::Or(
                                     Predicate::Cmp("A", CmpOp::kEq, I(1)),
                                     Predicate::Cmp("B", CmpOp::kLt, I(2))),
                                 Plan::Scan("R"))),
      Plan::Project({"A"}, Plan::Rename({{"C", "A"}}, Plan::Scan("S"))));
}

Wsd ScratchWsd() {
  Rng rng(41);
  return testutil::RandomWsd(
      rng, {{"R", {"A", "B"}, 2, 3}, {"S", {"C", "D"}, 2, 3}}, 3);
}

TEST(SessionTest, ScratchNamesDoNotGrowTheInterner) {
  // Every Run materializes several scratch relations; the plan driver
  // hands their names out again once a run drops them, so the interner's
  // size after one warm-up run per backend does not depend on how many
  // runs follow, and answers do not change when names are reused.
  Plan plan = ScratchHeavyPlan();
  std::vector<Session> sessions = SessionsOver(ScratchWsd());
  std::vector<rel::Relation> expected;
  for (Session& s : sessions) {
    ASSERT_TRUE(s.Run(plan, "OUT").ok()) << s.BackendName();
    expected.push_back(s.PossibleTuplesWithConfidence("OUT").value());
    ASSERT_TRUE(s.Drop("OUT").ok());
  }
  const size_t interned = StringInterner::Global().size();
  constexpr int kRuns = 1000;
  for (int i = 0; i < kRuns; ++i) {
    for (size_t k = 0; k < sessions.size(); ++k) {
      // Every run on wsdt, every 20th on the other backends.
      if (sessions[k].kind() != BackendKind::kWsdt && i % 20 != 0) continue;
      Session& s = sessions[k];
      ASSERT_TRUE(s.Run(plan, "OUT").ok()) << s.BackendName() << " run " << i;
      if (i % 50 == 0) {
        auto answers = s.PossibleTuplesWithConfidence("OUT");
        ASSERT_TRUE(answers.ok());
        EXPECT_TRUE(answers->EqualsAsSet(expected[k]))
            << s.BackendName() << " run " << i;
      }
      ASSERT_TRUE(s.Drop("OUT").ok());
    }
  }
  EXPECT_EQ(StringInterner::Global().size(), interned);
  for (const Session& s : sessions) {
    for (const std::string& name : s.RelationNames()) {
      EXPECT_NE(name.rfind("__eng_tmp", 0), 0u) << s.BackendName() << name;
    }
  }
}

TEST(SessionTest, KeptScratchRelationsKeepTheirNames) {
  // keep_temps leaves the intermediates in the store; their names must
  // never be handed out again, so later runs neither collide with nor
  // overwrite them.
  Plan plan = ScratchHeavyPlan();
  Wsdt wsdt = Wsdt::FromWsd(ScratchWsd()).value();
  ASSERT_TRUE(core::WsdtEvaluate(wsdt, plan, "KEPT", /*keep_temps=*/true).ok());
  std::map<std::string, rel::Relation> kept;
  for (const std::string& name : wsdt.RelationNames()) {
    if (name.rfind("__eng_tmp", 0) != 0) continue;
    kept.emplace(name, core::WsdtPossibleTuples(wsdt, name).value());
  }
  ASSERT_FALSE(kept.empty());
  rel::Relation expected = core::WsdtPossibleTuples(wsdt, "KEPT").value();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(core::WsdtEvaluate(wsdt, plan, "OUT").ok()) << i;
    EXPECT_TRUE(core::WsdtPossibleTuples(wsdt, "OUT").value().EqualsAsSet(
        expected))
        << i;
    ASSERT_TRUE(wsdt.DropRelation("OUT").ok());
  }
  size_t scratch = 0;
  for (const std::string& name : wsdt.RelationNames()) {
    if (name.rfind("__eng_tmp", 0) != 0) continue;
    ++scratch;
    auto it = kept.find(name);
    ASSERT_NE(it, kept.end()) << "unexpected scratch relation " << name;
    EXPECT_TRUE(
        core::WsdtPossibleTuples(wsdt, name).value().EqualsAsSet(it->second))
        << name;
  }
  EXPECT_EQ(scratch, kept.size());
  EXPECT_TRUE(wsdt.Validate().ok());
}

TEST(SessionTest, ScratchScopeReusesDroppedNamesOnly) {
  Wsdt wsdt = Wsdt::FromWsd(ScratchWsd()).value();
  core::engine::WsdtBackend backend(wsdt);
  std::set<std::string> dropped;
  {
    core::engine::ScratchScope scope(backend);
    std::string a = scope.Fresh();
    std::string b = scope.Fresh();
    EXPECT_NE(a, b);  // one scope never gets a name twice
    ASSERT_TRUE(backend.Copy("R", a).ok());
    ASSERT_TRUE(backend.Copy("R", b).ok());
    ASSERT_TRUE(scope.DropAll().ok());
    EXPECT_FALSE(backend.HasRelation(a));
    dropped = {a, b};
  }
  std::string reused;
  {
    // The next scope gets the dropped names back instead of new ones.
    core::engine::ScratchScope scope(backend);
    std::set<std::string> again = {scope.Fresh(), scope.Fresh()};
    EXPECT_EQ(again, dropped);
    reused = *again.begin();
    for (const std::string& name : again) {
      ASSERT_TRUE(backend.Copy("R", name).ok());
    }
    ASSERT_TRUE(scope.DropAll().ok());
  }
  // A pooled name the backend holds (a store copied while another scope
  // had the name, say) is passed over.
  ASSERT_TRUE(backend.Copy("R", reused).ok());
  {
    core::engine::ScratchScope scope(backend);
    for (int i = 0; i < 4; ++i) EXPECT_NE(scope.Fresh(), reused);
    scope.Keep();
  }
  EXPECT_TRUE(backend.HasRelation(reused));
}

TEST(SessionTest, RegisterRejectsPlaceholdersAndBottom) {
  rel::Relation bad(rel::Schema::FromNames({"A"}), "R");
  bad.AppendRow({rel::Value::Question()});
  rel::Relation bot(rel::Schema::FromNames({"A"}), "R");
  bot.AppendRow({rel::Value::Bottom()});
  for (BackendKind kind : testutil::AllBackendKinds()) {
    Session session = Session::Open(kind);
    SCOPED_TRACE(std::string(session.BackendName()));
    EXPECT_FALSE(session.Register(bad).ok());
    EXPECT_FALSE(session.Register(bot).ok());
  }
}

TEST(SessionTest, AnswersAgreeAcrossBackendsOnUncertainData) {
  Rng rng(977);
  std::vector<testutil::RelSpec> specs = {{"R", {"A", "B"}, 2, 3},
                                          {"S", {"C", "D"}, 2, 3}};
  for (int round = 0; round < 5; ++round) {
    Wsd wsd = testutil::RandomWsd(rng, specs, 3);
    std::vector<Session> sessions = SessionsOver(wsd);

    Plan plan = Plan::Project(
        {"A"}, Plan::Select(Predicate::Cmp("B", CmpOp::kLt, I(2)),
                            Plan::Scan("R")));
    for (Session& session : sessions) {
      ASSERT_TRUE(session.Run(plan, "OUT").ok())
          << session.BackendName();
    }

    auto reference = sessions[0].PossibleTuples("OUT");
    ASSERT_TRUE(reference.ok());
    auto reference_certain = sessions[0].CertainTuples("OUT");
    ASSERT_TRUE(reference_certain.ok());
    for (size_t s = 1; s < sessions.size(); ++s) {
      SCOPED_TRACE(std::string(sessions[s].BackendName()));
      auto possible = sessions[s].PossibleTuples("OUT");
      ASSERT_TRUE(possible.ok());
      EXPECT_TRUE(possible->EqualsAsSet(*reference));
      auto certain = sessions[s].CertainTuples("OUT");
      ASSERT_TRUE(certain.ok());
      EXPECT_TRUE(certain->EqualsAsSet(*reference_certain));
      for (size_t i = 0; i < reference->NumRows(); ++i) {
        auto a = sessions[0].TupleConfidence("OUT", reference->row(i).span());
        auto b = sessions[s].TupleConfidence("OUT", reference->row(i).span());
        ASSERT_TRUE(a.ok());
        ASSERT_TRUE(b.ok());
        EXPECT_NEAR(*a, *b, 1e-9);
      }
    }
  }
}

TEST(SessionTest, RunOptimizedMatchesRun) {
  Rng rng(31337);
  std::vector<testutil::RelSpec> specs = {{"R", {"A", "B"}, 2, 3},
                                          {"S", {"C", "D"}, 2, 3}};
  Wsd wsd = testutil::RandomWsd(rng, specs, 3);
  // σ(×) — the optimizer fuses this into a join on every backend.
  Plan plan = Plan::Select(Predicate::CmpAttr("A", CmpOp::kEq, "C"),
                           Plan::Product(Plan::Scan("R"), Plan::Scan("S")));
  for (Session& session : SessionsOver(wsd)) {
    SCOPED_TRACE(std::string(session.BackendName()));
    ASSERT_TRUE(session.Run(plan, "PLAIN").ok());
    ASSERT_TRUE(session.RunOptimized(plan, "OPT").ok());
    auto plain = session.PossibleTuples("PLAIN");
    auto opt = session.PossibleTuples("OPT");
    ASSERT_TRUE(plain.ok());
    ASSERT_TRUE(opt.ok());
    EXPECT_TRUE(plain->EqualsAsSet(*opt));
    // Confidences are compared with a tolerance: the two plans associate
    // the 1−Π(1−c) combination differently.
    for (size_t i = 0; i < plain->NumRows(); ++i) {
      auto a = session.TupleConfidence("PLAIN", plain->row(i).span());
      auto b = session.TupleConfidence("OPT", plain->row(i).span());
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      EXPECT_NEAR(*a, *b, 1e-9);
    }
  }
}

TEST(SessionTest, UniformSessionKeepsStoreImportable) {
  Rng rng(555);
  std::vector<testutil::RelSpec> specs = {{"R", {"A", "B"}, 2, 3},
                                          {"R2", {"A", "B"}, 2, 3}};
  Wsd wsd = testutil::RandomWsd(rng, specs, 2);
  auto session_or =
      Session::Open(BackendKind::kUniform, Wsdt::FromWsd(wsd).value());
  ASSERT_TRUE(session_or.ok());
  Session session = std::move(session_or).value();
  Plan plan = Plan::Difference(Plan::Scan("R"), Plan::Scan("R2"));
  ASSERT_TRUE(session.Run(plan, "OUT").ok());
  // The store still satisfies the C/F/W referential invariants and
  // re-imports as a valid WSDT.
  ASSERT_TRUE(core::ValidateUniform(*session.uniform()).ok());
  auto back = core::ImportUniform(*session.uniform());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->Validate().ok());
}

}  // namespace
}  // namespace maywsd::api
