// The update subsystem, end to end:
//   - UpdateOp value-type basics (accessors, hashing, equality),
//   - the one-world reference semantics (rel::ApplyUpdate),
//   - hand-built world-conditional scenarios on every backend,
//   - the cross-backend update-equivalence oracle: random sequences of
//     InsertTuples/DeleteWhere/ModifyWhere (including world-conditional
//     ones) applied to every enrolled backend (WSD, WSDT, uniform,
//     U-relations), with the expanded world sets compared against the
//     per-world reference after every step,
//   - query/update interleavings: a cached, threaded Session must return
//     exactly the answers of a fresh cache-off sequential session,
//   - answer-surface cache hit/miss/invalidation accounting.

#include <gtest/gtest.h>

#include "api/session.h"
#include "core/component_store.h"
#include "core/engine/update_plan.h"
#include "core/worldset.h"
#include "rel/update.h"
#include "tests/test_util.h"

namespace maywsd::core {
namespace {

using rel::Assignment;
using rel::CmpOp;
using rel::Plan;
using rel::Predicate;
using rel::UpdateOp;
using testutil::I;
using testutil::RelSpec;
using testutil::SeededRng;

bool Contains(const rel::Relation& r, std::initializer_list<rel::Value> row) {
  std::vector<rel::Value> values(row);
  return r.ContainsRow(values);
}

rel::Relation Tuples(const std::vector<std::string>& attrs,
                     std::vector<std::vector<rel::Value>> rows) {
  rel::Relation out(rel::Schema::FromNames(attrs), "tuples");
  for (const auto& row : rows) out.AppendRow(row);
  return out;
}

TEST(UpdateOpTest, AccessorsAndToString) {
  UpdateOp ins =
      UpdateOp::InsertTuples("R", Tuples({"A", "B"}, {{I(1), I(2)}}));
  EXPECT_EQ(ins.kind(), UpdateOp::Kind::kInsert);
  EXPECT_EQ(ins.relation(), "R");
  EXPECT_EQ(ins.tuples().NumRows(), 1u);
  EXPECT_FALSE(ins.has_world_condition());

  UpdateOp del =
      UpdateOp::DeleteWhere("R", Predicate::Cmp("A", CmpOp::kEq, I(1)));
  EXPECT_EQ(del.kind(), UpdateOp::Kind::kDelete);
  EXPECT_NE(del.ToString().find("delete from R"), std::string::npos);

  UpdateOp mod = UpdateOp::ModifyWhere(
      "R", Predicate::Cmp("A", CmpOp::kEq, I(1)), {{"B", I(9)}});
  EXPECT_EQ(mod.kind(), UpdateOp::Kind::kModify);
  EXPECT_EQ(mod.assignments().size(), 1u);

  UpdateOp guarded = mod.When(Plan::Scan("S"));
  EXPECT_TRUE(guarded.has_world_condition());
  EXPECT_EQ(guarded.world_condition().kind(), Plan::Kind::kScan);
  EXPECT_FALSE(mod.has_world_condition());  // When() copies
  EXPECT_NE(guarded.ToString().find("when nonempty"), std::string::npos);
}

TEST(UpdateOpTest, HashAndEqualityAreStructural) {
  auto mk = [] {
    return UpdateOp::ModifyWhere("R", Predicate::Cmp("A", CmpOp::kLt, I(3)),
                                 {{"B", I(7)}});
  };
  UpdateOp a = mk();
  UpdateOp b = mk();
  EXPECT_TRUE(rel::UpdateOpEqual(a, b));
  EXPECT_EQ(rel::UpdateOpHash(a), rel::UpdateOpHash(b));

  UpdateOp c = UpdateOp::ModifyWhere(
      "R", Predicate::Cmp("A", CmpOp::kLt, I(3)), {{"B", I(8)}});
  EXPECT_FALSE(rel::UpdateOpEqual(a, c));

  UpdateOp d = a.When(Plan::Scan("S"));
  EXPECT_FALSE(rel::UpdateOpEqual(a, d));
  EXPECT_TRUE(rel::UpdateOpEqual(d, b.When(Plan::Scan("S"))));

  UpdateOp ins1 = UpdateOp::InsertTuples("R", Tuples({"A"}, {{I(1)}}));
  UpdateOp ins2 = UpdateOp::InsertTuples("R", Tuples({"A"}, {{I(2)}}));
  EXPECT_FALSE(rel::UpdateOpEqual(ins1, ins2));
}

TEST(UpdateOpTest, OneWorldReferenceSemantics) {
  rel::Database db;
  rel::Relation r(rel::Schema::FromNames({"A", "B"}), "R");
  r.AppendRow({I(1), I(1)});
  r.AppendRow({I(2), I(2)});
  db.PutRelation(r);
  rel::Relation s(rel::Schema::FromNames({"C"}), "S");
  db.PutRelation(s);  // empty

  // Insert applies unconditionally.
  ASSERT_TRUE(
      rel::ApplyUpdate(db, UpdateOp::InsertTuples(
                               "R", Tuples({"A", "B"}, {{I(3), I(3)}})))
          .ok());
  EXPECT_EQ(db.GetRelation("R").value()->NumRows(), 3u);

  // A world condition over the empty S makes the delete a no-op.
  ASSERT_TRUE(rel::ApplyUpdate(
                  db, UpdateOp::DeleteWhere("R", Predicate::True())
                          .When(Plan::Scan("S")))
                  .ok());
  EXPECT_EQ(db.GetRelation("R").value()->NumRows(), 3u);

  // Unconditional modify rewrites matching rows and merges duplicates.
  ASSERT_TRUE(rel::ApplyUpdate(
                  db, UpdateOp::ModifyWhere(
                          "R", Predicate::Cmp("A", CmpOp::kGe, I(2)),
                          {{"A", I(9)}, {"B", I(9)}}))
                  .ok());
  const rel::Relation* after = db.GetRelation("R").value();
  EXPECT_EQ(after->NumRows(), 2u);  // (9,9) merged from rows 2 and 3
  EXPECT_TRUE(Contains(*after, {I(9), I(9)}));

  ASSERT_TRUE(
      rel::ApplyUpdate(db, UpdateOp::DeleteWhere(
                               "R", Predicate::Cmp("A", CmpOp::kEq, I(1))))
          .ok());
  EXPECT_EQ(db.GetRelation("R").value()->NumRows(), 1u);
}

// -- Backend fixtures ---------------------------------------------------------

/// One enrolled backend: a Session over (a copy of) the test world set —
/// the wsd entry adopts its Wsd at the Session edge — driven through its
/// engine backend directly.
struct BackendUnderTest {
  std::string name;
  std::unique_ptr<api::Session> session;
  engine::WorldSetOps* ops = nullptr;

  Status Validate() const { return testutil::ValidateSession(*session); }

  Result<std::vector<PossibleWorld>> Expand(
      const std::vector<std::string>& relations) const {
    return testutil::SessionWorlds(*session, 4000000, relations);
  }
};

std::vector<BackendUnderTest> MakeBackends(const Wsd& wsd) {
  std::vector<BackendUnderTest> out;
  for (api::BackendKind kind : testutil::AllBackendKinds()) {
    BackendUnderTest b;
    b.name = std::string(api::BackendKindName(kind));
    b.session = std::make_unique<api::Session>(
        testutil::OpenSessionOver(kind, wsd).value());
    b.ops = &b.session->ops();
    out.push_back(std::move(b));
  }
  return out;
}

/// Two worlds: S holds (5) in the first, nothing in the second.
Wsd TwoWorldWsd() {
  std::vector<PossibleWorld> worlds(2);
  rel::Relation r(rel::Schema::FromNames({"A", "B"}), "R");
  r.AppendRow({I(1), I(1)});
  rel::Relation s1(rel::Schema::FromNames({"C"}), "S");
  s1.AppendRow({I(5)});
  rel::Relation s2(rel::Schema::FromNames({"C"}), "S");
  worlds[0].db.PutRelation(r);
  worlds[0].db.PutRelation(s1);
  worlds[0].prob = 0.25;
  worlds[1].db.PutRelation(r);
  worlds[1].db.PutRelation(s2);
  worlds[1].prob = 0.75;
  return WsdFromWorlds(worlds).value();
}

TEST(ConditionalUpdateTest, InsertGuardedByUncertainRelation) {
  // Companion to the scratch-relation leak check below: guard evaluation
  // and the update itself must release every component-store node and
  // cell once the backends die.
  store::StoreStats store_before = store::GetStoreStats();
  for (BackendUnderTest& b : MakeBackends(TwoWorldWsd())) {
    UpdateOp op = UpdateOp::InsertTuples("R", Tuples({"A", "B"},
                                                     {{I(2), I(2)}}))
                      .When(Plan::Scan("S"));
    ASSERT_TRUE(engine::ApplyUpdate(*b.ops, op).ok()) << b.name;
    ASSERT_TRUE(b.Validate().ok()) << b.name;

    // (2,2) exists exactly in the S-nonempty world: possible, not certain,
    // confidence 0.25.
    auto possible = b.ops->PossibleTuples("R");
    ASSERT_TRUE(possible.ok()) << b.name;
    EXPECT_TRUE(Contains(*possible, {I(2), I(2)})) << b.name;
    auto certain = b.ops->CertainTuples("R");
    ASSERT_TRUE(certain.ok()) << b.name;
    EXPECT_FALSE(Contains(*certain, {I(2), I(2)})) << b.name;
    EXPECT_TRUE(Contains(*certain, {I(1), I(1)})) << b.name;
    std::vector<rel::Value> t{I(2), I(2)};
    auto conf = b.ops->TupleConfidence("R", t);
    ASSERT_TRUE(conf.ok()) << b.name;
    EXPECT_NEAR(*conf, 0.25, 1e-9) << b.name;

    // No scratch (guard) relation may survive the update.
    for (const std::string& name : b.ops->RelationNames()) {
      EXPECT_NE(name.rfind("__eng_tmp", 0), 0u)
          << b.name << " leaked scratch relation " << name;
    }
  }
  store::StoreStats store_after = store::GetStoreStats();
  EXPECT_EQ(store_after.live_nodes, store_before.live_nodes)
      << "leaked component-store nodes";
  EXPECT_EQ(store_after.live_cells, store_before.live_cells)
      << "leaked component-store cells";
}

TEST(ConditionalUpdateTest, DeleteGuardedBySelection) {
  for (BackendUnderTest& b : MakeBackends(TwoWorldWsd())) {
    // Delete R tuples with A=1 in worlds where σ_{C=5}(S) is non-empty.
    UpdateOp op = UpdateOp::DeleteWhere("R", Predicate::Cmp("A", CmpOp::kEq,
                                                            I(1)))
                      .When(Plan::Select(
                          Predicate::Cmp("C", CmpOp::kEq, I(5)),
                          Plan::Scan("S")));
    ASSERT_TRUE(engine::ApplyUpdate(*b.ops, op).ok()) << b.name;
    ASSERT_TRUE(b.Validate().ok()) << b.name;
    std::vector<rel::Value> t{I(1), I(1)};
    auto conf = b.ops->TupleConfidence("R", t);
    ASSERT_TRUE(conf.ok()) << b.name;
    EXPECT_NEAR(*conf, 0.75, 1e-9) << b.name;  // survives only where S empty
  }
}

TEST(ConditionalUpdateTest, SelfConditionReadsPreUpdateState) {
  for (BackendUnderTest& b : MakeBackends(TwoWorldWsd())) {
    // "Empty R where R is non-empty": must empty R in every world (R was
    // non-empty everywhere before the update) — the guard snapshots the
    // pre-update state instead of observing its own deletions.
    UpdateOp op = UpdateOp::DeleteWhere("R", Predicate::True())
                      .When(Plan::Scan("R"));
    ASSERT_TRUE(engine::ApplyUpdate(*b.ops, op).ok()) << b.name;
    ASSERT_TRUE(b.Validate().ok()) << b.name;
    auto possible = b.ops->PossibleTuples("R");
    ASSERT_TRUE(possible.ok()) << b.name;
    EXPECT_EQ(possible->NumRows(), 0u) << b.name;
  }
}

TEST(ConditionalUpdateTest, UnconditionalDeleteAllEmptiesEveryWorld) {
  for (BackendUnderTest& b : MakeBackends(TwoWorldWsd())) {
    ASSERT_TRUE(engine::ApplyUpdate(
                    *b.ops, UpdateOp::DeleteWhere("R", Predicate::True()))
                    .ok())
        << b.name;
    ASSERT_TRUE(b.Validate().ok()) << b.name;
    auto possible = b.ops->PossibleTuples("R");
    ASSERT_TRUE(possible.ok()) << b.name;
    EXPECT_EQ(possible->NumRows(), 0u) << b.name;
    // The uncertain S is untouched.
    auto s = b.ops->PossibleTuples("S");
    ASSERT_TRUE(s.ok()) << b.name;
    EXPECT_EQ(s->NumRows(), 1u) << b.name;
  }
}

// -- Random update-sequence oracle -------------------------------------------

Predicate RandomUpdatePredicate(Rng& rng,
                                const std::vector<std::string>& attrs,
                                int depth) {
  auto cmp = [&]() {
    CmpOp ops[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt, CmpOp::kGe};
    const std::string& lhs = attrs[rng.Uniform(attrs.size())];
    if (attrs.size() > 1 && rng.Bernoulli(0.25)) {
      return Predicate::CmpAttr(lhs, ops[rng.Uniform(4)],
                                attrs[rng.Uniform(attrs.size())]);
    }
    return Predicate::Cmp(lhs, ops[rng.Uniform(4)],
                          I(static_cast<int64_t>(rng.Uniform(3))));
  };
  if (depth <= 0 || rng.Bernoulli(0.6)) return cmp();
  switch (rng.Uniform(3)) {
    case 0:
      return Predicate::And(RandomUpdatePredicate(rng, attrs, depth - 1),
                            RandomUpdatePredicate(rng, attrs, depth - 1));
    case 1:
      return Predicate::Or(RandomUpdatePredicate(rng, attrs, depth - 1),
                           RandomUpdatePredicate(rng, attrs, depth - 1));
    default:
      return Predicate::Not(RandomUpdatePredicate(rng, attrs, depth - 1));
  }
}

/// A world condition whose answer rows carry multi-variable descriptors on
/// the U-relations store: a product or join of two uncertain relations,
/// or the belief layer's "fact has no witness" shape
/// U − π_U(σ(fact) × U) over the certain unit relation U{U}.
Plan RandomMultiVariableGuard(Rng& rng) {
  switch (rng.Uniform(3)) {
    case 0:
      return Plan::Product(Plan::Scan("R"), Plan::Scan("S"));
    case 1:
      return Plan::Join(Predicate::CmpAttr("A", CmpOp::kEq, "C"),
                        Plan::Scan(rng.Bernoulli(0.5) ? "R" : "R2"),
                        Plan::Scan("S"));
    default: {
      Plan fact = Plan::Select(RandomUpdatePredicate(rng, {"A", "B"}, 0),
                               Plan::Join(Predicate::CmpAttr("B", CmpOp::kEq,
                                                             "D"),
                                          Plan::Scan("R"), Plan::Scan("S")));
      Plan witnessed =
          Plan::Project({"U"}, Plan::Product(std::move(fact), Plan::Scan("U")));
      return Plan::Difference(Plan::Scan("U"), std::move(witnessed));
    }
  }
}

/// A random insert/delete/modify on R, S or R2, world-conditional with
/// probability 0.4. With `multi_variable_guards`, one op in five is
/// guarded by RandomMultiVariableGuard first (the world set must then
/// hold U).
UpdateOp RandomUpdateOp(Rng& rng, bool multi_variable_guards = false) {
  struct Target {
    const char* name;
    std::vector<std::string> attrs;
  };
  static const Target targets[] = {
      {"R", {"A", "B"}}, {"S", {"C", "D"}}, {"R2", {"A", "B"}}};
  const Target& target = targets[rng.Uniform(3)];

  UpdateOp op = [&] {
    switch (rng.Uniform(3)) {
      case 0: {
        rel::Relation tuples(rel::Schema::FromNames(target.attrs), "tuples");
        size_t n = 1 + rng.Uniform(2);
        std::vector<rel::Value> row(target.attrs.size());
        for (size_t i = 0; i < n; ++i) {
          for (rel::Value& v : row) {
            v = I(static_cast<int64_t>(rng.Uniform(3)));
          }
          tuples.AppendRow(row);
        }
        return UpdateOp::InsertTuples(target.name, std::move(tuples));
      }
      case 1:
        return UpdateOp::DeleteWhere(
            target.name, RandomUpdatePredicate(rng, target.attrs, 1));
      default: {
        std::vector<Assignment> assignments;
        assignments.push_back(
            {target.attrs[rng.Uniform(target.attrs.size())],
             I(static_cast<int64_t>(rng.Uniform(3)))});
        return UpdateOp::ModifyWhere(
            target.name, RandomUpdatePredicate(rng, target.attrs, 1),
            std::move(assignments));
      }
    }
  }();

  if (multi_variable_guards && rng.Bernoulli(0.2)) {
    op = op.When(RandomMultiVariableGuard(rng));
  } else if (rng.Bernoulli(0.4)) {
    // World condition over one of the OTHER relations (or the target
    // itself — the guard must snapshot).
    const Target& cond = targets[rng.Uniform(3)];
    Plan plan = Plan::Scan(cond.name);
    if (rng.Bernoulli(0.5)) {
      plan = Plan::Select(RandomUpdatePredicate(rng, cond.attrs, 0),
                          std::move(plan));
    }
    op = op.When(std::move(plan));
  }
  return op;
}

class UpdateOracleProperty : public ::testing::TestWithParam<int> {};

TEST_P(UpdateOracleProperty, AllThreeBackendsMatchPerWorldReference) {
  SeededRng rng(static_cast<uint64_t>(GetParam()) * 86243 + 17);
  MAYWSD_SEED_TRACE(rng);
  // {R, R2} and S are drawn independently (3 × 3 worlds), so the
  // decomposition keeps them in separate components and a product or
  // join of R and S carries two-variable descriptors on urel.
  std::vector<PossibleWorld> rs = testutil::RandomWorlds(
      rng, {RelSpec{"R", {"A", "B"}, 2, 3}, RelSpec{"R2", {"A", "B"}, 2, 3}},
      3);
  std::vector<PossibleWorld> ss =
      testutil::RandomWorlds(rng, {RelSpec{"S", {"C", "D"}, 2, 3}}, 3);
  const std::vector<std::string> names = {"R", "S", "R2", "U"};
  rel::Relation unit(rel::Schema::FromNames({"U"}), "U");
  unit.AppendRow({I(0)});
  std::vector<PossibleWorld> worlds;
  for (const PossibleWorld& a : rs) {
    for (const PossibleWorld& b : ss) {
      PossibleWorld world = a;
      world.db.PutRelation(*b.db.GetRelation("S").value());
      world.db.PutRelation(unit);
      world.prob = a.prob * b.prob;
      worlds.push_back(std::move(world));
    }
  }
  Wsd wsd = WsdFromWorlds(worlds).value();
  ASSERT_TRUE(NormalizeWsd(wsd).ok());

  // Ground truth: the per-world reference over the expanded world set.
  auto truth_or = wsd.EnumerateWorlds(100000, names);
  ASSERT_TRUE(truth_or.ok());
  std::vector<PossibleWorld> truth = std::move(truth_or).value();

  std::vector<BackendUnderTest> backends = MakeBackends(wsd);
  for (int step = 0; step < 5; ++step) {
    UpdateOp op = RandomUpdateOp(rng, /*multi_variable_guards=*/true);
    for (PossibleWorld& world : truth) {
      ASSERT_TRUE(rel::ApplyUpdate(world.db, op).ok())
          << op.ToString() << " step " << step;
    }
    for (BackendUnderTest& b : backends) {
      Status st = engine::ApplyUpdate(*b.ops, op);
      ASSERT_TRUE(st.ok())
          << b.name << " failed on " << op.ToString() << " step " << step
          << ": " << st;
      ASSERT_TRUE(b.Validate().ok())
          << b.name << " invalid after " << op.ToString() << " step "
          << step;
      auto expanded = b.Expand(names);
      ASSERT_TRUE(expanded.ok())
          << b.name << " after " << op.ToString() << ": "
          << expanded.status();
      EXPECT_TRUE(WorldSetsEquivalent(truth, *expanded))
          << b.name << " diverges from the per-world reference after "
          << op.ToString() << " at step " << step;
      if (b.session->kind() == api::BackendKind::kUrel ||
          b.session->kind() == api::BackendKind::kUniform) {
        // Guarded updates are native rewritings on urel (descriptors) and
        // on uniform (C/F/W rows).
        EXPECT_EQ(b.session->Stats().round_trips, 0u)
            << b.name << " round-tripped on " << op.ToString()
            << " at step " << step;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UpdateOracleProperty, ::testing::Range(0, 12));

// -- Query/update interleavings through the Session facade --------------------

class InterleavingProperty : public ::testing::TestWithParam<int> {};

TEST_P(InterleavingProperty, CachedThreadedSessionMatchesCacheOffSession) {
  SeededRng rng(static_cast<uint64_t>(GetParam()) * 49999 + 3);
  MAYWSD_SEED_TRACE(rng);
  std::vector<RelSpec> specs = {RelSpec{"R", {"A", "B"}, 2, 3},
                                RelSpec{"S", {"C", "D"}, 2, 3},
                                RelSpec{"R2", {"A", "B"}, 2, 3}};
  Wsd wsd = testutil::RandomWsd(rng, specs, 3);

  for (api::BackendKind kind : testutil::AllBackendKinds()) {
    auto cached_or = testutil::OpenSessionOver(
        kind, wsd, api::SessionOptions{.threads = 2, .cache = true});
    auto plain_or = testutil::OpenSessionOver(
        kind, wsd, api::SessionOptions{.threads = 1, .cache = false});
    ASSERT_TRUE(cached_or.ok() && plain_or.ok());
    api::Session cached = std::move(cached_or).value();
    api::Session plain = std::move(plain_or).value();

    auto compare_answers = [&](const std::string& relation) {
      auto pc = cached.PossibleTuples(relation);
      auto pp = plain.PossibleTuples(relation);
      ASSERT_TRUE(pc.ok() && pp.ok()) << relation;
      EXPECT_TRUE(pc->EqualsAsSet(*pp))
          << "possible(" << relation << ") diverges on "
          << api::BackendKindName(kind) << " seed " << GetParam();
      auto cc = cached.CertainTuples(relation);
      auto cp = plain.CertainTuples(relation);
      ASSERT_TRUE(cc.ok() && cp.ok()) << relation;
      EXPECT_TRUE(cc->EqualsAsSet(*cp))
          << "certain(" << relation << ") diverges on "
          << api::BackendKindName(kind) << " seed " << GetParam();
      for (size_t r = 0; r < pp->NumRows(); ++r) {
        std::vector<rel::Value> tuple = pp->row(r).ToRow();
        auto conf_c = cached.TupleConfidence(relation, tuple);
        auto conf_p = plain.TupleConfidence(relation, tuple);
        ASSERT_TRUE(conf_c.ok() && conf_p.ok());
        EXPECT_NEAR(*conf_c, *conf_p, 1e-9)
            << "conf(" << relation << ") diverges on "
            << api::BackendKindName(kind);
      }
    };

    int out_id = 0;
    for (int step = 0; step < 6; ++step) {
      if (rng.Bernoulli(0.5)) {
        UpdateOp op = RandomUpdateOp(rng);
        Status sc = cached.Apply(op);
        Status sp = plain.Apply(op);
        ASSERT_TRUE(sc.ok()) << op.ToString() << ": " << sc;
        ASSERT_TRUE(sp.ok()) << op.ToString() << ": " << sp;
        compare_answers(op.relation());
        // Ask again: the second round must be served from the cache yet
        // stay equal.
        compare_answers(op.relation());
      } else if (rng.Bernoulli(0.6)) {
        std::string out = "OUT" + std::to_string(out_id++);
        Plan plan = Plan::Select(
            RandomUpdatePredicate(rng, {"A", "B"}, 1),
            rng.Bernoulli(0.5) ? Plan::Scan("R") : Plan::Scan("R2"));
        ASSERT_TRUE(cached.Run(plan, out).ok());
        ASSERT_TRUE(plain.Run(plan, out).ok());
        compare_answers(out);
      } else {
        // Batched workload sharing a subtree, straight after updates: the
        // subplan cache is rebuilt per batch, so it must see the post-
        // update state.
        Plan base = Plan::Select(RandomUpdatePredicate(rng, {"A", "B"}, 0),
                                 Plan::Scan("R"));
        std::vector<Plan> workload = {
            base, Plan::Project({"A"}, base),
            Plan::Union(base, Plan::Scan("R2"))};
        std::vector<std::string> outs;
        for (int i = 0; i < 3; ++i) {
          outs.push_back("OUT" + std::to_string(out_id++));
        }
        ASSERT_TRUE(cached.RunAll(workload, outs).ok());
        ASSERT_TRUE(plain.RunAll(workload, outs).ok());
        for (const std::string& out : outs) compare_answers(out);
      }
    }
    EXPECT_GT(cached.Stats().applies, 0u);
    EXPECT_GT(cached.Stats().answer_cache_hits, 0u)
        << "answer surface never hit the cache on "
        << api::BackendKindName(kind);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InterleavingProperty, ::testing::Range(0, 8));

// -- Answer-cache accounting --------------------------------------------------

TEST(AnswerCacheTest, HitsMissesAndInvalidation) {
  api::Session session = api::Session::Open(api::BackendKind::kWsdt);
  rel::Relation r(rel::Schema::FromNames({"A", "B"}), "R");
  r.AppendRow({I(1), I(1)});
  ASSERT_TRUE(session.Register(r).ok());
  EXPECT_EQ(session.RelationVersion("R"), 1u);

  ASSERT_TRUE(session.PossibleTuples("R").ok());
  EXPECT_EQ(session.Stats().answer_cache_misses, 1u);
  EXPECT_EQ(session.Stats().answer_cache_hits, 0u);
  ASSERT_TRUE(session.PossibleTuples("R").ok());
  EXPECT_EQ(session.Stats().answer_cache_hits, 1u);

  // Apply bumps the version and invalidates: the next ask recomputes and
  // sees the inserted tuple.
  ASSERT_TRUE(
      session.Apply(UpdateOp::InsertTuples(
                        "R", Tuples({"A", "B"}, {{I(2), I(2)}})))
          .ok());
  EXPECT_EQ(session.RelationVersion("R"), 2u);
  auto possible = session.PossibleTuples("R");
  ASSERT_TRUE(possible.ok());
  EXPECT_TRUE(Contains(*possible, {I(2), I(2)}));
  EXPECT_EQ(session.Stats().answer_cache_misses, 2u);
  EXPECT_EQ(session.Stats().applies, 1u);

  // TupleConfidence caches per tuple.
  std::vector<rel::Value> t{I(2), I(2)};
  ASSERT_TRUE(session.TupleConfidence("R", t).ok());
  ASSERT_TRUE(session.TupleConfidence("R", t).ok());
  EXPECT_EQ(session.Stats().answer_cache_hits, 2u);

  // cache=false bypasses the memo entirely.
  api::Session raw =
      api::Session::Open(Wsdt(), api::SessionOptions{.cache = false});
  ASSERT_TRUE(raw.Register(r).ok());
  ASSERT_TRUE(raw.PossibleTuples("R").ok());
  ASSERT_TRUE(raw.PossibleTuples("R").ok());
  EXPECT_EQ(raw.Stats().answer_cache_hits, 0u);
  EXPECT_EQ(raw.Stats().answer_cache_misses, 0u);
}

TEST(SessionUpdateTest, ApplyAllAppliesInOrder) {
  api::Session session = api::Session::Open(api::BackendKind::kWsdt);
  rel::Relation r(rel::Schema::FromNames({"A", "B"}), "R");
  ASSERT_TRUE(session.Register(r).ok());
  std::vector<UpdateOp> ops = {
      UpdateOp::InsertTuples("R", Tuples({"A", "B"},
                                         {{I(1), I(1)}, {I(2), I(2)}})),
      UpdateOp::ModifyWhere("R", Predicate::Cmp("A", CmpOp::kEq, I(1)),
                            {{"B", I(5)}}),
      UpdateOp::DeleteWhere("R", Predicate::Cmp("A", CmpOp::kEq, I(2))),
  };
  ASSERT_TRUE(session.ApplyAll(ops).ok());
  EXPECT_EQ(session.Stats().applies, 3u);
  auto possible = session.PossibleTuples("R");
  ASSERT_TRUE(possible.ok());
  EXPECT_EQ(possible->NumRows(), 1u);
  EXPECT_TRUE(Contains(*possible, {I(1), I(5)}));
}

// Updates racing pinned views: a Snapshot pinned before an Apply keeps the
// pre-update answers, a Fork written after the pin diverges privately, and
// tearing the whole family down releases the component store exactly —
// the COW break the update forced must not strand the shared payloads.
TEST(SessionUpdateTest, SnapshotAndForkTeardownAfterUpdatesReleasesStore) {
  store::StoreStats store_before = store::GetStoreStats();
  for (api::BackendKind kind : testutil::AllBackendKinds()) {
    SCOPED_TRACE(api::BackendKindName(kind));
    api::Session session = api::Session::Open(kind);
    rel::Relation r(rel::Schema::FromNames({"A", "B"}), "R");
    r.AppendRow({I(1), I(1)});
    ASSERT_TRUE(session.Register(r).ok());

    api::Snapshot pinned = session.Snapshot();
    api::Session fork = session.Fork();

    // Parent mutates after the pin: snapshot and fork keep the old rows.
    ASSERT_TRUE(
        session
            .Apply(UpdateOp::InsertTuples(
                "R", Tuples({"A", "B"}, {{I(2), I(2)}})))
            .ok());
    auto pinned_rows = pinned.PossibleTuples("R");
    ASSERT_TRUE(pinned_rows.ok());
    EXPECT_EQ(pinned_rows->NumRows(), 1u);
    EXPECT_FALSE(Contains(*pinned_rows, {I(2), I(2)}));

    // Fork mutates privately: parent keeps its own state.
    ASSERT_TRUE(fork.Apply(UpdateOp::ModifyWhere(
                               "R", Predicate::Cmp("A", CmpOp::kEq, I(1)),
                               {{"B", I(9)}}))
                    .ok());
    auto fork_rows = fork.PossibleTuples("R");
    ASSERT_TRUE(fork_rows.ok());
    EXPECT_TRUE(Contains(*fork_rows, {I(1), I(9)}));
    auto parent_rows = session.PossibleTuples("R");
    ASSERT_TRUE(parent_rows.ok());
    EXPECT_TRUE(Contains(*parent_rows, {I(1), I(1)}));
    EXPECT_FALSE(Contains(*parent_rows, {I(1), I(9)}));
  }
  store::StoreStats store_after = store::GetStoreStats();
  EXPECT_EQ(store_after.live_nodes, store_before.live_nodes)
      << "post-update snapshot/fork teardown leaked nodes";
  EXPECT_EQ(store_after.live_cells, store_before.live_cells)
      << "post-update snapshot/fork teardown leaked cells";
}

TEST(SessionUpdateTest, ValidationRejectsBadUpdates) {
  api::Session session = api::Session::Open(api::BackendKind::kWsdt);
  rel::Relation r(rel::Schema::FromNames({"A", "B"}), "R");
  ASSERT_TRUE(session.Register(r).ok());

  EXPECT_EQ(session.Apply(UpdateOp::DeleteWhere("NOPE", Predicate::True()))
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(
      session
          .Apply(UpdateOp::InsertTuples("R", Tuples({"A"}, {{I(1)}})))
          .code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(session
                .Apply(UpdateOp::DeleteWhere(
                    "R", Predicate::Cmp("Z", CmpOp::kEq, I(1))))
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(session
                .Apply(UpdateOp::ModifyWhere("R", Predicate::True(),
                                             {{"A", I(1)}, {"A", I(2)}}))
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session
                .Apply(UpdateOp::ModifyWhere("R", Predicate::True(), {}))
                .code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace maywsd::core
