// The interned component store, from the node layer up:
//   - unit semantics: certain-singleton interning, copy-on-write breaks,
//     O(1) lazy composition with memoized forcing, and exact node/cell
//     leak accounting across scopes,
//   - the COW-vs-eager equivalence oracle: the same random plans and
//     random update batches run with lazy composition (production mode)
//     and with SetEagerForTesting(true) (every derived node materialized
//     on creation) over all four backends — expanded world sets must be
//     identical, so laziness is unobservable except in the counters,
//   - ApplyAll guard sharing: structurally equal world conditions pay one
//     materialization per batch (Session::Stats() counters), and the
//     shared guard still matches sequential Apply semantics, including
//     the self-conditioned case where every step must re-materialize.

#include "core/component_store.h"

#include <gtest/gtest.h>

#include <vector>

#include "api/session.h"
#include "core/component.h"
#include "core/worldset.h"
#include "core/wsd.h"
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

/// Scoped eager mode: every Compose/ExtDup/ExtConst forces on creation.
struct EagerMode {
  explicit EagerMode(bool eager) { store::SetEagerForTesting(eager); }
  ~EagerMode() { store::SetEagerForTesting(false); }
};

// -- Node-layer unit semantics ------------------------------------------------

TEST(ComponentStoreTest, CertainSingletonsShareOneInternedNode) {
  store::StoreStats before = store::GetStoreStats();
  Component a = Component::Certain(FieldKey("R", 0, "A"), I(7));
  Component b = Component::Certain(FieldKey("R", 1, "B"), I(7));
  EXPECT_TRUE(a.SharesPayloadWith(b));
  EXPECT_GE(store::GetStoreStats().dedup_hits, before.dedup_hits + 1);
  Component c = Component::Certain(FieldKey("R", 2, "A"), I(8));
  EXPECT_FALSE(a.SharesPayloadWith(c));
}

TEST(ComponentStoreTest, CopyOnWriteBreaksSharingAndPreservesTheOriginal) {
  Component a({FieldKey("R", 0, "A")});
  a.AddWorld({I(1)}, 0.5);
  a.AddWorld({I(2)}, 0.5);
  Component b = a;
  EXPECT_TRUE(a.SharesPayloadWith(b));

  store::StoreStats before = store::GetStoreStats();
  b.at(0, 0) = I(9);
  EXPECT_FALSE(a.SharesPayloadWith(b));
  EXPECT_EQ(a.at(0, 0), I(1)) << "write through the copy leaked back";
  EXPECT_EQ(b.at(0, 0), I(9));
  EXPECT_GE(store::GetStoreStats().cow_breaks, before.cow_breaks + 1);
}

TEST(ComponentStoreTest, ComposeRecordsO1AndForcesLazily) {
  // 100 worlds each: the 10000-world product is far above kEagerCells, so
  // recording it must not materialize (or even touch) a single cell.
  Component a({FieldKey("R", 0, "A")});
  Component b({FieldKey("R", 0, "B")});
  for (int i = 0; i < 100; ++i) {
    a.AddWorld({I(i)}, 0.01);
    b.AddWorld({I(i)}, 0.01);
  }
  store::StoreStats before = store::GetStoreStats();
  Component c = Component::Compose(a, b);
  store::StoreStats mid = store::GetStoreStats();
  EXPECT_EQ(mid.compose_nodes, before.compose_nodes + 1);
  EXPECT_EQ(mid.forced_evals, before.forced_evals);
  EXPECT_EQ(mid.live_cells, before.live_cells);
  ASSERT_EQ(c.NumWorlds(), 10000u);

  // Forcing happens on first read, materializes the a-major product, and
  // memoizes: the second read forces nothing further.
  const Component& cc = c;
  EXPECT_EQ(cc.at(3 * 100 + 7, 0), I(3));
  EXPECT_EQ(cc.at(3 * 100 + 7, 1), I(7));
  EXPECT_NEAR(cc.prob(3 * 100 + 7), 0.0001, 1e-12);
  store::StoreStats after = store::GetStoreStats();
  EXPECT_EQ(after.forced_evals, mid.forced_evals + 1);
  EXPECT_EQ(cc.at(42, 1), I(42));
  EXPECT_EQ(store::GetStoreStats().forced_evals, after.forced_evals);
}

TEST(ComponentStoreTest, NodesAndCellsAreReleasedExactly) {
  store::StoreStats before = store::GetStoreStats();
  {
    Component a({FieldKey("R", 0, "A")});
    Component b({FieldKey("R", 0, "B")});
    for (int i = 0; i < 100; ++i) {
      a.AddWorld({I(i)}, 0.01);
      b.AddWorld({I(i)}, 0.01);
    }
    Component c = Component::Compose(a, b);
    (void)static_cast<const Component&>(c).at(0, 0);  // force + memoize
    Component copy = c;
    copy.at(0, 1) = I(-1);  // COW break: private leaf
    Component certain = Component::Certain(FieldKey("R", 1, "A"), I(3));
  }
  store::StoreStats after = store::GetStoreStats();
  EXPECT_EQ(after.live_nodes, before.live_nodes) << "leaked payload nodes";
  EXPECT_EQ(after.live_cells, before.live_cells) << "leaked value cells";
}

// -- COW-vs-eager equivalence oracle ------------------------------------------

/// Compact random plan over R/R2{A,B}, S{C,D} (the random_plan_test shapes:
/// stacked selections, projection, union, difference, join). `attrs` tracks
/// the output schema so nested predicates stay well-typed.
Plan RandomOraclePlan(Rng& rng, int depth, std::vector<std::string>* attrs) {
  if (depth <= 0) {
    switch (rng.Uniform(3)) {
      case 0:
        *attrs = {"A", "B"};
        return Plan::Scan("R");
      case 1:
        *attrs = {"A", "B"};
        return Plan::Scan("R2");
      default:
        *attrs = {"C", "D"};
        return Plan::Scan("S");
    }
  }
  switch (rng.Uniform(5)) {
    case 0: {
      Plan child = RandomOraclePlan(rng, depth - 1, attrs);
      CmpOp ops[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt, CmpOp::kGe};
      const std::string& lhs = (*attrs)[rng.Uniform(attrs->size())];
      Predicate pred =
          rng.Bernoulli(0.3)
              ? Predicate::CmpAttr(lhs, ops[rng.Uniform(4)],
                                   (*attrs)[rng.Uniform(attrs->size())])
              : Predicate::Cmp(lhs, ops[rng.Uniform(4)],
                               I(static_cast<int64_t>(rng.Uniform(3))));
      return Plan::Select(std::move(pred), std::move(child));
    }
    case 1:
      *attrs = {"A"};
      return Plan::Project({"A"}, Plan::Scan(rng.Bernoulli(0.5) ? "R"
                                                                : "R2"));
    case 2:
      *attrs = {"A", "B"};
      return Plan::Union(Plan::Scan("R"), Plan::Scan("R2"));
    case 3:
      *attrs = {"A", "B"};
      return Plan::Difference(Plan::Scan("R"), Plan::Scan("R2"));
    default:
      *attrs = {"A", "B", "C", "D"};
      return Plan::Join(Predicate::CmpAttr("A", CmpOp::kEq, "C"),
                        Plan::Scan("R"), Plan::Scan("S"));
  }
}

class CowVsEagerPlanOracle : public ::testing::TestWithParam<int> {};

TEST_P(CowVsEagerPlanOracle, LazyAndEagerStoresExpandIdentically) {
  SeededRng rng(static_cast<uint64_t>(GetParam()) * 60013 + 7);
  MAYWSD_SEED_TRACE(rng);
  std::vector<RelSpec> specs = {RelSpec{"R", {"A", "B"}, 2, 3},
                                RelSpec{"S", {"C", "D"}, 2, 3},
                                RelSpec{"R2", {"A", "B"}, 2, 3}};
  for (int round = 0; round < 2; ++round) {
    Wsd wsd = testutil::RandomWsd(rng, specs, 3);
    std::vector<std::string> attrs;
    Plan plan = RandomOraclePlan(rng, 2, &attrs);
    for (api::BackendKind kind : testutil::AllBackendKinds()) {
      SCOPED_TRACE(::testing::Message()
                   << "backend " << api::BackendKindName(kind) << " plan "
                   << plan.ToString());
      std::vector<std::vector<PossibleWorld>> expansions;
      for (bool eager : {false, true}) {
        EagerMode mode(eager);
        auto session_or = testutil::OpenSessionOver(kind, wsd);
        ASSERT_TRUE(session_or.ok());
        api::Session session = std::move(session_or).value();
        Status st = session.Run(plan, "OUT");
        ASSERT_TRUE(st.ok()) << (eager ? "eager: " : "lazy: ") << st;
        auto out = testutil::SessionWorlds(session, 4000000, {"OUT"});
        ASSERT_TRUE(out.ok()) << out.status();
        expansions.push_back(std::move(out).value());
      }
      EXPECT_TRUE(WorldSetsEquivalent(expansions[0], expansions[1]))
          << "lazy and eager stores disagree, seed " << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CowVsEagerPlanOracle, ::testing::Range(0, 10));

/// Random update batch over the oracle schema; conditions may read any
/// relation, including the target (guard-snapshot semantics).
UpdateOp RandomOracleUpdate(Rng& rng) {
  struct Target {
    const char* name;
    std::vector<std::string> attrs;
  };
  static const Target targets[] = {
      {"R", {"A", "B"}}, {"S", {"C", "D"}}, {"R2", {"A", "B"}}};
  const Target& target = targets[rng.Uniform(3)];
  CmpOp ops[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt, CmpOp::kGe};
  Predicate pred = Predicate::Cmp(target.attrs[rng.Uniform(2)],
                                  ops[rng.Uniform(4)],
                                  I(static_cast<int64_t>(rng.Uniform(3))));
  UpdateOp op = [&] {
    switch (rng.Uniform(3)) {
      case 0: {
        rel::Relation tuples(rel::Schema::FromNames(target.attrs), "tuples");
        tuples.AppendRow({I(static_cast<int64_t>(rng.Uniform(3))),
                          I(static_cast<int64_t>(rng.Uniform(3)))});
        return UpdateOp::InsertTuples(target.name, std::move(tuples));
      }
      case 1:
        return UpdateOp::DeleteWhere(target.name, pred);
      default:
        return UpdateOp::ModifyWhere(
            target.name, pred,
            {Assignment{target.attrs[rng.Uniform(2)],
                        I(static_cast<int64_t>(rng.Uniform(3)))}});
    }
  }();
  if (rng.Bernoulli(0.5)) {
    const Target& cond = targets[rng.Uniform(3)];
    Plan when = Plan::Scan(cond.name);
    if (rng.Bernoulli(0.5)) {
      when = Plan::Select(Predicate::Cmp(cond.attrs[rng.Uniform(2)],
                                         ops[rng.Uniform(4)],
                                         I(static_cast<int64_t>(
                                             rng.Uniform(3)))),
                          std::move(when));
    }
    op = op.When(std::move(when));
  }
  return op;
}

class CowVsEagerUpdateOracle : public ::testing::TestWithParam<int> {};

TEST_P(CowVsEagerUpdateOracle, LazyAndEagerBatchesExpandIdentically) {
  SeededRng rng(static_cast<uint64_t>(GetParam()) * 35969 + 11);
  MAYWSD_SEED_TRACE(rng);
  std::vector<RelSpec> specs = {RelSpec{"R", {"A", "B"}, 2, 3},
                                RelSpec{"S", {"C", "D"}, 2, 3},
                                RelSpec{"R2", {"A", "B"}, 2, 3}};
  const std::vector<std::string> names = {"R", "S", "R2"};
  Wsd wsd = testutil::RandomWsd(rng, specs, 3);
  std::vector<UpdateOp> batch;
  for (int i = 0; i < 4; ++i) batch.push_back(RandomOracleUpdate(rng));

  for (api::BackendKind kind : testutil::AllBackendKinds()) {
    SCOPED_TRACE(::testing::Message() << "backend "
                                      << api::BackendKindName(kind));
    std::vector<std::vector<PossibleWorld>> expansions;
    for (bool eager : {false, true}) {
      EagerMode mode(eager);
      auto session_or = testutil::OpenSessionOver(kind, wsd);
      ASSERT_TRUE(session_or.ok());
      api::Session session = std::move(session_or).value();
      Status st = session.ApplyAll(batch);
      ASSERT_TRUE(st.ok()) << (eager ? "eager: " : "lazy: ") << st;
      auto out = testutil::SessionWorlds(session, 4000000, names);
      ASSERT_TRUE(out.ok()) << out.status();
      expansions.push_back(std::move(out).value());
    }
    EXPECT_TRUE(WorldSetsEquivalent(expansions[0], expansions[1]))
        << "lazy and eager update batches disagree, seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CowVsEagerUpdateOracle,
                         ::testing::Range(0, 10));

// -- ApplyAll guard sharing ---------------------------------------------------

/// Two worlds: S holds (5) in the first (p=0.25), nothing in the second.
Wsd GuardWsd() {
  std::vector<PossibleWorld> worlds(2);
  rel::Relation r(rel::Schema::FromNames({"A", "B"}), "R");
  r.AppendRow({I(1), I(1)});
  r.AppendRow({I(2), I(3)});
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

TEST(GuardSharingTest, BatchMaterializesOneGuardForEqualConditions) {
  const std::vector<std::string> names = {"R", "S"};
  Plan condition = Plan::Select(Predicate::Cmp("C", CmpOp::kEq, I(5)),
                                Plan::Scan("S"));
  std::vector<UpdateOp> batch;
  for (int i = 0; i < 4; ++i) {
    batch.push_back(UpdateOp::ModifyWhere(
                        "R", Predicate::Cmp("A", CmpOp::kEq, I(1)),
                        {Assignment{"B", I(10 + i)}})
                        .When(condition));
  }
  Wsd wsd = GuardWsd();
  for (api::BackendKind kind : testutil::AllBackendKinds()) {
    SCOPED_TRACE(::testing::Message() << "backend "
                                      << api::BackendKindName(kind));
    auto batched_or = testutil::OpenSessionOver(kind, wsd);
    auto seq_or = testutil::OpenSessionOver(kind, wsd);
    ASSERT_TRUE(batched_or.ok() && seq_or.ok());
    api::Session batched = std::move(batched_or).value();
    api::Session seq = std::move(seq_or).value();

    ASSERT_TRUE(batched.ApplyAll(batch).ok());
    api::SessionStats stats = batched.Stats();
    EXPECT_EQ(stats.applies, batch.size());
    // The condition never reads the mutated relation, so the whole batch
    // shares the first materialization.
    EXPECT_EQ(stats.guard_materializations, 1u);
    EXPECT_EQ(stats.guard_shares, batch.size() - 1);

    for (const UpdateOp& op : batch) ASSERT_TRUE(seq.Apply(op).ok());
    auto b = testutil::SessionWorlds(batched, 100000, names);
    auto s = testutil::SessionWorlds(seq, 100000, names);
    ASSERT_TRUE(b.ok() && s.ok());
    EXPECT_TRUE(WorldSetsEquivalent(*b, *s))
        << "shared guard diverges from sequential Apply";
  }
}

TEST(GuardSharingTest, SelfConditionedBatchRematerializesEveryStep) {
  const std::vector<std::string> names = {"R", "S"};
  // The condition reads the mutated relation: sequential semantics force a
  // fresh guard per step, so the cache must invalidate after every apply.
  std::vector<UpdateOp> batch;
  for (int i = 0; i < 3; ++i) {
    batch.push_back(UpdateOp::ModifyWhere(
                        "R", Predicate::Cmp("A", CmpOp::kEq, I(1)),
                        {Assignment{"B", I(20 + i)}})
                        .When(Plan::Scan("R")));
  }
  Wsd wsd = GuardWsd();
  for (api::BackendKind kind : testutil::AllBackendKinds()) {
    SCOPED_TRACE(::testing::Message() << "backend "
                                      << api::BackendKindName(kind));
    auto batched_or = testutil::OpenSessionOver(kind, wsd);
    auto seq_or = testutil::OpenSessionOver(kind, wsd);
    ASSERT_TRUE(batched_or.ok() && seq_or.ok());
    api::Session batched = std::move(batched_or).value();
    api::Session seq = std::move(seq_or).value();

    ASSERT_TRUE(batched.ApplyAll(batch).ok());
    api::SessionStats stats = batched.Stats();
    EXPECT_EQ(stats.guard_materializations, batch.size());
    EXPECT_EQ(stats.guard_shares, 0u);

    for (const UpdateOp& op : batch) ASSERT_TRUE(seq.Apply(op).ok());
    auto b = testutil::SessionWorlds(batched, 100000, names);
    auto s = testutil::SessionWorlds(seq, 100000, names);
    ASSERT_TRUE(b.ok() && s.ok());
    EXPECT_TRUE(WorldSetsEquivalent(*b, *s))
        << "self-conditioned batch diverges from sequential Apply";
  }
}

}  // namespace
}  // namespace maywsd::core
