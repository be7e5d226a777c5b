// Randomized whole-plan property tests: random relational algebra trees
// are evaluated through per-world brute force and the Section 5 WSDT
// operators, which must agree on every seed (Theorem 1 end to end,
// including operator composition effects like ⊥-propagation across
// stacked operators); the cross-backend oracle then holds every Session
// backend, kWsd included, to one world set.

#include <gtest/gtest.h>

#include <memory>

#include "api/session.h"
#include "rel/eval.h"
#include "rel/optimizer.h"
#include "core/component_store.h"
#include "core/engine/plan_driver.h"
#include "core/wsdt_algebra.h"
#include "core/worldset.h"
#include "tests/test_util.h"

namespace maywsd::core {
namespace {

using rel::CmpOp;
using rel::Plan;
using rel::Predicate;
using testutil::I;
using testutil::RelSpec;
using testutil::SeededRng;

/// Draws a random comparison predicate over attributes of `attrs`.
Predicate RandomPredicate(Rng& rng, const std::vector<std::string>& attrs,
                          int depth) {
  auto random_cmp = [&]() {
    CmpOp ops[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt, CmpOp::kGe};
    CmpOp op = ops[rng.Uniform(4)];
    const std::string& lhs = attrs[rng.Uniform(attrs.size())];
    if (attrs.size() > 1 && rng.Bernoulli(0.3)) {
      const std::string& rhs = attrs[rng.Uniform(attrs.size())];
      return Predicate::CmpAttr(lhs, op, rhs);
    }
    return Predicate::Cmp(lhs, op, I(static_cast<int64_t>(rng.Uniform(3))));
  };
  if (depth <= 0 || rng.Bernoulli(0.5)) return random_cmp();
  switch (rng.Uniform(3)) {
    case 0:
      return Predicate::And(RandomPredicate(rng, attrs, depth - 1),
                            RandomPredicate(rng, attrs, depth - 1));
    case 1:
      return Predicate::Or(RandomPredicate(rng, attrs, depth - 1),
                           RandomPredicate(rng, attrs, depth - 1));
    default:
      return Predicate::Not(RandomPredicate(rng, attrs, depth - 1));
  }
}

/// Draws a random plan. Attribute bookkeeping: R and R2 have {A,B},
/// S has {C,D}; combining operators are chosen so schemas stay valid.
Plan RandomPlan(Rng& rng, int depth, std::vector<std::string>* out_attrs) {
  if (depth <= 0) {
    switch (rng.Uniform(3)) {
      case 0:
        *out_attrs = {"A", "B"};
        return Plan::Scan("R");
      case 1:
        *out_attrs = {"A", "B"};
        return Plan::Scan("R2");
      default:
        *out_attrs = {"C", "D"};
        return Plan::Scan("S");
    }
  }
  switch (rng.Uniform(5)) {
    case 0: {  // selection
      Plan child = RandomPlan(rng, depth - 1, out_attrs);
      return Plan::Select(RandomPredicate(rng, *out_attrs, 1),
                          std::move(child));
    }
    case 1: {  // projection to one attribute
      Plan child = RandomPlan(rng, depth - 1, out_attrs);
      std::string keep = (*out_attrs)[rng.Uniform(out_attrs->size())];
      *out_attrs = {keep};
      return Plan::Project({keep}, std::move(child));
    }
    case 2: {  // union of two same-leaf subplans
      *out_attrs = {"A", "B"};
      return Plan::Union(Plan::Scan("R"), Plan::Scan("R2"));
    }
    case 3: {  // difference
      *out_attrs = {"A", "B"};
      Plan left = Plan::Select(RandomPredicate(rng, *out_attrs, 0),
                               Plan::Scan("R"));
      return Plan::Difference(std::move(left), Plan::Scan("R2"));
    }
    default: {  // join R ⋈ S
      *out_attrs = {"A", "B", "C", "D"};
      return Plan::Join(Predicate::CmpAttr("A", CmpOp::kEq, "C"),
                        Plan::Scan("R"), Plan::Scan("S"));
    }
  }
}

class RandomPlanProperty : public ::testing::TestWithParam<int> {};

TEST_P(RandomPlanProperty, WsdtPathAgreesWithPerWorldOracle) {
  SeededRng rng(static_cast<uint64_t>(GetParam()) * 7919 + 13);
  MAYWSD_SEED_TRACE(rng);
  std::vector<RelSpec> specs = {RelSpec{"R", {"A", "B"}, 2, 3},
                                RelSpec{"S", {"C", "D"}, 2, 3},
                                RelSpec{"R2", {"A", "B"}, 2, 3}};
  for (int round = 0; round < 3; ++round) {
    Wsd wsd = testutil::RandomWsd(rng, specs, 3);
    std::vector<std::string> attrs;
    Plan plan = RandomPlan(rng, 2, &attrs);

    auto worlds = wsd.EnumerateWorlds(100000);
    ASSERT_TRUE(worlds.ok());
    auto expected = EvaluatePerWorld(*worlds, plan, "OUT");
    ASSERT_TRUE(expected.ok()) << plan.ToString();

    auto wsdt_or = Wsdt::FromWsd(wsd);
    ASSERT_TRUE(wsdt_or.ok());
    Wsdt wsdt = std::move(wsdt_or).value();
    Status st = WsdtEvaluate(wsdt, plan, "OUT");
    ASSERT_TRUE(st.ok()) << plan.ToString() << ": " << st;
    ASSERT_TRUE(wsdt.Validate().ok()) << plan.ToString();
    auto wsdt_out =
        wsdt.ToWsd().value().EnumerateWorlds(4000000, {"OUT"});
    ASSERT_TRUE(wsdt_out.ok()) << plan.ToString();
    EXPECT_TRUE(WorldSetsEquivalent(*expected, *wsdt_out))
        << "WSDT path disagrees on " << plan.ToString() << " seed "
        << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPlanProperty, ::testing::Range(0, 20));

// Cross-backend equivalence oracle: the SAME engine driver
// (core/engine/plan_driver.h) runs the SAME random plan over every
// enrolled backend (testutil::AllBackendKinds — Wsd adopted as a Wsdt,
// Wsdt, the C/F/W uniform store, and the columnar U-relations store),
// each opened as an api::Session; all must produce the per-world
// reference world set, both on the plain plan and after the Section 5
// logical optimizations (which reshape the plan into joins some backends
// execute natively and others lower to product + selections).
class CrossBackendProperty : public ::testing::TestWithParam<int> {};

TEST_P(CrossBackendProperty, UnifiedDriverAgreesOnAllBackends) {
  SeededRng rng(static_cast<uint64_t>(GetParam()) * 104729 + 71);
  MAYWSD_SEED_TRACE(rng);
  // Companion to the scratch-relation leak check below: every payload
  // node and materialized cell the whole test allocates in the interned
  // component store must be released by the time the stores die.
  store::StoreStats store_before = store::GetStoreStats();
  std::vector<RelSpec> specs = {RelSpec{"R", {"A", "B"}, 2, 3},
                                RelSpec{"S", {"C", "D"}, 2, 3},
                                RelSpec{"R2", {"A", "B"}, 2, 3}};
  for (int round = 0; round < 3; ++round) {
    Wsd wsd = testutil::RandomWsd(rng, specs, 3);
    std::vector<std::string> attrs;
    Plan plan = RandomPlan(rng, 2, &attrs);
    auto worlds = wsd.EnumerateWorlds(100000);
    ASSERT_TRUE(worlds.ok());
    auto expected = EvaluatePerWorld(*worlds, plan, "OUT");
    ASSERT_TRUE(expected.ok()) << plan.ToString();

    for (bool optimized : {false, true}) {
      for (api::BackendKind kind : testutil::AllBackendKinds()) {
        SCOPED_TRACE(::testing::Message()
                     << "backend " << api::BackendKindName(kind)
                     << (optimized ? " (optimized)" : " (plain)"));
        auto session_or = testutil::OpenSessionOver(kind, wsd);
        ASSERT_TRUE(session_or.ok()) << session_or.status();
        api::Session session = std::move(session_or).value();
        engine::WorldSetOps& backend = session.ops();

        Status st = optimized ? engine::EvaluateOptimized(backend, plan, "OUT")
                              : engine::Evaluate(backend, plan, "OUT");
        ASSERT_TRUE(st.ok()) << plan.ToString() << ": " << st;

        // Representation integrity after the whole plan ran.
        Status valid = testutil::ValidateSession(session);
        ASSERT_TRUE(valid.ok()) << plan.ToString() << ": " << valid;
        Result<std::vector<PossibleWorld>> out =
            testutil::SessionWorlds(session, 4000000, {"OUT"});
        ASSERT_TRUE(out.ok()) << plan.ToString() << ": " << out.status();

        EXPECT_TRUE(WorldSetsEquivalent(*expected, *out))
            << "backend disagrees with the per-world reference on "
            << plan.ToString() << " seed " << GetParam();
        if (kind == api::BackendKind::kUniform) {
          // Every operator is a native C/F/W rewriting on uniform.
          EXPECT_EQ(session.Stats().round_trips, 0u)
              << "uniform round-tripped on " << plan.ToString();
        }

        // The scratch-relation lifecycle must not leak intermediates into
        // any representation.
        for (const std::string& name : backend.RelationNames()) {
          EXPECT_NE(name.rfind("__eng_tmp", 0), 0u)
              << "leaked scratch relation " << name;
        }
      }
    }
  }
  store::StoreStats store_after = store::GetStoreStats();
  EXPECT_EQ(store_after.live_nodes, store_before.live_nodes)
      << "leaked component-store nodes";
  EXPECT_EQ(store_after.live_cells, store_before.live_cells)
      << "leaked component-store cells";
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossBackendProperty, ::testing::Range(0, 15));

// Randomized pin-teardown leak oracle: pinning a Snapshot and a Fork over
// a random store, reading through both and running a random plan inside
// the fork must release every component-store node and cell once the whole
// session family dies. This is the COW-handle analogue of the scratch
// leak checks above — a dead pin that retains arena growth fails here.
class SnapshotForkLeakProperty : public ::testing::TestWithParam<int> {};

TEST_P(SnapshotForkLeakProperty, PinReadForkRunTeardownReleasesStore) {
  SeededRng rng(static_cast<uint64_t>(GetParam()) * 50021 + 13);
  MAYWSD_SEED_TRACE(rng);
  std::vector<RelSpec> specs = {RelSpec{"R", {"A", "B"}, 2, 3},
                                RelSpec{"S", {"C", "D"}, 2, 3},
                                RelSpec{"R2", {"A", "B"}, 2, 3}};
  store::StoreStats store_before = store::GetStoreStats();
  for (api::BackendKind kind : testutil::AllBackendKinds()) {
    SCOPED_TRACE(api::BackendKindName(kind));
    Wsd wsd = testutil::RandomWsd(rng, specs, 3);
    auto session_or = testutil::OpenSessionOver(kind, wsd);
    ASSERT_TRUE(session_or.ok());
    api::Session session = std::move(session_or.value());

    std::vector<std::string> attrs;
    Plan plan = RandomPlan(rng, 2, &attrs);
    {
      api::Snapshot snapshot = session.Snapshot();
      api::Session fork = session.Fork();
      // The fork runs (and keeps) a materialized plan result; the
      // snapshot and the parent only read. All of it must die cleanly.
      ASSERT_TRUE(fork.Run(plan, "FORK_OUT").ok()) << plan.ToString();
      ASSERT_TRUE(fork.PossibleTuples("FORK_OUT").ok());
      ASSERT_TRUE(snapshot.PossibleTuples("R").ok());
      ASSERT_TRUE(snapshot.CertainTuples("S").ok());
      EXPECT_FALSE(session.HasRelation("FORK_OUT"));
    }
    ASSERT_TRUE(session.PossibleTuples("R").ok());
  }
  store::StoreStats store_after = store::GetStoreStats();
  EXPECT_EQ(store_after.live_nodes, store_before.live_nodes)
      << "snapshot/fork teardown leaked component-store nodes";
  EXPECT_EQ(store_after.live_cells, store_before.live_cells)
      << "snapshot/fork teardown leaked component-store cells";
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotForkLeakProperty,
                         ::testing::Range(0, 10));

class OptimizerProperty : public ::testing::TestWithParam<int> {};

TEST_P(OptimizerProperty, OptimizedPlansAgreeOnPlainEvaluation) {
  // The engine optimizer must preserve set-semantics results on random
  // plans and random instances.
  SeededRng rng(static_cast<uint64_t>(GetParam()) * 31 + 5);
  MAYWSD_SEED_TRACE(rng);
  std::vector<RelSpec> specs = {RelSpec{"R", {"A", "B"}, 3, 3},
                                RelSpec{"S", {"C", "D"}, 3, 3},
                                RelSpec{"R2", {"A", "B"}, 3, 3}};
  for (int round = 0; round < 5; ++round) {
    auto worlds = testutil::RandomWorlds(rng, specs, 1);
    const rel::Database& db = worlds[0].db;
    std::vector<std::string> attrs;
    Plan plan = RandomPlan(rng, 2, &attrs);
    // Wrap in one more selection so the optimizer has something to push.
    plan = Plan::Select(RandomPredicate(rng, attrs, 1), std::move(plan));
    auto opt = rel::Optimize(plan, db);
    ASSERT_TRUE(opt.ok()) << plan.ToString();
    auto a = rel::Evaluate(plan, db);
    auto b = rel::Evaluate(*opt, db);
    ASSERT_TRUE(a.ok()) << plan.ToString();
    ASSERT_TRUE(b.ok()) << opt->ToString();
    EXPECT_TRUE(a->EqualsAsSet(*b))
        << "plan: " << plan.ToString() << "\nopt: " << opt->ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimizerProperty, ::testing::Range(0, 15));

// RunAll column of the oracle: a batched workload with shared subtrees
// evaluated through Session::RunAll (one scratch lifecycle, common-subplan
// cache) must produce, per output, exactly the world set of plan-by-plan
// Run on a fresh session — and the shared subtrees must actually hit the
// cache (Session::Stats()).
class RunAllBatchProperty : public ::testing::TestWithParam<int> {};

TEST_P(RunAllBatchProperty, BatchedWithCacheMatchesPlanByPlan) {
  SeededRng rng(static_cast<uint64_t>(GetParam()) * 52361 + 29);
  MAYWSD_SEED_TRACE(rng);
  std::vector<RelSpec> specs = {RelSpec{"R", {"A", "B"}, 2, 3},
                                RelSpec{"S", {"C", "D"}, 2, 3},
                                RelSpec{"R2", {"A", "B"}, 2, 3}};
  for (int round = 0; round < 2; ++round) {
    Wsd wsd = testutil::RandomWsd(rng, specs, 3);
    std::vector<std::string> attrs;
    Plan base = RandomPlan(rng, 2, &attrs);
    // A workload sharing `base` as a subtree: the batch must evaluate it
    // once and reuse the materialization for the later plans.
    std::vector<Plan> workload;
    workload.push_back(base);
    workload.push_back(Plan::Select(RandomPredicate(rng, attrs, 1), base));
    workload.push_back(Plan::Project({attrs[rng.Uniform(attrs.size())]},
                                     base));
    std::vector<std::string> outs = {"OUT0", "OUT1", "OUT2"};

    for (api::BackendKind kind : testutil::AllBackendKinds()) {
      auto batch_or = testutil::OpenSessionOver(kind, wsd);
      auto single_or = testutil::OpenSessionOver(kind, wsd);
      ASSERT_TRUE(batch_or.ok() && single_or.ok());
      api::Session batch = std::move(batch_or).value();
      api::Session single = std::move(single_or).value();

      Status st = batch.RunAll(workload, outs);
      ASSERT_TRUE(st.ok()) << base.ToString() << " on "
                           << api::BackendKindName(kind) << ": " << st;
      EXPECT_GT(batch.Stats().cache_hits, 0u)
          << "shared subtree missed the cache on "
          << api::BackendKindName(kind);

      for (size_t i = 0; i < workload.size(); ++i) {
        ASSERT_TRUE(single.Run(workload[i], outs[i]).ok())
            << workload[i].ToString();
      }

      for (const std::string& out : outs) {
        auto batched = testutil::SessionWorlds(batch, 4000000, {out});
        auto plain = testutil::SessionWorlds(single, 4000000, {out});
        ASSERT_TRUE(batched.ok()) << batched.status();
        ASSERT_TRUE(plain.ok()) << plain.status();
        EXPECT_TRUE(WorldSetsEquivalent(*batched, *plain))
            << "RunAll vs Run disagree on " << out << " for "
            << base.ToString() << " over " << api::BackendKindName(kind);
      }
      // No scratch relation may survive the batch lifecycle.
      for (const std::string& name : batch.RelationNames()) {
        EXPECT_NE(name.rfind("__eng_tmp", 0), 0u)
            << "leaked scratch relation " << name;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RunAllBatchProperty, ::testing::Range(0, 10));

}  // namespace
}  // namespace maywsd::core
