// The Figure 9 goldens (Figures 10–15) and per-operator oracles of the
// Section 4 algebra. A kWsd api::Session adopts the decomposition at its
// edge and runs every plan on the WSDT operators, difference included —
// no Section 4 operator code remains; each result is checked against
// per-world evaluation (Theorem 1).

#include <gtest/gtest.h>

#include <set>

#include "api/session.h"
#include "core/engine/plan_driver.h"
#include "core/normalize.h"
#include "core/worldset.h"
#include "tests/test_util.h"

namespace maywsd::core {
namespace {

using rel::CmpOp;
using rel::Plan;
using rel::Predicate;
using testutil::I;
using testutil::RandomWorlds;
using testutil::RelSpec;

/// The 7-WSD of Figure 10 over R[A,B,C] with three tuples; represents the
/// eight worlds of Figure 10(a).
Wsd Figure10() {
  Wsd wsd;
  EXPECT_TRUE(
      wsd.AddRelation("R", rel::Schema::FromNames({"A", "B", "C"}), 3).ok());
  {
    Component c({FieldKey("R", 0, "A")});
    c.AddWorld({I(1)}, 0.5);
    c.AddWorld({I(2)}, 0.5);
    EXPECT_TRUE(wsd.AddComponent(std::move(c)).ok());
  }
  {
    Component c({FieldKey("R", 0, "B"), FieldKey("R", 0, "C"),
                 FieldKey("R", 1, "B")});
    c.AddWorld({I(1), I(0), I(3)}, 0.5);
    c.AddWorld({I(2), I(7), I(4)}, 0.5);
    EXPECT_TRUE(wsd.AddComponent(std::move(c)).ok());
  }
  {
    Component c({FieldKey("R", 1, "A")});
    c.AddWorld({I(4)}, 0.5);
    c.AddWorld({I(5)}, 0.5);
    EXPECT_TRUE(wsd.AddComponent(std::move(c)).ok());
  }
  auto add_const = [&](TupleId t, const char* attr, int64_t v) {
    Component c({FieldKey("R", t, attr)});
    c.AddWorld({I(v)}, 1.0);
    EXPECT_TRUE(wsd.AddComponent(std::move(c)).ok());
  };
  add_const(1, "C", 0);
  add_const(2, "A", 6);
  add_const(2, "B", 6);
  add_const(2, "C", 7);
  return wsd;
}

/// Evaluates `plan` into relation P through a kWsd Session over `wsd`;
/// returns the session (for structural checks) after validating it.
api::Session RunOverWsd(const Wsd& wsd, const Plan& plan) {
  auto session = api::Session::Open(wsd);
  EXPECT_TRUE(session.ok()) << session.status();
  Status st = session->Run(plan, "P");
  EXPECT_TRUE(st.ok()) << plan.ToString() << ": " << st;
  EXPECT_TRUE(testutil::ValidateSession(*session).ok()) << plan.ToString();
  return std::move(session).value();
}

/// The distinct worlds of relation P after RunOverWsd.
std::vector<PossibleWorld> WorldsOfP(const api::Session& session) {
  return CollapseWorlds(testutil::SessionWorlds(session, 1000, {"P"}).value());
}

/// Runs plan through both the per-world oracle and a kWsd Session and
/// checks Theorem 1: rep(Q̂(W))|result = {Q(A) | A ∈ rep(W)}.
void ExpectOracleEquivalent(const Wsd& wsd, const Plan& plan,
                            const char* label = "") {
  auto worlds = wsd.EnumerateWorlds(100000);
  ASSERT_TRUE(worlds.ok()) << label;
  auto expected = EvaluatePerWorld(*worlds, plan, "OUT");
  ASSERT_TRUE(expected.ok()) << label;
  auto session = api::Session::Open(wsd);
  ASSERT_TRUE(session.ok()) << label << ": " << session.status();
  Status st = session->Run(plan, "OUT");
  ASSERT_TRUE(st.ok()) << label << ": " << st;
  ASSERT_TRUE(testutil::ValidateSession(*session).ok()) << label;
  auto actual = testutil::SessionWorlds(*session, 1000000, {"OUT"});
  ASSERT_TRUE(actual.ok()) << label;
  EXPECT_TRUE(WorldSetsEquivalent(*expected, *actual)) << label;
}

TEST(WsdAlgebraGolden, Figure10Has8Worlds) {
  Wsd wsd = Figure10();
  ASSERT_TRUE(wsd.Validate().ok());
  EXPECT_EQ(wsd.NumLiveComponents(), 7u);
  EXPECT_EQ(CollapseWorlds(wsd.EnumerateWorlds(100).value()).size(), 8u);
}

TEST(WsdAlgebraGolden, Figure11aSelectCEq7) {
  // P := σ_{C=7}(R): worlds of different sizes (t1 deleted where C=0).
  Plan plan =
      Plan::Select(Predicate::Cmp("C", CmpOp::kEq, I(7)), Plan::Scan("R"));
  auto worlds = WorldsOfP(RunOverWsd(Figure10(), plan));
  // P is {(6,6,7)} in half the worlds and {(A,2,7),(6,6,7)} with A ∈ {1,2}
  // in the others: three distinct results.
  ASSERT_EQ(worlds.size(), 3u);
  for (const auto& w : worlds) {
    const rel::Relation* p = w.db.GetRelation("P").value();
    std::vector<rel::Value> anchor{I(6), I(6), I(7)};
    EXPECT_TRUE(p->ContainsRow(anchor));
  }
  ExpectOracleEquivalent(Figure10(), plan, "Fig11a");
}

TEST(WsdAlgebraGolden, Figure11bSelectBEq1) {
  ExpectOracleEquivalent(
      Figure10(),
      Plan::Select(Predicate::Cmp("B", CmpOp::kEq, I(1)), Plan::Scan("R")),
      "Fig11b");
}

TEST(WsdAlgebraGolden, Figure13SelectAEqB) {
  // σ_{A=B}(R) represents five worlds: one with three tuples, three with
  // two, one with one (Example 8).
  Plan plan =
      Plan::Select(Predicate::CmpAttr("A", CmpOp::kEq, "B"), Plan::Scan("R"));
  auto worlds = WorldsOfP(RunOverWsd(Figure10(), plan));
  ASSERT_EQ(worlds.size(), 5u);
  std::multiset<size_t> sizes;
  for (const auto& w : worlds) {
    sizes.insert(w.db.GetRelation("P").value()->NumRows());
  }
  EXPECT_EQ(sizes.count(3), 1u);
  EXPECT_EQ(sizes.count(2), 3u);
  EXPECT_EQ(sizes.count(1), 1u);
  ExpectOracleEquivalent(Figure10(), plan, "Fig13");
}

TEST(WsdAlgebraGolden, Figure14Product) {
  // Figure 14: R[A,B] two tuples × S[C,D] two tuples.
  Wsd wsd;
  ASSERT_TRUE(
      wsd.AddRelation("R", rel::Schema::FromNames({"A", "B"}), 2).ok());
  ASSERT_TRUE(
      wsd.AddRelation("S", rel::Schema::FromNames({"C", "D"}), 2).ok());
  {
    Component c({FieldKey("R", 0, "A")});
    c.AddWorld({I(1)}, 0.5);
    c.AddWorld({I(2)}, 0.5);
    ASSERT_TRUE(wsd.AddComponent(std::move(c)).ok());
  }
  {
    Component c({FieldKey("R", 0, "B"), FieldKey("R", 1, "A")});
    c.AddWorld({I(3), I(5)}, 0.5);
    c.AddWorld({I(4), I(6)}, 0.5);
    ASSERT_TRUE(wsd.AddComponent(std::move(c)).ok());
  }
  {
    Component c({FieldKey("R", 1, "B")});
    c.AddWorld({I(7)}, 0.5);
    c.AddWorld({I(8)}, 0.5);
    ASSERT_TRUE(wsd.AddComponent(std::move(c)).ok());
  }
  {
    Component c({FieldKey("S", 0, "C")});
    c.AddWorld({testutil::S("a")}, 0.5);
    c.AddWorld({testutil::S("b")}, 0.5);
    ASSERT_TRUE(wsd.AddComponent(std::move(c)).ok());
  }
  {
    Component c({FieldKey("S", 0, "D"), FieldKey("S", 1, "C")});
    c.AddWorld({testutil::S("c"), testutil::S("e")}, 0.5);
    c.AddWorld({testutil::S("d"), testutil::S("f")}, 0.5);
    ASSERT_TRUE(wsd.AddComponent(std::move(c)).ok());
  }
  {
    Component c({FieldKey("S", 1, "D")});
    c.AddWorld({testutil::S("g")}, 0.5);
    c.AddWorld({testutil::S("h")}, 0.5);
    ASSERT_TRUE(wsd.AddComponent(std::move(c)).ok());
  }
  Plan plan = Plan::Product(Plan::Scan("R"), Plan::Scan("S"));
  ExpectOracleEquivalent(wsd, plan, "Fig14");
  // The product does not inflate the number of components (values are
  // copied into existing ones).
  EXPECT_EQ(RunOverWsd(wsd, plan).wsdt()->LiveComponents().size(), 6u);
}

TEST(WsdAlgebraGolden, Figure15Projection) {
  // Figure 15: two worlds {t1} and {t2}; π_A must not merge them into one
  // world with both tuples.
  Wsd wsd;
  ASSERT_TRUE(
      wsd.AddRelation("R", rel::Schema::FromNames({"A", "B"}), 2).ok());
  {
    Component c({FieldKey("R", 0, "A")});
    c.AddWorld({testutil::S("a")}, 1.0);
    ASSERT_TRUE(wsd.AddComponent(std::move(c)).ok());
  }
  {
    Component c({FieldKey("R", 1, "A")});
    c.AddWorld({testutil::S("b")}, 1.0);
    ASSERT_TRUE(wsd.AddComponent(std::move(c)).ok());
  }
  {
    Component c({FieldKey("R", 0, "B"), FieldKey("R", 1, "B")});
    c.AddWorld({testutil::S("c"), testutil::Bot()}, 0.5);
    c.AddWorld({testutil::Bot(), testutil::S("d")}, 0.5);
    ASSERT_TRUE(wsd.AddComponent(std::move(c)).ok());
  }
  Plan plan = Plan::Project({"A"}, Plan::Scan("R"));
  auto worlds = WorldsOfP(RunOverWsd(wsd, plan));
  ASSERT_EQ(worlds.size(), 2u);
  for (const auto& w : worlds) {
    EXPECT_EQ(w.db.GetRelation("P").value()->NumRows(), 1u);
  }
  ExpectOracleEquivalent(wsd, plan, "Fig15");
}

TEST(WsdAlgebraGolden, UnionAndDifferenceOnFigure10) {
  // R ∪ σ_{A=B}(R) and R − σ_{C=7}(R).
  ExpectOracleEquivalent(
      Figure10(),
      Plan::Union(Plan::Scan("R"),
                  Plan::Select(Predicate::CmpAttr("A", CmpOp::kEq, "B"),
                               Plan::Scan("R"))),
      "union");
  ExpectOracleEquivalent(
      Figure10(),
      Plan::Difference(Plan::Scan("R"),
                       Plan::Select(Predicate::Cmp("C", CmpOp::kEq, I(7)),
                                    Plan::Scan("R"))),
      "difference");
}

TEST(WsdAlgebraGolden, RenameAndJoin) {
  ExpectOracleEquivalent(
      Figure10(), Plan::Rename({{"A", "X"}}, Plan::Scan("R")), "rename");
  // Self-join on renamed copies: R ⋈_{A=X} δ(R).
  Plan renamed = Plan::Rename({{"A", "X"}, {"B", "Y"}, {"C", "Z"}},
                              Plan::Scan("R"));
  ExpectOracleEquivalent(
      Figure10(),
      Plan::Join(Predicate::CmpAttr("A", CmpOp::kEq, "X"), Plan::Scan("R"),
                 renamed),
      "join");
}

TEST(WsdAlgebraGolden, OrAndNotPredicates) {
  ExpectOracleEquivalent(
      Figure10(),
      Plan::Select(Predicate::Or(Predicate::Cmp("A", CmpOp::kEq, I(1)),
                                 Predicate::Cmp("B", CmpOp::kEq, I(4))),
                   Plan::Scan("R")),
      "or");
  ExpectOracleEquivalent(
      Figure10(),
      Plan::Select(Predicate::Not(Predicate::And(
                       Predicate::Cmp("A", CmpOp::kGt, I(1)),
                       Predicate::Cmp("C", CmpOp::kLt, I(7)))),
                   Plan::Scan("R")),
      "not");
}

TEST(WsdAlgebraGolden, NegatePredicateFlipsOperators) {
  // The negation pushdown lives in the shared engine driver now.
  Predicate p = Predicate::Cmp("A", CmpOp::kLt, I(3));
  Predicate n = engine::NegatePredicate(p);
  EXPECT_EQ(n.op(), CmpOp::kGe);
  Predicate dn = engine::NegatePredicate(Predicate::Not(p));
  EXPECT_EQ(dn.op(), CmpOp::kLt);
}

// ---------------------------------------------------------------------------
// Randomized property tests: every operator against the per-world oracle.
// ---------------------------------------------------------------------------

class WsdAlgebraProperty : public ::testing::TestWithParam<int> {};

std::vector<RelSpec> Specs() {
  return {RelSpec{"R", {"A", "B"}, 2, 3}, RelSpec{"S", {"C", "D"}, 2, 3},
          RelSpec{"R2", {"A", "B"}, 2, 3}};
}

TEST_P(WsdAlgebraProperty, SelectConstOracle) {
  Rng rng(GetParam());
  Wsd wsd = testutil::RandomWsd(rng, Specs(), 3);
  ExpectOracleEquivalent(
      wsd,
      Plan::Select(Predicate::Cmp("A", CmpOp::kEq, I(1)), Plan::Scan("R")));
  ExpectOracleEquivalent(
      wsd,
      Plan::Select(Predicate::Cmp("B", CmpOp::kGt, I(0)), Plan::Scan("R")));
}

TEST_P(WsdAlgebraProperty, SelectAttrAttrOracle) {
  Rng rng(GetParam() + 1000);
  Wsd wsd = testutil::RandomWsd(rng, Specs(), 3);
  ExpectOracleEquivalent(
      wsd,
      Plan::Select(Predicate::CmpAttr("A", CmpOp::kEq, "B"), Plan::Scan("R")));
  ExpectOracleEquivalent(
      wsd,
      Plan::Select(Predicate::CmpAttr("A", CmpOp::kLt, "B"), Plan::Scan("R")));
}

TEST_P(WsdAlgebraProperty, ProjectOracle) {
  Rng rng(GetParam() + 2000);
  Wsd wsd = testutil::RandomWsd(rng, Specs(), 3);
  ExpectOracleEquivalent(wsd, Plan::Project({"A"}, Plan::Scan("R")));
  ExpectOracleEquivalent(wsd, Plan::Project({"B"}, Plan::Scan("R")));
}

TEST_P(WsdAlgebraProperty, ProductOracle) {
  Rng rng(GetParam() + 3000);
  Wsd wsd = testutil::RandomWsd(rng, Specs(), 3);
  ExpectOracleEquivalent(wsd,
                         Plan::Product(Plan::Scan("R"), Plan::Scan("S")));
}

TEST_P(WsdAlgebraProperty, UnionOracle) {
  Rng rng(GetParam() + 4000);
  Wsd wsd = testutil::RandomWsd(rng, Specs(), 3);
  ExpectOracleEquivalent(wsd, Plan::Union(Plan::Scan("R"), Plan::Scan("R2")));
}

TEST_P(WsdAlgebraProperty, DifferenceOracle) {
  Rng rng(GetParam() + 5000);
  Wsd wsd = testutil::RandomWsd(rng, Specs(), 3);
  ExpectOracleEquivalent(
      wsd, Plan::Difference(Plan::Scan("R"), Plan::Scan("R2")));
}

TEST_P(WsdAlgebraProperty, ProjectAfterSelectOracle) {
  // The composition that exercises ⊥-propagation through projection.
  Rng rng(GetParam() + 6000);
  Wsd wsd = testutil::RandomWsd(rng, Specs(), 3);
  ExpectOracleEquivalent(
      wsd,
      Plan::Project({"A"},
                    Plan::Select(Predicate::Cmp("B", CmpOp::kEq, I(1)),
                                 Plan::Scan("R"))));
}

TEST_P(WsdAlgebraProperty, JoinOracle) {
  Rng rng(GetParam() + 7000);
  Wsd wsd = testutil::RandomWsd(rng, Specs(), 3);
  ExpectOracleEquivalent(
      wsd, Plan::Join(Predicate::CmpAttr("A", CmpOp::kEq, "C"),
                      Plan::Scan("R"), Plan::Scan("S")));
}

TEST_P(WsdAlgebraProperty, ComplexQueryOracle) {
  Rng rng(GetParam() + 8000);
  Wsd wsd = testutil::RandomWsd(rng, Specs(), 3);
  // π_A(σ_{A=1}(R)) ∪ π_A(σ_{B=2}(R)) — the paper's correlated-subquery
  // example shape (Section 4).
  Plan q = Plan::Union(
      Plan::Project({"A"}, Plan::Select(Predicate::Cmp("A", CmpOp::kEq, I(1)),
                                        Plan::Scan("R"))),
      Plan::Project({"A"}, Plan::Select(Predicate::Cmp("B", CmpOp::kEq, I(2)),
                                        Plan::Scan("R"))));
  ExpectOracleEquivalent(wsd, q);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WsdAlgebraProperty,
                         ::testing::Range(0, 12));

}  // namespace
}  // namespace maywsd::core
