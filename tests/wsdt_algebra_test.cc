#include "core/wsdt_algebra.h"

#include <gtest/gtest.h>

#include <map>

#include "core/component_store.h"
#include "core/worldset.h"
#include "tests/test_util.h"

namespace maywsd::core {
namespace {

using rel::CmpOp;
using rel::Plan;
using rel::Predicate;
using testutil::Bot;
using testutil::I;
using testutil::Q;
using testutil::RelSpec;

/// Oracle check: WsdtEvaluate against per-world evaluation of the same
/// world-set (via the WSD expansion).
void ExpectWsdtOracleEquivalent(const Wsd& wsd_in, const Plan& plan,
                                const char* label = "") {
  auto worlds = wsd_in.EnumerateWorlds(100000);
  ASSERT_TRUE(worlds.ok()) << label;
  auto expected = EvaluatePerWorld(*worlds, plan, "OUT");
  ASSERT_TRUE(expected.ok()) << label;

  auto wsdt_or = Wsdt::FromWsd(wsd_in);
  ASSERT_TRUE(wsdt_or.ok()) << label;
  Wsdt wsdt = std::move(wsdt_or).value();
  Status st = WsdtEvaluate(wsdt, plan, "OUT");
  ASSERT_TRUE(st.ok()) << label << ": " << st;
  ASSERT_TRUE(wsdt.Validate().ok()) << label;

  auto expanded = wsdt.ToWsd();
  ASSERT_TRUE(expanded.ok()) << label;
  auto actual = expanded->EnumerateWorlds(1000000, {"OUT"});
  ASSERT_TRUE(actual.ok()) << label;
  EXPECT_TRUE(WorldSetsEquivalent(*expected, *actual)) << label;
}

/// WsdtSelect's row decision: the predicate bound once, evaluated in
/// Kleene logic over the template row.
rel::Tri TriEval(const Predicate& pred, const rel::Schema& schema,
                 rel::TupleRef row) {
  auto bound = rel::BoundPredicate::Bind(pred, schema);
  EXPECT_TRUE(bound.ok()) << bound.status();
  return bound.ok() ? bound->EvalTri(row) : rel::Tri::kFalse;
}

TEST(TriEvalTest, ThreeValuedLogic) {
  rel::Schema schema = rel::Schema::FromNames({"A", "B"});
  rel::Relation r(schema, "T");
  r.AppendRow({I(1), testutil::Q()});
  rel::TupleRef row = r.row(0);
  // Certain comparisons.
  EXPECT_EQ(TriEval(Predicate::Cmp("A", CmpOp::kEq, I(1)), schema, row),
            rel::Tri::kTrue);
  // Unknown comparisons.
  EXPECT_EQ(TriEval(Predicate::Cmp("B", CmpOp::kEq, I(1)), schema, row),
            rel::Tri::kUnknown);
  // Kleene: false AND unknown = false; true OR unknown = true.
  EXPECT_EQ(TriEval(Predicate::And(Predicate::Cmp("A", CmpOp::kEq, I(9)),
                                   Predicate::Cmp("B", CmpOp::kEq, I(1))),
                    schema, row),
            rel::Tri::kFalse);
  EXPECT_EQ(TriEval(Predicate::Or(Predicate::Cmp("A", CmpOp::kEq, I(1)),
                                  Predicate::Cmp("B", CmpOp::kEq, I(1))),
                    schema, row),
            rel::Tri::kTrue);
  EXPECT_EQ(TriEval(Predicate::Not(Predicate::Cmp("B", CmpOp::kEq, I(1))),
                    schema, row),
            rel::Tri::kUnknown);
  // Attribute-attribute with an unknown side.
  EXPECT_EQ(TriEval(Predicate::CmpAttr("A", CmpOp::kEq, "B"), schema, row),
            rel::Tri::kUnknown);
}

class WsdtAlgebraProperty : public ::testing::TestWithParam<int> {};

std::vector<RelSpec> Specs() {
  return {RelSpec{"R", {"A", "B"}, 2, 3}, RelSpec{"S", {"C", "D"}, 2, 3},
          RelSpec{"R2", {"A", "B"}, 2, 3}};
}

TEST_P(WsdtAlgebraProperty, SelectOracle) {
  Rng rng(GetParam());
  Wsd wsd = testutil::RandomWsd(rng, Specs(), 3);
  ExpectWsdtOracleEquivalent(
      wsd,
      Plan::Select(Predicate::Cmp("A", CmpOp::kEq, I(1)), Plan::Scan("R")),
      "select-const");
  ExpectWsdtOracleEquivalent(
      wsd,
      Plan::Select(Predicate::CmpAttr("A", CmpOp::kEq, "B"), Plan::Scan("R")),
      "select-attr");
  ExpectWsdtOracleEquivalent(
      wsd,
      Plan::Select(Predicate::Or(Predicate::Cmp("A", CmpOp::kEq, I(0)),
                                 Predicate::Cmp("B", CmpOp::kGt, I(1))),
                   Plan::Scan("R")),
      "select-or");
}

TEST_P(WsdtAlgebraProperty, ProjectOracle) {
  Rng rng(GetParam() + 100);
  Wsd wsd = testutil::RandomWsd(rng, Specs(), 3);
  ExpectWsdtOracleEquivalent(wsd, Plan::Project({"A"}, Plan::Scan("R")),
                             "project");
  // Projection after a selection exercises the ⊥-presence machinery
  // (including the presence-helper path).
  ExpectWsdtOracleEquivalent(
      wsd,
      Plan::Project({"A"},
                    Plan::Select(Predicate::Cmp("B", CmpOp::kEq, I(1)),
                                 Plan::Scan("R"))),
      "project-after-select");
  ExpectWsdtOracleEquivalent(
      wsd,
      Plan::Project({"B"},
                    Plan::Select(Predicate::Cmp("B", CmpOp::kGt, I(0)),
                                 Plan::Scan("R"))),
      "project-kept-placeholder");
}

TEST_P(WsdtAlgebraProperty, UnionProductOracle) {
  Rng rng(GetParam() + 200);
  Wsd wsd = testutil::RandomWsd(rng, Specs(), 3);
  ExpectWsdtOracleEquivalent(
      wsd, Plan::Union(Plan::Scan("R"), Plan::Scan("R2")), "union");
  ExpectWsdtOracleEquivalent(
      wsd, Plan::Product(Plan::Scan("R"), Plan::Scan("S")), "product");
}

TEST_P(WsdtAlgebraProperty, JoinOracle) {
  Rng rng(GetParam() + 300);
  Wsd wsd = testutil::RandomWsd(rng, Specs(), 3);
  ExpectWsdtOracleEquivalent(
      wsd,
      Plan::Join(Predicate::CmpAttr("A", CmpOp::kEq, "C"), Plan::Scan("R"),
                 Plan::Scan("S")),
      "join");
  // Join with residual condition.
  ExpectWsdtOracleEquivalent(
      wsd,
      Plan::Join(Predicate::And(Predicate::CmpAttr("A", CmpOp::kEq, "C"),
                                Predicate::Cmp("B", CmpOp::kGt, I(0))),
                 Plan::Scan("R"), Plan::Scan("S")),
      "join-residual");
}

TEST_P(WsdtAlgebraProperty, DifferenceOracle) {
  Rng rng(GetParam() + 400);
  Wsd wsd = testutil::RandomWsd(rng, Specs(), 3);
  ExpectWsdtOracleEquivalent(
      wsd, Plan::Difference(Plan::Scan("R"), Plan::Scan("R2")), "difference");
}

TEST_P(WsdtAlgebraProperty, RenameAndComplexOracle) {
  Rng rng(GetParam() + 500);
  Wsd wsd = testutil::RandomWsd(rng, Specs(), 3);
  ExpectWsdtOracleEquivalent(wsd, Plan::Rename({{"A", "X"}}, Plan::Scan("R")),
                             "rename");
  // Q5-shaped query: join of two renamed selections.
  Plan left = Plan::Rename(
      {{"A", "P1"}},
      Plan::Select(Predicate::Cmp("B", CmpOp::kGt, I(0)), Plan::Scan("R")));
  Plan right = Plan::Rename(
      {{"C", "P2"}},
      Plan::Select(Predicate::Cmp("D", CmpOp::kGt, I(0)), Plan::Scan("S")));
  ExpectWsdtOracleEquivalent(
      wsd,
      Plan::Join(Predicate::CmpAttr("P1", CmpOp::kEq, "P2"), left, right),
      "q5-shape");
}

INSTANTIATE_TEST_SUITE_P(Seeds, WsdtAlgebraProperty, ::testing::Range(0, 12));

TEST(WsdtAlgebraTest, SelectCopiesOnlySurvivingRows) {
  // Certain rows failing the predicate do not reach the output template.
  Wsdt wsdt;
  rel::Relation tmpl(rel::Schema::FromNames({"A"}), "R");
  tmpl.AppendRow({I(1)});
  tmpl.AppendRow({I(2)});
  tmpl.AppendRow({I(3)});
  ASSERT_TRUE(wsdt.AddTemplateRelation(std::move(tmpl)).ok());
  ASSERT_TRUE(WsdtSelect(wsdt, "R", "P",
                         Predicate::Cmp("A", CmpOp::kGe, I(2)))
                  .ok());
  EXPECT_EQ(wsdt.Template("P").value()->NumRows(), 2u);
  EXPECT_EQ(wsdt.ComputeStats().num_components, 0u);
}

TEST(WsdtAlgebraTest, ProjectMergesCertainDuplicates) {
  Wsdt wsdt;
  rel::Relation tmpl(rel::Schema::FromNames({"A", "B"}), "R");
  tmpl.AppendRow({I(1), I(10)});
  tmpl.AppendRow({I(1), I(20)});
  tmpl.AppendRow({I(2), I(30)});
  ASSERT_TRUE(wsdt.AddTemplateRelation(std::move(tmpl)).ok());
  ASSERT_TRUE(WsdtProject(wsdt, "R", "P", {"A"}).ok());
  // Set semantics: π_A = {1, 2}.
  EXPECT_EQ(wsdt.Template("P").value()->NumRows(), 2u);
}

TEST(WsdtAlgebraTest, OptimizedEvaluationFusesProductSelect) {
  // σ_{A=C}(R × S) written as product+selection must give the same result
  // through WsdtEvaluateOptimized, which fuses it into the native join.
  Rng rng(21);
  Wsd wsd = testutil::RandomWsd(
      rng, {{"R", {"A", "B"}, 2, 3}, {"S", {"C", "D"}, 2, 3}}, 3);
  Plan naive = Plan::Select(Predicate::CmpAttr("A", CmpOp::kEq, "C"),
                            Plan::Product(Plan::Scan("R"), Plan::Scan("S")));
  auto worlds = wsd.EnumerateWorlds(100000).value();
  auto expected = EvaluatePerWorld(worlds, naive, "OUT").value();
  Wsdt wsdt = Wsdt::FromWsd(wsd).value();
  ASSERT_TRUE(WsdtEvaluateOptimized(wsdt, naive, "OUT").ok());
  auto actual =
      wsdt.ToWsd().value().EnumerateWorlds(1000000, {"OUT"}).value();
  EXPECT_TRUE(WorldSetsEquivalent(expected, actual));
}

TEST(WsdtAlgebraTest, EvaluateDropsTemporaries) {
  Wsdt wsdt;
  rel::Relation tmpl(rel::Schema::FromNames({"A", "B"}), "R");
  tmpl.AppendRow({I(1), I(10)});
  ASSERT_TRUE(wsdt.AddTemplateRelation(std::move(tmpl)).ok());
  Plan q = Plan::Project(
      {"A"},
      Plan::Select(Predicate::Cmp("B", CmpOp::kGt, I(0)), Plan::Scan("R")));
  ASSERT_TRUE(WsdtEvaluate(wsdt, q, "OUT").ok());
  auto names = wsdt.RelationNames();
  EXPECT_EQ(names.size(), 2u);  // R and OUT only
  EXPECT_TRUE(wsdt.HasRelation("OUT"));
}

/// Adds template relation `name` with the given rows.
void AddTemplate(Wsdt& wsdt, const char* name,
                 std::vector<std::string> attrs,
                 std::vector<std::vector<rel::Value>> rows) {
  rel::Relation tmpl(rel::Schema::FromNames(attrs), name);
  for (const std::vector<rel::Value>& row : rows) tmpl.AppendRow(row);
  ASSERT_TRUE(wsdt.AddTemplateRelation(std::move(tmpl)).ok());
}

/// Covers the '?' field (rel, tuple, attr) with a one-column component
/// whose local worlds take `values` with equal probability.
void AddColumn(Wsdt& wsdt, const char* rel, TupleId tuple, const char* attr,
               std::vector<rel::Value> values) {
  Component c({FieldKey(rel, tuple, attr)});
  for (const rel::Value& v : values) {
    c.AddWorld({v}, 1.0 / static_cast<double>(values.size()));
  }
  ASSERT_TRUE(wsdt.AddComponent(std::move(c)).ok());
}

/// Every template relation's rows, by name.
std::map<std::string, std::vector<std::vector<rel::Value>>> TemplateRows(
    const Wsdt& wsdt) {
  std::map<std::string, std::vector<std::vector<rel::Value>>> out;
  for (const std::string& name : wsdt.RelationNames()) {
    const rel::Relation* tmpl = wsdt.Template(name).value();
    for (size_t r = 0; r < tmpl->NumRows(); ++r) {
      out[name].push_back(tmpl->row(r).ToRow());
    }
  }
  return out;
}

TEST(WsdtAlgebraTest, DifferenceLeavesUnrelatedRelationsAlone) {
  // U holds a '?' whose column is constant and a row that is ⊥ in every
  // local world; neither is normalized away by a difference over L and S.
  Wsdt wsdt;
  AddTemplate(wsdt, "U", {"A"}, {{Q()}, {Q()}});
  AddColumn(wsdt, "U", 0, "A", {I(5), I(5)});
  AddColumn(wsdt, "U", 1, "A", {Bot(), Bot()});
  AddTemplate(wsdt, "L", {"A"}, {{Q()}});
  AddColumn(wsdt, "L", 0, "A", {I(1), I(2)});
  AddTemplate(wsdt, "S", {"A"}, {{I(3)}});
  ASSERT_TRUE(wsdt.Validate().ok());
  auto u_before = TemplateRows(wsdt).at("U");
  const size_t live_before = wsdt.LiveComponents().size();
  ASSERT_EQ(live_before, 3u);

  ASSERT_TRUE(WsdtDifference(wsdt, "L", "S", "OUT").ok());
  EXPECT_EQ(TemplateRows(wsdt).at("U"), u_before);
  EXPECT_EQ(wsdt.LiveComponents().size(), live_before);
  EXPECT_TRUE(wsdt.Validate().ok());
}

TEST(WsdtAlgebraTest, DifferenceWithoutPossibleMatchComposesNothing) {
  // L's '?' takes 1 or 2; no S row can: not the certain ones (A = 3, or
  // A = 1 with another B) and not the '?' taking 4 or 5.
  Wsdt wsdt;
  AddTemplate(wsdt, "L", {"A", "B"}, {{Q(), I(7)}});
  AddColumn(wsdt, "L", 0, "A", {I(1), I(2)});
  AddTemplate(wsdt, "S", {"A", "B"},
              {{I(3), I(7)}, {Q(), I(7)}, {I(1), I(8)}});
  AddColumn(wsdt, "S", 1, "A", {I(4), I(5)});
  const uint64_t compose_before = store::GetStoreStats().compose_nodes;

  ASSERT_TRUE(WsdtDifference(wsdt, "L", "S", "OUT").ok());
  EXPECT_EQ(store::GetStoreStats().compose_nodes, compose_before);
  EXPECT_EQ(wsdt.Template("OUT").value()->NumRows(), 1u);
  EXPECT_TRUE(wsdt.Validate().ok());
}

TEST(WsdtAlgebraTest, DifferenceOfCertainRowsAgainstUncertainCandidates) {
  // Certain L rows; S.t0 has A ∈ {1, 3}, S.t1 is (1, 2) or absent. (1, 2)
  // faces both, (3, 2) only S.t0 and (5, 6) neither.
  Wsd wsd;
  ASSERT_TRUE(
      wsd.AddRelation("L", rel::Schema::FromNames({"A", "B"}), 3).ok());
  ASSERT_TRUE(
      wsd.AddRelation("S", rel::Schema::FromNames({"A", "B"}), 2).ok());
  const int64_t l_rows[3][2] = {{1, 2}, {3, 2}, {5, 6}};
  for (TupleId t = 0; t < 3; ++t) {
    ASSERT_TRUE(
        wsd.AddCertainField(FieldKey("L", t, "A"), I(l_rows[t][0])).ok());
    ASSERT_TRUE(
        wsd.AddCertainField(FieldKey("L", t, "B"), I(l_rows[t][1])).ok());
  }
  {
    Component c({FieldKey("S", 0, "A")});
    c.AddWorld({I(1)}, 0.3);
    c.AddWorld({I(3)}, 0.7);
    ASSERT_TRUE(wsd.AddComponent(std::move(c)).ok());
  }
  ASSERT_TRUE(wsd.AddCertainField(FieldKey("S", 0, "B"), I(2)).ok());
  {
    Component c({FieldKey("S", 1, "A"), FieldKey("S", 1, "B")});
    c.AddWorld({I(1), I(2)}, 0.5);
    c.AddWorld({Bot(), Bot()}, 0.5);
    ASSERT_TRUE(wsd.AddComponent(std::move(c)).ok());
  }
  ExpectWsdtOracleEquivalent(
      wsd, Plan::Difference(Plan::Scan("L"), Plan::Scan("S")),
      "certain-left");
}

TEST(WsdtAlgebraTest, DifferenceErrorsLeaveNoTrace) {
  // L and S could be equal, so a difference would compose their
  // components; both errors must be raised before that.
  Wsdt wsdt;
  AddTemplate(wsdt, "L", {"A"}, {{Q()}});
  AddColumn(wsdt, "L", 0, "A", {I(1), I(2)});
  AddTemplate(wsdt, "S", {"A"}, {{Q()}});
  AddColumn(wsdt, "S", 0, "A", {I(1), I(3)});
  AddTemplate(wsdt, "T", {"B"}, {{I(1)}});
  const auto rows_before = TemplateRows(wsdt);
  const std::vector<size_t> live_before = wsdt.LiveComponents();

  EXPECT_EQ(WsdtDifference(wsdt, "L", "T", "OUT").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(TemplateRows(wsdt), rows_before);
  EXPECT_EQ(wsdt.LiveComponents(), live_before);

  EXPECT_EQ(WsdtDifference(wsdt, "L", "S", "T").code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(TemplateRows(wsdt), rows_before);
  EXPECT_EQ(wsdt.LiveComponents(), live_before);
}

}  // namespace
}  // namespace maywsd::core
