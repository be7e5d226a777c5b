#include "rel/eval.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "rel/optimizer.h"
#include "tests/test_util.h"

namespace maywsd::rel {
namespace {

using testutil::I;

Database MakeDb() {
  Database db;
  Relation r(Schema::FromNames({"A", "B"}), "R");
  r.AppendRow({I(1), I(10)});
  r.AppendRow({I(2), I(20)});
  r.AppendRow({I(3), I(20)});
  db.PutRelation(std::move(r));
  Relation s(Schema::FromNames({"C", "D"}), "S");
  s.AppendRow({I(10), I(100)});
  s.AppendRow({I(20), I(200)});
  db.PutRelation(std::move(s));
  Relation r2(Schema::FromNames({"A", "B"}), "R2");
  r2.AppendRow({I(2), I(20)});
  r2.AppendRow({I(4), I(40)});
  db.PutRelation(std::move(r2));
  return db;
}

TEST(EvalTest, Scan) {
  Database db = MakeDb();
  auto out = Evaluate(Plan::Scan("R"), db);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->NumRows(), 3u);
  EXPECT_EQ(Evaluate(Plan::Scan("nope"), db).status().code(),
            StatusCode::kNotFound);
}

TEST(EvalTest, SelectConst) {
  Database db = MakeDb();
  auto out = Evaluate(
      Plan::Select(Predicate::Cmp("B", CmpOp::kEq, I(20)), Plan::Scan("R")),
      db);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->NumRows(), 2u);
}

TEST(EvalTest, SelectAttrAttrAndBoolOps) {
  Database db = MakeDb();
  // A <> 2 AND (B = 10 OR B = 20) — everything except row A=2.
  Predicate p = Predicate::And(
      Predicate::Cmp("A", CmpOp::kNe, I(2)),
      Predicate::Or(Predicate::Cmp("B", CmpOp::kEq, I(10)),
                    Predicate::Cmp("B", CmpOp::kEq, I(20))));
  auto out = Evaluate(Plan::Select(p, Plan::Scan("R")), db);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->NumRows(), 2u);
  auto not_out = Evaluate(
      Plan::Select(Predicate::Not(p), Plan::Scan("R")), db);
  ASSERT_TRUE(not_out.ok());
  EXPECT_EQ(not_out->NumRows(), 1u);
}

TEST(EvalTest, SelectUnknownAttributeFails) {
  Database db = MakeDb();
  auto out = Evaluate(
      Plan::Select(Predicate::Cmp("Z", CmpOp::kEq, I(1)), Plan::Scan("R")),
      db);
  EXPECT_EQ(out.status().code(), StatusCode::kNotFound);
}

TEST(EvalTest, ProjectDeduplicates) {
  Database db = MakeDb();
  auto out = Evaluate(Plan::Project({"B"}, Plan::Scan("R")), db);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->NumRows(), 2u);  // 10, 20
  EXPECT_EQ(out->schema().arity(), 1u);
}

TEST(EvalTest, Product) {
  Database db = MakeDb();
  auto out = Evaluate(Plan::Product(Plan::Scan("R"), Plan::Scan("S")), db);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->NumRows(), 6u);
  EXPECT_EQ(out->schema().arity(), 4u);
}

TEST(EvalTest, ProductAttributeCollisionFails) {
  Database db = MakeDb();
  auto out = Evaluate(Plan::Product(Plan::Scan("R"), Plan::Scan("R2")), db);
  EXPECT_FALSE(out.ok());
}

TEST(EvalTest, UnionAndSchemaCheck) {
  Database db = MakeDb();
  auto out = Evaluate(Plan::Union(Plan::Scan("R"), Plan::Scan("R2")), db);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->NumRows(), 4u);  // {1,2,3,4} rows; (2,20) merged
  EXPECT_FALSE(Evaluate(Plan::Union(Plan::Scan("R"), Plan::Scan("S")), db)
                   .ok());
}

TEST(EvalTest, Difference) {
  Database db = MakeDb();
  auto out =
      Evaluate(Plan::Difference(Plan::Scan("R"), Plan::Scan("R2")), db);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->NumRows(), 2u);  // rows A=1, A=3
}

TEST(EvalTest, Rename) {
  Database db = MakeDb();
  auto out = Evaluate(Plan::Rename({{"A", "X"}}, Plan::Scan("R")), db);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->schema().Contains("X"));
  EXPECT_FALSE(out->schema().Contains("A"));
}

TEST(EvalTest, HashJoinMatchesProductSelect) {
  Database db = MakeDb();
  Predicate join_pred = Predicate::CmpAttr("B", CmpOp::kEq, "C");
  auto join = Evaluate(
      Plan::Join(join_pred, Plan::Scan("R"), Plan::Scan("S")), db);
  auto prod_sel = Evaluate(
      Plan::Select(join_pred, Plan::Product(Plan::Scan("R"), Plan::Scan("S"))),
      db);
  ASSERT_TRUE(join.ok());
  ASSERT_TRUE(prod_sel.ok());
  EXPECT_TRUE(join->EqualsAsSet(*prod_sel));
  EXPECT_EQ(join->NumRows(), 3u);
}

TEST(EvalTest, JoinWithResidualPredicate) {
  Database db = MakeDb();
  Predicate pred = Predicate::And(Predicate::CmpAttr("B", CmpOp::kEq, "C"),
                                  Predicate::Cmp("A", CmpOp::kGt, I(1)));
  auto out =
      Evaluate(Plan::Join(pred, Plan::Scan("R"), Plan::Scan("S")), db);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->NumRows(), 2u);
}

TEST(EvalTest, JoinWithoutEqualityFallsBackToNestedLoop) {
  Database db = MakeDb();
  Predicate pred = Predicate::CmpAttr("B", CmpOp::kLt, "C");
  auto out =
      Evaluate(Plan::Join(pred, Plan::Scan("R"), Plan::Scan("S")), db);
  ASSERT_TRUE(out.ok());
  // B=10 < C=20 (1 row); B=10 < C=10 no; B=20 < 20 no.
  EXPECT_EQ(out->NumRows(), 1u);
}

TEST(EvalTest, OutputSchema) {
  Database db = MakeDb();
  auto s = OutputSchema(
      Plan::Project({"B"}, Plan::Select(Predicate::True(), Plan::Scan("R"))),
      db);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->arity(), 1u);
  EXPECT_EQ(s->attr(0).name_view(), "B");
}

TEST(OptimizerTest, MergesSelectsAndFormsJoin) {
  Database db = MakeDb();
  Plan plan = Plan::Select(
      Predicate::CmpAttr("B", CmpOp::kEq, "C"),
      Plan::Select(Predicate::Cmp("A", CmpOp::kGt, I(0)),
                   Plan::Product(Plan::Scan("R"), Plan::Scan("S"))));
  auto opt = Optimize(plan, db);
  ASSERT_TRUE(opt.ok());
  // Expect a join at the top after fusion.
  EXPECT_EQ(opt->kind(), Plan::Kind::kJoin);
  auto a = Evaluate(plan, db);
  auto b = Evaluate(*opt, db);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->EqualsAsSet(*b));
}

TEST(OptimizerTest, PushesSelectionsIntoProductBranches) {
  Database db = MakeDb();
  Plan plan = Plan::Select(
      Predicate::And(Predicate::Cmp("A", CmpOp::kGt, I(1)),
                     Predicate::Cmp("D", CmpOp::kEq, I(200))),
      Plan::Product(Plan::Scan("R"), Plan::Scan("S")));
  auto opt = Optimize(plan, db);
  ASSERT_TRUE(opt.ok());
  auto a = Evaluate(plan, db);
  auto b = Evaluate(*opt, db);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->EqualsAsSet(*b));
  // Both branch selections must have been pushed below the join.
  EXPECT_EQ(opt->kind(), Plan::Kind::kJoin);
  EXPECT_EQ(opt->left().kind(), Plan::Kind::kSelect);
  EXPECT_EQ(opt->right().kind(), Plan::Kind::kSelect);
}

TEST(OptimizerTest, DistributesSelectOverUnion) {
  Database db = MakeDb();
  Plan plan = Plan::Select(Predicate::Cmp("B", CmpOp::kEq, I(20)),
                           Plan::Union(Plan::Scan("R"), Plan::Scan("R2")));
  auto opt = Optimize(plan, db);
  ASSERT_TRUE(opt.ok());
  EXPECT_EQ(opt->kind(), Plan::Kind::kUnion);
  auto a = Evaluate(plan, db);
  auto b = Evaluate(*opt, db);
  EXPECT_TRUE(a->EqualsAsSet(*b));
}

TEST(PredicateTest, ConjunctsFlattening) {
  Predicate p = Predicate::And(
      Predicate::Cmp("A", CmpOp::kEq, I(1)),
      Predicate::And(Predicate::Cmp("B", CmpOp::kEq, I(2)),
                     Predicate::CmpAttr("A", CmpOp::kLt, "B")));
  EXPECT_EQ(p.Conjuncts().size(), 3u);
  EXPECT_EQ(Predicate::True().Conjuncts().size(), 0u);
}

TEST(PredicateTest, ReferencedAttributes) {
  Predicate p = Predicate::Or(Predicate::Cmp("A", CmpOp::kEq, I(1)),
                              Predicate::CmpAttr("B", CmpOp::kLt, "C"));
  auto attrs = p.ReferencedAttributes();
  EXPECT_EQ(attrs.size(), 3u);
}

TEST(PredicateTest, AndAllEmptyIsTrue) {
  EXPECT_TRUE(Predicate::AndAll({}).is_true());
}

/// The per-row, name-resolving Kleene evaluator that BoundPredicate::EvalTri
/// replaced in the WSDT and uniform operators, kept as the oracle: every
/// attribute is looked up in the schema on each call; a '?' operand makes a
/// comparison unknown.
Result<Tri> ReferenceTri(const Predicate& pred, const Schema& schema,
                         TupleRef row) {
  using K = Predicate::Kind;
  auto decided = [](bool b) { return b ? Tri::kTrue : Tri::kFalse; };
  switch (pred.kind()) {
    case K::kTrue:
      return Tri::kTrue;
    case K::kCmpConst: {
      auto idx = schema.IndexOf(pred.lhs_attr());
      if (!idx) return Status::NotFound("attribute " + pred.lhs_attr());
      if (row[*idx].is_question()) return Tri::kUnknown;
      return decided(row[*idx].Satisfies(pred.op(), pred.constant()));
    }
    case K::kCmpAttr: {
      auto li = schema.IndexOf(pred.lhs_attr());
      auto ri = schema.IndexOf(pred.rhs_attr());
      if (!li || !ri) return Status::NotFound("attribute");
      if (row[*li].is_question() || row[*ri].is_question()) {
        return Tri::kUnknown;
      }
      return decided(row[*li].Satisfies(pred.op(), row[*ri]));
    }
    case K::kAnd: {
      MAYWSD_ASSIGN_OR_RETURN(Tri l, ReferenceTri(pred.left(), schema, row));
      if (l == Tri::kFalse) return Tri::kFalse;
      MAYWSD_ASSIGN_OR_RETURN(Tri r, ReferenceTri(pred.right(), schema, row));
      if (r == Tri::kFalse) return Tri::kFalse;
      return l == Tri::kTrue && r == Tri::kTrue ? Tri::kTrue : Tri::kUnknown;
    }
    case K::kOr: {
      MAYWSD_ASSIGN_OR_RETURN(Tri l, ReferenceTri(pred.left(), schema, row));
      if (l == Tri::kTrue) return Tri::kTrue;
      MAYWSD_ASSIGN_OR_RETURN(Tri r, ReferenceTri(pred.right(), schema, row));
      if (r == Tri::kTrue) return Tri::kTrue;
      return l == Tri::kFalse && r == Tri::kFalse ? Tri::kFalse
                                                  : Tri::kUnknown;
    }
    case K::kNot: {
      MAYWSD_ASSIGN_OR_RETURN(Tri l, ReferenceTri(pred.left(), schema, row));
      if (l == Tri::kUnknown) return Tri::kUnknown;
      return l == Tri::kTrue ? Tri::kFalse : Tri::kTrue;
    }
  }
  return Status::Internal("unknown predicate kind");
}

/// A random predicate over `attrs` (comparisons against 0..2, ∧, ∨, ¬).
Predicate RandomPredicate(Rng& rng, const std::vector<std::string>& attrs,
                          int depth) {
  const CmpOp ops[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt,
                       CmpOp::kLe, CmpOp::kGt, CmpOp::kGe};
  auto attr = [&] { return attrs[rng.Uniform(attrs.size())]; };
  uint64_t pick = depth <= 0 ? rng.Uniform(2) : rng.Uniform(6);
  switch (pick) {
    case 0:
      return Predicate::Cmp(attr(), ops[rng.Uniform(6)],
                            I(static_cast<int64_t>(rng.Uniform(3))));
    case 1:
      return Predicate::CmpAttr(attr(), ops[rng.Uniform(6)], attr());
    case 2:
      return Predicate::And(RandomPredicate(rng, attrs, depth - 1),
                            RandomPredicate(rng, attrs, depth - 1));
    case 3:
      return Predicate::Or(RandomPredicate(rng, attrs, depth - 1),
                           RandomPredicate(rng, attrs, depth - 1));
    case 4:
      return Predicate::Not(RandomPredicate(rng, attrs, depth - 1));
    default:
      return Predicate::True();
  }
}

TEST(PredicateTest, EvalTriMatchesReferenceOnTemplateRows) {
  Schema schema = Schema::FromNames({"A", "B", "C"});
  // Every row over {0, 1, 2, '?'}³: '?' on no side, one side and both
  // sides of each comparison.
  std::vector<std::vector<Value>> rows;
  const Value cells[] = {I(0), I(1), I(2), Value::Question()};
  for (const Value& a : cells) {
    for (const Value& b : cells) {
      for (const Value& c : cells) rows.push_back({a, b, c});
    }
  }
  Rng rng(17);
  for (int trial = 0; trial < 400; ++trial) {
    Predicate pred = RandomPredicate(rng, {"A", "B", "C"}, 3);
    auto bound = BoundPredicate::Bind(pred, schema);
    ASSERT_TRUE(bound.ok()) << pred.ToString();
    for (const auto& cells_of_row : rows) {
      TupleRef row(cells_of_row.data(), cells_of_row.size());
      auto expected = ReferenceTri(pred, schema, row);
      ASSERT_TRUE(expected.ok());
      Tri actual = bound->EvalTri(row);
      ASSERT_EQ(actual, *expected) << pred.ToString() << " on "
                                   << row.ToString();
      bool has_question = false;
      for (const Value& v : cells_of_row) has_question |= v.is_question();
      if (!has_question) {
        // Decided rows: the two-valued evaluation agrees.
        EXPECT_EQ(bound->Eval(row), actual == Tri::kTrue) << pred.ToString();
        continue;
      }
      if (actual == Tri::kUnknown) continue;
      // A decided verdict holds in every completion of the '?' cells.
      for (int fill = 0; fill < 27; ++fill) {
        std::vector<Value> world = cells_of_row;
        int code = fill;
        for (Value& v : world) {
          if (v.is_question()) v = I(code % 3);
          code /= 3;
        }
        EXPECT_EQ(bound->Eval(TupleRef(world.data(), world.size())),
                  actual == Tri::kTrue)
            << pred.ToString() << " on " << row.ToString();
      }
    }
  }
}

TEST(PredicateTest, EvalTriNotAndOrWithUnknowns) {
  Schema schema = Schema::FromNames({"A", "B"});
  std::vector<Value> cells = {Value::Question(), Value::Question()};
  TupleRef row(cells.data(), cells.size());
  auto tri = [&](const Predicate& p) {
    auto bound = BoundPredicate::Bind(p, schema);
    EXPECT_TRUE(bound.ok());
    return bound->EvalTri(row);
  };
  Predicate unknown = Predicate::CmpAttr("A", CmpOp::kEq, "B");
  EXPECT_EQ(tri(unknown), Tri::kUnknown);  // '?' on both sides
  EXPECT_EQ(tri(Predicate::Not(unknown)), Tri::kUnknown);
  EXPECT_EQ(tri(Predicate::Not(Predicate::True())), Tri::kFalse);
  EXPECT_EQ(tri(Predicate::Or(unknown, Predicate::True())), Tri::kTrue);
  EXPECT_EQ(tri(Predicate::And(unknown, Predicate::Not(Predicate::True()))),
            Tri::kFalse);
  EXPECT_EQ(tri(Predicate::And(unknown, Predicate::True())), Tri::kUnknown);
}

TEST(PredicateTest, BindRejectsUnknownAttributes) {
  Schema schema = Schema::FromNames({"A", "B"});
  std::vector<Value> cells = {I(1), Value::Question()};
  TupleRef row(cells.data(), cells.size());
  for (const Predicate& p :
       {Predicate::Cmp("Z", CmpOp::kEq, I(1)),
        Predicate::CmpAttr("A", CmpOp::kEq, "Z"),
        Predicate::Not(Predicate::Cmp("Z", CmpOp::kLt, I(1))),
        Predicate::Or(Predicate::Cmp("B", CmpOp::kEq, I(1)),
                      Predicate::Cmp("Z", CmpOp::kEq, I(1)))}) {
    EXPECT_EQ(BoundPredicate::Bind(p, schema).status().code(),
              StatusCode::kNotFound)
        << p.ToString();
    EXPECT_EQ(ReferenceTri(p, schema, row).status().code(),
              StatusCode::kNotFound)
        << p.ToString();
  }
  // Binding is stricter than the per-row evaluator: a branch that the
  // Kleene short circuit never reaches still has to name real attributes.
  Predicate shadowed = Predicate::And(Predicate::Cmp("A", CmpOp::kEq, I(9)),
                                      Predicate::Cmp("Z", CmpOp::kEq, I(1)));
  EXPECT_EQ(BoundPredicate::Bind(shadowed, schema).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(ReferenceTri(shadowed, schema, row).value(), Tri::kFalse);
}

TEST(PredicateTest, BoundColumnsAreSortedAndDistinct) {
  Schema schema = Schema::FromNames({"A", "B", "C"});
  auto bound = BoundPredicate::Bind(
      Predicate::Or(Predicate::CmpAttr("C", CmpOp::kLt, "A"),
                    Predicate::Not(Predicate::Cmp("C", CmpOp::kEq, I(1)))),
      schema);
  ASSERT_TRUE(bound.ok());
  EXPECT_EQ(bound->columns(), (std::vector<size_t>{0, 2}));
}

}  // namespace
}  // namespace maywsd::rel
