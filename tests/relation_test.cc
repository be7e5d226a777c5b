#include "rel/relation.h"

#include <gtest/gtest.h>

#include "rel/database.h"
#include "tests/test_util.h"

namespace maywsd::rel {
namespace {

using testutil::I;
using testutil::S;

Relation MakeR() {
  Relation r(Schema::FromNames({"A", "B"}), "R");
  r.AppendRow({I(2), I(1)});
  r.AppendRow({I(1), I(1)});
  r.AppendRow({I(2), I(1)});
  return r;
}

TEST(SchemaTest, IndexOfAndContains) {
  Schema s = Schema::FromNames({"A", "B", "C"});
  EXPECT_EQ(s.IndexOf("B"), 1u);
  EXPECT_FALSE(s.IndexOf("Z").has_value());
  EXPECT_TRUE(s.Contains("C"));
}

TEST(SchemaTest, IndexOfDoesNotInternProbeNames) {
  Schema s = Schema::FromNames({"A", "B"});
  size_t before = StringInterner::Global().size();
  EXPECT_FALSE(s.IndexOf("schema-test-probe-never-interned").has_value());
  EXPECT_FALSE(s.Contains("schema-test-probe-never-interned"));
  EXPECT_EQ(StringInterner::Global().size(), before);
  // An interned name that is not an attribute still misses.
  InternString("schema-test-other");
  EXPECT_FALSE(s.IndexOf("schema-test-other").has_value());
}

TEST(SchemaTest, AddDuplicateAttributeFails) {
  Schema s = Schema::FromNames({"A"});
  EXPECT_EQ(s.AddAttribute(Attribute("A")).code(),
            StatusCode::kAlreadyExists);
}

TEST(SchemaTest, ProjectKeepsOrder) {
  Schema s = Schema::FromNames({"A", "B", "C"});
  auto p = s.Project({"C", "A"});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->attr(0).name_view(), "C");
  EXPECT_EQ(p->attr(1).name_view(), "A");
  EXPECT_FALSE(s.Project({"Z"}).ok());
}

TEST(SchemaTest, RenameAndCollision) {
  Schema s = Schema::FromNames({"A", "B"});
  auto r = s.Rename("A", "X");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->Contains("X"));
  EXPECT_FALSE(r->Contains("A"));
  EXPECT_EQ(s.Rename("A", "B").status().code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(s.Rename("Z", "Y").status().code(), StatusCode::kNotFound);
}

TEST(SchemaTest, ConcatRequiresDisjointNames) {
  Schema a = Schema::FromNames({"A"});
  Schema b = Schema::FromNames({"B"});
  EXPECT_TRUE(a.Concat(b).ok());
  EXPECT_FALSE(a.Concat(a).ok());
}

TEST(RelationTest, AppendAndAccess) {
  Relation r = MakeR();
  EXPECT_EQ(r.NumRows(), 3u);
  EXPECT_EQ(r.row(0)[0], I(2));
  EXPECT_EQ(r.row(1)[1], I(1));
}

TEST(RelationTest, SortDedup) {
  Relation r = MakeR();
  r.SortDedup();
  EXPECT_EQ(r.NumRows(), 2u);
  EXPECT_TRUE(r.IsSetNormalized());
  EXPECT_EQ(r.row(0)[0], I(1));
  EXPECT_EQ(r.row(1)[0], I(2));
}

TEST(RelationTest, ContainsRow) {
  Relation r = MakeR();
  std::vector<Value> probe{I(1), I(1)};
  EXPECT_TRUE(r.ContainsRow(probe));
  probe[1] = I(9);
  EXPECT_FALSE(r.ContainsRow(probe));
}

TEST(RelationTest, EqualsAsSetIgnoresOrderAndDuplicates) {
  Relation a = MakeR();
  Relation b(Schema::FromNames({"A", "B"}), "R2");
  b.AppendRow({I(1), I(1)});
  b.AppendRow({I(2), I(1)});
  EXPECT_TRUE(a.EqualsAsSet(b));
  b.AppendRow({I(3), I(3)});
  EXPECT_FALSE(a.EqualsAsSet(b));
}

TEST(RelationTest, AppendRowCheckedTypes) {
  Relation r(Schema({Attribute("A", AttrType::kInt),
                     Attribute("B", AttrType::kString)}),
             "T");
  std::vector<Value> good{I(1), S("x")};
  EXPECT_TRUE(r.AppendRowChecked(good).ok());
  std::vector<Value> bad{S("x"), S("y")};
  EXPECT_EQ(r.AppendRowChecked(bad).code(), StatusCode::kInvalidArgument);
  std::vector<Value> wrong_arity{I(1)};
  EXPECT_EQ(r.AppendRowChecked(wrong_arity).code(),
            StatusCode::kInvalidArgument);
  // ⊥ and ? are allowed in any typed column.
  std::vector<Value> special{Value::Bottom(), Value::Question()};
  EXPECT_TRUE(r.AppendRowChecked(special).ok());
}

TEST(RelationTest, TupleRefHasBottom) {
  Relation r(Schema::FromNames({"A", "B"}), "T");
  r.AppendRow({I(1), Value::Bottom()});
  r.AppendRow({I(1), I(2)});
  EXPECT_TRUE(r.row(0).HasBottom());
  EXPECT_FALSE(r.row(1).HasBottom());
}

TEST(RelationTest, SetCell) {
  Relation r = MakeR();
  r.SetCell(0, 1, I(99));
  EXPECT_EQ(r.row(0)[1], I(99));
}

TEST(RelationTest, RetainRowsCompactsInPlaceAndKeepsSharingWhenNothingGoes) {
  Relation r = MakeR();
  Relation shared = r;
  // Nothing removed: the copy-on-write storage stays shared.
  EXPECT_EQ(r.RetainRows([](TupleRef) { return true; }), 0u);
  EXPECT_TRUE(r.SharesDataWith(shared));
  // Every row visited once, in order; survivors keep their order.
  std::vector<Value> seen;
  EXPECT_EQ(r.RetainRows([&](TupleRef row) {
              seen.push_back(row[0]);
              return row[0] == I(2);
            }),
            1u);
  EXPECT_EQ(seen, (std::vector<Value>{I(2), I(1), I(2)}));
  ASSERT_EQ(r.NumRows(), 2u);
  EXPECT_EQ(r.row(0)[0], I(2));
  EXPECT_EQ(r.row(1)[0], I(2));
  EXPECT_FALSE(r.SharesDataWith(shared));
  EXPECT_EQ(shared.NumRows(), 3u);
  EXPECT_EQ(r.RetainRows([](TupleRef) { return false; }), 2u);
  EXPECT_TRUE(r.empty());
}

TEST(DatabaseTest, AddGetDrop) {
  Database db;
  EXPECT_TRUE(db.AddRelation(MakeR()).ok());
  EXPECT_EQ(db.AddRelation(MakeR()).code(), StatusCode::kAlreadyExists);
  EXPECT_TRUE(db.GetRelation("R").ok());
  EXPECT_EQ(db.GetRelation("Z").status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(db.DropRelation("R").ok());
  EXPECT_FALSE(db.Contains("R"));
}

TEST(DatabaseTest, EqualsAsWorld) {
  Database a, b;
  a.PutRelation(MakeR());
  Relation r2 = MakeR();
  r2.SortDedup();
  b.PutRelation(r2);
  EXPECT_TRUE(a.EqualsAsWorld(b));  // set semantics
  Relation extra(Schema::FromNames({"X"}), "S");
  b.PutRelation(extra);
  EXPECT_FALSE(a.EqualsAsWorld(b));
}

}  // namespace
}  // namespace maywsd::rel
