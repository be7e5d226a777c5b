#include "core/wsd.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace maywsd::core {
namespace {

using testutil::I;
using testutil::S;

/// The introduction's census forms (Example 1): two tuples over R[S,N,M],
/// each field an independent component — 2·1·2·2·1·4 = 32 worlds.
Wsd IntroWsd() {
  Wsd wsd;
  EXPECT_TRUE(wsd.AddRelation("R", rel::Schema::FromNames({"S", "N", "M"}), 2)
                  .ok());
  auto add1 = [&](TupleId t, const char* attr,
                  std::vector<rel::Value> values) {
    Component comp({FieldKey("R", t, attr)});
    double p = 1.0 / static_cast<double>(values.size());
    for (const rel::Value& v : values) comp.AddWorld({v}, p);
    EXPECT_TRUE(wsd.AddComponent(std::move(comp)).ok());
  };
  add1(0, "S", {I(185), I(785)});
  add1(0, "N", {S("Smith")});
  add1(0, "M", {I(1), I(2)});
  add1(1, "S", {I(185), I(186)});
  add1(1, "N", {S("Brown")});
  add1(1, "M", {I(1), I(2), I(3), I(4)});
  return wsd;
}

TEST(WsdTest, IntroExampleHas32Worlds) {
  Wsd wsd = IntroWsd();
  EXPECT_TRUE(wsd.Validate().ok());
  EXPECT_EQ(wsd.NumLiveComponents(), 6u);
  EXPECT_EQ(wsd.WorldCombinationCount(1000), 32u);
  auto worlds = wsd.EnumerateWorlds(100);
  ASSERT_TRUE(worlds.ok());
  EXPECT_EQ(worlds->size(), 32u);
  double total = 0;
  for (const auto& w : *worlds) total += w.prob;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(WsdTest, AddComponentValidation) {
  Wsd wsd;
  ASSERT_TRUE(
      wsd.AddRelation("R", rel::Schema::FromNames({"A"}), 1).ok());
  // Unknown relation.
  Component c1({FieldKey("Z", 0, "A")});
  c1.AddWorld({I(1)}, 1.0);
  EXPECT_EQ(wsd.AddComponent(std::move(c1)).code(), StatusCode::kNotFound);
  // Unknown attribute.
  Component c2({FieldKey("R", 0, "Z")});
  c2.AddWorld({I(1)}, 1.0);
  EXPECT_EQ(wsd.AddComponent(std::move(c2)).code(), StatusCode::kNotFound);
  // Tuple id out of range.
  Component c3({FieldKey("R", 5, "A")});
  c3.AddWorld({I(1)}, 1.0);
  EXPECT_EQ(wsd.AddComponent(std::move(c3)).code(),
            StatusCode::kInvalidArgument);
  // Good one, then a duplicate field.
  Component c4({FieldKey("R", 0, "A")});
  c4.AddWorld({I(1)}, 1.0);
  EXPECT_TRUE(wsd.AddComponent(std::move(c4)).ok());
  Component c5({FieldKey("R", 0, "A")});
  c5.AddWorld({I(2)}, 1.0);
  EXPECT_EQ(wsd.AddComponent(std::move(c5)).code(),
            StatusCode::kAlreadyExists);
}

TEST(WsdTest, ComposeInPlacePreservesRep) {
  Wsd wsd = IntroWsd();
  auto before = wsd.EnumerateWorlds(100).value();
  // Compose the components of R.t0.S and R.t1.S.
  FieldLoc a = wsd.Locate(FieldKey("R", 0, "S")).value();
  FieldLoc b = wsd.Locate(FieldKey("R", 1, "S")).value();
  ASSERT_TRUE(wsd.ComposeInPlace(a.comp, b.comp).ok());
  EXPECT_TRUE(wsd.Validate().ok());
  EXPECT_EQ(wsd.NumLiveComponents(), 5u);
  auto after = wsd.EnumerateWorlds(100).value();
  EXPECT_TRUE(WorldSetsEquivalent(before, after));
}

TEST(WsdTest, DropFieldRemovesEmptyComponent) {
  Wsd wsd = IntroWsd();
  size_t before = wsd.NumLiveComponents();
  ASSERT_TRUE(wsd.DropField(FieldKey("R", 0, "N")).ok());
  EXPECT_EQ(wsd.NumLiveComponents(), before - 1);
  EXPECT_FALSE(wsd.HasField(FieldKey("R", 0, "N")));
}

TEST(WsdTest, DropRelationRemovesAllFields) {
  Wsd wsd = IntroWsd();
  ASSERT_TRUE(
      wsd.AddRelation("P", rel::Schema::FromNames({"X"}), 1).ok());
  Component comp({FieldKey("P", 0, "X")});
  comp.AddWorld({I(9)}, 1.0);
  ASSERT_TRUE(wsd.AddComponent(std::move(comp)).ok());
  ASSERT_TRUE(wsd.DropRelation("P").ok());
  EXPECT_FALSE(wsd.HasRelation("P"));
  EXPECT_TRUE(wsd.Validate().ok());
  EXPECT_EQ(wsd.EnumerateWorlds(100)->size(), 32u);
}

TEST(WsdTest, SlotPresentAndFieldsOfTuple) {
  Wsd wsd = IntroWsd();
  const WsdRelation* r = wsd.FindRelation("R").value();
  EXPECT_TRUE(wsd.SlotPresent(*r, 0));
  EXPECT_TRUE(wsd.SlotPresent(*r, 1));
  EXPECT_EQ(wsd.FieldsOfTuple(*r, 0).size(), 3u);
}

TEST(WsdTest, MultiFieldComponentCorrelatesValues) {
  // A two-field component representing a perfectly correlated pair.
  Wsd wsd;
  ASSERT_TRUE(
      wsd.AddRelation("R", rel::Schema::FromNames({"A", "B"}), 1).ok());
  Component comp({FieldKey("R", 0, "A"), FieldKey("R", 0, "B")});
  comp.AddWorld({I(0), I(0)}, 0.5);
  comp.AddWorld({I(1), I(1)}, 0.5);
  ASSERT_TRUE(wsd.AddComponent(std::move(comp)).ok());
  auto worlds = wsd.EnumerateWorlds(10).value();
  ASSERT_EQ(worlds.size(), 2u);
  for (const auto& w : worlds) {
    const rel::Relation* r = w.db.GetRelation("R").value();
    ASSERT_EQ(r->NumRows(), 1u);
    EXPECT_EQ(r->row(0)[0], r->row(0)[1]);  // always correlated
  }
}

TEST(WsdTest, BottomTupleDroppedFromWorlds) {
  // Component with a ⊥ local world: the tuple exists in only one world.
  Wsd wsd;
  ASSERT_TRUE(
      wsd.AddRelation("R", rel::Schema::FromNames({"A"}), 1).ok());
  Component comp({FieldKey("R", 0, "A")});
  comp.AddWorld({I(7)}, 0.6);
  comp.AddWorld({testutil::Bot()}, 0.4);
  ASSERT_TRUE(wsd.AddComponent(std::move(comp)).ok());
  auto worlds = CollapseWorlds(wsd.EnumerateWorlds(10).value());
  ASSERT_EQ(worlds.size(), 2u);
  // One world has the tuple (p=0.6), the other is empty (p=0.4).
  size_t empty = 0, full = 0;
  for (const auto& w : worlds) {
    size_t n = w.db.GetRelation("R").value()->NumRows();
    if (n == 0) {
      ++empty;
      EXPECT_NEAR(w.prob, 0.4, 1e-9);
    } else {
      ++full;
      EXPECT_NEAR(w.prob, 0.6, 1e-9);
    }
  }
  EXPECT_EQ(empty, 1u);
  EXPECT_EQ(full, 1u);
}

TEST(WsdTest, ValidatePartialSlotFails) {
  Wsd wsd;
  ASSERT_TRUE(
      wsd.AddRelation("R", rel::Schema::FromNames({"A", "B"}), 1).ok());
  Component comp({FieldKey("R", 0, "A")});
  comp.AddWorld({I(1)}, 1.0);
  ASSERT_TRUE(wsd.AddComponent(std::move(comp)).ok());
  // B is uncovered: partial slot.
  EXPECT_EQ(wsd.Validate().code(), StatusCode::kInternal);
}

TEST(WsdTest, ReplaceComponentChecksFieldSet) {
  Wsd wsd = IntroWsd();
  FieldLoc loc = wsd.Locate(FieldKey("R", 0, "S")).value();
  // Replacement with wrong fields fails.
  Component wrong({FieldKey("R", 0, "M")});
  wrong.AddWorld({I(1)}, 1.0);
  EXPECT_FALSE(wsd.ReplaceComponent(loc.comp, {wrong}).ok());
  // Replacement with the same field succeeds.
  Component right({FieldKey("R", 0, "S")});
  right.AddWorld({I(185)}, 0.5);
  right.AddWorld({I(785)}, 0.5);
  EXPECT_TRUE(wsd.ReplaceComponent(loc.comp, {right}).ok());
  EXPECT_TRUE(wsd.Validate().ok());
}

}  // namespace
}  // namespace maywsd::core
