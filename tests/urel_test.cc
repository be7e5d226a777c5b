// The columnar U-relations store (core/urel.h) and its WorldSetOps
// adapter: dictionary interning, descriptor semantics of the positive-RA
// rewritings (conflicting-descriptor pairs vanish), the Section 6 answer
// surface via descriptor-aware aggregation, the ⇄ WSDT conversions as a
// world-set-preserving round trip, ValidateUrel's integrity checks, and
// the round-trip counter: positive RA and world-conditional updates must
// run with ZERO import/export round trips; only an assignment expansion
// past the cap takes exactly one.

#include "core/urel.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "api/session.h"
#include "core/engine/plan_driver.h"
#include "core/engine/update_plan.h"
#include "core/engine/urel_backend.h"
#include "core/worldset.h"
#include "tests/test_util.h"

namespace maywsd::core {
namespace {

using rel::CmpOp;
using rel::Plan;
using rel::Predicate;
using rel::UpdateOp;
using testutil::I;
using testutil::RelSpec;
using testutil::S;
using testutil::SeededRng;

/// Two independent variables x (P(0)=0.4, P(1)=0.6) and y (fair coin);
/// R{A,B} = {(1,1) certain, (2,2) iff x=0, (3,3) iff x=1 ∧ y=0}.
struct SmallStore {
  Urel u;
  VarId x;
  VarId y;
};

SmallStore MakeSmallStore() {
  SmallStore s;
  s.x = s.u.AddVariable({0.4, 0.6});
  s.y = s.u.AddVariable({0.5, 0.5});
  UrelRelation r;
  r.name = "R";
  r.schema = rel::Schema::FromNames({"A", "B"});
  r.columns.resize(2);
  std::vector<UrelValueId> row = {s.u.Intern(I(1)), s.u.Intern(I(1))};
  r.AppendTuple(row, {});
  row = {s.u.Intern(I(2)), s.u.Intern(I(2))};
  UrelDescEntry if_x0[] = {{s.x, 0}};
  r.AppendTuple(row, if_x0);
  row = {s.u.Intern(I(3)), s.u.Intern(I(3))};
  UrelDescEntry if_x1_y0[] = {{s.x, 1}, {s.y, 0}};
  r.AppendTuple(row, if_x1_y0);
  EXPECT_TRUE(s.u.Add(std::move(r)).ok());
  EXPECT_TRUE(ValidateUrel(s.u).ok());
  return s;
}

/// Adds S{C} = {(2) iff x=1, (3) certain} to `s`.
void AddProbeRelation(SmallStore& s) {
  UrelRelation rel;
  rel.name = "S";
  rel.schema = rel::Schema::FromNames({"C"});
  rel.columns.resize(1);
  std::vector<UrelValueId> row = {s.u.Intern(I(2))};
  UrelDescEntry if_x1[] = {{s.x, 1}};
  rel.AppendTuple(row, if_x1);
  row = {s.u.Intern(I(3))};
  rel.AppendTuple(row, {});
  ASSERT_TRUE(s.u.Add(std::move(rel)).ok());
}

/// Adds a one-column relation `name`{C} whose rows hold the values
/// 100, 101, ... under the given descriptors.
void AddGuardRelation(Urel& u, const std::string& name,
                      const std::vector<std::vector<UrelDescEntry>>& descs) {
  UrelRelation g;
  g.name = name;
  g.schema = rel::Schema::FromNames({"C"});
  g.columns.resize(1);
  for (size_t i = 0; i < descs.size(); ++i) {
    std::vector<UrelValueId> row = {
        u.Intern(I(100 + static_cast<int64_t>(i)))};
    g.AppendTuple(row, descs[i]);
  }
  ASSERT_TRUE(u.Add(std::move(g)).ok());
}

double Conf(const Urel& u, const std::string& rel,
            std::vector<rel::Value> tuple) {
  auto conf = UrelTupleConfidence(u, rel, tuple);
  EXPECT_TRUE(conf.ok()) << conf.status();
  return conf.ok() ? *conf : -1.0;
}

TEST(UrelStoreTest, DictionaryInternsByValueEquality) {
  Urel u;
  UrelValueId a = u.Intern(I(1));
  EXPECT_EQ(u.Intern(I(1)), a);
  // Value equality treats 1 == 1.0, so the ids must coincide — id equality
  // is what the select/join fast paths rely on.
  EXPECT_EQ(u.Intern(rel::Value::Double(1.0)), a);
  EXPECT_NE(u.Intern(I(2)), a);
  EXPECT_NE(u.Intern(S("1")), a);
  EXPECT_EQ(u.ValueAt(a), I(1));
  EXPECT_EQ(u.DictionarySize(), 3u);
}

TEST(UrelStoreTest, CatalogAndDescriptors) {
  SmallStore s = MakeSmallStore();
  EXPECT_TRUE(s.u.Contains("R"));
  EXPECT_EQ(s.u.Names(), std::vector<std::string>{"R"});
  EXPECT_EQ(s.u.NumVariables(), 2u);
  EXPECT_NEAR(s.u.Domain(s.x)[1], 0.6, 1e-12);

  auto r = s.u.Get("R");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->NumRows(), 3u);
  EXPECT_TRUE((*r)->Descriptor(0).empty());
  ASSERT_EQ((*r)->Descriptor(2).size(), 2u);
  EXPECT_EQ((*r)->Descriptor(2)[0], (UrelDescEntry{s.x, 1}));
  // TIDs are stable and dense on a fresh relation.
  EXPECT_EQ((*r)->tids, (std::vector<int64_t>{0, 1, 2}));

  std::vector<rel::Value> row;
  s.u.MaterializeRow(**r, 1, row);
  EXPECT_EQ(row, (std::vector<rel::Value>{I(2), I(2)}));

  EXPECT_FALSE(s.u.Get("NOPE").ok());
  ASSERT_TRUE(s.u.Drop("R").ok());
  EXPECT_FALSE(s.u.Contains("R"));
}

TEST(UrelOperatorTest, SelectFiltersRowsDescriptorsVerbatim) {
  SmallStore s = MakeSmallStore();
  ASSERT_TRUE(UrelSelectConst(s.u, "R", "OUT", "A", CmpOp::kGe, I(2)).ok());
  auto out = s.u.Get("OUT");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)->NumRows(), 2u);
  EXPECT_EQ((*out)->Descriptor(0).size(), 1u);  // (2,2) kept with x=0
  EXPECT_EQ((*out)->Descriptor(1).size(), 2u);  // (3,3) kept with x=1 ∧ y=0
  EXPECT_TRUE(ValidateUrel(s.u).ok());

  // Predicate trees go through the memoized bitmap path.
  ASSERT_TRUE(UrelSelectPredicate(
                  s.u, "R", "OUT2",
                  Predicate::Or(Predicate::Cmp("A", CmpOp::kEq, I(1)),
                                Predicate::CmpAttr("A", CmpOp::kNe, "B")))
                  .ok());
  auto out2 = s.u.Get("OUT2");
  ASSERT_TRUE(out2.ok());
  EXPECT_EQ((*out2)->NumRows(), 1u);  // only (1,1)
}

TEST(UrelOperatorTest, ProductDropsContradictoryDescriptorPairs) {
  SmallStore s = MakeSmallStore();
  AddProbeRelation(s);
  ASSERT_TRUE(UrelProduct(s.u, "R", "S", "OUT").ok());
  auto out = s.u.Get("OUT");
  ASSERT_TRUE(out.ok());
  // 3 × 2 = 6 candidate pairs; (2,2)[x=0] × (2)[x=1] assigns x two values
  // and exists in no world — it must be dropped, leaving 5.
  EXPECT_EQ((*out)->NumRows(), 5u);
  EXPECT_TRUE(ValidateUrel(s.u).ok());
  // The merged descriptor of (3,3)[x=1 ∧ y=0] × (2)[x=1] is deduplicated
  // and canonical: exactly {x=1, y=0}.
  const UrelRelation& o = **out;
  bool found = false;
  std::vector<rel::Value> row;
  for (size_t i = 0; i < o.NumRows(); ++i) {
    s.u.MaterializeRow(o, i, row);
    if (row == std::vector<rel::Value>{I(3), I(3), I(2)}) {
      found = true;
      ASSERT_EQ(o.Descriptor(i).size(), 2u);
      EXPECT_EQ(o.Descriptor(i)[0], (UrelDescEntry{s.x, 1}));
      EXPECT_EQ(o.Descriptor(i)[1], (UrelDescEntry{s.y, 0}));
    }
  }
  EXPECT_TRUE(found);
}

TEST(UrelOperatorTest, JoinProbesOnDictionaryIds) {
  SmallStore s = MakeSmallStore();
  AddProbeRelation(s);
  ASSERT_TRUE(UrelJoin(s.u, "R", "S", "OUT", "A", "C").ok());
  auto out = s.u.Get("OUT");
  ASSERT_TRUE(out.ok());
  // A=2 meets C=2 but x=0 contradicts x=1 (dropped); A=3 meets the certain
  // C=3 and survives with R's descriptor.
  ASSERT_EQ((*out)->NumRows(), 1u);
  std::vector<rel::Value> row;
  s.u.MaterializeRow(**out, 0, row);
  EXPECT_EQ(row, (std::vector<rel::Value>{I(3), I(3), I(3)}));
  EXPECT_EQ((*out)->Descriptor(0).size(), 2u);
}

TEST(UrelOperatorTest, UnionProjectRenameAreDescriptorCopies) {
  SmallStore s = MakeSmallStore();
  ASSERT_TRUE(UrelCopy(s.u, "R", "R2").ok());
  ASSERT_TRUE(UrelUnion(s.u, "R", "R2", "U").ok());
  auto u_out = s.u.Get("U");
  ASSERT_TRUE(u_out.ok());
  EXPECT_EQ((*u_out)->NumRows(), 6u);

  ASSERT_TRUE(UrelProject(s.u, "R", "P", {"B"}).ok());
  auto p_out = s.u.Get("P");
  ASSERT_TRUE(p_out.ok());
  EXPECT_EQ((*p_out)->schema.arity(), 1u);
  EXPECT_EQ((*p_out)->NumRows(), 3u);
  EXPECT_EQ((*p_out)->Descriptor(2).size(), 2u);

  ASSERT_TRUE(UrelRename(s.u, "R", "N", {{"A", "X"}}).ok());
  auto n_out = s.u.Get("N");
  ASSERT_TRUE(n_out.ok());
  EXPECT_TRUE((*n_out)->schema.Contains("X"));
  EXPECT_FALSE((*n_out)->schema.Contains("A"));
  EXPECT_TRUE(ValidateUrel(s.u).ok());
}

TEST(UrelOperatorTest, DifferenceExpandsOverInvolvedAssignments) {
  SmallStore s = MakeSmallStore();
  // R2 = {(1,1) iff y=1}: R − R2 keeps (1,1) exactly where y=0.
  UrelRelation r2;
  r2.name = "R2";
  r2.schema = rel::Schema::FromNames({"A", "B"});
  r2.columns.resize(2);
  std::vector<UrelValueId> row = {s.u.Intern(I(1)), s.u.Intern(I(1))};
  UrelDescEntry if_y1[] = {{s.y, 1}};
  r2.AppendTuple(row, if_y1);
  ASSERT_TRUE(s.u.Add(std::move(r2)).ok());

  ASSERT_TRUE(UrelDifference(s.u, "R", "R2", "OUT").ok());
  EXPECT_TRUE(ValidateUrel(s.u).ok());
  std::vector<rel::Value> one_one = {I(1), I(1)};
  auto conf = UrelTupleConfidence(s.u, "OUT", one_one);
  ASSERT_TRUE(conf.ok());
  EXPECT_NEAR(*conf, 0.5, 1e-12);
  // The untouched uncertain tuples ride through with their confidences.
  std::vector<rel::Value> three = {I(3), I(3)};
  conf = UrelTupleConfidence(s.u, "OUT", three);
  ASSERT_TRUE(conf.ok());
  EXPECT_NEAR(*conf, 0.3, 1e-12);
}

TEST(UrelAnswerTest, PossibleCertainAndConfidence) {
  SmallStore s = MakeSmallStore();
  auto possible = UrelPossibleTuples(s.u, "R");
  ASSERT_TRUE(possible.ok());
  EXPECT_EQ(possible->NumRows(), 3u);

  auto certain = UrelCertainTuples(s.u, "R");
  ASSERT_TRUE(certain.ok());
  ASSERT_EQ(certain->NumRows(), 1u);
  EXPECT_TRUE(certain->ContainsRow(std::vector<rel::Value>{I(1), I(1)}));

  std::vector<rel::Value> two = {I(2), I(2)};
  auto conf = UrelTupleConfidence(s.u, "R", two);
  ASSERT_TRUE(conf.ok());
  EXPECT_NEAR(*conf, 0.4, 1e-12);  // P(x=0)
  std::vector<rel::Value> three = {I(3), I(3)};
  conf = UrelTupleConfidence(s.u, "R", three);
  ASSERT_TRUE(conf.ok());
  EXPECT_NEAR(*conf, 0.3, 1e-12);  // P(x=1)·P(y=0)
  std::vector<rel::Value> absent = {I(9), I(9)};
  conf = UrelTupleConfidence(s.u, "R", absent);
  ASSERT_TRUE(conf.ok());
  EXPECT_EQ(*conf, 0.0);

  auto is_certain = UrelTupleCertain(s.u, "R", two);
  ASSERT_TRUE(is_certain.ok());
  EXPECT_FALSE(*is_certain);

  auto with_conf = UrelPossibleTuplesWithConfidence(s.u, "R");
  ASSERT_TRUE(with_conf.ok());
  EXPECT_EQ(with_conf->arity(), 3u);  // A, B, conf
}

TEST(UrelUpdateTest, NativeUnconditionalUpdates) {
  SmallStore s = MakeSmallStore();
  rel::Relation fresh(rel::Schema::FromNames({"A", "B"}), "fresh");
  fresh.AppendRow({I(7), I(7)});
  ASSERT_TRUE(UrelInsert(s.u, "R", fresh).ok());
  std::vector<rel::Value> seven = {I(7), I(7)};
  auto conf = UrelTupleConfidence(s.u, "R", seven);
  ASSERT_TRUE(conf.ok());
  EXPECT_EQ(*conf, 1.0);  // inserted in every world

  ASSERT_TRUE(
      UrelModifyWhere(s.u, "R", Predicate::Cmp("A", CmpOp::kEq, I(2)),
                      std::vector<rel::Assignment>{{"B", I(8)}})
          .ok());
  std::vector<rel::Value> modified = {I(2), I(8)};
  conf = UrelTupleConfidence(s.u, "R", modified);
  ASSERT_TRUE(conf.ok());
  EXPECT_NEAR(*conf, 0.4, 1e-12);  // descriptor untouched

  auto before = s.u.Get("R");
  ASSERT_TRUE(before.ok());
  int64_t surviving_tid = (*before)->tids[2];
  ASSERT_TRUE(
      UrelDeleteWhere(s.u, "R", Predicate::Cmp("A", CmpOp::kLt, I(3))).ok());
  auto after = s.u.Get("R");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ((*after)->NumRows(), 2u);  // (3,3) and (7,7)
  // Deletes keep survivors' TIDs stable instead of renumbering.
  EXPECT_EQ((*after)->tids[0], surviving_tid);
  EXPECT_TRUE(ValidateUrel(s.u).ok());
}

TEST(UrelUpdateTest, GuardedUpdatesRewriteDescriptors) {
  SmallStore s = MakeSmallStore();
  AddGuardRelation(s.u, "G", {{{s.y, 1}}});  // non-empty iff y=1
  const size_t dict_before = s.u.DictionarySize();

  // delete where A=1 when G: the certain (1,1) survives exactly where y=0,
  // under a fresh TID (its descriptor changed).
  ASSERT_TRUE(UrelDeleteWhere(s.u, "R", Predicate::Cmp("A", CmpOp::kEq, I(1)),
                              "G")
                  .ok());
  EXPECT_NEAR(Conf(s.u, "R", {I(1), I(1)}), 0.5, 1e-12);
  auto r = s.u.Get("R");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->NumRows(), 3u);
  EXPECT_EQ((*r)->tids, (std::vector<int64_t>{3, 1, 2}));
  EXPECT_EQ((*r)->next_tid, 4);
  ASSERT_TRUE(ValidateUrel(s.u).ok());

  // modify set B=9 where A=2 when G: (2,2) iff x=0 splits into (2,9)
  // under x=0 ∧ y=1 and (2,2) under x=0 ∧ y=0.
  ASSERT_TRUE(UrelModifyWhere(s.u, "R", Predicate::Cmp("A", CmpOp::kEq, I(2)),
                              std::vector<rel::Assignment>{{"B", I(9)}}, "G")
                  .ok());
  EXPECT_NEAR(Conf(s.u, "R", {I(2), I(9)}), 0.2, 1e-12);
  EXPECT_NEAR(Conf(s.u, "R", {I(2), I(2)}), 0.2, 1e-12);
  // (3,3) iff x=1 ∧ y=0 did not match: untouched, TID kept.
  EXPECT_NEAR(Conf(s.u, "R", {I(3), I(3)}), 0.3, 1e-12);
  r = s.u.Get("R");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->NumRows(), 4u);
  EXPECT_EQ((*r)->tids.back(), 2);
  ASSERT_TRUE(ValidateUrel(s.u).ok());

  // insert (7,7) when G: once under each of G's descriptors.
  rel::Relation fresh(rel::Schema::FromNames({"A", "B"}), "fresh");
  fresh.AppendRow({I(7), I(7)});
  ASSERT_TRUE(UrelInsert(s.u, "R", fresh, "G").ok());
  EXPECT_NEAR(Conf(s.u, "R", {I(7), I(7)}), 0.5, 1e-12);
  ASSERT_TRUE(ValidateUrel(s.u).ok());
  EXPECT_EQ(s.u.DictionarySize(), dict_before + 2);  // 9 and 7

  // A descriptor G already implies is covered whole: the row keeps its
  // TID and takes the new values.
  r = s.u.Get("R");
  ASSERT_TRUE(r.ok());
  const int64_t seven_tid = (*r)->tids.back();
  ASSERT_TRUE(UrelModifyWhere(s.u, "R", Predicate::Cmp("A", CmpOp::kEq, I(7)),
                              std::vector<rel::Assignment>{{"B", I(8)}}, "G")
                  .ok());
  EXPECT_NEAR(Conf(s.u, "R", {I(7), I(8)}), 0.5, 1e-12);
  EXPECT_EQ(Conf(s.u, "R", {I(7), I(7)}), 0.0);
  r = s.u.Get("R");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->tids.back(), seven_tid);
}

TEST(UrelUpdateTest, CertainAndEmptyGuardsReduceToPlainUpdates) {
  SmallStore s = MakeSmallStore();
  AddGuardRelation(s.u, "ALWAYS", {{{s.y, 1}}, {}});  // one certain row
  AddGuardRelation(s.u, "NEVER", {});
  auto before = s.u.Get("R");
  ASSERT_TRUE(before.ok());
  const UrelRelation snapshot = **before;

  ASSERT_TRUE(UrelDeleteWhere(s.u, "R", Predicate::True(), "NEVER").ok());
  rel::Relation fresh(rel::Schema::FromNames({"A", "B"}), "fresh");
  fresh.AppendRow({I(7), I(7)});
  ASSERT_TRUE(UrelInsert(s.u, "R", fresh, "NEVER").ok());
  auto after = s.u.Get("R");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ((*after)->tids, snapshot.tids);
  EXPECT_EQ((*after)->desc_entries, snapshot.desc_entries);

  // A certain guard row: the delete is unconditional, survivors keep TIDs.
  ASSERT_TRUE(UrelDeleteWhere(s.u, "R", Predicate::Cmp("A", CmpOp::kLt, I(3)),
                              "ALWAYS")
                  .ok());
  after = s.u.Get("R");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ((*after)->tids, (std::vector<int64_t>{2}));
  ASSERT_TRUE(UrelInsert(s.u, "R", fresh, "ALWAYS").ok());
  EXPECT_EQ(Conf(s.u, "R", {I(7), I(7)}), 1.0);
}

/// Adds two fresh variables whose joint assignments (1024 · 1025) just
/// exceed the 2^20 assignment cap.
std::pair<VarId, VarId> AddWideVariables(Urel& u) {
  VarId a = u.AddVariable(std::vector<double>(1024, 1.0 / 1024));
  VarId b = u.AddVariable(std::vector<double>(1025, 1.0 / 1025));
  return {a, b};
}

/// Adds the two wide variables and a guard relation `name` that is
/// non-empty iff either takes value 0.
void AddWideGuard(Urel& u, const std::string& name) {
  auto [a, b] = AddWideVariables(u);
  AddGuardRelation(u, name, {{{a, 0}}, {{b, 0}}});
}

TEST(UrelUpdateTest, ExpansionPastTheCapLeavesTheStoreUntouched) {
  SmallStore s = MakeSmallStore();
  AddWideGuard(s.u, "WIDE");
  auto before = s.u.Get("R");
  ASSERT_TRUE(before.ok());
  const UrelRelation snapshot = **before;
  const size_t dict_before = s.u.DictionarySize();

  Status st = UrelDeleteWhere(s.u, "R", Predicate::True(), "WIDE");
  EXPECT_EQ(st.code(), StatusCode::kUnsupported) << st;
  st = UrelModifyWhere(s.u, "R", Predicate::True(),
                       std::vector<rel::Assignment>{{"B", I(12345)}}, "WIDE");
  EXPECT_EQ(st.code(), StatusCode::kUnsupported) << st;

  auto after = s.u.Get("R");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *before);  // the catalog entry was never replaced
  EXPECT_EQ((*after)->tids, snapshot.tids);
  EXPECT_EQ((*after)->columns, snapshot.columns);
  EXPECT_EQ((*after)->desc_entries, snapshot.desc_entries);
  EXPECT_EQ(s.u.DictionarySize(), dict_before);
  EXPECT_FALSE(s.u.Find(I(12345)).has_value());
}

TEST(UrelAnswerTest, ConfidenceLooksTheTupleUpById) {
  SmallStore s = MakeSmallStore();
  const size_t dict_before = s.u.DictionarySize();
  // A value the store never interned: confidence 0, and the lookup does
  // not intern it.
  EXPECT_EQ(Conf(s.u, "R", {I(2), I(424242)}), 0.0);
  EXPECT_EQ(s.u.DictionarySize(), dict_before);
  EXPECT_FALSE(s.u.Find(I(424242)).has_value());
  // Both values known but never together in one row.
  EXPECT_EQ(Conf(s.u, "R", {I(2), I(3)}), 0.0);
  EXPECT_NEAR(Conf(s.u, "R", {I(2), I(2)}), 0.4, 1e-12);
}

TEST(UrelConversionTest, ExportImportRoundTripPreservesWorldSets) {
  std::vector<RelSpec> specs = {RelSpec{"R", {"A", "B"}, 2, 3},
                                RelSpec{"S", {"C", "D"}, 2, 3}};
  for (int seed = 0; seed < 8; ++seed) {
    SeededRng rng(static_cast<uint64_t>(seed) * 6151 + 7);
    MAYWSD_SEED_TRACE(rng);
    Wsd wsd = testutil::RandomWsd(rng, specs, 3);
    Wsdt wsdt = Wsdt::FromWsd(wsd).value();

    auto u = ExportUrel(wsdt);
    ASSERT_TRUE(u.ok()) << u.status();
    ASSERT_TRUE(ValidateUrel(*u).ok()) << ValidateUrel(*u);

    auto back = ImportUrel(*u);
    ASSERT_TRUE(back.ok()) << back.status();
    ASSERT_TRUE(back->Validate().ok());

    auto expected = wsdt.ToWsd().value().EnumerateWorlds(100000);
    auto actual = back->ToWsd().value().EnumerateWorlds(100000);
    ASSERT_TRUE(expected.ok());
    ASSERT_TRUE(actual.ok());
    EXPECT_TRUE(WorldSetsEquivalent(*expected, *actual))
        << "export/import round trip lost worlds at seed " << seed;
  }
}

TEST(UrelValidateTest, DetectsCorruption) {
  // Probabilities that do not sum to 1.
  {
    Urel u;
    u.AddVariable({0.5, 0.4});
    EXPECT_FALSE(ValidateUrel(u).ok());
  }
  // Non-canonical (unsorted) descriptor.
  {
    SmallStore s = MakeSmallStore();
    auto r = s.u.GetMutable("R");
    ASSERT_TRUE(r.ok());
    std::vector<UrelValueId> row = {s.u.Intern(I(4)), s.u.Intern(I(4))};
    UrelDescEntry unsorted[] = {{s.y, 0}, {s.x, 1}};
    (*r)->AppendTuple(row, unsorted);
    EXPECT_FALSE(ValidateUrel(s.u).ok());
  }
  // Descriptor referencing a variable the store does not have.
  {
    SmallStore s = MakeSmallStore();
    auto r = s.u.GetMutable("R");
    ASSERT_TRUE(r.ok());
    std::vector<UrelValueId> row = {s.u.Intern(I(4)), s.u.Intern(I(4))};
    UrelDescEntry dangling[] = {{VarId{99}, 0}};
    (*r)->AppendTuple(row, dangling);
    EXPECT_FALSE(ValidateUrel(s.u).ok());
  }
  // Duplicate TIDs.
  {
    SmallStore s = MakeSmallStore();
    auto r = s.u.GetMutable("R");
    ASSERT_TRUE(r.ok());
    (*r)->tids[1] = (*r)->tids[0];
    EXPECT_FALSE(ValidateUrel(s.u).ok());
  }
  // Ragged columns.
  {
    SmallStore s = MakeSmallStore();
    auto r = s.u.GetMutable("R");
    ASSERT_TRUE(r.ok());
    (*r)->columns[0].pop_back();
    EXPECT_FALSE(ValidateUrel(s.u).ok());
  }
}

// -- Round-trip accounting ----------------------------------------------------

TEST(UrelBackendTest, PositiveRaRunsWithZeroRoundTrips) {
  SeededRng rng(4242);
  MAYWSD_SEED_TRACE(rng);
  std::vector<RelSpec> specs = {RelSpec{"R", {"A", "B"}, 2, 3},
                                RelSpec{"S", {"C", "D"}, 2, 3}};
  Wsd wsd = testutil::RandomWsd(rng, specs, 3);
  auto u = ExportUrel(Wsdt::FromWsd(wsd).value());
  ASSERT_TRUE(u.ok());
  engine::UrelBackend backend(*u);

  // A positive-RA plan covering select, join, project, union: all pure
  // columnar rewritings — the store must never round-trip through the
  // template semantics.
  Plan plan = Plan::Union(
      Plan::Project({"A"},
                    Plan::Join(Predicate::CmpAttr("A", CmpOp::kEq, "C"),
                               Plan::Scan("R"), Plan::Scan("S"))),
      Plan::Project({"A"}, Plan::Select(Predicate::Cmp("B", CmpOp::kGe, I(1)),
                                        Plan::Scan("R"))));
  ASSERT_TRUE(engine::Evaluate(backend, plan, "OUT").ok());
  ASSERT_TRUE(engine::EvaluateOptimized(backend, plan, "OUT2").ok());
  EXPECT_EQ(backend.RoundTrips(), 0u);

  // Unconditional updates are native too.
  rel::Relation fresh(rel::Schema::FromNames({"A", "B"}), "fresh");
  fresh.AppendRow({I(0), I(0)});
  ASSERT_TRUE(
      engine::ApplyUpdate(backend, UpdateOp::InsertTuples("R", fresh)).ok());
  EXPECT_EQ(backend.RoundTrips(), 0u);

  // World-conditional updates are native descriptor rewritings too.
  Plan guard = Plan::Select(Predicate::Cmp("C", CmpOp::kGe, I(1)),
                            Plan::Scan("S"));
  ASSERT_TRUE(engine::ApplyUpdate(
                  backend, UpdateOp::InsertTuples("R", fresh).When(guard))
                  .ok());
  EXPECT_EQ(backend.RoundTrips(), 0u);
  ASSERT_TRUE(engine::ApplyUpdate(
                  backend, UpdateOp::ModifyWhere(
                               "R", Predicate::Cmp("A", CmpOp::kGe, I(1)),
                               {{"B", I(2)}})
                               .When(guard))
                  .ok());
  EXPECT_EQ(backend.RoundTrips(), 0u);
  ASSERT_TRUE(engine::ApplyUpdate(
                  backend, UpdateOp::DeleteWhere("R", Predicate::True())
                               .When(Plan::Scan("S")))
                  .ok());
  EXPECT_EQ(backend.RoundTrips(), 0u);
  ASSERT_TRUE(ValidateUrel(*u).ok());
}

TEST(UrelBackendTest, GuardPastTheCapTakesExactlyOneRoundTrip) {
  Urel u;
  AddWideGuard(u, "G");
  UrelRelation r;
  r.name = "R";
  r.schema = rel::Schema::FromNames({"A"});
  r.columns.resize(1);
  std::vector<UrelValueId> row = {u.Intern(I(7))};
  r.AppendTuple(row, {});
  ASSERT_TRUE(u.Add(std::move(r)).ok());
  engine::UrelBackend backend(u);

  ASSERT_TRUE(engine::ApplyUpdate(
                  backend, UpdateOp::DeleteWhere("R", Predicate::True())
                               .When(Plan::Scan("G")))
                  .ok());
  EXPECT_EQ(backend.RoundTrips(), 1u);
  ASSERT_TRUE(ValidateUrel(backend.urel()).ok());

  // Per-world reference: (7) survives in the worlds where G is empty,
  // i.e. a ≠ 0 ∧ b ≠ 0; G itself is untouched.
  const size_t na = 1024, nb = 1025;
  double survives = 0.0;
  for (size_t wa = 0; wa < na; ++wa) {
    for (size_t wb = 0; wb < nb; ++wb) {
      if (wa != 0 && wb != 0) survives += (1.0 / na) * (1.0 / nb);
    }
  }
  std::vector<rel::Value> seven = {I(7)};
  auto conf = backend.TupleConfidence("R", seven);
  ASSERT_TRUE(conf.ok()) << conf.status();
  EXPECT_NEAR(*conf, survives, 1e-9);
  auto possible = backend.PossibleTuples("R");
  ASSERT_TRUE(possible.ok());
  EXPECT_EQ(possible->NumRows(), 1u);
  auto certain = backend.CertainTuples("R");
  ASSERT_TRUE(certain.ok());
  EXPECT_EQ(certain->NumRows(), 0u);
  std::vector<rel::Value> g0 = {I(100)};
  conf = backend.TupleConfidence("G", g0);
  ASSERT_TRUE(conf.ok()) << conf.status();
  EXPECT_NEAR(*conf, 1.0 / na, 1e-9);
}

TEST(UrelBackendTest, DifferencePastTheCapTakesExactlyOneRoundTrip) {
  // OUT = L − S with L = {(7)} certain and S = {(7) if a = 0, (7) if b = 0}:
  // complementing S's descriptors expands past the cap, so the difference
  // runs once in the template semantics.
  Urel u;
  auto [a, b] = AddWideVariables(u);
  UrelRelation l;
  l.name = "L";
  l.schema = rel::Schema::FromNames({"A"});
  l.columns.resize(1);
  std::vector<UrelValueId> seven_id = {u.Intern(I(7))};
  l.AppendTuple(seven_id, {});
  ASSERT_TRUE(u.Add(std::move(l)).ok());
  UrelRelation s;
  s.name = "S";
  s.schema = rel::Schema::FromNames({"A"});
  s.columns.resize(1);
  const std::vector<UrelDescEntry> if_a = {{a, 0}};
  const std::vector<UrelDescEntry> if_b = {{b, 0}};
  s.AppendTuple(seven_id, if_a);
  s.AppendTuple(seven_id, if_b);
  ASSERT_TRUE(u.Add(std::move(s)).ok());
  engine::UrelBackend backend(u);

  ASSERT_TRUE(engine::Evaluate(backend, Plan::Difference(Plan::Scan("L"),
                                                         Plan::Scan("S")),
                               "OUT")
                  .ok());
  EXPECT_EQ(backend.RoundTrips(), 1u);
  ASSERT_TRUE(ValidateUrel(backend.urel()).ok());
  // The import is compressed before the difference composes: a and b each
  // matter only as "= 0" or "≠ 0", so the composed component has at most
  // 2 × 2 distinct local worlds — not the 1024 × 1025 an uncompressed
  // import multiplies out.
  size_t widest = 0;
  for (size_t v = 0; v < backend.urel().NumVariables(); ++v) {
    widest = std::max(widest,
                      backend.urel().Domain(static_cast<VarId>(v)).size());
  }
  EXPECT_LE(widest, 4u);
  // (7) survives where a ≠ 0 ∧ b ≠ 0: (1023/1024) · (1024/1025).
  std::vector<rel::Value> seven = {I(7)};
  auto conf = backend.TupleConfidence("OUT", seven);
  ASSERT_TRUE(conf.ok()) << conf.status();
  EXPECT_NEAR(*conf, 1023.0 / 1025.0, 1e-9);
}

TEST(UrelBackendTest, SessionSurfacesRoundTripCounter) {
  api::Session session = api::Session::Open(api::BackendKind::kUrel);
  rel::Relation base(rel::Schema::FromNames({"A", "B"}), "R");
  base.AppendRow({I(1), I(2)});
  base.AppendRow({I(2), I(3)});
  ASSERT_TRUE(session.Register(base).ok());
  Plan plan = Plan::Select(Predicate::Cmp("A", CmpOp::kGe, I(2)),
                           Plan::Scan("R"));
  ASSERT_TRUE(session.Run(plan, "OUT").ok());
  ASSERT_TRUE(session.PossibleTuples("OUT").ok());
  EXPECT_EQ(session.Stats().round_trips, 0u);
}

}  // namespace
}  // namespace maywsd::core
