#include "core/uniform.h"

#include <gtest/gtest.h>

#include "census/ipums.h"
#include "census/noise.h"
#include "core/engine/plan_driver.h"
#include "core/engine/uniform_backend.h"
#include "core/wsdt_algebra.h"
#include "core/wsdt_confidence.h"
#include "core/wsdt_update.h"
#include "core/worldset.h"
#include "tests/test_util.h"

namespace maywsd::core {
namespace {

using testutil::I;
using testutil::Q;
using testutil::S;

/// The WSDT behind the UWSDT of Figure 8: t0.S, t1.S share component C1
/// (0.2/0.4/0.4), t0.M has C2 (0.7/0.3); t1.M is certain (value 3).
Wsdt Figure8Wsdt() {
  Wsdt wsdt;
  rel::Relation tmpl(rel::Schema::FromNames({"S", "N", "M"}), "R");
  tmpl.AppendRow({Q(), S("Smith"), Q()});
  tmpl.AppendRow({Q(), S("Brown"), I(3)});
  EXPECT_TRUE(wsdt.AddTemplateRelation(std::move(tmpl)).ok());
  Component c1({FieldKey("R", 0, "S"), FieldKey("R", 1, "S")});
  c1.AddWorld({I(185), I(186)}, 0.2);
  c1.AddWorld({I(785), I(185)}, 0.4);
  c1.AddWorld({I(785), I(186)}, 0.4);
  EXPECT_TRUE(wsdt.AddComponent(std::move(c1)).ok());
  Component c2({FieldKey("R", 0, "M")});
  c2.AddWorld({I(1)}, 0.7);
  c2.AddWorld({I(2)}, 0.3);
  EXPECT_TRUE(wsdt.AddComponent(std::move(c2)).ok());
  return wsdt;
}

TEST(UniformTest, ExportMatchesFigure8Counts) {
  auto db = ExportUniform(Figure8Wsdt());
  ASSERT_TRUE(db.ok());
  // Figure 8: C has 8 rows (6 for the S component, 2 for t0.M), F has 3
  // placeholder mappings, W has 5 local worlds.
  EXPECT_EQ(db->GetRelation(kUniformC).value()->NumRows(), 8u);
  EXPECT_EQ(db->GetRelation(kUniformF).value()->NumRows(), 3u);
  EXPECT_EQ(db->GetRelation(kUniformW).value()->NumRows(), 5u);
  // The template kept its certain values and placeholders.
  const rel::Relation* r0 = db->GetRelation("R").value();
  EXPECT_EQ(r0->NumRows(), 2u);
  EXPECT_TRUE(r0->row(0)[1].is_question());  // S of t0 (col 0 = TID)
  EXPECT_EQ(r0->row(1)[3], I(3));            // M of t1 is certain
}

TEST(UniformTest, ExportImportRoundTrip) {
  Wsdt wsdt = Figure8Wsdt();
  auto before =
      CollapseWorlds(wsdt.ToWsd().value().EnumerateWorlds(1000).value());
  auto db = ExportUniform(wsdt);
  ASSERT_TRUE(db.ok());
  auto back = ImportUniform(*db);
  ASSERT_TRUE(back.ok());
  ASSERT_TRUE(back->Validate().ok());
  auto after =
      CollapseWorlds(back->ToWsd().value().EnumerateWorlds(1000).value());
  EXPECT_TRUE(WorldSetsEquivalent(before, after));
}

TEST(UniformTest, RoundTripWithBottomEncodedAsAbsence) {
  // A ⊥ value (conditional tuple presence) must survive the round trip via
  // the "missing value" encoding.
  Wsdt wsdt;
  rel::Relation tmpl(rel::Schema::FromNames({"A"}), "R");
  tmpl.AppendRow({Q()});
  ASSERT_TRUE(wsdt.AddTemplateRelation(std::move(tmpl)).ok());
  Component c({FieldKey("R", 0, "A")});
  c.AddWorld({I(4)}, 0.5);
  c.AddWorld({testutil::Bot()}, 0.5);
  ASSERT_TRUE(wsdt.AddComponent(std::move(c)).ok());

  auto db = ExportUniform(wsdt);
  ASSERT_TRUE(db.ok());
  // Only one C row: the ⊥ local world is encoded by absence.
  EXPECT_EQ(db->GetRelation(kUniformC).value()->NumRows(), 1u);
  EXPECT_EQ(db->GetRelation(kUniformW).value()->NumRows(), 2u);
  auto back = ImportUniform(*db);
  ASSERT_TRUE(back.ok());
  auto before = wsdt.ToWsd().value().EnumerateWorlds(100).value();
  auto after = back->ToWsd().value().EnumerateWorlds(100).value();
  EXPECT_TRUE(WorldSetsEquivalent(before, after));
}

TEST(UniformTest, Figure16SelectConstMatchesNativePath) {
  // Literal Figure 16 rewriting vs. the native WSDT selection.
  for (auto [attr, op, constant] :
       {std::tuple<const char*, rel::CmpOp, int64_t>{"S", rel::CmpOp::kEq,
                                                     785},
        {"M", rel::CmpOp::kEq, 1},
        {"S", rel::CmpOp::kGt, 200},
        {"M", rel::CmpOp::kLt, 9}}) {
    Wsdt wsdt = Figure8Wsdt();
    auto db = ExportUniform(wsdt);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(
        UniformSelectConst(*db, "R", "P", attr, op, I(constant)).ok());
    auto uniform_result = ImportUniform(*db, {"R", "P"});
    ASSERT_TRUE(uniform_result.ok());
    ASSERT_TRUE(uniform_result->Validate().ok());
    auto uniform_worlds = uniform_result->ToWsd()
                              .value()
                              .EnumerateWorlds(10000, {"P"})
                              .value();

    Wsdt native = Figure8Wsdt();
    ASSERT_TRUE(
        WsdtSelect(native, "R", "P",
                   rel::Predicate::Cmp(attr, op, I(constant)))
            .ok());
    auto native_worlds =
        native.ToWsd().value().EnumerateWorlds(10000, {"P"}).value();
    EXPECT_TRUE(WorldSetsEquivalent(uniform_worlds, native_worlds))
        << attr << " " << rel::CmpOpName(op) << " " << constant;
  }
}

TEST(UniformTest, Figure16RemovesTuplesWithEmptyPlaceholders) {
  // σ_{M=9}: t0's M-placeholder loses every value, so t0 leaves P⁰; t1's
  // certain M=3 fails outright — P is empty.
  Wsdt wsdt = Figure8Wsdt();
  auto db = ExportUniform(wsdt);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(
      UniformSelectConst(*db, "R", "P", "M", rel::CmpOp::kEq, I(9)).ok());
  EXPECT_EQ(db->GetRelation("P").value()->NumRows(), 0u);
}

/// Random small WSDT for rewriting-equivalence tests.
Wsdt RandomSmallWsdt(uint64_t seed) {
  Rng rng(seed);
  Wsd wsd = testutil::RandomWsd(
      rng, {{"R", {"A", "B"}, 2, 3}, {"S", {"C", "D"}, 2, 3},
            {"R2", {"A", "B"}, 2, 3}},
      3);
  return Wsdt::FromWsd(wsd).value();
}

TEST(UniformTest, UniformUnionMatchesNativePath) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    Wsdt wsdt = RandomSmallWsdt(seed);
    auto db = ExportUniform(wsdt);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(UniformUnion(*db, "R", "R2", "T").ok());
    auto uniform = ImportUniform(*db, {"R", "R2", "S", "T"});
    ASSERT_TRUE(uniform.ok()) << uniform.status();
    auto uw =
        uniform->ToWsd().value().EnumerateWorlds(1000000, {"T"}).value();

    Wsdt native = RandomSmallWsdt(seed);
    ASSERT_TRUE(WsdtUnion(native, "R", "R2", "T").ok());
    auto nw =
        native.ToWsd().value().EnumerateWorlds(1000000, {"T"}).value();
    EXPECT_TRUE(WorldSetsEquivalent(uw, nw)) << "seed " << seed;
  }
}

TEST(UniformTest, UniformRenameMatchesNativePath) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    Wsdt wsdt = RandomSmallWsdt(seed);
    auto db = ExportUniform(wsdt);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(UniformRename(*db, "R", "T", {{"A", "X"}}).ok());
    auto uniform = ImportUniform(*db, {"R", "R2", "S", "T"});
    ASSERT_TRUE(uniform.ok()) << uniform.status();
    auto uw =
        uniform->ToWsd().value().EnumerateWorlds(1000000, {"T"}).value();

    Wsdt native = RandomSmallWsdt(seed);
    ASSERT_TRUE(WsdtRename(native, "R", "T", {{"A", "X"}}).ok());
    auto nw =
        native.ToWsd().value().EnumerateWorlds(1000000, {"T"}).value();
    EXPECT_TRUE(WorldSetsEquivalent(uw, nw)) << "seed " << seed;
  }
}

TEST(UniformTest, UniformProductMatchesNativePath) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    Wsdt wsdt = RandomSmallWsdt(seed);
    auto db = ExportUniform(wsdt);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(UniformProduct(*db, "R", "S", "T").ok());
    auto uniform = ImportUniform(*db, {"R", "R2", "S", "T"});
    ASSERT_TRUE(uniform.ok()) << uniform.status();
    auto uw =
        uniform->ToWsd().value().EnumerateWorlds(1000000, {"T"}).value();

    Wsdt native = RandomSmallWsdt(seed);
    ASSERT_TRUE(WsdtProduct(native, "R", "S", "T").ok());
    auto nw =
        native.ToWsd().value().EnumerateWorlds(1000000, {"T"}).value();
    EXPECT_TRUE(WorldSetsEquivalent(uw, nw)) << "seed " << seed;
  }
}

TEST(UniformTest, UniformProductRejectsCollidingAttrs) {
  Wsdt wsdt = RandomSmallWsdt(1);
  auto db = ExportUniform(wsdt).value();
  EXPECT_FALSE(UniformProduct(db, "R", "R2", "T").ok());
}

TEST(UniformTest, UniformSelectOnRandomCensusAgreesWithNative) {
  // Beyond the Figure 8 golden case: random census-shaped instances.
  census::CensusSchema schema = census::CensusSchema::Standard();
  for (uint64_t seed = 0; seed < 3; ++seed) {
    rel::Relation base = census::GenerateCensus(schema, 15, seed);
    auto wsdt = census::MakeNoisyWsdt(base, schema, 0.02, seed + 7).value();
    auto db = ExportUniform(wsdt);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(UniformSelectConst(*db, "R", "P", "MARITAL",
                                   rel::CmpOp::kEq, I(1))
                    .ok());
    auto uniform = ImportUniform(*db, {"R", "P"});
    ASSERT_TRUE(uniform.ok()) << uniform.status();
    auto uw =
        uniform->ToWsd().value().EnumerateWorlds(4000000, {"P"});
    if (!uw.ok()) continue;  // too many worlds for the oracle — skip seed

    Wsdt native = census::MakeNoisyWsdt(base, schema, 0.02, seed + 7).value();
    ASSERT_TRUE(WsdtSelect(native, "R", "P",
                           rel::Predicate::Cmp("MARITAL", rel::CmpOp::kEq,
                                               I(1)))
                    .ok());
    auto nw = native.ToWsd().value().EnumerateWorlds(4000000, {"P"});
    ASSERT_TRUE(nw.ok());
    EXPECT_TRUE(WorldSetsEquivalent(*uw, *nw)) << "seed " << seed;
  }
}

TEST(UniformTest, ImportRejectsDanglingReferences) {
  Wsdt wsdt = Figure8Wsdt();
  auto db = ExportUniform(wsdt).value();
  // Corrupt F with a reference to a non-existent tuple.
  rel::Relation* f = db.GetMutableRelation(kUniformF).value();
  f->AppendRow({S("R"), I(99), S("S"), I(0)});
  EXPECT_FALSE(ImportUniform(db).ok());
}

TEST(UniformTest, ValidateUniformAcceptsExportsAndCatchesCorruption) {
  Wsdt wsdt = Figure8Wsdt();
  ASSERT_TRUE(ValidateUniform(ExportUniform(wsdt).value()).ok());

  // An orphaned W row (component no relation references) is caught …
  rel::Database db = ExportUniform(wsdt).value();
  db.GetMutableRelation(kUniformW).value()->AppendRow(
      {I(99), I(0), rel::Value::Double(1.0)});
  EXPECT_FALSE(ValidateUniform(db).ok());
  // … and UniformCompact garbage-collects it.
  ASSERT_TRUE(UniformCompact(db).ok());
  EXPECT_TRUE(ValidateUniform(db).ok());

  // An orphaned C row (value without a placeholder) is caught.
  db = ExportUniform(wsdt).value();
  db.GetMutableRelation(kUniformC).value()->AppendRow(
      {S("R"), I(1), S("N"), I(0), S("X")});
  EXPECT_FALSE(ValidateUniform(db).ok());

  // A duplicate F coverage of one placeholder is caught.
  db = ExportUniform(wsdt).value();
  rel::TupleRef first = db.GetRelation(kUniformF).value()->row(0);
  db.GetMutableRelation(kUniformF).value()->AppendRow(first.span());
  EXPECT_FALSE(ValidateUniform(db).ok());
}

/// Satellite property: Export → (engine ops) → Import must round-trip.
/// Random plans run against the uniform store through the engine driver;
/// afterwards the store must still satisfy the C/F/W referential
/// invariants (no orphaned rows left behind by the Figure 16 rewritings or
/// the scratch-relation lifecycle) and import to the same world set that
/// the WSDT path computes natively.
class UniformEngineRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(UniformEngineRoundTrip, EngineOpsPreserveStoreIntegrity) {
  Rng rng(GetParam() * 60013 + 29);
  for (int round = 0; round < 3; ++round) {
    Wsdt wsdt = RandomSmallWsdt(rng.Uniform(1u << 20));
    auto db_or = ExportUniform(wsdt);
    ASSERT_TRUE(db_or.ok());
    rel::Database db = std::move(db_or).value();

    // A random operator chain through the driver: σ, π, ∪, −, ×/⋈ mixes.
    rel::Plan plan = [&] {
      switch (rng.Uniform(4)) {
        case 0:
          return rel::Plan::Project(
              {"A"}, rel::Plan::Select(
                         rel::Predicate::Cmp("B", rel::CmpOp::kLt,
                                             I(static_cast<int64_t>(
                                                 rng.Uniform(3)))),
                         rel::Plan::Scan("R")));
        case 1:
          return rel::Plan::Difference(
              rel::Plan::Union(rel::Plan::Scan("R"), rel::Plan::Scan("R2")),
              rel::Plan::Scan("R2"));
        case 2:
          return rel::Plan::Join(
              rel::Predicate::CmpAttr("A", rel::CmpOp::kEq, "C"),
              rel::Plan::Scan("R"), rel::Plan::Scan("S"));
        default:
          return rel::Plan::Select(
              rel::Predicate::CmpAttr("X", rel::CmpOp::kGe, "B"),
              rel::Plan::Rename({{"A", "X"}}, rel::Plan::Scan("R")));
      }
    }();

    engine::UniformBackend backend(db);
    Status st = engine::Evaluate(backend, plan, "OUT");
    ASSERT_TRUE(st.ok()) << plan.ToString() << ": " << st;

    // No scratch leaks, no orphaned C/F/W rows.
    for (const std::string& name : db.Names()) {
      EXPECT_NE(name.rfind("__eng_tmp", 0), 0u)
          << "leaked scratch relation " << name;
    }
    Status integrity = ValidateUniform(db);
    EXPECT_TRUE(integrity.ok()) << plan.ToString() << ": " << integrity;

    // Import round-trips to the world set the WSDT path computes.
    auto back = ImportUniform(db);
    ASSERT_TRUE(back.ok()) << back.status();
    ASSERT_TRUE(back->Validate().ok());
    auto uniform_worlds =
        back->ToWsd().value().EnumerateWorlds(4000000, {"OUT"});
    ASSERT_TRUE(uniform_worlds.ok());

    Wsdt native = wsdt;
    ASSERT_TRUE(WsdtEvaluate(native, plan, "OUT").ok()) << plan.ToString();
    auto native_worlds =
        native.ToWsd().value().EnumerateWorlds(4000000, {"OUT"});
    ASSERT_TRUE(native_worlds.ok());
    EXPECT_TRUE(WorldSetsEquivalent(*uniform_worlds, *native_worlds))
        << plan.ToString() << " seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UniformEngineRoundTrip,
                         ::testing::Range(0, 10));

TEST(UniformTest, SelectAttrAttrMatchesNativePath) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    for (rel::CmpOp op : {rel::CmpOp::kEq, rel::CmpOp::kNe, rel::CmpOp::kLt,
                          rel::CmpOp::kGe}) {
      Wsdt wsdt = RandomSmallWsdt(seed);
      auto db = ExportUniform(wsdt);
      ASSERT_TRUE(db.ok());
      ASSERT_TRUE(UniformSelectAttrAttr(*db, "R", "T", "A", op, "B").ok());
      ASSERT_TRUE(ValidateUniform(*db).ok())
          << "seed " << seed << " " << rel::CmpOpName(op);
      auto uniform = ImportUniform(*db, {"R", "R2", "S", "T"});
      ASSERT_TRUE(uniform.ok()) << uniform.status();
      auto uw =
          uniform->ToWsd().value().EnumerateWorlds(1000000, {"T"}).value();

      Wsdt native = RandomSmallWsdt(seed);
      ASSERT_TRUE(WsdtSelect(native, "R", "T",
                             rel::Predicate::CmpAttr("A", op, "B"))
                      .ok());
      auto nw =
          native.ToWsd().value().EnumerateWorlds(1000000, {"T"}).value();
      EXPECT_TRUE(WorldSetsEquivalent(uw, nw))
          << "seed " << seed << " " << rel::CmpOpName(op);
    }
  }
}

/// A and B of the same tuple in *different* components: σ_{A=B} must merge
/// them (the independence product on W/F/C) and then filter per product
/// world. A ⊥ world for A additionally encodes conditional presence — the
/// tuple must stay absent in those worlds.
TEST(UniformTest, SelectAttrAttrMergesCrossComponentFields) {
  Wsdt wsdt;
  rel::Relation tmpl(rel::Schema::FromNames({"A", "B"}), "R");
  tmpl.AppendRow({Q(), Q()});        // both uncertain, independent
  tmpl.AppendRow({I(5), I(5)});      // certain, satisfies A=B
  tmpl.AppendRow({I(6), I(7)});      // certain, fails A=B
  ASSERT_TRUE(wsdt.AddTemplateRelation(std::move(tmpl)).ok());
  Component ca({FieldKey("R", 0, "A")});
  ca.AddWorld({I(1)}, 0.5);
  ca.AddWorld({I(2)}, 0.3);
  ca.AddWorld({testutil::Bot()}, 0.2);  // tuple absent in this world
  ASSERT_TRUE(wsdt.AddComponent(std::move(ca)).ok());
  Component cb({FieldKey("R", 0, "B")});
  cb.AddWorld({I(1)}, 0.4);
  cb.AddWorld({I(2)}, 0.6);
  ASSERT_TRUE(wsdt.AddComponent(std::move(cb)).ok());

  auto db = ExportUniform(wsdt);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(
      UniformSelectAttrAttr(*db, "R", "T", "A", rel::CmpOp::kEq, "B").ok());
  ASSERT_TRUE(ValidateUniform(*db).ok());
  auto uniform = ImportUniform(*db, {"R", "T"});
  ASSERT_TRUE(uniform.ok()) << uniform.status();
  auto uw = uniform->ToWsd().value().EnumerateWorlds(1000000, {"T"}).value();

  Wsdt native;
  {
    rel::Relation t2(rel::Schema::FromNames({"A", "B"}), "R");
    t2.AppendRow({Q(), Q()});
    t2.AppendRow({I(5), I(5)});
    t2.AppendRow({I(6), I(7)});
    ASSERT_TRUE(native.AddTemplateRelation(std::move(t2)).ok());
    Component ca2({FieldKey("R", 0, "A")});
    ca2.AddWorld({I(1)}, 0.5);
    ca2.AddWorld({I(2)}, 0.3);
    ca2.AddWorld({testutil::Bot()}, 0.2);
    ASSERT_TRUE(native.AddComponent(std::move(ca2)).ok());
    Component cb2({FieldKey("R", 0, "B")});
    cb2.AddWorld({I(1)}, 0.4);
    cb2.AddWorld({I(2)}, 0.6);
    ASSERT_TRUE(native.AddComponent(std::move(cb2)).ok());
  }
  ASSERT_TRUE(WsdtSelect(native, "R", "T",
                         rel::Predicate::CmpAttr("A", rel::CmpOp::kEq, "B"))
                  .ok());
  auto nw = native.ToWsd().value().EnumerateWorlds(1000000, {"T"}).value();
  EXPECT_TRUE(WorldSetsEquivalent(uw, nw));

  // P(t0 ∈ T) = P(A=B, A≠⊥) = 0.5·0.4 + 0.3·0.6 = 0.38.
  Wsd check = uniform->ToWsd().value();
  std::vector<PossibleWorld> check_worlds =
      check.EnumerateWorlds(1000000, {"T"}).value();
  double mass = 0;
  for (const PossibleWorld& w : check_worlds) {
    auto t = w.db.GetRelation("T");
    if (t.ok() && t.value()->ContainsRow(std::vector<rel::Value>{I(1), I(1)})) {
      mass += w.prob;
    }
    if (t.ok() && t.value()->ContainsRow(std::vector<rel::Value>{I(2), I(2)})) {
      mass += w.prob;
    }
  }
  EXPECT_NEAR(mass, 0.38, 1e-12);
}

/// The satellite's contract at the Session layer: an attribute–attribute
/// selection on the uniform backend runs natively — zero import → template
/// → export round trips — and still agrees with the wsd backend.
TEST(UniformTest, SessionSelectAttrAttrPaysNoRoundTrip) {
  Rng rng(404);
  Wsd wsd = testutil::RandomWsd(rng, {{"R", {"A", "B"}, 3, 3}}, 4);
  rel::Plan plan = rel::Plan::Select(
      rel::Predicate::CmpAttr("A", rel::CmpOp::kEq, "B"),
      rel::Plan::Scan("R"));

  auto uniform = testutil::OpenSessionOver(api::BackendKind::kUniform, wsd);
  ASSERT_TRUE(uniform.ok());
  ASSERT_TRUE(uniform->Run(plan, "P").ok());
  EXPECT_EQ(uniform->Stats().round_trips, 0u)
      << "select[AθB] must not fall back to the template semantics";

  auto reference = testutil::OpenSessionOver(api::BackendKind::kWsd, wsd);
  ASSERT_TRUE(reference.ok());
  ASSERT_TRUE(reference->Run(plan, "P").ok());
  auto up = uniform->PossibleTuples("P");
  auto rp = reference->PossibleTuples("P");
  ASSERT_TRUE(up.ok());
  ASSERT_TRUE(rp.ok());
  EXPECT_TRUE(up->EqualsAsSet(*rp));
}


// -- Native ⊥-projection, difference and guarded updates --------------------

/// The world set of `rels` encoded by a uniform store.
std::vector<PossibleWorld> UniformWorlds(const rel::Database& db,
                                         const std::vector<std::string>& rels) {
  auto wsdt = ImportUniform(db);
  EXPECT_TRUE(wsdt.ok()) << wsdt.status();
  if (!wsdt.ok()) return {};
  return wsdt->ToWsd().value().EnumerateWorlds(4000000, rels).value();
}

std::vector<PossibleWorld> WsdtWorlds(const Wsdt& wsdt,
                                      const std::vector<std::string>& rels) {
  return wsdt.ToWsd().value().EnumerateWorlds(4000000, rels).value();
}

/// R(A, B, C) exercising every presence case of a ⊥-projection:
///   t0 = (?, ?, 7)  A, B share K1 and B is ⊥ in one local world;
///   t1 = (?, 5, ?)  A in K2, C in K3 where C carries ⊥;
///   t2 = (?, ?, 3)  A in K4 and B in K5, both carrying ⊥;
///   t3 = (1, ?, 2)  B in K6 without ⊥.
Wsdt PresenceWsdt() {
  Wsdt wsdt;
  rel::Relation tmpl(rel::Schema::FromNames({"A", "B", "C"}), "R");
  tmpl.AppendRow({Q(), Q(), I(7)});
  tmpl.AppendRow({Q(), I(5), Q()});
  tmpl.AppendRow({Q(), Q(), I(3)});
  tmpl.AppendRow({I(1), Q(), I(2)});
  EXPECT_TRUE(wsdt.AddTemplateRelation(std::move(tmpl)).ok());
  Component k1({FieldKey("R", 0, "A"), FieldKey("R", 0, "B")});
  k1.AddWorld({I(1), I(10)}, 0.5);
  k1.AddWorld({I(2), testutil::Bot()}, 0.2);
  k1.AddWorld({I(3), I(30)}, 0.3);
  EXPECT_TRUE(wsdt.AddComponent(std::move(k1)).ok());
  Component k2({FieldKey("R", 1, "A")});
  k2.AddWorld({I(4)}, 0.5);
  k2.AddWorld({I(5)}, 0.5);
  EXPECT_TRUE(wsdt.AddComponent(std::move(k2)).ok());
  Component k3({FieldKey("R", 1, "C")});
  k3.AddWorld({testutil::Bot()}, 0.3);
  k3.AddWorld({I(9)}, 0.7);
  EXPECT_TRUE(wsdt.AddComponent(std::move(k3)).ok());
  Component k4({FieldKey("R", 2, "A")});
  k4.AddWorld({testutil::Bot()}, 0.4);
  k4.AddWorld({I(1)}, 0.6);
  EXPECT_TRUE(wsdt.AddComponent(std::move(k4)).ok());
  Component k5({FieldKey("R", 2, "B")});
  k5.AddWorld({testutil::Bot()}, 0.1);
  k5.AddWorld({I(2)}, 0.9);
  EXPECT_TRUE(wsdt.AddComponent(std::move(k5)).ok());
  Component k6({FieldKey("R", 3, "B")});
  k6.AddWorld({I(8)}, 0.5);
  k6.AddWorld({I(9)}, 0.5);
  EXPECT_TRUE(wsdt.AddComponent(std::move(k6)).ok());
  return wsdt;
}

TEST(UniformTest, ProjectKeepsConditionalPresenceNatively) {
  // {A}: t0 restricts A inside K1; t1 keeps no certain cell, so K2 and K3
  // compose; t2's ⊥s span K4 and K5. {A, B} and {B, C} carry t1's presence
  // on a certain cell turned '?'; {C} carries t2's on C.
  for (const std::vector<std::string>& attrs :
       std::vector<std::vector<std::string>>{
           {"A"}, {"A", "B"}, {"C"}, {"B", "C"}, {"C", "A"}}) {
    Wsdt wsdt = PresenceWsdt();
    rel::Database db = ExportUniform(wsdt).value();
    ASSERT_TRUE(UniformProject(db, "R", "P", attrs).ok());
    ASSERT_TRUE(ValidateUniform(db).ok()) << attrs.size();
    ASSERT_TRUE(WsdtProject(wsdt, "R", "P", attrs).ok());
    EXPECT_TRUE(WorldSetsEquivalent(UniformWorlds(db, {"R", "P"}),
                                    WsdtWorlds(wsdt, {"R", "P"})))
        << attrs.front() << " … (" << attrs.size() << " attributes)";
  }
}

TEST(UniformTest, ProjectMatchesNativePathOnRandomStores) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    for (const std::vector<std::string>& attrs :
         std::vector<std::vector<std::string>>{{"A"}, {"B"}}) {
      Wsdt wsdt = RandomSmallWsdt(seed);
      rel::Database db = ExportUniform(wsdt).value();
      ASSERT_TRUE(UniformProject(db, "R", "P", attrs).ok());
      ASSERT_TRUE(ValidateUniform(db).ok()) << "seed " << seed;
      ASSERT_TRUE(WsdtProject(wsdt, "R", "P", attrs).ok());
      EXPECT_TRUE(WorldSetsEquivalent(UniformWorlds(db, {"R", "S", "P"}),
                                      WsdtWorlds(wsdt, {"R", "S", "P"})))
          << "seed " << seed << " π_" << attrs[0];
    }
  }
}

TEST(UniformTest, DifferenceMatchesNativePath) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    for (auto [left, right] : {std::pair<const char*, const char*>{"R", "R2"},
                               {"R2", "R"}}) {
      Wsdt wsdt = RandomSmallWsdt(seed);
      rel::Database db = ExportUniform(wsdt).value();
      ASSERT_TRUE(UniformDifference(db, left, right, "T").ok());
      ASSERT_TRUE(ValidateUniform(db).ok()) << "seed " << seed;
      ASSERT_TRUE(WsdtDifference(wsdt, left, right, "T").ok());
      EXPECT_TRUE(WorldSetsEquivalent(UniformWorlds(db, {"R", "R2", "T"}),
                                      WsdtWorlds(wsdt, {"R", "R2", "T"})))
          << "seed " << seed << " " << left << " − " << right;
    }
  }
}

TEST(UniformTest, DifferenceComposesCandidateComponents) {
  // L = {(1), (?)}: the certain (1) faces R's placeholders in two
  // independent components (one carrying ⊥), so it becomes a '?' in their
  // composition; L's own placeholder composes with both.
  Wsdt wsdt;
  rel::Relation l(rel::Schema::FromNames({"A"}), "L");
  l.AppendRow({I(1)});
  l.AppendRow({Q()});
  l.AppendRow({I(7)});  // no R row can equal it: copied unchanged
  ASSERT_TRUE(wsdt.AddTemplateRelation(std::move(l)).ok());
  rel::Relation r(rel::Schema::FromNames({"A"}), "R");
  r.AppendRow({Q()});
  r.AppendRow({Q()});
  ASSERT_TRUE(wsdt.AddTemplateRelation(std::move(r)).ok());
  Component kl({FieldKey("L", 1, "A")});
  kl.AddWorld({I(1)}, 0.5);
  kl.AddWorld({I(2)}, 0.5);
  ASSERT_TRUE(wsdt.AddComponent(std::move(kl)).ok());
  Component k0({FieldKey("R", 0, "A")});
  k0.AddWorld({I(1)}, 0.6);
  k0.AddWorld({testutil::Bot()}, 0.4);
  ASSERT_TRUE(wsdt.AddComponent(std::move(k0)).ok());
  Component k1({FieldKey("R", 1, "A")});
  k1.AddWorld({I(2)}, 0.3);
  k1.AddWorld({I(3)}, 0.7);
  ASSERT_TRUE(wsdt.AddComponent(std::move(k1)).ok());

  rel::Database db = ExportUniform(wsdt).value();
  ASSERT_TRUE(UniformDifference(db, "L", "R", "T").ok());
  ASSERT_TRUE(ValidateUniform(db).ok());
  ASSERT_TRUE(WsdtDifference(wsdt, "L", "R", "T").ok());
  EXPECT_TRUE(WorldSetsEquivalent(UniformWorlds(db, {"T"}),
                                  WsdtWorlds(wsdt, {"T"})));
  // The certain 7 stayed certain.
  const rel::Relation* t = db.GetRelation("T").value();
  bool seven = false;
  for (size_t i = 0; i < t->NumRows(); ++i) seven |= t->row(i)[1] == I(7);
  EXPECT_TRUE(seven);
}

/// R(A, B) rows in every update-relevant shape plus a guard relation G
/// whose rows are conditionally present: G.t0 carries ⊥ in KG (shared with
/// R.t1.A), G.t1 in its own KH.
Wsdt GuardedWsdt() {
  Wsdt wsdt;
  rel::Relation r(rel::Schema::FromNames({"A", "B"}), "R");
  r.AppendRow({I(1), I(2)});  // certain
  r.AppendRow({Q(), I(3)});   // A in KG, with G
  r.AppendRow({Q(), Q()});    // A, B in KR (own component, ⊥ once)
  r.AppendRow({I(1), Q()});   // B in KB
  EXPECT_TRUE(wsdt.AddTemplateRelation(std::move(r)).ok());
  rel::Relation g(rel::Schema::FromNames({"X"}), "G");
  g.AppendRow({Q()});
  g.AppendRow({Q()});
  EXPECT_TRUE(wsdt.AddTemplateRelation(std::move(g)).ok());
  Component kg({FieldKey("G", 0, "X"), FieldKey("R", 1, "A")});
  kg.AddWorld({I(0), I(1)}, 0.5);
  kg.AddWorld({testutil::Bot(), I(2)}, 0.5);
  EXPECT_TRUE(wsdt.AddComponent(std::move(kg)).ok());
  Component kh({FieldKey("G", 1, "X")});
  kh.AddWorld({testutil::Bot()}, 0.8);
  kh.AddWorld({I(0)}, 0.2);
  EXPECT_TRUE(wsdt.AddComponent(std::move(kh)).ok());
  Component kr({FieldKey("R", 2, "A"), FieldKey("R", 2, "B")});
  kr.AddWorld({I(1), I(1)}, 0.3);
  kr.AddWorld({I(2), testutil::Bot()}, 0.3);
  kr.AddWorld({I(1), I(5)}, 0.4);
  EXPECT_TRUE(wsdt.AddComponent(std::move(kr)).ok());
  Component kb({FieldKey("R", 3, "B")});
  kb.AddWorld({I(2)}, 0.5);
  kb.AddWorld({I(6)}, 0.5);
  EXPECT_TRUE(wsdt.AddComponent(std::move(kb)).ok());
  return wsdt;
}

TEST(UniformTest, GuardedUpdatesMatchNativePath) {
  using rel::Predicate;
  using rel::UpdateOp;
  rel::Relation tuples(rel::Schema::FromNames({"A", "B"}), "tuples");
  tuples.AppendRow({I(4), I(4)});
  std::vector<UpdateOp> ops = {
      UpdateOp::InsertTuples("R", tuples),
      UpdateOp::DeleteWhere("R", Predicate::Cmp("A", rel::CmpOp::kEq, I(1))),
      UpdateOp::DeleteWhere("R", Predicate::Cmp("B", rel::CmpOp::kGe, I(2))),
      UpdateOp::DeleteWhere("R", Predicate::CmpAttr("A", rel::CmpOp::kEq, "B")),
      UpdateOp::ModifyWhere("R", Predicate::Cmp("A", rel::CmpOp::kEq, I(1)),
                            {{"B", I(9)}}),
      UpdateOp::ModifyWhere("R", Predicate::Cmp("B", rel::CmpOp::kLt, I(4)),
                            {{"A", I(7)}, {"B", I(8)}}),
      UpdateOp::ModifyWhere("R", Predicate::True(), {{"A", I(0)}}),
  };
  // "G" is conditional, "" unconditional, "E" empty, "K" certainly
  // non-empty.
  for (const char* guard : {"G", "", "E", "K"}) {
    for (const UpdateOp& op : ops) {
      Wsdt wsdt = GuardedWsdt();
      rel::Relation e(rel::Schema::FromNames({"X"}), "E");
      ASSERT_TRUE(wsdt.AddTemplateRelation(e).ok());
      rel::Relation k(rel::Schema::FromNames({"X"}), "K");
      k.AppendRow({I(0)});
      ASSERT_TRUE(wsdt.AddTemplateRelation(k).ok());
      rel::Database db = ExportUniform(wsdt).value();
      Status st = UniformApplyUpdate(db, op, guard);
      ASSERT_TRUE(st.ok()) << op.ToString() << " guard " << guard << ": "
                           << st;
      ASSERT_TRUE(ValidateUniform(db).ok())
          << op.ToString() << " guard " << guard;
      ASSERT_TRUE(WsdtApplyUpdate(wsdt, op, guard).ok());
      EXPECT_TRUE(WorldSetsEquivalent(UniformWorlds(db, {"R", "G"}),
                                      WsdtWorlds(wsdt, {"R", "G"})))
          << op.ToString() << " guard '" << guard << "'";
    }
  }
}

TEST(UniformTest, GuardedUpdatesMatchNativePathOnRandomStores) {
  using rel::Predicate;
  using rel::UpdateOp;
  rel::Relation tuples(rel::Schema::FromNames({"A", "B"}), "tuples");
  tuples.AppendRow({I(0), I(1)});
  std::vector<UpdateOp> ops = {
      UpdateOp::InsertTuples("R", tuples),
      UpdateOp::DeleteWhere("R", Predicate::Cmp("A", rel::CmpOp::kLe, I(1))),
      UpdateOp::ModifyWhere("R", Predicate::Cmp("B", rel::CmpOp::kNe, I(0)),
                            {{"A", I(2)}}),
  };
  for (uint64_t seed = 0; seed < 8; ++seed) {
    for (const UpdateOp& op : ops) {
      // The guard is σ_{C=1}(S): conditionally present in most seeds.
      Wsdt wsdt = RandomSmallWsdt(seed);
      rel::Database db = ExportUniform(wsdt).value();
      ASSERT_TRUE(
          UniformSelectConst(db, "S", "G", "C", rel::CmpOp::kEq, I(1)).ok());
      ASSERT_TRUE(WsdtSelect(wsdt, "S", "G",
                             Predicate::Cmp("C", rel::CmpOp::kEq, I(1)))
                      .ok());
      ASSERT_TRUE(UniformApplyUpdate(db, op, "G").ok()) << op.ToString();
      ASSERT_TRUE(ValidateUniform(db).ok()) << "seed " << seed;
      ASSERT_TRUE(WsdtApplyUpdate(wsdt, op, "G").ok());
      EXPECT_TRUE(WorldSetsEquivalent(UniformWorlds(db, {"R", "S"}),
                                      WsdtWorlds(wsdt, {"R", "S"})))
          << "seed " << seed << " " << op.ToString();
    }
  }
}

/// Every relation of `db`, for before/after comparisons.
std::map<std::string, rel::Relation> Snapshot(const rel::Database& db) {
  std::map<std::string, rel::Relation> out;
  for (const std::string& name : db.Names()) {
    out.emplace(name, *db.GetRelation(name).value());
  }
  return out;
}

bool SameRelations(const std::map<std::string, rel::Relation>& a,
                   const std::map<std::string, rel::Relation>& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [name, rel] : a) {
    auto it = b.find(name);
    if (it == b.end() || it->second.data() != rel.data()) return false;
  }
  return true;
}

TEST(UniformTest, ComposeCapLeavesStoreUntouched) {
  // 21 independent two-world placeholders: composing them all needs 2^21
  // local worlds, past the cap.
  constexpr int kComps = 21;
  Wsdt wsdt;
  rel::Relation l(rel::Schema::FromNames({"A"}), "L");
  l.AppendRow({I(0)});
  ASSERT_TRUE(wsdt.AddTemplateRelation(std::move(l)).ok());
  rel::Relation r(rel::Schema::FromNames({"A"}), "R");
  rel::Relation g(rel::Schema::FromNames({"X"}), "G");
  for (int i = 0; i < kComps; ++i) {
    r.AppendRow({Q()});
    g.AppendRow({Q()});
  }
  ASSERT_TRUE(wsdt.AddTemplateRelation(std::move(r)).ok());
  ASSERT_TRUE(wsdt.AddTemplateRelation(std::move(g)).ok());
  for (int i = 0; i < kComps; ++i) {
    Component cr({FieldKey("R", i, "A")});
    cr.AddWorld({I(0)}, 0.5);
    cr.AddWorld({I(1)}, 0.5);
    ASSERT_TRUE(wsdt.AddComponent(std::move(cr)).ok());
    Component cg({FieldKey("G", i, "X")});
    cg.AddWorld({I(0)}, 0.5);
    cg.AddWorld({testutil::Bot()}, 0.5);
    ASSERT_TRUE(wsdt.AddComponent(std::move(cg)).ok());
  }
  rel::Database db = ExportUniform(wsdt).value();
  const auto before = Snapshot(db);

  Status st = UniformDifference(db, "L", "R", "T");
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st;
  EXPECT_TRUE(SameRelations(before, Snapshot(db)));

  st = UniformDeleteWhere(db, "L", rel::Predicate::True(), "G");
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st;
  EXPECT_TRUE(SameRelations(before, Snapshot(db)));

  st = UniformProject(db, "R", "P", {"A"});  // no ⊥ to carry: native copy
  EXPECT_TRUE(st.ok()) << st;
}

TEST(UniformTest, AnswersFromRelationSliceMatchFullImport) {
  // One component spans R and S; S's field carries ⊥.
  Wsdt wsdt;
  rel::Relation r(rel::Schema::FromNames({"A"}), "R");
  r.AppendRow({Q()});
  r.AppendRow({I(5)});
  ASSERT_TRUE(wsdt.AddTemplateRelation(std::move(r)).ok());
  rel::Relation s(rel::Schema::FromNames({"B"}), "S");
  s.AppendRow({Q()});
  ASSERT_TRUE(wsdt.AddTemplateRelation(std::move(s)).ok());
  Component k({FieldKey("R", 0, "A"), FieldKey("S", 0, "B")});
  k.AddWorld({I(1), I(2)}, 0.5);
  k.AddWorld({I(1), testutil::Bot()}, 0.2);
  k.AddWorld({I(3), I(4)}, 0.3);
  ASSERT_TRUE(wsdt.AddComponent(std::move(k)).ok());
  rel::Database db = ExportUniform(wsdt).value();
  Wsdt full = ImportUniform(db).value();

  engine::UniformBackend backend(db);
  for (const char* name : {"R", "S"}) {
    auto sliced = backend.PossibleTuplesWithConfidence(name);
    auto reference = WsdtPossibleTuplesWithConfidence(full, name);
    ASSERT_TRUE(sliced.ok() && reference.ok()) << name;
    EXPECT_TRUE(sliced->EqualsAsSet(*reference)) << name;
    auto certain = backend.CertainTuples(name);
    ASSERT_TRUE(certain.ok()) << name;
    EXPECT_TRUE(certain->EqualsAsSet(WsdtCertainTuples(full, name).value()));
    for (int64_t v : {1, 2, 3, 4, 5}) {
      std::vector<rel::Value> tuple = {I(v)};
      EXPECT_NEAR(backend.TupleConfidence(name, tuple).value(),
                  WsdtTupleConfidence(full, name, tuple).value(), 1e-12)
          << name << " " << v;
      EXPECT_EQ(backend.TupleCertain(name, tuple).value(),
                WsdtTupleCertain(full, name, tuple).value())
          << name << " " << v;
    }
  }
  EXPECT_NEAR(backend.TupleConfidence("S", std::vector<rel::Value>{I(2)})
                  .value(),
              0.5, 1e-12);

  // A scoped import still rejects a dangling F reference into a named
  // relation, and skips the rows of relations it does not name.
  db.GetMutableRelation(kUniformF).value()->AppendRow(
      {S("R"), I(99), S("A"), I(0)});
  EXPECT_FALSE(ImportUniform(db, {"R"}).ok());
  EXPECT_TRUE(ImportUniform(db, {"S"}).ok());
  EXPECT_FALSE(backend.PossibleTuples("R").ok());
}

}  // namespace
}  // namespace maywsd::core
