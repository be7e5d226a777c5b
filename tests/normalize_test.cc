#include "core/normalize.h"

#include <gtest/gtest.h>

#include "core/worldset.h"
#include "tests/test_util.h"

namespace maywsd::core {
namespace {

using testutil::I;

Component MakeComponent(std::vector<FieldKey> fields,
                        std::vector<std::vector<int64_t>> rows,
                        std::vector<double> probs = {}) {
  Component c(std::move(fields));
  for (size_t i = 0; i < rows.size(); ++i) {
    std::vector<rel::Value> vals;
    for (int64_t v : rows[i]) vals.push_back(I(v));
    c.AddWorld(vals, probs.empty() ? 1.0 / rows.size() : probs[i]);
  }
  return c;
}

TEST(FactorTest, FullyIndependentSplitsToSingletons) {
  // {0,1} × {0,1}: 4 rows, independent.
  Component c = MakeComponent(
      {FieldKey("R", 0, "A"), FieldKey("R", 0, "B")},
      {{0, 0}, {0, 1}, {1, 0}, {1, 1}});
  auto parts = FactorComponent(c);
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0].NumFields(), 1u);
  EXPECT_EQ(parts[1].NumFields(), 1u);
  EXPECT_EQ(parts[0].NumWorlds(), 2u);
}

TEST(FactorTest, DiagonalIsPrime) {
  // {(0,0),(1,1)} cannot factor.
  Component c = MakeComponent(
      {FieldKey("R", 0, "A"), FieldKey("R", 0, "B")}, {{0, 0}, {1, 1}});
  auto parts = FactorComponent(c);
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0].NumFields(), 2u);
}

TEST(FactorTest, XorParityIsPrime) {
  // Even-parity triples: all pairs of columns are independent but the
  // relation does not factor — the classical counterexample to pairwise
  // decomposition tests.
  Component c = MakeComponent({FieldKey("R", 0, "A"), FieldKey("R", 0, "B"),
                               FieldKey("R", 0, "C")},
                              {{0, 0, 0}, {0, 1, 1}, {1, 0, 1}, {1, 1, 0}});
  auto parts = FactorComponent(c);
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0].NumFields(), 3u);
}

TEST(FactorTest, MixedPrimeBlocks) {
  // (diagonal AB) × (free C): expect blocks {A,B} and {C}.
  Component c = MakeComponent(
      {FieldKey("R", 0, "A"), FieldKey("R", 0, "B"), FieldKey("R", 0, "C")},
      {{0, 0, 0}, {0, 0, 1}, {1, 1, 0}, {1, 1, 1}});
  auto parts = FactorComponent(c);
  ASSERT_EQ(parts.size(), 2u);
  size_t sizes = parts[0].NumFields() + parts[1].NumFields();
  EXPECT_EQ(sizes, 3u);
  EXPECT_EQ(std::max(parts[0].NumFields(), parts[1].NumFields()), 2u);
}

TEST(FactorTest, ProbabilisticCorrelationBlocksSplit) {
  // Value combinations factor as sets, but the probabilities are
  // correlated — the component must remain prime.
  Component c = MakeComponent(
      {FieldKey("R", 0, "A"), FieldKey("R", 0, "B")},
      {{0, 0}, {0, 1}, {1, 0}, {1, 1}}, {0.4, 0.1, 0.1, 0.4});
  auto parts = FactorComponent(c);
  ASSERT_EQ(parts.size(), 1u);
}

TEST(FactorTest, ProbabilisticIndependenceSplits) {
  // p(A)·p(B) with p(A=0)=0.3, p(B=0)=0.6 factors exactly.
  Component c = MakeComponent(
      {FieldKey("R", 0, "A"), FieldKey("R", 0, "B")},
      {{0, 0}, {0, 1}, {1, 0}, {1, 1}},
      {0.18, 0.12, 0.42, 0.28});
  auto parts = FactorComponent(c);
  ASSERT_EQ(parts.size(), 2u);
  // Marginals are recovered.
  for (const Component& p : parts) {
    EXPECT_NEAR(p.ProbSum(), 1.0, 1e-9);
  }
}

TEST(FactorTest, FactorizationPreservesDistribution) {
  // Random products of independent blocks re-factor to an equivalent WSD.
  Rng rng(42);
  for (int iter = 0; iter < 30; ++iter) {
    Wsd wsd = testutil::RandomWsd(rng, {{"R", {"A", "B"}, 2, 3}}, 3,
                                  /*decompose=*/false);
    auto before = wsd.EnumerateWorlds(10000).value();
    ASSERT_TRUE(DecomposeComponents(wsd).ok());
    ASSERT_TRUE(wsd.Validate().ok());
    auto after = wsd.EnumerateWorlds(10000).value();
    EXPECT_TRUE(WorldSetsEquivalent(before, after)) << "iter " << iter;
  }
}

TEST(FactorTest, MaximalityAgainstBruteForce) {
  // For random small components, no factor returned by FactorComponent can
  // be split further by any bipartition.
  Rng rng(7);
  for (int iter = 0; iter < 30; ++iter) {
    std::vector<FieldKey> fields{FieldKey("R", 0, "A"), FieldKey("R", 0, "B"),
                                 FieldKey("R", 0, "C")};
    Component c(fields);
    size_t rows = 1 + rng.Uniform(5);
    for (size_t i = 0; i < rows; ++i) {
      c.AddWorld({I(static_cast<int64_t>(rng.Uniform(2))),
                  I(static_cast<int64_t>(rng.Uniform(2))),
                  I(static_cast<int64_t>(rng.Uniform(2)))},
                 1.0);
    }
    // Uniformize probabilities.
    ASSERT_TRUE(c.NormalizeProbs().ok());
    auto parts = FactorComponent(c);
    size_t total_fields = 0;
    for (const Component& p : parts) {
      total_fields += p.NumFields();
      // A prime factor of size ≥ 2 admits no further factorization.
      if (p.NumFields() >= 2) {
        auto sub = FactorComponent(p);
        EXPECT_EQ(sub.size(), 1u) << "non-maximal factor at iter " << iter;
      }
    }
    EXPECT_EQ(total_fields, 3u);
  }
}

TEST(NormalizeTest, CompressMergesDuplicateRows) {
  Component c = MakeComponent({FieldKey("R", 0, "A")}, {{1}, {1}, {2}},
                              {0.25, 0.25, 0.5});
  c.Compress();
  EXPECT_EQ(c.NumWorlds(), 2u);
  EXPECT_NEAR(c.ProbSum(), 1.0, 1e-9);
}

TEST(NormalizeTest, RemoveInvalidTuplesFigure21) {
  // After σ_{C=7} on Figure 10, tuple t1 of P is ⊥ in all worlds
  // (Example 12): remove_invalid_tuples drops it.
  Wsd wsd;
  ASSERT_TRUE(
      wsd.AddRelation("P", rel::Schema::FromNames({"A", "B", "C"}), 2).ok());
  {
    Component c({FieldKey("P", 0, "A")});
    c.AddWorld({I(1)}, 0.5);
    c.AddWorld({I(2)}, 0.5);
    ASSERT_TRUE(wsd.AddComponent(std::move(c)).ok());
  }
  {
    Component c({FieldKey("P", 0, "B"), FieldKey("P", 0, "C"),
                 FieldKey("P", 1, "B")});
    c.AddWorld({testutil::Bot(), testutil::Bot(), I(3)}, 0.5);
    c.AddWorld({I(2), I(7), I(4)}, 0.5);
    ASSERT_TRUE(wsd.AddComponent(std::move(c)).ok());
  }
  {
    Component c({FieldKey("P", 1, "A")});
    c.AddWorld({I(4)}, 0.5);
    c.AddWorld({I(5)}, 0.5);
    ASSERT_TRUE(wsd.AddComponent(std::move(c)).ok());
  }
  {
    Component c({FieldKey("P", 1, "C")});
    c.AddWorld({testutil::Bot()}, 1.0);  // t1.C is ⊥ everywhere: invalid
    ASSERT_TRUE(wsd.AddComponent(std::move(c)).ok());
  }
  auto before = wsd.EnumerateWorlds(1000).value();
  ASSERT_TRUE(RemoveInvalidTuples(wsd).ok());
  ASSERT_TRUE(wsd.Validate().ok());
  const WsdRelation* p = wsd.FindRelation("P").value();
  EXPECT_FALSE(wsd.SlotPresent(*p, 1));  // t1 removed
  EXPECT_TRUE(wsd.SlotPresent(*p, 0));
  auto after = wsd.EnumerateWorlds(1000).value();
  EXPECT_TRUE(WorldSetsEquivalent(before, after));
}

TEST(NormalizeTest, DropZeroProbabilityWorlds) {
  Wsd wsd;
  ASSERT_TRUE(wsd.AddRelation("R", rel::Schema::FromNames({"A"}), 1).ok());
  Component c({FieldKey("R", 0, "A")});
  c.AddWorld({I(1)}, 1.0);
  c.AddWorld({I(2)}, 0.0);
  ASSERT_TRUE(wsd.AddComponent(std::move(c)).ok());
  ASSERT_TRUE(DropZeroProbabilityWorlds(wsd).ok());
  EXPECT_EQ(wsd.component(wsd.LiveComponents()[0]).NumWorlds(), 1u);
}

TEST(NormalizeTest, FullPipelinePreservesRep) {
  Rng rng(99);
  for (int iter = 0; iter < 20; ++iter) {
    Wsd wsd = testutil::RandomWsd(
        rng, {{"R", {"A", "B"}, 2, 2}, {"S", {"C"}, 2, 2}}, 4,
        /*decompose=*/false);
    auto before = wsd.EnumerateWorlds(10000).value();
    ASSERT_TRUE(NormalizeWsd(wsd).ok());
    ASSERT_TRUE(wsd.Validate().ok());
    auto after = wsd.EnumerateWorlds(10000).value();
    EXPECT_TRUE(WorldSetsEquivalent(before, after)) << "iter " << iter;
  }
}

TEST(NormalizeTest, NormalizationShrinksQueriedWsd) {
  // Example 12: normalization after a selection is a strict win.
  Rng rng(3);
  Wsd base = testutil::RandomWsd(rng, {{"R", {"A", "B"}, 2, 2}}, 3);
  rel::Predicate a_is_0 = rel::Predicate::Cmp("A", rel::CmpOp::kEq, I(0));
  auto wsd_or = testutil::WsdWithQuery(
      base, rel::Plan::Select(a_is_0, rel::Plan::Scan("R")), "P");
  ASSERT_TRUE(wsd_or.ok()) << wsd_or.status();
  Wsd wsd = std::move(wsd_or).value();
  auto before = wsd.EnumerateWorlds(10000, {"P"}).value();
  size_t cells_before = 0;
  for (size_t i : wsd.LiveComponents()) {
    cells_before +=
        wsd.component(i).NumFields() * wsd.component(i).NumWorlds();
  }
  ASSERT_TRUE(NormalizeWsd(wsd).ok());
  size_t cells_after = 0;
  for (size_t i : wsd.LiveComponents()) {
    cells_after +=
        wsd.component(i).NumFields() * wsd.component(i).NumWorlds();
  }
  EXPECT_LE(cells_after, cells_before);
  auto after = wsd.EnumerateWorlds(10000, {"P"}).value();
  EXPECT_TRUE(WorldSetsEquivalent(before, after));
}

}  // namespace
}  // namespace maywsd::core
