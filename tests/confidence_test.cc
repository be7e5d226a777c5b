#include "core/confidence.h"

#include <gtest/gtest.h>

#include <map>

#include "core/worldset.h"
#include "tests/test_util.h"

namespace maywsd::core {
namespace {

using testutil::I;
using testutil::S;

/// The probabilistic WSD of Figure 4: C1 = {t0.S, t1.S} with probabilities
/// 0.2/0.4/0.4, names certain, marital-status components 0.7/0.3 and
/// uniform 0.25.
Wsd Figure4() {
  Wsd wsd;
  EXPECT_TRUE(wsd.AddRelation("R", rel::Schema::FromNames({"S", "N", "M"}), 2)
                  .ok());
  {
    Component c({FieldKey("R", 0, "S"), FieldKey("R", 1, "S")});
    c.AddWorld({I(185), I(186)}, 0.2);
    c.AddWorld({I(785), I(185)}, 0.4);
    c.AddWorld({I(785), I(186)}, 0.4);
    EXPECT_TRUE(wsd.AddComponent(std::move(c)).ok());
  }
  {
    Component c({FieldKey("R", 0, "N")});
    c.AddWorld({S("Smith")}, 1.0);
    EXPECT_TRUE(wsd.AddComponent(std::move(c)).ok());
  }
  {
    Component c({FieldKey("R", 0, "M")});
    c.AddWorld({I(1)}, 0.7);
    c.AddWorld({I(2)}, 0.3);
    EXPECT_TRUE(wsd.AddComponent(std::move(c)).ok());
  }
  {
    Component c({FieldKey("R", 1, "N")});
    c.AddWorld({S("Brown")}, 1.0);
    EXPECT_TRUE(wsd.AddComponent(std::move(c)).ok());
  }
  {
    Component c({FieldKey("R", 1, "M")});
    for (int i = 1; i <= 4; ++i) c.AddWorld({I(i)}, 0.25);
    EXPECT_TRUE(wsd.AddComponent(std::move(c)).ok());
  }
  return wsd;
}

/// Figure 4 extended with out := π_attrs(R), evaluated through a kWsd
/// Session.
Wsd ProjectFigure4(const std::string& out,
                   const std::vector<std::string>& attrs) {
  rel::Plan plan = rel::Plan::Project(attrs, rel::Plan::Scan("R"));
  return testutil::WsdWithQuery(Figure4(), plan, out).value();
}

TEST(ConfidenceTest, Figure4WorldProbability) {
  // Choosing (185,186), Smith, M=2, Brown, M=2 yields probability
  // 0.2·1·0.3·1·0.25 = 0.015 (Section 1).
  Wsd wsd = Figure4();
  auto worlds = wsd.EnumerateWorlds(1000).value();
  bool found = false;
  for (const auto& w : worlds) {
    const rel::Relation* r = w.db.GetRelation("R").value();
    std::vector<rel::Value> t0{I(185), S("Smith"), I(2)};
    std::vector<rel::Value> t1{I(186), S("Brown"), I(2)};
    if (r->NumRows() == 2 && r->ContainsRow(t0) && r->ContainsRow(t1)) {
      EXPECT_NEAR(w.prob, 0.015, 1e-12);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(ConfidenceTest, Example11ProjectionConfidences) {
  // Q = π_S(R) on Figure 4: conf(185)=0.6, conf(186)=0.6, conf(785)=0.8.
  Wsd wsd = ProjectFigure4("Q", {"S"});
  auto result = PossibleTuplesWithConfidence(wsd, "Q");
  ASSERT_TRUE(result.ok());
  std::map<int64_t, double> conf;
  for (size_t i = 0; i < result->NumRows(); ++i) {
    conf[result->row(i)[0].AsInt()] = result->row(i)[1].AsDouble();
  }
  ASSERT_EQ(conf.size(), 3u);
  EXPECT_NEAR(conf[185], 0.6, 1e-9);
  EXPECT_NEAR(conf[186], 0.6, 1e-9);
  EXPECT_NEAR(conf[785], 0.8, 1e-9);
}

TEST(ConfidenceTest, CertainTuple) {
  // (Smith) is certain in π_N(R).
  Wsd wsd = ProjectFigure4("QN", {"N"});
  std::vector<rel::Value> smith{S("Smith")};
  EXPECT_TRUE(TupleCertain(wsd, "QN", smith).value());
  std::vector<rel::Value> nope{S("Nobody")};
  EXPECT_NEAR(TupleConfidence(wsd, "QN", nope).value(), 0.0, 1e-12);
}

TEST(ConfidenceTest, PossibleTuplesOnBaseRelation) {
  Wsd wsd = Figure4();
  auto possible = PossibleTuples(wsd, "R");
  ASSERT_TRUE(possible.ok());
  // t0: {185,785} × {Smith} × {1,2} = 4; t1: {186,185} × {Brown} × 4 = 8.
  EXPECT_EQ(possible->NumRows(), 12u);
}

TEST(ConfidenceTest, ArityMismatchFails) {
  Wsd wsd = Figure4();
  std::vector<rel::Value> bad{I(185)};
  EXPECT_FALSE(TupleConfidence(wsd, "R", bad).ok());
}

TEST(ConfidenceTest, CertainTuplesAreTheConsistentAnswers) {
  // In R itself, names are certain per slot but full tuples are not.
  auto certain_r = CertainTuples(Figure4(), "R").value();
  EXPECT_EQ(certain_r.NumRows(), 0u);
  // π_N(R) = {Smith, Brown} in every world.
  Wsd wsd = ProjectFigure4("QN", {"N"});
  auto certain = CertainTuples(wsd, "QN").value();
  EXPECT_EQ(certain.NumRows(), 2u);
}

/// Brute-force confidence: sum of probabilities of enumerated worlds
/// containing the tuple.
double BruteForceConf(const Wsd& wsd, const std::string& rel,
                      std::span<const rel::Value> tuple) {
  auto worlds = wsd.EnumerateWorlds(1000000).value();
  double conf = 0;
  for (const auto& w : worlds) {
    const rel::Relation* r = w.db.GetRelation(rel).value();
    if (r->ContainsRow(tuple)) conf += w.prob;
  }
  return conf;
}

class ConfidenceProperty : public ::testing::TestWithParam<int> {};

TEST_P(ConfidenceProperty, MatchesBruteForceOnRandomWsds) {
  Rng rng(GetParam());
  Wsd wsd = testutil::RandomWsd(
      rng, {{"R", {"A", "B"}, 3, 2}}, 4, /*decompose=*/true);
  // Probe every possible tuple plus one absent tuple.
  auto possible = PossibleTuples(wsd, "R").value();
  for (size_t i = 0; i < possible.NumRows(); ++i) {
    auto conf = TupleConfidence(wsd, "R", possible.row(i).span());
    ASSERT_TRUE(conf.ok());
    EXPECT_NEAR(*conf, BruteForceConf(wsd, "R", possible.row(i).span()),
                1e-9)
        << "tuple " << possible.row(i).ToString();
    EXPECT_GT(*conf, 0.0);
  }
  std::vector<rel::Value> absent{I(99), I(99)};
  EXPECT_NEAR(TupleConfidence(wsd, "R", absent).value(), 0.0, 1e-12);
}

TEST_P(ConfidenceProperty, PossibleMatchesEnumeration) {
  Rng rng(GetParam() + 500);
  Wsd wsd = testutil::RandomWsd(
      rng, {{"R", {"A", "B"}, 3, 2}}, 4, /*decompose=*/true);
  auto possible = PossibleTuples(wsd, "R").value();
  // Union of tuples across enumerated worlds.
  rel::Relation expected(possible.schema(), "expected");
  auto worlds = wsd.EnumerateWorlds(1000000).value();
  for (const auto& w : worlds) {
    const rel::Relation* r = w.db.GetRelation("R").value();
    for (size_t i = 0; i < r->NumRows(); ++i) {
      expected.AppendRow(r->row(i).span());
    }
  }
  expected.SortDedup();
  EXPECT_TRUE(possible.EqualsAsSet(expected));
}

TEST_P(ConfidenceProperty, ConfidenceAfterQueryMatchesOracle) {
  Rng rng(GetParam() + 900);
  Wsd base = testutil::RandomWsd(
      rng, {{"R", {"A", "B"}, 2, 2}}, 3, /*decompose=*/true);
  rel::Plan q = rel::Plan::Project(
      {"A"}, rel::Plan::Select(
                 rel::Predicate::Cmp("B", rel::CmpOp::kEq, I(1)),
                 rel::Plan::Scan("R")));
  auto wsd_or = testutil::WsdWithQuery(base, q, "OUT");
  ASSERT_TRUE(wsd_or.ok()) << wsd_or.status();
  const Wsd& wsd = *wsd_or;
  auto result = PossibleTuplesWithConfidence(wsd, "OUT").value();
  for (size_t i = 0; i < result.NumRows(); ++i) {
    std::vector<rel::Value> tuple{result.row(i)[0]};
    EXPECT_NEAR(result.row(i)[1].AsDouble(),
                BruteForceConf(wsd, "OUT", tuple), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConfidenceProperty, ::testing::Range(0, 10));

}  // namespace
}  // namespace maywsd::core
