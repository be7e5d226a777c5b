#include "core/wsdt_confidence.h"

#include <gtest/gtest.h>

#include <map>

#include "census/dependencies.h"
#include "census/ipums.h"
#include "census/noise.h"
#include "census/queries.h"
#include "core/confidence.h"
#include "core/wsdt_algebra.h"
#include "core/wsdt_chase.h"
#include "tests/test_util.h"

namespace maywsd::core {
namespace {

using testutil::I;
using testutil::Q;
using testutil::S;

/// Figure 5's WSDT (see wsdt_test.cc).
Wsdt Figure5() {
  Wsdt wsdt;
  rel::Relation tmpl(rel::Schema::FromNames({"S", "N", "M"}), "R");
  tmpl.AppendRow({Q(), S("Smith"), Q()});
  tmpl.AppendRow({Q(), S("Brown"), Q()});
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
  Component c3({FieldKey("R", 1, "M")});
  for (int i = 1; i <= 4; ++i) c3.AddWorld({I(i)}, 0.25);
  EXPECT_TRUE(wsdt.AddComponent(std::move(c3)).ok());
  return wsdt;
}

TEST(WsdtConfidenceTest, Example11OnTheTemplatePath) {
  // π_S over Figure 5 then possibleᵖ: (185,0.6), (186,0.6), (785,0.8).
  Wsdt wsdt = Figure5();
  ASSERT_TRUE(WsdtProject(wsdt, "R", "QS", {"S"}).ok());
  auto result = WsdtPossibleTuplesWithConfidence(wsdt, "QS");
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

TEST(WsdtConfidenceTest, CertainTupleShortCircuits) {
  Wsdt wsdt;
  rel::Relation tmpl(rel::Schema::FromNames({"A"}), "R");
  tmpl.AppendRow({I(5)});
  ASSERT_TRUE(wsdt.AddTemplateRelation(std::move(tmpl)).ok());
  std::vector<rel::Value> probe{I(5)};
  EXPECT_NEAR(WsdtTupleConfidence(wsdt, "R", probe).value(), 1.0, 1e-12);
  std::vector<rel::Value> absent{I(6)};
  EXPECT_NEAR(WsdtTupleConfidence(wsdt, "R", absent).value(), 0.0, 1e-12);
}

class WsdtConfidenceProperty : public ::testing::TestWithParam<int> {};

TEST_P(WsdtConfidenceProperty, MatchesWsdPath) {
  Rng rng(GetParam());
  Wsd wsd = testutil::RandomWsd(rng, {{"R", {"A", "B"}, 3, 2}}, 4);
  auto wsdt = Wsdt::FromWsd(wsd).value();
  // possible(R) agrees between the two paths.
  auto a = PossibleTuples(wsd, "R").value();
  auto b = WsdtPossibleTuples(wsdt, "R").value();
  EXPECT_TRUE(a.EqualsAsSet(b)) << "seed " << GetParam();
  // conf(t) agrees on every possible tuple.
  for (size_t i = 0; i < a.NumRows(); ++i) {
    auto ca = TupleConfidence(wsd, "R", a.row(i).span());
    auto cb = WsdtTupleConfidence(wsdt, "R", a.row(i).span());
    ASSERT_TRUE(ca.ok());
    ASSERT_TRUE(cb.ok());
    EXPECT_NEAR(*ca, *cb, 1e-9)
        << "seed " << GetParam() << " tuple " << a.row(i).ToString();
  }
}

TEST_P(WsdtConfidenceProperty, MatchesWsdPathAfterQuery) {
  Rng rng(GetParam() + 100);
  Wsd wsd = testutil::RandomWsd(rng, {{"R", {"A", "B"}, 2, 2}}, 3);
  auto wsdt = Wsdt::FromWsd(wsd).value();
  rel::Plan q = rel::Plan::Project(
      {"A"}, rel::Plan::Select(
                 rel::Predicate::Cmp("B", rel::CmpOp::kGt, I(0)),
                 rel::Plan::Scan("R")));
  ASSERT_TRUE(WsdtEvaluate(wsdt, q, "OUT").ok());
  auto possible = WsdtPossibleTuplesWithConfidence(wsdt, "OUT").value();
  // Brute force on the expanded representation.
  Wsd expanded = wsdt.ToWsd().value();
  auto worlds = expanded.EnumerateWorlds(1000000).value();
  for (size_t i = 0; i < possible.NumRows(); ++i) {
    std::vector<rel::Value> t{possible.row(i)[0]};
    double brute = 0;
    for (const auto& w : worlds) {
      if (w.db.GetRelation("OUT").value()->ContainsRow(t)) brute += w.prob;
    }
    EXPECT_NEAR(possible.row(i)[1].AsDouble(), brute, 1e-9)
        << "seed " << GetParam();
  }
}

TEST_P(WsdtConfidenceProperty, GroupedAnswersMatchPerTupleAndPerWorld) {
  // possibleᵖ(R) and certain(R) are computed in one grouped pass over the
  // template; each answer must equal the single-probe WsdtTupleConfidence
  // / WsdtTupleCertain and the per-world enumeration. The projections and
  // the union make several template rows produce the same tuple.
  Rng rng(GetParam() + 200);
  Wsd wsd = testutil::RandomWsd(
      rng, {{"R", {"A", "B"}, 3, 2}, {"R2", {"A", "B"}, 2, 2}}, 4);
  auto wsdt = Wsdt::FromWsd(wsd).value();
  using rel::Plan;
  const std::vector<std::pair<std::string, Plan>> queries = {
      {"Q0", Plan::Scan("R")},
      {"Q1", Plan::Project({"A"}, Plan::Scan("R"))},
      {"Q2", Plan::Union(Plan::Scan("R"), Plan::Scan("R2"))},
      {"Q3", Plan::Project(
                 {"B"}, Plan::Select(rel::Predicate::Cmp("A", rel::CmpOp::kGe,
                                                         I(1)),
                                     Plan::Union(Plan::Scan("R"),
                                                 Plan::Scan("R2"))))}};
  for (const auto& [name, plan] : queries) {
    ASSERT_TRUE(WsdtEvaluate(wsdt, plan, name).ok()) << name;
  }
  Wsd expanded = wsdt.ToWsd().value();
  auto worlds = expanded.EnumerateWorlds(1000000).value();
  for (const auto& [name, plan] : queries) {
    std::string label = name + " seed " + std::to_string(GetParam());
    auto possible = WsdtPossibleTuples(wsdt, name).value();
    auto scored = WsdtPossibleTuplesWithConfidence(wsdt, name).value();
    auto certain = WsdtCertainTuples(wsdt, name).value();
    ASSERT_EQ(scored.NumRows(), possible.NumRows()) << label;
    size_t num_certain = 0;
    for (size_t i = 0; i < possible.NumRows(); ++i) {
      rel::TupleRef t = possible.row(i);
      rel::TupleRef s(scored.row(i).data(), t.arity());
      ASSERT_TRUE(s == t) << label << " row " << i;
      double conf = scored.row(i)[t.arity()].AsDouble();
      EXPECT_NEAR(conf, WsdtTupleConfidence(wsdt, name, t.span()).value(),
                  1e-9)
          << label << " " << t.ToString();
      double brute = 0;
      bool everywhere = true;
      for (const auto& w : worlds) {
        bool in = w.db.GetRelation(name).value()->ContainsRow(t.span());
        if (in) brute += w.prob;
        everywhere = everywhere && in;
      }
      EXPECT_NEAR(conf, brute, 1e-9) << label << " " << t.ToString();
      bool is_certain = WsdtTupleCertain(wsdt, name, t.span()).value();
      EXPECT_EQ(is_certain, everywhere) << label << " " << t.ToString();
      EXPECT_EQ(certain.ContainsRow(t.span()), is_certain)
          << label << " " << t.ToString();
      num_certain += is_certain ? 1 : 0;
    }
    EXPECT_EQ(certain.NumRows(), num_certain) << label;
    EXPECT_TRUE(certain.IsSetNormalized()) << label;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WsdtConfidenceProperty,
                         ::testing::Range(0, 10));

TEST(WsdtConfidenceTest, CensusScalePossibleAnswers) {
  // The operators run directly at a scale where expanding to a Wsd (one
  // singleton component per certain field) would be prohibitive.
  census::CensusSchema schema = census::CensusSchema::Standard();
  rel::Relation base = census::GenerateCensus(schema, 20000, 5);
  auto wsdt = census::MakeNoisyWsdt(base, schema, 0.001, 6).value();
  ASSERT_TRUE(WsdtChase(wsdt, census::CensusDependencies("R")).ok());
  ASSERT_TRUE(WsdtEvaluate(wsdt, census::CensusQuery(6, "R"), "OUT").ok());
  auto possible = WsdtPossibleTuples(wsdt, "OUT");
  ASSERT_TRUE(possible.ok());
  EXPECT_GT(possible->NumRows(), 0u);
  // Every fully-certain answer row is possible (placeholder rows may
  // overlap certain ones, so |possible| can be below the row count).
  const rel::Relation* tmpl = wsdt.Template("OUT").value();
  for (size_t r = 0; r < tmpl->NumRows(); ++r) {
    rel::TupleRef row = tmpl->row(r);
    bool certain = true;
    for (size_t a = 0; a < row.arity(); ++a) {
      if (row[a].is_question()) certain = false;
    }
    if (certain) {
      ASSERT_TRUE(possible->ContainsRow(row.span())) << r;
    }
  }
  // Spot-check confidences of the first few possible answers.
  for (size_t i = 0; i < std::min<size_t>(possible->NumRows(), 20); ++i) {
    auto conf = WsdtTupleConfidence(wsdt, "OUT", possible->row(i).span());
    ASSERT_TRUE(conf.ok());
    EXPECT_GT(*conf, 0.0);
    EXPECT_LE(*conf, 1.0 + 1e-9);
  }
}

}  // namespace
}  // namespace maywsd::core
