// One query, one front door, four representations.
//
// api::Session is the representation-agnostic facade over the world-set
// engine: the same rel::Plan runs over (a) the Section 4 WSD (adopted as
// its template decomposition at the Session edge), (b) the Section 5 WSDT
// template refinement, (c) the C/F/W uniform relational encoding of
// Section 3, and (d) the columnar U-relations store — and the same
// answer-side questions (possible tuples with confidence) are asked
// through the same interface. Every session comes from the one
// Session::Open entry point, and the world sets agree tuple for tuple
// across all four backends.

#include <cstdio>
#include <string>
#include <vector>

#include "api/session.h"
#include "core/orset.h"
#include "core/uniform.h"
#include "core/wsdt.h"

using namespace maywsd;
using rel::CmpOp;
using rel::Plan;
using rel::Predicate;
using rel::Value;

int main() {
  // Two ambiguous census forms: SSN and marital status are or-sets.
  core::OrSetRelation forms(rel::Schema::FromNames({"S", "N", "M"}), "R");
  if (!forms
           .AppendRow({{Value::Int(185), Value::Int(785)},
                       {Value::String("Smith")},
                       {Value::Int(1), Value::Int(2)}})
           .ok() ||
      !forms
           .AppendRow({{Value::Int(186)},
                       {Value::String("Brown")},
                       {Value::Int(3), Value::Int(4)}})
           .ok()) {
    return 1;
  }
  core::Wsd wsd = forms.ToWsd().value();
  core::Wsdt wsdt = core::Wsdt::FromWsd(wsd).value();

  // Married or widowed people: σ_{M≤2}(π_{S,M}(R)).
  Plan plan = Plan::Select(Predicate::Cmp("M", CmpOp::kLe, Value::Int(2)),
                           Plan::Project({"S", "M"}, Plan::Scan("R")));

  // The same session calls against all four representations, all through
  // the one Session::Open front door (the WSD is adopted as its template
  // decomposition; the uniform and U-relations stores are converted from
  // the template on open).
  auto wsd_or = api::Session::Open(wsd);
  if (!wsd_or.ok()) return 1;
  auto uniform_or = api::Session::Open(api::BackendKind::kUniform, wsdt);
  if (!uniform_or.ok()) return 1;
  auto urel_or = api::Session::Open(api::BackendKind::kUrel, wsdt);
  if (!urel_or.ok()) return 1;
  api::Session sessions[] = {std::move(wsd_or).value(),
                             api::Session::Open(std::move(wsdt)),
                             std::move(uniform_or).value(),
                             std::move(urel_or).value()};

  rel::Relation reference;
  for (api::Session& session : sessions) {
    if (Status st = session.Run(plan, "OUT"); !st.ok()) {
      std::printf("%s evaluation failed: %s\n",
                  std::string(session.BackendName()).c_str(),
                  st.ToString().c_str());
      return 1;
    }
    auto answers = session.PossibleTuplesWithConfidence("OUT");
    if (!answers.ok()) {
      std::printf("%s answers failed: %s\n",
                  std::string(session.BackendName()).c_str(),
                  answers.status().ToString().c_str());
      return 1;
    }
    std::printf("%s backend — possible OUT tuples with confidence:\n%s\n",
                std::string(session.BackendName()).c_str(),
                answers->ToString().c_str());
    // Compare the tuples exactly and the confidences with a tolerance
    // (the backends associate the probability products differently).
    auto possible = session.PossibleTuples("OUT").value();
    if (reference.NumRows() == 0 && reference.arity() == 0) {
      reference = std::move(possible);
    } else if (!reference.EqualsAsSet(possible)) {
      std::printf("ERROR: %s disagrees with the first backend!\n",
                  std::string(session.BackendName()).c_str());
      return 1;
    }
  }
  for (size_t i = 0; i < reference.NumRows(); ++i) {
    double base =
        sessions[0].TupleConfidence("OUT", reference.row(i).span()).value();
    for (size_t s = 1; s < std::size(sessions); ++s) {
      double conf =
          sessions[s].TupleConfidence("OUT", reference.row(i).span()).value();
      if (conf > base + 1e-9 || conf < base - 1e-9) {
        std::printf("ERROR: confidence mismatch on tuple %zu\n", i);
        return 1;
      }
    }
  }
  std::printf("all four backends agree through one Session::Open API\n");
  std::printf("urel session import/export round trips for this query: %llu "
              "(positive RA is a pure descriptor rewriting)\n",
              static_cast<unsigned long long>(sessions[3].Stats().round_trips));

  // Batched execution through the same front door: RunAll evaluates a
  // workload sharing common subplans once.
  {
    core::Wsdt fresh = core::Wsdt::FromWsd(forms.ToWsd().value()).value();
    api::Session batched = api::Session::Open(std::move(fresh));
    Plan base = Plan::Project({"S", "M"}, Plan::Scan("R"));
    std::vector<Plan> workload = {
        Plan::Select(Predicate::Cmp("M", CmpOp::kLe, Value::Int(2)), base),
        Plan::Select(Predicate::Cmp("M", CmpOp::kGt, Value::Int(2)), base)};
    std::vector<std::string> outs = {"MARRIED", "OTHER"};
    if (Status st = batched.RunAll(workload, outs); !st.ok()) {
      std::printf("RunAll failed: %s\n", st.ToString().c_str());
      return 1;
    }
    if (Status st = batched.Run(plan, "OUT"); !st.ok()) {
      std::printf("Run failed: %s\n", st.ToString().c_str());
      return 1;
    }
    const api::SessionStats& stats = batched.Stats();
    std::printf(
        "\nbatched session: %llu run(s), RunAll cache %llu hit(s) / %llu "
        "miss(es)\n",
        static_cast<unsigned long long>(stats.runs),
        static_cast<unsigned long long>(stats.cache_hits),
        static_cast<unsigned long long>(stats.cache_misses));
  }

  // The uniform session really runs inside an RDBMS-style store: the
  // result template and the C/F/W system relations are plain relations.
  const rel::Database* store = sessions[2].uniform();
  std::printf("\nuniform store after the query: OUT template %zu rows, "
              "C %zu rows, F %zu rows, W %zu rows\n",
              store->GetRelation("OUT").value()->NumRows(),
              store->GetRelation(core::kUniformC).value()->NumRows(),
              store->GetRelation(core::kUniformF).value()->NumRows(),
              store->GetRelation(core::kUniformW).value()->NumRows());
  return 0;
}
