// Quickstart: the paper's running example, start to finish.
//
// 1. Two ambiguous census forms become an or-set relation (32 worlds).
// 2. Data cleaning — "social security numbers are unique" — excludes 8
//    worlds; the result is no longer representable as an or-set relation
//    but decomposes into the WSD of Figure 3.
// 3. The probabilistic WSD of Figure 4 attaches weights; chasing the
//    reliable fact "the person with SSN 785 is married" yields Figure 22.
// 4. Query π_S(R) and confidence computation reproduce Example 11,
//    through the api::Session facade.

#include <cstdio>

#include "api/session.h"
#include "core/chase.h"
#include "core/normalize.h"
#include "core/orset.h"
#include "core/wsdt.h"

using namespace maywsd;
using core::Component;
using core::FieldKey;
using core::Wsd;
using rel::Value;

int main() {
  // -- Step 1: the two survey forms as an or-set relation. ----------------
  core::OrSetRelation forms(rel::Schema::FromNames({"S", "N", "M"}), "R");
  if (!forms
           .AppendRow({{Value::Int(185), Value::Int(785)},
                       {Value::String("Smith")},
                       {Value::Int(1), Value::Int(2)}})
           .ok() ||
      !forms
           .AppendRow({{Value::Int(185), Value::Int(186)},
                       {Value::String("Brown")},
                       {Value::Int(1), Value::Int(2), Value::Int(3),
                        Value::Int(4)}})
           .ok()) {
    return 1;
  }
  std::printf("or-set relation represents %llu worlds\n",
              static_cast<unsigned long long>(forms.WorldCount(1000)));

  Wsd wsd = forms.ToWsd().value();
  std::printf("\nWSD of the or-set relation (Example 1):\n%s\n",
              wsd.ToString().c_str());

  // -- Step 2: clean with the key constraint (FD S → N). ------------------
  core::Fd unique_ssn{"R", {"S"}, "N"};
  if (Status st = core::ChaseFd(wsd, unique_ssn); !st.ok()) {
    std::printf("chase failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("after cleaning: %zu worlds remain (Figure 2/3)\n",
              core::CollapseWorlds(wsd.EnumerateWorlds(100).value()).size());
  // The chase may leave a non-maximal decomposition (Section 8); the
  // normalization of Section 7 re-factorizes it into Figure 3's shape.
  if (Status st = core::NormalizeWsd(wsd); !st.ok()) return 1;
  std::printf("\ncleaned and normalized WSD (Figure 3):\n%s\n",
              wsd.ToString().c_str());

  // -- Step 3: the probabilistic version (Figure 4) and one more fact. ----
  Wsd prob;
  (void)prob.AddRelation("R", rel::Schema::FromNames({"S", "N", "M"}), 2);
  {
    Component c({FieldKey("R", 0, "S"), FieldKey("R", 1, "S")});
    c.AddWorld({Value::Int(185), Value::Int(186)}, 0.2);
    c.AddWorld({Value::Int(785), Value::Int(185)}, 0.4);
    c.AddWorld({Value::Int(785), Value::Int(186)}, 0.4);
    (void)prob.AddComponent(std::move(c));
  }
  {
    Component c({FieldKey("R", 0, "N")});
    c.AddWorld({Value::String("Smith")}, 1.0);
    (void)prob.AddComponent(std::move(c));
  }
  {
    Component c({FieldKey("R", 0, "M")});
    c.AddWorld({Value::Int(1)}, 0.7);
    c.AddWorld({Value::Int(2)}, 0.3);
    (void)prob.AddComponent(std::move(c));
  }
  {
    Component c({FieldKey("R", 1, "N")});
    c.AddWorld({Value::String("Brown")}, 1.0);
    (void)prob.AddComponent(std::move(c));
  }
  {
    Component c({FieldKey("R", 1, "M")});
    for (int i = 1; i <= 4; ++i) c.AddWorld({Value::Int(i)}, 0.25);
    (void)prob.AddComponent(std::move(c));
  }
  std::printf("probabilistic WSD (Figure 4):\n%s\n", prob.ToString().c_str());

  // As a WSDT (Figure 5): certain fields move into the template.
  auto wsdt = core::Wsdt::FromWsd(prob).value();
  std::printf("as a WSDT (Figure 5):\n%s\n", wsdt.ToString().c_str());

  core::Egd married;
  married.relation = "R";
  married.premises = {{"S", rel::CmpOp::kEq, Value::Int(785)}};
  married.conclusion = {"M", rel::CmpOp::kEq, Value::Int(1)};
  if (Status st = core::ChaseEgd(prob, married); !st.ok()) {
    std::printf("chase failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("after chasing S=785 => M=1 (Figure 22):\n%s\n",
              prob.ToString().c_str());

  // -- Step 4: query and confidence (Example 11), via the Session API. ----
  auto session_or = api::Session::Open(prob);
  if (!session_or.ok()) {
    std::printf("open failed: %s\n", session_or.status().ToString().c_str());
    return 1;
  }
  api::Session session = std::move(session_or).value();
  if (Status st = session.Run(rel::Plan::Project({"S"}, rel::Plan::Scan("R")),
                              "Q");
      !st.ok()) {
    std::printf("projection failed: %s\n", st.ToString().c_str());
    return 1;
  }
  auto answers = session.PossibleTuplesWithConfidence("Q").value();
  std::printf("possible answers to Q = pi_S(R) with confidence:\n%s\n",
              answers.ToString().c_str());
  return 0;
}
