// Medical data with interdependent clusters (Section 10).
//
// Medications interact: some are not approved together or for certain
// diseases. For an incompletely specified patient record, the valid
// (diagnosis, medication) combinations form clusters of interdependent
// values — exactly the data pattern WSDs store as multi-field components,
// keeping independent clusters apart.
//
// We model one patient whose diagnosis is uncertain and whose treatment
// must be compatible with the diagnosis, plus an independent lab result.
// Queries run through the api::Session facade: possible diagnoses,
// commonly prescribed medication for a set of diseases, and the effect of
// new evidence (an EGD) on the distribution. The session adopts the WSD
// as its template decomposition; the chase is representation-level
// tooling and conditions that WSDT in place.

#include <cstdio>

#include "api/session.h"
#include "core/wsdt_chase.h"

using namespace maywsd;
using core::Component;
using core::FieldKey;
using rel::Value;

int main() {
  // Patient record: DIAGNOSIS and MEDICATION are correlated (link-following
  // wrap: one component for all interrelated values, Section 10); the lab
  // marker is independent.
  core::Wsd wsd;
  (void)wsd.AddRelation(
      "Patient", rel::Schema::FromNames({"DIAG", "MED", "MARKER"}), 1);
  {
    // Interaction table: flu→oseltamivir, strep→penicillin or amoxicillin,
    // mono must NOT get amoxicillin (rash) → supportive care only.
    Component c({FieldKey("Patient", 0, "DIAG"),
                 FieldKey("Patient", 0, "MED")});
    c.AddWorld({Value::String("flu"), Value::String("oseltamivir")}, 0.30);
    c.AddWorld({Value::String("strep"), Value::String("penicillin")}, 0.25);
    c.AddWorld({Value::String("strep"), Value::String("amoxicillin")}, 0.15);
    c.AddWorld({Value::String("mono"), Value::String("supportive")}, 0.30);
    (void)wsd.AddComponent(std::move(c));
  }
  {
    Component c({FieldKey("Patient", 0, "MARKER")});
    c.AddWorld({Value::String("elevated")}, 0.6);
    c.AddWorld({Value::String("normal")}, 0.4);
    (void)wsd.AddComponent(std::move(c));
  }
  std::printf("patient record as a WSD:\n%s\n", wsd.ToString().c_str());

  auto session_or = api::Session::Open(wsd);
  if (!session_or.ok()) return 1;
  api::Session session = std::move(session_or).value();

  // Possible diagnoses with confidence.
  if (Status st = session.Run(
          rel::Plan::Project({"DIAG"}, rel::Plan::Scan("Patient")),
          "Diagnoses");
      !st.ok()) {
    return 1;
  }
  auto diag = session.PossibleTuplesWithConfidence("Diagnoses").value();
  std::printf("possible diagnoses:\n%s\n", diag.ToString().c_str());

  // Commonly used medication for bacterial diagnoses (strep).
  rel::Plan q = rel::Plan::Project(
      {"MED"},
      rel::Plan::Select(
          rel::Predicate::Cmp("DIAG", rel::CmpOp::kEq,
                              Value::String("strep")),
          rel::Plan::Scan("Patient")));
  if (Status st = session.Run(q, "StrepMeds"); !st.ok()) return 1;
  auto meds = session.PossibleTuplesWithConfidence("StrepMeds").value();
  std::printf("medication given strep:\n%s\n", meds.ToString().c_str());

  // New evidence: the rapid test says an elevated marker rules out flu.
  core::Egd evidence;
  evidence.relation = "Patient";
  evidence.premises = {{"MARKER", rel::CmpOp::kEq,
                        Value::String("elevated")}};
  evidence.conclusion = {"DIAG", rel::CmpOp::kNe, Value::String("flu")};
  if (Status st = core::WsdtChaseEgd(*session.wsdt(), evidence); !st.ok()) {
    std::printf("chase failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("after conditioning on the marker evidence:\n");
  // Recompute diagnosis confidences on the cleaned record.
  if (Status st = session.Run(
          rel::Plan::Project({"DIAG"}, rel::Plan::Scan("Patient")),
          "Diagnoses2");
      !st.ok()) {
    return 1;
  }
  auto diag2 = session.PossibleTuplesWithConfidence("Diagnoses2").value();
  std::printf("%s\n", diag2.ToString().c_str());
  return 0;
}
