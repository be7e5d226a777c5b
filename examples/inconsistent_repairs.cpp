// Inconsistent databases and minimal repairs (Section 10).
//
// An employee table violates the key constraint EMP → SALARY: two sources
// report different salaries for the same employees. Each minimal repair
// keeps exactly one conflicting tuple per employee; the set of repairs is a
// world-set that overlaps heavily, so it decomposes into one small
// component per conflict while the consistent tuples live in the template.
//
// Consistent query answering returns only the certain tuples; the WSD
// keeps the full set of repairs, so we can also report the possible
// answers and their confidences — strictly more information.

#include <cstdio>

#include "api/session.h"
#include "core/normalize.h"
#include "core/worldset.h"

using namespace maywsd;
using core::PossibleWorld;
using rel::Value;

namespace {

/// One employee fact: name, department, salary.
struct Fact {
  const char* name;
  const char* dept;
  int64_t salary;
};

/// Builds one repair (choice `mask` picks which conflicting fact wins).
PossibleWorld MakeRepair(const std::vector<Fact>& consistent,
                         const std::vector<std::pair<Fact, Fact>>& conflicts,
                         unsigned mask, double prob) {
  PossibleWorld world;
  rel::Relation emp(rel::Schema::FromNames({"EMP", "DEPT", "SALARY"}),
                    "Employees");
  auto add = [&emp](const Fact& f) {
    emp.AppendRow({Value::String(f.name), Value::String(f.dept),
                   Value::Int(f.salary)});
  };
  for (const Fact& f : consistent) add(f);
  for (size_t i = 0; i < conflicts.size(); ++i) {
    add((mask >> i) & 1 ? conflicts[i].second : conflicts[i].first);
  }
  emp.SortDedup();
  world.db.PutRelation(std::move(emp));
  world.prob = prob;
  return world;
}

}  // namespace

int main() {
  std::vector<Fact> consistent = {
      {"Alice", "Eng", 95000},
      {"Bob", "Sales", 70000},
      {"Carol", "Eng", 120000},
  };
  // Two employees have conflicting salary reports.
  std::vector<std::pair<Fact, Fact>> conflicts = {
      {{"Dave", "Eng", 88000}, {"Dave", "Eng", 91000}},
      {{"Eve", "Sales", 64000}, {"Eve", "Sales", 75000}},
  };

  // The four minimal repairs, equally likely.
  std::vector<PossibleWorld> repairs;
  for (unsigned mask = 0; mask < 4; ++mask) {
    repairs.push_back(MakeRepair(consistent, conflicts, mask, 0.25));
  }
  std::printf("%zu minimal repairs of the inconsistent database\n",
              repairs.size());

  // Decompose: the template holds the consistent tuples once; each
  // conflict becomes one independent component.
  core::Wsd wsd = core::WsdFromWorlds(repairs).value();
  if (Status st = core::NormalizeWsd(wsd); !st.ok()) return 1;
  auto wsdt = core::Wsdt::FromWsd(wsd).value();
  core::WsdtStats stats = wsdt.ComputeStats();
  std::printf(
      "WSDT of the repairs: template=%zu rows, #comp=%zu (one per "
      "conflict)\n\n",
      stats.template_rows, stats.num_components);

  // Query: engineers earning at least 90000 — through the Session facade.
  auto session_or = api::Session::Open(wsd);
  if (!session_or.ok()) return 1;
  api::Session session = std::move(session_or).value();
  rel::Plan q = rel::Plan::Project(
      {"EMP"},
      rel::Plan::Select(
          rel::Predicate::And(
              rel::Predicate::Cmp("DEPT", rel::CmpOp::kEq,
                                  Value::String("Eng")),
              rel::Predicate::Cmp("SALARY", rel::CmpOp::kGe,
                                  Value::Int(90000))),
          rel::Plan::Scan("Employees")));
  if (Status st = session.Run(q, "HighPaidEng"); !st.ok()) {
    std::printf("query failed: %s\n", st.ToString().c_str());
    return 1;
  }
  auto answers = session.PossibleTuplesWithConfidence("HighPaidEng");
  if (!answers.ok()) return 1;
  std::printf("possible answers with confidence:\n%s\n",
              answers->ToString().c_str());
  auto certain = session.CertainTuples("HighPaidEng");
  if (!certain.ok()) return 1;
  std::printf("consistent (certain) answers — confidence 1:\n%s\n",
              certain->ToString().c_str());
  std::printf(
      "\nconsistent query answering would return only the certain rows;\n"
      "the WSD additionally ranks Dave by the fraction of repairs that\n"
      "support him.\n");
  return 0;
}
