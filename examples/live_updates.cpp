// Live updates: mutate a world set, then ask again — no rebuild.
//
// Before this subsystem every scenario rebuilt its Session from scratch;
// now a session serves interleaved queries and updates. The scenario:
//
// 1. A parts inventory where one delivery is uncertain — the shipment
//    relation holds a row that exists only in some worlds.
// 2. Certain maintenance: insert a new part, retire an old one, fix a
//    mislabeled category (plain insert / delete-where / modify-where).
// 3. A *world-conditional* update: "if any shipment arrived, mark part 20
//    as in stock" — applied exactly in the worlds where the shipment
//    exists, keeping the answers' uncertainty honest.
// 4. Re-query possible/certain tuples and confidences; the memoized answer
//    surface serves repeated asks from cache until the next update
//    invalidates it (Session::Stats()).
//
// Everything runs on all three backends to show they stay interchangeable
// under mutation.

#include <cstdio>

#include "api/session.h"
#include "core/component.h"
#include "core/wsd.h"
#include "core/wsdt.h"
#include "rel/update.h"

using namespace maywsd;
using core::Component;
using core::FieldKey;
using rel::CmpOp;
using rel::Plan;
using rel::Predicate;
using rel::UpdateOp;
using rel::Value;

namespace {

/// Parts(ID, CAT, STOCK) is certain; Shipment(PART) holds one row that
/// exists in 40% of the worlds (a ⊥ local world encodes its absence).
core::Wsd Inventory() {
  core::Wsd wsd;
  (void)wsd.AddRelation("Parts", rel::Schema::FromNames({"ID", "CAT",
                                                         "STOCK"}),
                        2);
  (void)wsd.AddCertainField(FieldKey("Parts", 0, "ID"), Value::Int(10));
  (void)wsd.AddCertainField(FieldKey("Parts", 0, "CAT"), Value::Int(1));
  (void)wsd.AddCertainField(FieldKey("Parts", 0, "STOCK"), Value::Int(0));
  (void)wsd.AddCertainField(FieldKey("Parts", 1, "ID"), Value::Int(20));
  (void)wsd.AddCertainField(FieldKey("Parts", 1, "CAT"), Value::Int(9));
  (void)wsd.AddCertainField(FieldKey("Parts", 1, "STOCK"), Value::Int(0));
  (void)wsd.AddRelation("Shipment", rel::Schema::FromNames({"PART"}), 1);
  Component c({FieldKey("Shipment", 0, "PART")});
  c.AddWorld({Value::Int(20)}, 0.4);
  c.AddWorld({Value::Bottom()}, 0.6);  // no delivery in these worlds
  (void)wsd.AddComponent(std::move(c));
  return wsd;
}

Status RunScenario(api::Session& session, const char* backend) {
  std::printf("== %s backend\n", backend);

  // -- Certain maintenance. -------------------------------------------------
  rel::Relation new_part(rel::Schema::FromNames({"ID", "CAT", "STOCK"}),
                         "new");
  new_part.AppendRow({Value::Int(30), Value::Int(1), Value::Int(5)});
  MAYWSD_RETURN_IF_ERROR(
      session.Apply(UpdateOp::InsertTuples("Parts", new_part)));
  MAYWSD_RETURN_IF_ERROR(session.Apply(UpdateOp::DeleteWhere(
      "Parts", Predicate::Cmp("ID", CmpOp::kEq, Value::Int(10)))));
  MAYWSD_RETURN_IF_ERROR(session.Apply(UpdateOp::ModifyWhere(
      "Parts", Predicate::Cmp("CAT", CmpOp::kEq, Value::Int(9)),
      {{"CAT", Value::Int(2)}})));

  // -- The conditional restock: only in worlds with a delivery. -------------
  MAYWSD_RETURN_IF_ERROR(session.Apply(
      UpdateOp::ModifyWhere("Parts",
                            Predicate::Cmp("ID", CmpOp::kEq, Value::Int(20)),
                            {{"STOCK", Value::Int(7)}})
          .When(Plan::Scan("Shipment"))));

  // -- Re-query. ------------------------------------------------------------
  MAYWSD_ASSIGN_OR_RETURN(rel::Relation possible,
                          session.PossibleTuples("Parts"));
  MAYWSD_ASSIGN_OR_RETURN(rel::Relation certain,
                          session.CertainTuples("Parts"));
  std::printf("possible(Parts):\n%s", possible.ToString().c_str());
  std::printf("certain(Parts):\n%s", certain.ToString().c_str());

  std::vector<Value> restocked{Value::Int(20), Value::Int(2), Value::Int(7)};
  std::vector<Value> unstocked{Value::Int(20), Value::Int(2), Value::Int(0)};
  MAYWSD_ASSIGN_OR_RETURN(double conf_restocked,
                          session.TupleConfidence("Parts", restocked));
  MAYWSD_ASSIGN_OR_RETURN(double conf_unstocked,
                          session.TupleConfidence("Parts", unstocked));
  std::printf("conf(part 20 restocked) = %.2f, conf(still empty) = %.2f\n",
              conf_restocked, conf_unstocked);

  // Asking again is free until the next update invalidates the memo.
  MAYWSD_RETURN_IF_ERROR(session.PossibleTuples("Parts").status());
  const api::SessionStats& stats = session.Stats();
  std::printf(
      "stats: %llu updates applied, answer cache %llu hits / %llu misses\n\n",
      static_cast<unsigned long long>(stats.applies),
      static_cast<unsigned long long>(stats.answer_cache_hits),
      static_cast<unsigned long long>(stats.answer_cache_misses));
  return Status::Ok();
}

}  // namespace

int main() {
  core::Wsd wsd = Inventory();

  auto over_wsd = api::Session::Open(wsd);
  if (!over_wsd.ok()) return 1;
  if (!RunScenario(over_wsd.value(), "wsd").ok()) return 1;

  auto wsdt = core::Wsdt::FromWsd(wsd);
  if (!wsdt.ok()) return 1;
  api::Session over_wsdt = api::Session::Open(std::move(wsdt).value());
  if (!RunScenario(over_wsdt, "wsdt").ok()) return 1;

  auto uniform = api::Session::Open(api::BackendKind::kUniform,
                                    core::Wsdt::FromWsd(wsd).value());
  if (!uniform.ok()) return 1;
  if (!RunScenario(uniform.value(), "uniform").ok()) return 1;

  auto urel = api::Session::Open(api::BackendKind::kUrel,
                                 core::Wsdt::FromWsd(wsd).value());
  if (!urel.ok()) return 1;
  if (!RunScenario(urel.value(), "urel").ok()) return 1;

  std::printf("all four backends served the same mutating session.\n");
  return 0;
}
