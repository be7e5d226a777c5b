#include "core/engine/update_plan.h"

#include <iterator>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/engine/plan_driver.h"
#include "rel/plan_hash.h"

namespace maywsd::core::engine {

namespace {

/// Adds every relation a plan's scan leaves read to `out`.
void CollectScanRelations(const rel::Plan& plan, std::set<std::string>& out) {
  if (plan.kind() == rel::Plan::Kind::kScan) {
    out.insert(plan.relation());
    return;
  }
  CollectScanRelations(plan.left(), out);
  if (plan.has_right()) CollectScanRelations(plan.right(), out);
}

}  // namespace

Status ValidateUpdate(WorldSetOps& ops, const rel::UpdateOp& op) {
  if (!ops.HasRelation(op.relation())) {
    return Status::NotFound("update target relation " + op.relation());
  }
  MAYWSD_ASSIGN_OR_RETURN(rel::Schema schema,
                          ops.RelationSchema(op.relation()));
  switch (op.kind()) {
    case rel::UpdateOp::Kind::kInsert: {
      const rel::Relation& tuples = op.tuples();
      if (tuples.arity() != schema.arity()) {
        return Status::InvalidArgument(
            "insert arity mismatch on " + op.relation() + ": got " +
            std::to_string(tuples.arity()) + ", want " +
            std::to_string(schema.arity()));
      }
      for (size_t a = 0; a < schema.arity(); ++a) {
        if (tuples.schema().attr(a).name != schema.attr(a).name) {
          return Status::InvalidArgument(
              "insert attribute mismatch on " + op.relation() + ": " +
              std::string(tuples.schema().attr(a).name_view()) + " vs " +
              std::string(schema.attr(a).name_view()));
        }
      }
      MAYWSD_RETURN_IF_ERROR(CheckCertainRelation(tuples));
      break;
    }
    case rel::UpdateOp::Kind::kModify: {
      if (op.assignments().empty()) {
        return Status::InvalidArgument("modify of " + op.relation() +
                                       " assigns nothing");
      }
      std::set<std::string> seen;
      for (const rel::Assignment& a : op.assignments()) {
        if (!schema.Contains(a.attr)) {
          return Status::NotFound("assignment attribute " + a.attr +
                                  " not in " + op.relation());
        }
        if (!seen.insert(a.attr).second) {
          return Status::InvalidArgument("attribute " + a.attr +
                                         " assigned twice");
        }
        if (a.value.is_bottom() || a.value.is_question()) {
          return Status::InvalidArgument("assignment to " + a.attr +
                                         " is not a constant");
        }
      }
      [[fallthrough]];
    }
    case rel::UpdateOp::Kind::kDelete: {
      for (const std::string& a : op.predicate().ReferencedAttributes()) {
        if (!schema.Contains(a)) {
          return Status::NotFound("predicate attribute " + a + " not in " +
                                  op.relation());
        }
      }
      break;
    }
  }
  return Status::Ok();
}

Status ApplyUpdate(WorldSetOps& ops, const rel::UpdateOp& op) {
  MAYWSD_RETURN_IF_ERROR(ValidateUpdate(ops, op));
  if (!op.has_world_condition()) {
    return ops.ApplyUpdate(op, std::string());
  }
  ScratchScope scope(ops);
  MAYWSD_ASSIGN_OR_RETURN(std::string guard,
                          EvalPlan(ops, scope, op.world_condition()));
  // A bare-scan condition evaluates to the scanned relation itself; copy
  // it so the guard is a snapshot — the update may mutate that very
  // relation and must not feed back into its own world condition.
  if (op.world_condition().kind() == rel::Plan::Kind::kScan) {
    std::string snapshot = scope.Fresh();
    MAYWSD_RETURN_IF_ERROR(ops.Copy(guard, snapshot));
    guard = snapshot;
  }
  MAYWSD_RETURN_IF_ERROR(ops.ApplyUpdate(op, guard));
  return scope.DropAll();
}

Status ApplyUpdates(WorldSetOps& ops, std::span<const rel::UpdateOp> ops_list,
                    UpdateBatchStats* stats) {
  /// A materialized guard snapshot plus the relations its condition read
  /// (an applied update on any of them invalidates the snapshot).
  struct CachedGuard {
    std::string guard;
    std::set<std::string> scans;
  };
  std::unordered_map<rel::Plan, CachedGuard, rel::PlanHasher, rel::PlanEq>
      guards;
  ScratchScope scope(ops);
  Status st = Status::Ok();
  for (const rel::UpdateOp& op : ops_list) {
    st = ValidateUpdate(ops, op);
    if (!st.ok()) break;
    std::string guard;
    if (op.has_world_condition()) {
      auto it = guards.find(op.world_condition());
      if (it == guards.end()) {
        auto guard_or = EvalPlan(ops, scope, op.world_condition());
        if (!guard_or.ok()) {
          st = guard_or.status();
          break;
        }
        // Snapshot unconditionally (not just for bare scans, as the
        // single-op path does): the cached guard outlives this op, so it
        // must not alias anything a later batched update may mutate.
        std::string snapshot = scope.Fresh();
        st = ops.Copy(guard_or.value(), snapshot);
        if (!st.ok()) break;
        CachedGuard cached;
        cached.guard = std::move(snapshot);
        CollectScanRelations(op.world_condition(), cached.scans);
        it = guards.emplace(op.world_condition(), std::move(cached)).first;
        if (stats != nullptr) stats->guard_materializations++;
      } else if (stats != nullptr) {
        stats->guard_shares++;
      }
      guard = it->second.guard;
    }
    st = ops.ApplyUpdate(op, guard);
    if (!st.ok()) break;
    // The applied op mutated its target: cached guards whose condition
    // read it are stale now — sequential semantics re-evaluate them.
    for (auto it = guards.begin(); it != guards.end();) {
      it = it->second.scans.count(op.relation()) ? guards.erase(it)
                                                 : std::next(it);
    }
  }
  Status drop = scope.DropAll();
  return st.ok() ? drop : st;
}

}  // namespace maywsd::core::engine
