#include "core/engine/plan_driver.h"

#include <mutex>
#include <utility>

#include "rel/optimizer.h"

namespace maywsd::core::engine {

namespace {

/// Process-wide pool of scratch names. Backends intern relation names and
/// the interner never frees, so a name dropped by one scope is handed to
/// the next Fresh() instead of minting another: the interner stays as
/// large as the most temps ever alive at once, however many evaluations
/// run. A name is never in two live scopes (overlapping or concurrent
/// evaluations cannot collide), and kept temps are never returned.
struct ScratchNames {
  std::mutex mu;
  std::vector<std::string> free;
  uint64_t minted = 0;
};

ScratchNames& Names() {
  static ScratchNames* names = new ScratchNames();
  return *names;
}

}  // namespace

ScratchScope::~ScratchScope() {
  // Best effort on unwind; the in-flight error has priority.
  if (!temps_.empty()) (void)DropAll();
}

std::string ScratchScope::Fresh() {
  ScratchNames& names = Names();
  std::string name;
  std::vector<std::string> held;  // pooled names this backend still has
  {
    std::lock_guard<std::mutex> lock(names.mu);
    while (true) {
      if (names.free.empty()) {
        name = "__eng_tmp" + std::to_string(names.minted++);
        break;
      }
      name = std::move(names.free.back());
      names.free.pop_back();
      // A copy of this backend taken while another scope held the name
      // (a fork) may still carry it.
      if (!ops_->HasRelation(name)) break;
      held.push_back(std::move(name));
    }
    for (std::string& h : held) names.free.push_back(std::move(h));
  }
  temps_.push_back(name);
  return name;
}

Status ScratchScope::DropAll() {
  Status first = Status::Ok();
  std::vector<std::string> released;
  for (std::string& temp : temps_) {
    Status st = ops_->Drop(temp);
    if (!st.ok() && first.ok()) first = std::move(st);
    // Only a name the backend no longer holds may be handed out again.
    if (!ops_->HasRelation(temp)) released.push_back(std::move(temp));
  }
  temps_.clear();
  ops_->Compact();
  if (!released.empty()) {
    ScratchNames& names = Names();
    std::lock_guard<std::mutex> lock(names.mu);
    for (std::string& name : released) names.free.push_back(std::move(name));
  }
  return first;
}

rel::Predicate NegatePredicate(const rel::Predicate& pred) {
  using K = rel::Predicate::Kind;
  auto flip = [](rel::CmpOp op) {
    switch (op) {
      case rel::CmpOp::kEq:
        return rel::CmpOp::kNe;
      case rel::CmpOp::kNe:
        return rel::CmpOp::kEq;
      case rel::CmpOp::kLt:
        return rel::CmpOp::kGe;
      case rel::CmpOp::kLe:
        return rel::CmpOp::kGt;
      case rel::CmpOp::kGt:
        return rel::CmpOp::kLe;
      case rel::CmpOp::kGe:
        return rel::CmpOp::kLt;
    }
    return rel::CmpOp::kNe;
  };
  switch (pred.kind()) {
    case K::kTrue:
      // ¬true: an unsatisfiable comparison. '?' never occurs as a component
      // value, so A = '?' selects nothing. The attribute is resolved by the
      // driver (it substitutes a real attribute before use).
      return rel::Predicate::Cmp("", rel::CmpOp::kEq, rel::Value::Question());
    case K::kCmpConst:
      return rel::Predicate::Cmp(pred.lhs_attr(), flip(pred.op()),
                                 pred.constant());
    case K::kCmpAttr:
      return rel::Predicate::CmpAttr(pred.lhs_attr(), flip(pred.op()),
                                     pred.rhs_attr());
    case K::kAnd:
      return rel::Predicate::Or(NegatePredicate(pred.left()),
                                NegatePredicate(pred.right()));
    case K::kOr:
      return rel::Predicate::And(NegatePredicate(pred.left()),
                                 NegatePredicate(pred.right()));
    case K::kNot:
      return pred.left();
  }
  return rel::Predicate::True();
}

namespace {

/// Generic ∧/∨/¬ lowering for backends without a native predicate
/// selection: conjunctions chain, disjunctions union, negations flip.
Status LowerSelect(WorldSetOps& ops, ScratchScope& scope,
                   const std::string& src, const std::string& out,
                   const rel::Predicate& pred) {
  using K = rel::Predicate::Kind;
  switch (pred.kind()) {
    case K::kTrue:
      return ops.Copy(src, out);
    case K::kCmpConst: {
      std::string attr = pred.lhs_attr();
      if (attr.empty()) {
        // Unsatisfiable marker produced by NegatePredicate(true): select on
        // the first schema attribute against '?' (never matches).
        MAYWSD_ASSIGN_OR_RETURN(rel::Schema schema, ops.RelationSchema(src));
        attr = std::string(schema.attr(0).name_view());
      }
      return ops.SelectConst(src, out, attr, pred.op(), pred.constant());
    }
    case K::kCmpAttr:
      return ops.SelectAttrAttr(src, out, pred.lhs_attr(), pred.op(),
                                pred.rhs_attr());
    case K::kAnd: {
      std::string mid = scope.Fresh();
      MAYWSD_RETURN_IF_ERROR(LowerSelect(ops, scope, src, mid, pred.left()));
      return LowerSelect(ops, scope, mid, out, pred.right());
    }
    case K::kOr: {
      std::string a = scope.Fresh();
      std::string b = scope.Fresh();
      MAYWSD_RETURN_IF_ERROR(LowerSelect(ops, scope, src, a, pred.left()));
      MAYWSD_RETURN_IF_ERROR(LowerSelect(ops, scope, src, b, pred.right()));
      return ops.Union(a, b, out);
    }
    case K::kNot:
      return LowerSelect(ops, scope, src, out, NegatePredicate(pred.left()));
  }
  return Status::Internal("unknown predicate kind");
}

/// Splits a join predicate into the first usable equality pair plus the
/// residual conjuncts (applied as a follow-up selection).
void SplitJoinPred(const rel::Predicate& pred, const rel::Schema& ls,
                   const rel::Schema& rs, bool* have_pair, std::string* la,
                   std::string* ra, std::vector<rel::Predicate>* residual) {
  *have_pair = false;
  for (const rel::Predicate& conj : pred.Conjuncts()) {
    if (!*have_pair && conj.kind() == rel::Predicate::Kind::kCmpAttr &&
        conj.op() == rel::CmpOp::kEq) {
      if (ls.Contains(conj.lhs_attr()) && rs.Contains(conj.rhs_attr())) {
        *have_pair = true;
        *la = conj.lhs_attr();
        *ra = conj.rhs_attr();
        continue;
      }
      if (rs.Contains(conj.lhs_attr()) && ls.Contains(conj.rhs_attr())) {
        *have_pair = true;
        *la = conj.rhs_attr();
        *ra = conj.lhs_attr();
        continue;
      }
    }
    residual->push_back(conj);
  }
}

}  // namespace

Status ApplySelect(WorldSetOps& ops, ScratchScope& scope,
                   const std::string& src, const std::string& out,
                   const rel::Predicate& pred) {
  if (ops.SupportsPredicateSelect()) {
    return ops.SelectPredicate(src, out, pred);
  }
  return LowerSelect(ops, scope, src, out, pred);
}

namespace {

/// EvalPlan body for operator nodes; results are memoized by the caller.
Result<std::string> EvalPlanUncached(WorldSetOps& ops, ScratchScope& scope,
                                     const rel::Plan& plan,
                                     SubplanCache* cache) {
  using K = rel::Plan::Kind;
  switch (plan.kind()) {
    case K::kScan:
      return Status::Internal("scan nodes are handled by EvalPlan");
    case K::kSelect: {
      MAYWSD_ASSIGN_OR_RETURN(std::string child,
                              EvalPlan(ops, scope, plan.child(), cache));
      std::string out = scope.Fresh();
      MAYWSD_RETURN_IF_ERROR(
          ApplySelect(ops, scope, child, out, plan.predicate()));
      return out;
    }
    case K::kProject: {
      MAYWSD_ASSIGN_OR_RETURN(std::string child,
                              EvalPlan(ops, scope, plan.child(), cache));
      std::string out = scope.Fresh();
      MAYWSD_RETURN_IF_ERROR(ops.Project(child, out, plan.attributes()));
      return out;
    }
    case K::kRename: {
      MAYWSD_ASSIGN_OR_RETURN(std::string child,
                              EvalPlan(ops, scope, plan.child(), cache));
      std::string out = scope.Fresh();
      MAYWSD_RETURN_IF_ERROR(ops.Rename(child, out, plan.renames()));
      return out;
    }
    case K::kProduct: {
      MAYWSD_ASSIGN_OR_RETURN(std::string l,
                              EvalPlan(ops, scope, plan.left(), cache));
      MAYWSD_ASSIGN_OR_RETURN(std::string r,
                              EvalPlan(ops, scope, plan.right(), cache));
      std::string out = scope.Fresh();
      MAYWSD_RETURN_IF_ERROR(ops.Product(l, r, out));
      return out;
    }
    case K::kUnion: {
      MAYWSD_ASSIGN_OR_RETURN(std::string l,
                              EvalPlan(ops, scope, plan.left(), cache));
      MAYWSD_ASSIGN_OR_RETURN(std::string r,
                              EvalPlan(ops, scope, plan.right(), cache));
      std::string out = scope.Fresh();
      MAYWSD_RETURN_IF_ERROR(ops.Union(l, r, out));
      return out;
    }
    case K::kDifference: {
      MAYWSD_ASSIGN_OR_RETURN(std::string l,
                              EvalPlan(ops, scope, plan.left(), cache));
      MAYWSD_ASSIGN_OR_RETURN(std::string r,
                              EvalPlan(ops, scope, plan.right(), cache));
      std::string out = scope.Fresh();
      MAYWSD_RETURN_IF_ERROR(ops.Difference(l, r, out));
      return out;
    }
    case K::kJoin: {
      MAYWSD_ASSIGN_OR_RETURN(std::string l,
                              EvalPlan(ops, scope, plan.left(), cache));
      MAYWSD_ASSIGN_OR_RETURN(std::string r,
                              EvalPlan(ops, scope, plan.right(), cache));
      if (ops.SupportsHashJoin()) {
        MAYWSD_ASSIGN_OR_RETURN(rel::Schema ls, ops.RelationSchema(l));
        MAYWSD_ASSIGN_OR_RETURN(rel::Schema rs, ops.RelationSchema(r));
        bool have_pair = false;
        std::string la, ra;
        std::vector<rel::Predicate> residual;
        SplitJoinPred(plan.predicate(), ls, rs, &have_pair, &la, &ra,
                      &residual);
        if (have_pair) {
          std::string joined = scope.Fresh();
          MAYWSD_RETURN_IF_ERROR(ops.HashJoin(l, r, joined, la, ra));
          if (residual.empty()) return joined;
          std::string out = scope.Fresh();
          MAYWSD_RETURN_IF_ERROR(ApplySelect(
              ops, scope, joined, out,
              rel::Predicate::AndAll(std::move(residual))));
          return out;
        }
        // No usable equality pair: fall through to product + selection.
      }
      std::string prod = scope.Fresh();
      MAYWSD_RETURN_IF_ERROR(ops.Product(l, r, prod));
      std::string out = scope.Fresh();
      MAYWSD_RETURN_IF_ERROR(
          ApplySelect(ops, scope, prod, out, plan.predicate()));
      return out;
    }
  }
  return Status::Internal("unknown plan kind");
}

}  // namespace

Result<std::string> EvalPlan(WorldSetOps& ops, ScratchScope& scope,
                             const rel::Plan& plan, SubplanCache* cache) {
  if (plan.kind() == rel::Plan::Kind::kScan) {
    if (!ops.HasRelation(plan.relation())) {
      return Status::NotFound("relation " + plan.relation() + " not in " +
                              std::string(ops.BackendName()) + " world set");
    }
    return plan.relation();
  }
  if (cache != nullptr) {
    auto it = cache->memo.find(plan);
    if (it != cache->memo.end()) {
      ++cache->hits;
      return it->second;
    }
  }
  MAYWSD_ASSIGN_OR_RETURN(std::string out,
                          EvalPlanUncached(ops, scope, plan, cache));
  if (cache != nullptr) {
    ++cache->misses;
    cache->memo.emplace(plan, out);
  }
  return out;
}

Status Evaluate(WorldSetOps& ops, const rel::Plan& plan,
                const std::string& out, bool keep_temps) {
  ScratchScope scope(ops);
  MAYWSD_ASSIGN_OR_RETURN(std::string result, EvalPlan(ops, scope, plan));
  // Materialize the final result under `out` (a copy keeps the result
  // valid even when `result` is an input relation or a dropped temp).
  MAYWSD_RETURN_IF_ERROR(ops.Copy(result, out));
  if (keep_temps) {
    scope.Keep();
    return Status::Ok();
  }
  return scope.DropAll();
}

Status EvaluateOptimized(WorldSetOps& ops, const rel::Plan& plan,
                         const std::string& out) {
  MAYWSD_ASSIGN_OR_RETURN(rel::Plan optimized, OptimizeForBackend(ops, plan));
  return Evaluate(ops, optimized, out);
}

Result<rel::Plan> OptimizeForBackend(WorldSetOps& ops, const rel::Plan& plan) {
  // The optimizer only needs schemas for attribute-scoping decisions; the
  // backend catalog supplies them.
  std::vector<std::pair<std::string, rel::Schema>> schemas;
  for (const std::string& name : ops.RelationNames()) {
    MAYWSD_ASSIGN_OR_RETURN(rel::Schema schema, ops.RelationSchema(name));
    schemas.emplace_back(name, std::move(schema));
  }
  return rel::Optimize(plan, schemas);
}

Status EvaluateBatch(WorldSetOps& ops, std::span<const rel::Plan> plans,
                     std::span<const std::string> outs, bool cache_subplans,
                     BatchStats* stats) {
  if (plans.size() != outs.size()) {
    return Status::InvalidArgument(
        "EvaluateBatch: " + std::to_string(plans.size()) + " plans vs " +
        std::to_string(outs.size()) + " outputs");
  }
  ScratchScope scope(ops);
  SubplanCache cache;
  SubplanCache* cache_ptr = cache_subplans ? &cache : nullptr;
  Status first = Status::Ok();
  for (size_t i = 0; i < plans.size(); ++i) {
    auto result = EvalPlan(ops, scope, plans[i], cache_ptr);
    if (result.ok()) {
      first = ops.Copy(*result, outs[i]);
    } else {
      first = result.status();
    }
    if (!first.ok()) break;
  }
  if (stats != nullptr) {
    stats->cache_hits = cache.hits;
    stats->cache_misses = cache.misses;
  }
  Status drop = scope.DropAll();
  return first.ok() ? drop : first;
}

}  // namespace maywsd::core::engine
