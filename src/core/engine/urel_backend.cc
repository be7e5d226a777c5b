#include "core/engine/urel_backend.h"

#include "core/wsdt_algebra.h"
#include "core/wsdt_confidence.h"
#include "core/wsdt_normalize.h"
#include "core/wsdt_update.h"

namespace maywsd::core::engine {

bool UrelBackend::HasRelation(const std::string& name) const {
  return urel_->Contains(name);
}

std::vector<std::string> UrelBackend::RelationNames() const {
  return urel_->Names();
}

Result<rel::Schema> UrelBackend::RelationSchema(const std::string& name) const {
  MAYWSD_ASSIGN_OR_RETURN(const UrelRelation* r, urel_->Get(name));
  return r->schema;
}

Status UrelBackend::AddCertainRelation(const rel::Relation& relation) {
  if (urel_->Contains(relation.name())) {
    return Status::AlreadyExists("relation " + relation.name());
  }
  MAYWSD_RETURN_IF_ERROR(CheckCertainRelation(relation));
  UrelRelation r;
  r.name = relation.name();
  r.schema = relation.schema();
  r.columns.resize(relation.arity());
  std::vector<UrelValueId> values(relation.arity());
  for (size_t i = 0; i < relation.NumRows(); ++i) {
    for (size_t a = 0; a < relation.arity(); ++a) {
      values[a] = urel_->Intern(relation.row(i)[a]);
    }
    r.AppendTuple(values, {});
  }
  return urel_->Add(std::move(r));
}

Status UrelBackend::Copy(const std::string& src, const std::string& out) {
  return UrelCopy(*urel_, src, out);
}

Status UrelBackend::SelectConst(const std::string& src, const std::string& out,
                                const std::string& attr, rel::CmpOp op,
                                const rel::Value& constant) {
  return UrelSelectConst(*urel_, src, out, attr, op, constant);
}

Status UrelBackend::SelectAttrAttr(const std::string& src,
                                   const std::string& out,
                                   const std::string& attr_a, rel::CmpOp op,
                                   const std::string& attr_b) {
  return UrelSelectAttrAttr(*urel_, src, out, attr_a, op, attr_b);
}

Status UrelBackend::Product(const std::string& left, const std::string& right,
                            const std::string& out) {
  return UrelProduct(*urel_, left, right, out);
}

Status UrelBackend::Union(const std::string& left, const std::string& right,
                          const std::string& out) {
  return UrelUnion(*urel_, left, right, out);
}

Status UrelBackend::Project(const std::string& src, const std::string& out,
                            const std::vector<std::string>& attrs) {
  return UrelProject(*urel_, src, out, attrs);
}

Status UrelBackend::Rename(
    const std::string& src, const std::string& out,
    const std::vector<std::pair<std::string, std::string>>& renames) {
  return UrelRename(*urel_, src, out, renames);
}

Status UrelBackend::Difference(const std::string& left,
                               const std::string& right,
                               const std::string& out) {
  Status st = UrelDifference(*urel_, left, right, out);
  if (st.code() != StatusCode::kUnsupported) return st;
  // Assignment expansion blew the cap: compose in the template semantics.
  return Fallback(
      [&](Wsdt& wsdt) { return WsdtDifference(wsdt, left, right, out); });
}

Status UrelBackend::Drop(const std::string& name) {
  return UrelDrop(*urel_, name);
}

Result<rel::Relation> UrelBackend::PossibleTuples(
    const std::string& relation) const {
  return UrelPossibleTuples(*urel_, relation);
}

Result<rel::Relation> UrelBackend::PossibleTuplesWithConfidence(
    const std::string& relation) const {
  Result<rel::Relation> r = UrelPossibleTuplesWithConfidence(*urel_, relation);
  if (r.ok() || r.status().code() != StatusCode::kUnsupported) return r;
  MAYWSD_ASSIGN_OR_RETURN(Wsdt wsdt, ImportUrel(*urel_));
  return WsdtPossibleTuplesWithConfidence(wsdt, relation);
}

Result<rel::Relation> UrelBackend::CertainTuples(
    const std::string& relation) const {
  Result<rel::Relation> r = UrelCertainTuples(*urel_, relation);
  if (r.ok() || r.status().code() != StatusCode::kUnsupported) return r;
  MAYWSD_ASSIGN_OR_RETURN(Wsdt wsdt, ImportUrel(*urel_));
  return WsdtCertainTuples(wsdt, relation);
}

Result<double> UrelBackend::TupleConfidence(
    const std::string& relation, std::span<const rel::Value> tuple) const {
  Result<double> r = UrelTupleConfidence(*urel_, relation, tuple);
  if (r.ok() || r.status().code() != StatusCode::kUnsupported) return r;
  MAYWSD_ASSIGN_OR_RETURN(Wsdt wsdt, ImportUrel(*urel_));
  return WsdtTupleConfidence(wsdt, relation, tuple);
}

Result<bool> UrelBackend::TupleCertain(const std::string& relation,
                                       std::span<const rel::Value> tuple) const {
  Result<bool> r = UrelTupleCertain(*urel_, relation, tuple);
  if (r.ok() || r.status().code() != StatusCode::kUnsupported) return r;
  MAYWSD_ASSIGN_OR_RETURN(Wsdt wsdt, ImportUrel(*urel_));
  return WsdtTupleCertain(wsdt, relation, tuple);
}

Status UrelBackend::ApplyUpdate(const rel::UpdateOp& op,
                                const std::string& guard) {
  Status st = UrelApplyUpdate(*urel_, op, guard);
  if (st.code() != StatusCode::kUnsupported) return st;
  // The guard's assignment expansion blew the cap and left the store
  // untouched: apply the update in the template semantics.
  return Fallback(
      [&](Wsdt& wsdt) { return WsdtApplyUpdate(wsdt, op, guard); });
}

Status UrelBackend::SelectPredicate(const std::string& src,
                                    const std::string& out,
                                    const rel::Predicate& pred) {
  return UrelSelectPredicate(*urel_, src, out, pred);
}

Status UrelBackend::HashJoin(const std::string& left, const std::string& right,
                             const std::string& out,
                             const std::string& left_attr,
                             const std::string& right_attr) {
  return UrelJoin(*urel_, left, right, out, left_attr, right_attr);
}

Status UrelBackend::Fallback(const std::function<Status(Wsdt&)>& op) {
  MAYWSD_ASSIGN_OR_RETURN(Wsdt wsdt, ImportUrel(*urel_));
  // ImportUrel gives every variable value its own local world, even when
  // the fields it covers take fewer distinct rows; merge those before `op`
  // composes components, or the product multiplies the duplicates.
  MAYWSD_RETURN_IF_ERROR(WsdtCompressComponents(wsdt));
  MAYWSD_RETURN_IF_ERROR(op(wsdt));
  MAYWSD_ASSIGN_OR_RETURN(Urel out, ExportUrel(wsdt));
  *urel_ = std::move(out);
  ++round_trips_;
  return Status::Ok();
}

}  // namespace maywsd::core::engine
