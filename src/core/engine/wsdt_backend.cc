#include "core/engine/wsdt_backend.h"

#include "core/wsdt_algebra.h"
#include "core/wsdt_confidence.h"
#include "core/wsdt_update.h"

namespace maywsd::core::engine {

bool WsdtBackend::HasRelation(const std::string& name) const {
  return wsdt_->HasRelation(name);
}

std::vector<std::string> WsdtBackend::RelationNames() const {
  return wsdt_->RelationNames();
}

Result<rel::Schema> WsdtBackend::RelationSchema(const std::string& name) const {
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* tmpl, wsdt_->Template(name));
  return tmpl->schema();
}

Status WsdtBackend::AddCertainRelation(const rel::Relation& relation) {
  MAYWSD_RETURN_IF_ERROR(CheckCertainRelation(relation));
  // A fully certain instance is a template with no placeholders.
  return wsdt_->AddTemplateRelation(relation);
}

Status WsdtBackend::Copy(const std::string& src, const std::string& out) {
  return WsdtCopy(*wsdt_, src, out);
}

Status WsdtBackend::SelectConst(const std::string& src, const std::string& out,
                                const std::string& attr, rel::CmpOp op,
                                const rel::Value& constant) {
  return WsdtSelect(*wsdt_, src, out, rel::Predicate::Cmp(attr, op, constant));
}

Status WsdtBackend::SelectAttrAttr(const std::string& src,
                                   const std::string& out,
                                   const std::string& attr_a, rel::CmpOp op,
                                   const std::string& attr_b) {
  return WsdtSelect(*wsdt_, src, out,
                    rel::Predicate::CmpAttr(attr_a, op, attr_b));
}

Status WsdtBackend::Product(const std::string& left, const std::string& right,
                            const std::string& out) {
  return WsdtProduct(*wsdt_, left, right, out);
}

Status WsdtBackend::Union(const std::string& left, const std::string& right,
                          const std::string& out) {
  return WsdtUnion(*wsdt_, left, right, out);
}

Status WsdtBackend::Project(const std::string& src, const std::string& out,
                            const std::vector<std::string>& attrs) {
  return WsdtProject(*wsdt_, src, out, attrs);
}

Status WsdtBackend::Rename(
    const std::string& src, const std::string& out,
    const std::vector<std::pair<std::string, std::string>>& renames) {
  return WsdtRename(*wsdt_, src, out, renames);
}

Status WsdtBackend::Difference(const std::string& left,
                               const std::string& right,
                               const std::string& out) {
  return WsdtDifference(*wsdt_, left, right, out);
}

Status WsdtBackend::ApplyUpdate(const rel::UpdateOp& op,
                                const std::string& guard) {
  return WsdtApplyUpdate(*wsdt_, op, guard);
}

Status WsdtBackend::Drop(const std::string& name) {
  return wsdt_->DropRelation(name);
}

void WsdtBackend::Compact() {
  // Compaction rebuilds the slot vector and the field index, O(store):
  // run it only once dead slots are at least as many as live ones, so its
  // cost is amortized over the plans that killed them.
  size_t dead = wsdt_->NumDeadComponents();
  if (dead > 0 && dead >= wsdt_->NumComponentSlots() - dead) {
    wsdt_->CompactComponents();
  }
}

Result<rel::Relation> WsdtBackend::PossibleTuples(
    const std::string& relation) const {
  return WsdtPossibleTuples(*wsdt_, relation);
}

Result<rel::Relation> WsdtBackend::PossibleTuplesWithConfidence(
    const std::string& relation) const {
  return WsdtPossibleTuplesWithConfidence(*wsdt_, relation);
}

Result<rel::Relation> WsdtBackend::CertainTuples(
    const std::string& relation) const {
  return WsdtCertainTuples(*wsdt_, relation);
}

Result<double> WsdtBackend::TupleConfidence(
    const std::string& relation, std::span<const rel::Value> tuple) const {
  return WsdtTupleConfidence(*wsdt_, relation, tuple);
}

Result<bool> WsdtBackend::TupleCertain(
    const std::string& relation, std::span<const rel::Value> tuple) const {
  return WsdtTupleCertain(*wsdt_, relation, tuple);
}

Status WsdtBackend::SelectPredicate(const std::string& src,
                                    const std::string& out,
                                    const rel::Predicate& pred) {
  return WsdtSelect(*wsdt_, src, out, pred);
}

Status WsdtBackend::HashJoin(const std::string& left, const std::string& right,
                             const std::string& out,
                             const std::string& left_attr,
                             const std::string& right_attr) {
  return WsdtJoin(*wsdt_, left, right, out, left_attr, right_attr);
}

}  // namespace maywsd::core::engine
