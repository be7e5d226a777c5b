#include "core/engine/uniform_backend.h"

#include "core/uniform.h"
#include "core/wsdt_confidence.h"

namespace maywsd::core::engine {

namespace {

bool IsSystemRelation(const std::string& name) {
  return name == kUniformC || name == kUniformF || name == kUniformW;
}

}  // namespace

bool UniformBackend::HasRelation(const std::string& name) const {
  return !IsSystemRelation(name) && db_->Contains(name);
}

std::vector<std::string> UniformBackend::RelationNames() const {
  std::vector<std::string> names;
  for (const std::string& name : db_->Names()) {
    if (!IsSystemRelation(name)) names.push_back(name);
  }
  return names;
}

Result<rel::Schema> UniformBackend::RelationSchema(
    const std::string& name) const {
  if (IsSystemRelation(name)) {
    return Status::NotFound("relation " + name + " is a system relation");
  }
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* tmpl, db_->GetRelation(name));
  auto tid_idx = tmpl->schema().IndexOf(kTidColumn);
  if (!tid_idx || *tid_idx != 0) {
    return Status::InvalidArgument("template " + name +
                                   " lacks a leading TID column");
  }
  // The certain schema the driver reasons about excludes the TID column.
  return rel::Schema(std::vector<rel::Attribute>(
      tmpl->schema().attrs().begin() + 1, tmpl->schema().attrs().end()));
}

Status UniformBackend::AddCertainRelation(const rel::Relation& relation) {
  if (IsSystemRelation(relation.name())) {
    return Status::InvalidArgument("relation name " + relation.name() +
                                   " is reserved");
  }
  if (db_->Contains(relation.name())) {
    return Status::AlreadyExists("relation " + relation.name());
  }
  MAYWSD_RETURN_IF_ERROR(CheckCertainRelation(relation));
  std::vector<rel::Attribute> attrs;
  attrs.emplace_back(kTidColumn, rel::AttrType::kInt);
  for (const rel::Attribute& a : relation.schema().attrs()) {
    attrs.push_back(a);
  }
  rel::Relation tmpl{rel::Schema(std::move(attrs)), relation.name()};
  std::vector<rel::Value> row(tmpl.arity());
  for (size_t r = 0; r < relation.NumRows(); ++r) {
    row[0] = rel::Value::Int(static_cast<int64_t>(r));
    for (size_t a = 0; a < relation.arity(); ++a) {
      row[a + 1] = relation.row(r)[a];
    }
    tmpl.AppendRow(row);
  }
  return db_->AddRelation(std::move(tmpl));
}

Status UniformBackend::Copy(const std::string& src, const std::string& out) {
  return UniformCopy(*db_, src, out);
}

Status UniformBackend::SelectConst(const std::string& src,
                                   const std::string& out,
                                   const std::string& attr, rel::CmpOp op,
                                   const rel::Value& constant) {
  return UniformSelectConst(*db_, src, out, attr, op, constant);
}

Status UniformBackend::SelectAttrAttr(const std::string& src,
                                      const std::string& out,
                                      const std::string& attr_a, rel::CmpOp op,
                                      const std::string& attr_b) {
  return UniformSelectAttrAttr(*db_, src, out, attr_a, op, attr_b);
}

Status UniformBackend::Product(const std::string& left,
                               const std::string& right,
                               const std::string& out) {
  return UniformProduct(*db_, left, right, out);
}

Status UniformBackend::Union(const std::string& left, const std::string& right,
                             const std::string& out) {
  return UniformUnion(*db_, left, right, out);
}

Status UniformBackend::Project(const std::string& src, const std::string& out,
                               const std::vector<std::string>& attrs) {
  return UniformProject(*db_, src, out, attrs);
}

Status UniformBackend::Rename(
    const std::string& src, const std::string& out,
    const std::vector<std::pair<std::string, std::string>>& renames) {
  return UniformRename(*db_, src, out, renames);
}

Status UniformBackend::Difference(const std::string& left,
                                  const std::string& right,
                                  const std::string& out) {
  return UniformDifference(*db_, left, right, out);
}

Status UniformBackend::ApplyUpdate(const rel::UpdateOp& op,
                                   const std::string& guard) {
  return UniformApplyUpdate(*db_, op, guard);
}

Status UniformBackend::Drop(const std::string& name) {
  return UniformDrop(*db_, name);
}

void UniformBackend::Compact() { (void)UniformCompact(*db_); }

Result<rel::Relation> UniformBackend::PossibleTuples(
    const std::string& relation) const {
  MAYWSD_ASSIGN_OR_RETURN(Wsdt slice, Slice(relation));
  return WsdtPossibleTuples(slice, relation);
}

Result<rel::Relation> UniformBackend::PossibleTuplesWithConfidence(
    const std::string& relation) const {
  MAYWSD_ASSIGN_OR_RETURN(Wsdt slice, Slice(relation));
  return WsdtPossibleTuplesWithConfidence(slice, relation);
}

Result<rel::Relation> UniformBackend::CertainTuples(
    const std::string& relation) const {
  MAYWSD_ASSIGN_OR_RETURN(Wsdt slice, Slice(relation));
  return WsdtCertainTuples(slice, relation);
}

Result<double> UniformBackend::TupleConfidence(
    const std::string& relation, std::span<const rel::Value> tuple) const {
  MAYWSD_ASSIGN_OR_RETURN(Wsdt slice, Slice(relation));
  return WsdtTupleConfidence(slice, relation, tuple);
}

Result<bool> UniformBackend::TupleCertain(
    const std::string& relation, std::span<const rel::Value> tuple) const {
  MAYWSD_ASSIGN_OR_RETURN(Wsdt slice, Slice(relation));
  return WsdtTupleCertain(slice, relation, tuple);
}

Result<Wsdt> UniformBackend::Slice(const std::string& relation) const {
  if (IsSystemRelation(relation)) {
    return Status::NotFound("relation " + relation + " is a system relation");
  }
  return ImportUniform(*db_, {relation});
}

}  // namespace maywsd::core::engine
