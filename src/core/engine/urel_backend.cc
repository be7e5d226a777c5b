#include "core/engine/urel_backend.h"

#include <unordered_map>

#include "core/engine/shard_plan.h"
#include "core/wsdt_algebra.h"
#include "core/wsdt_confidence.h"
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

Result<bool> UrelBackend::RelationCertain(const std::string& name) const {
  MAYWSD_ASSIGN_OR_RETURN(const UrelRelation* r, urel_->Get(name));
  return r->desc_entries.empty();
}

Status UrelBackend::Fallback(const std::function<Status(Wsdt&)>& op) {
  MAYWSD_ASSIGN_OR_RETURN(Wsdt wsdt, ImportUrel(*urel_));
  MAYWSD_RETURN_IF_ERROR(op(wsdt));
  MAYWSD_ASSIGN_OR_RETURN(Urel out, ExportUrel(wsdt));
  *urel_ = std::move(out);
  ++round_trips_;
  return Status::Ok();
}

// -- Sharding -----------------------------------------------------------------

namespace {

/// Appends `src`'s rows into `dst` under fresh TIDs. Descriptors transfer
/// verbatim (both stores carry the same variable table); data ids transfer
/// verbatim too while the stores still share one symbol table, and are
/// re-interned only after a shard's dictionary diverged.
void AppendUrelRows(const Urel& from, const UrelRelation& src, Urel& into,
                    UrelRelation& dst) {
  size_t n = src.NumRows();
  if (into.SharesSymbolsWith(from)) {
    // Ids transfer verbatim while the stores share one symbol table, so
    // whole columns and the CSR descriptor arrays append as contiguous
    // ranges instead of per-row gathers.
    for (size_t a = 0; a < src.columns.size(); ++a) {
      dst.columns[a].insert(dst.columns[a].end(), src.columns[a].begin(),
                            src.columns[a].end());
    }
    dst.tids.reserve(dst.tids.size() + n);
    for (size_t i = 0; i < n; ++i) dst.tids.push_back(dst.next_tid++);
    uint32_t base = static_cast<uint32_t>(dst.desc_entries.size());
    dst.desc_entries.insert(dst.desc_entries.end(), src.desc_entries.begin(),
                            src.desc_entries.end());
    dst.desc_offsets.reserve(dst.desc_offsets.size() + n);
    for (size_t i = 1; i <= n; ++i) {
      dst.desc_offsets.push_back(base + src.desc_offsets[i]);
    }
    return;
  }
  std::vector<UrelValueId> values(src.columns.size());
  for (size_t i = 0; i < n; ++i) {
    for (size_t a = 0; a < src.columns.size(); ++a) {
      values[a] = into.Intern(from.ValueAt(src.columns[a][i]));
    }
    dst.AppendTuple(values, src.Descriptor(i));
  }
}

class UrelShardPlan final : public ShardPlan {
 public:
  UrelShardPlan(Urel* parent, std::string relation, std::vector<std::string>
                aux, std::vector<std::vector<TupleId>> shards)
      : parent_(parent),
        relation_(std::move(relation)),
        aux_(std::move(aux)),
        shards_(std::move(shards)) {}

  size_t NumShards() const override { return shards_.size(); }

  Result<std::unique_ptr<WorldSetOps>> BuildShard(size_t i) const override {
    MAYWSD_ASSIGN_OR_RETURN(const UrelRelation* src,
                            parent_->Get(relation_));
    Urel slice;
    // Share the parent's symbol table copy-on-write: the variable table and
    // the dictionary transfer by reference, so descriptors and value ids
    // below are copied verbatim instead of re-interned per cell. The slice
    // privatizes the table only if a query mints a genuinely new value.
    slice.ShareSymbolsFrom(*parent_);
    UrelRelation part;
    part.name = relation_;
    part.schema = src->schema;
    part.columns.resize(src->schema.arity());
    // Shard tid lists are sorted, and independent-tuple workloads (the
    // census tables) partition into contiguous ranges, so copy maximal
    // runs column-wise instead of gathering row by row. Values and
    // descriptors transfer verbatim under the shared symbol table.
    const std::vector<TupleId>& rows = shards_[i];
    size_t n = rows.size();
    for (auto& col : part.columns) col.reserve(n);
    part.tids.reserve(n);
    part.desc_offsets.reserve(n + 1);
    size_t k = 0;
    while (k < n) {
      size_t lo = static_cast<size_t>(rows[k]);
      size_t j = k + 1;
      while (j < n && static_cast<size_t>(rows[j]) == lo + (j - k)) ++j;
      size_t hi = lo + (j - k);
      for (size_t a = 0; a < src->columns.size(); ++a) {
        part.columns[a].insert(part.columns[a].end(),
                               src->columns[a].begin() + lo,
                               src->columns[a].begin() + hi);
      }
      uint32_t entry_base = static_cast<uint32_t>(part.desc_entries.size());
      uint32_t src_base = src->desc_offsets[lo];
      part.desc_entries.insert(
          part.desc_entries.end(), src->desc_entries.begin() + src_base,
          src->desc_entries.begin() + src->desc_offsets[hi]);
      for (size_t r = lo + 1; r <= hi; ++r) {
        part.desc_offsets.push_back(entry_base +
                                    (src->desc_offsets[r] - src_base));
      }
      for (size_t r = lo; r < hi; ++r) part.tids.push_back(part.next_tid++);
      k = j;
    }
    MAYWSD_RETURN_IF_ERROR(slice.Add(std::move(part)));

    for (const std::string& name : aux_) {
      MAYWSD_ASSIGN_OR_RETURN(const UrelRelation* aux_rel,
                              parent_->Get(name));
      if (!aux_rel->desc_entries.empty()) {
        return Status::Internal("shard auxiliary " + name + " is not certain");
      }
      UrelRelation copy;
      copy.name = name;
      copy.schema = aux_rel->schema;
      copy.columns.resize(aux_rel->schema.arity());
      AppendUrelRows(*parent_, *aux_rel, slice, copy);
      MAYWSD_RETURN_IF_ERROR(slice.Add(std::move(copy)));
    }
    return std::unique_ptr<WorldSetOps>(
        std::make_unique<UrelBackend>(std::move(slice)));
  }

  Status Absorb(WorldSetOps& shard, const std::string& src,
                const std::string& dst) override {
    auto& backend = static_cast<UrelBackend&>(shard);
    MAYWSD_ASSIGN_OR_RETURN(const UrelRelation* s, backend.urel().Get(src));
    if (!parent_->Contains(dst)) {
      UrelRelation fresh;
      fresh.name = dst;
      fresh.schema = s->schema;
      fresh.columns.resize(s->schema.arity());
      MAYWSD_RETURN_IF_ERROR(parent_->Add(std::move(fresh)));
    }
    MAYWSD_ASSIGN_OR_RETURN(UrelRelation * d, parent_->GetMutable(dst));
    if (d->schema != s->schema) {
      return Status::Internal("shard result schema mismatch on " + dst);
    }
    AppendUrelRows(backend.urel(), *s, *parent_, *d);
    return Status::Ok();
  }

 private:
  Urel* parent_;
  std::string relation_;
  std::vector<std::string> aux_;
  std::vector<std::vector<TupleId>> shards_;
};

/// Shard plan over a U-relations store: rows sharing a variable co-shard
/// (descriptors are the only correlation carriers); each slice shares the
/// parent's symbol table copy-on-write, so descriptors and value ids
/// transfer verbatim and absorbed rows stay exact.
Result<std::unique_ptr<ShardPlan>> MakeUrelShardPlan(Urel& parent,
                                                     const ShardRequest& req) {
  // Update fan-outs decline: the native columnar update is one
  // bandwidth-bound pass, and slicing copies every column of the relation
  // first, which already costs more than that pass.
  if (req.for_update) return std::unique_ptr<ShardPlan>();
  MAYWSD_ASSIGN_OR_RETURN(const UrelRelation* r, parent.Get(req.relation));
  // Descriptors are the only correlation carriers: rows sharing a variable
  // must co-shard.
  std::vector<std::pair<TupleId, TupleId>> links;
  std::unordered_map<VarId, TupleId> first_row;
  for (size_t i = 0; i < r->NumRows(); ++i) {
    for (const UrelDescEntry& e : r->Descriptor(i)) {
      auto [it, fresh] =
          first_row.try_emplace(e.var, static_cast<TupleId>(i));
      if (!fresh && it->second != static_cast<TupleId>(i)) {
        links.emplace_back(it->second, static_cast<TupleId>(i));
      }
    }
  }
  std::vector<std::vector<TupleId>> shards = PartitionSlots(
      static_cast<TupleId>(r->NumRows()), links, req.max_shards);
  if (shards.empty()) return std::unique_ptr<ShardPlan>();
  return std::unique_ptr<ShardPlan>(std::make_unique<UrelShardPlan>(
      &parent, req.relation, req.aux_relations, std::move(shards)));
}

}  // namespace

Result<std::unique_ptr<ShardPlan>> UrelBackend::PlanShards(
    const ShardRequest& req) {
  return MakeUrelShardPlan(*urel_, req);
}

}  // namespace maywsd::core::engine
