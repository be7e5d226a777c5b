#include "core/urel.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "common/hash.h"
#include "core/component.h"
#include "core/field.h"

namespace maywsd::core {

namespace {

/// Upper bound on the assignment enumerations (difference expansion,
/// confidence aggregation) before the caller must fall back to the
/// template semantics.
constexpr uint64_t kAssignmentCap = uint64_t{1} << 20;

Status RequireAbsent(const Urel& u, const std::string& out) {
  if (u.Contains(out)) {
    return Status::AlreadyExists("relation " + out + " already exists");
  }
  return Status::Ok();
}

/// Merges two canonical descriptors; false when they assign one variable
/// two different values (the conjunction selects no world).
bool MergeDescriptors(std::span<const UrelDescEntry> a,
                      std::span<const UrelDescEntry> b,
                      std::vector<UrelDescEntry>& out) {
  out.clear();
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].var < b[j].var) {
      out.push_back(a[i++]);
    } else if (b[j].var < a[i].var) {
      out.push_back(b[j++]);
    } else {
      if (a[i].world != b[j].world) return false;
      out.push_back(a[i++]);
      ++j;
    }
  }
  out.insert(out.end(), a.begin() + i, a.end());
  out.insert(out.end(), b.begin() + j, b.end());
  return true;
}

/// Vectorized predicate evaluation: one bitmap per node, constant
/// comparisons memoized per dictionary id.
Status EvalPredicateBitmap(const Urel& u, const UrelRelation& r,
                           const rel::Predicate& pred,
                           std::vector<uint8_t>& out) {
  const size_t rows = r.NumRows();
  out.assign(rows, 0);
  switch (pred.kind()) {
    case rel::Predicate::Kind::kTrue:
      out.assign(rows, 1);
      return Status::Ok();
    case rel::Predicate::Kind::kCmpConst: {
      auto col = r.schema.IndexOf(pred.lhs_attr());
      if (!col) {
        return Status::NotFound("attribute " + pred.lhs_attr() + " not in " +
                                r.name);
      }
      const std::vector<UrelValueId>& ids = r.columns[*col];
      std::unordered_map<UrelValueId, uint8_t> memo;
      for (size_t i = 0; i < rows; ++i) {
        auto it = memo.find(ids[i]);
        if (it == memo.end()) {
          it = memo.emplace(ids[i], u.ValueAt(ids[i]).Satisfies(
                                        pred.op(), pred.constant())
                                        ? 1
                                        : 0)
                   .first;
        }
        out[i] = it->second;
      }
      return Status::Ok();
    }
    case rel::Predicate::Kind::kCmpAttr: {
      auto a = r.schema.IndexOf(pred.lhs_attr());
      auto b = r.schema.IndexOf(pred.rhs_attr());
      if (!a || !b) {
        return Status::NotFound("attribute " +
                                (a ? pred.rhs_attr() : pred.lhs_attr()) +
                                " not in " + r.name);
      }
      const std::vector<UrelValueId>& la = r.columns[*a];
      const std::vector<UrelValueId>& lb = r.columns[*b];
      if (pred.op() == rel::CmpOp::kEq || pred.op() == rel::CmpOp::kNe) {
        // Dictionary ids are injective modulo value equality, so (in)equality
        // is a pure id comparison.
        const uint8_t on_eq = pred.op() == rel::CmpOp::kEq ? 1 : 0;
        for (size_t i = 0; i < rows; ++i) {
          out[i] = la[i] == lb[i] ? on_eq : 1 - on_eq;
        }
      } else {
        for (size_t i = 0; i < rows; ++i) {
          out[i] =
              u.ValueAt(la[i]).Satisfies(pred.op(), u.ValueAt(lb[i])) ? 1 : 0;
        }
      }
      return Status::Ok();
    }
    case rel::Predicate::Kind::kAnd:
    case rel::Predicate::Kind::kOr: {
      std::vector<uint8_t> rhs;
      MAYWSD_RETURN_IF_ERROR(EvalPredicateBitmap(u, r, pred.left(), out));
      MAYWSD_RETURN_IF_ERROR(EvalPredicateBitmap(u, r, pred.right(), rhs));
      if (pred.kind() == rel::Predicate::Kind::kAnd) {
        for (size_t i = 0; i < rows; ++i) out[i] &= rhs[i];
      } else {
        for (size_t i = 0; i < rows; ++i) out[i] |= rhs[i];
      }
      return Status::Ok();
    }
    case rel::Predicate::Kind::kNot:
      MAYWSD_RETURN_IF_ERROR(EvalPredicateBitmap(u, r, pred.left(), out));
      for (size_t i = 0; i < rows; ++i) out[i] = 1 - out[i];
      return Status::Ok();
  }
  return Status::Internal("unknown predicate kind");
}

/// Copies row `row` of `src` (data + descriptor) into `dst` under a fresh
/// TID. Both relations live in the same store, so value ids transfer.
void CopyTuple(const UrelRelation& src, size_t row, UrelRelation& dst) {
  for (size_t a = 0; a < src.columns.size(); ++a) {
    dst.columns[a].push_back(src.columns[a][row]);
  }
  dst.tids.push_back(dst.next_tid++);
  std::span<const UrelDescEntry> d = src.Descriptor(row);
  dst.desc_entries.insert(dst.desc_entries.end(), d.begin(), d.end());
  dst.desc_offsets.push_back(static_cast<uint32_t>(dst.desc_entries.size()));
}

UrelRelation FreshRelation(const std::string& name, rel::Schema schema) {
  UrelRelation r;
  r.name = name;
  r.schema = std::move(schema);
  r.columns.resize(r.schema.arity());
  return r;
}

/// True when `assignment[pos_of[var]]` matches every entry of `desc`;
/// `vars` is the sorted variable list the assignment is indexed by.
bool DescriptorSatisfied(std::span<const UrelDescEntry> desc,
                         const std::vector<VarId>& vars,
                         const std::vector<uint32_t>& assignment) {
  for (const UrelDescEntry& e : desc) {
    size_t pos = static_cast<size_t>(
        std::lower_bound(vars.begin(), vars.end(), e.var) - vars.begin());
    if (assignment[pos] != e.world) return false;
  }
  return true;
}

/// Partitions the worlds a canonical descriptor `base` selects by G, the
/// union of the `cover` descriptors: calls emit(cell, covered) once per
/// cell, where the cells are canonical descriptors extending `base` that
/// are pairwise disjoint and together select exactly base's worlds, and G
/// holds in every world of a cell when `covered` (in none otherwise). A
/// cell equal to `base` means base was not split.
///
/// Only the variables of cover descriptors compatible with `base` that
/// `base` leaves free are expanded, one at a time in variable order, and a
/// branch stops as soon as G is decided on it. kUnsupported, before any
/// emit, when those free variables' joint assignments exceed the cap.
template <typename Emit>
class CoverSplit {
 public:
  CoverSplit(const Urel& u, std::span<const UrelDescEntry> base, Emit& emit)
      : u_(u), base_(base), emit_(emit) {}

  Status Run(std::span<const std::span<const UrelDescEntry>> cover) {
    // Residuals: each compatible cover descriptor minus the entries base
    // already fixes.
    std::vector<Cursor> active;
    for (std::span<const UrelDescEntry> d : cover) {
      const uint32_t start = static_cast<uint32_t>(residuals_.size());
      bool compatible = true;
      size_t j = 0;
      for (const UrelDescEntry& e : d) {
        while (j < base_.size() && base_[j].var < e.var) ++j;
        if (j == base_.size() || base_[j].var != e.var) {
          residuals_.push_back(e);
        } else if (base_[j].world != e.world) {
          compatible = false;
          break;
        }
      }
      const uint32_t end = static_cast<uint32_t>(residuals_.size());
      if (!compatible) {
        residuals_.resize(start);
      } else if (start == end) {
        emit_(base_, true);  // G holds throughout base
        return Status::Ok();
      } else {
        active.push_back(Cursor{start, end});
      }
    }
    if (active.empty()) {
      emit_(base_, false);
      return Status::Ok();
    }

    std::vector<VarId> vars;
    vars.reserve(residuals_.size());
    for (const UrelDescEntry& e : residuals_) vars.push_back(e.var);
    std::sort(vars.begin(), vars.end());
    vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
    uint64_t combos = 1;
    for (VarId v : vars) {
      combos *= u_.Domain(v).size();
      if (combos > kAssignmentCap) {
        return Status::Unsupported("expansion over " +
                                   std::to_string(vars.size()) +
                                   " free variables exceeds the assignment cap");
      }
    }
    // One cursor buffer per depth, sized up front: a branch assigns each
    // free variable at most once.
    levels_.resize(vars.size());
    Expand(active, 0);
    return Status::Ok();
  }

 private:
  /// A residual's entries not yet assigned on the current branch.
  struct Cursor {
    uint32_t pos;
    uint32_t end;
  };

  void Expand(const std::vector<Cursor>& active, size_t depth) {
    if (active.empty()) {
      EmitCell(false);
      return;
    }
    VarId v = std::numeric_limits<VarId>::max();
    for (const Cursor& c : active) {
      if (c.pos == c.end) {  // a cover descriptor holds on this branch
        EmitCell(true);
        return;
      }
      v = std::min(v, residuals_[c.pos].var);
    }
    std::vector<Cursor>& next = levels_[depth];
    const uint32_t domain = static_cast<uint32_t>(u_.Domain(v).size());
    for (uint32_t w = 0; w < domain; ++w) {
      next.clear();
      for (const Cursor& c : active) {
        const UrelDescEntry& e = residuals_[c.pos];
        if (e.var != v) {
          next.push_back(c);
        } else if (e.world == w) {
          next.push_back(Cursor{c.pos + 1, c.end});
        }
      }
      partial_.push_back(UrelDescEntry{v, w});
      Expand(next, depth + 1);
      partial_.pop_back();
    }
  }

  void EmitCell(bool covered) {
    MergeDescriptors(base_, partial_, cell_);  // disjoint variables
    emit_(std::span<const UrelDescEntry>(cell_), covered);
  }

  const Urel& u_;
  std::span<const UrelDescEntry> base_;
  Emit& emit_;
  std::vector<UrelDescEntry> residuals_;
  std::vector<std::vector<Cursor>> levels_;
  std::vector<UrelDescEntry> partial_;
  std::vector<UrelDescEntry> cell_;
};

template <typename Emit>
Status SplitByCover(const Urel& u, std::span<const UrelDescEntry> base,
                    std::span<const std::span<const UrelDescEntry>> cover,
                    Emit emit) {
  return CoverSplit<Emit>(u, base, emit).Run(cover);
}

/// P(⋃ descs): the probability mass of the cells the union covers.
/// kUnsupported past the cap. Two shapes have closed forms: one
/// descriptor is a product, and descriptors of at most one assignment
/// each union independent per-variable events.
Result<double> DescriptorUnionProbability(
    const Urel& u, const std::vector<std::span<const UrelDescEntry>>& descs) {
  auto conj = [&u](std::span<const UrelDescEntry> d) {
    double p = 1.0;
    for (const UrelDescEntry& e : d) p *= u.Domain(e.var)[e.world];
    return p;
  };
  if (descs.size() == 1) return conj(descs.front());
  if (std::all_of(descs.begin(), descs.end(),
                  [](const auto& d) { return d.size() <= 1; })) {
    // P(⋃) = 1 − Π_v (1 − P(v takes one of its listed values)).
    std::vector<UrelDescEntry> entries;
    for (const auto& d : descs) {
      if (d.empty()) return 1.0;
      entries.push_back(d.front());
    }
    std::sort(entries.begin(), entries.end());
    entries.erase(std::unique(entries.begin(), entries.end()), entries.end());
    double none = 1.0;
    for (size_t k = 0; k < entries.size();) {
      double mass = 0.0;
      const VarId v = entries[k].var;
      for (; k < entries.size() && entries[k].var == v; ++k) {
        mass += u.Domain(v)[entries[k].world];
      }
      none *= 1.0 - mass;
    }
    return 1.0 - none;
  }
  double prob_union = 0.0;
  MAYWSD_RETURN_IF_ERROR(SplitByCover(
      u, {}, descs, [&](std::span<const UrelDescEntry> cell, bool covered) {
        if (covered) prob_union += conj(cell);
      }));
  return prob_union;
}

/// Hash of one data row (its value ids), for grouping equal tuples.
struct RowKeyHash {
  size_t operator()(const std::vector<UrelValueId>& key) const {
    size_t seed = 0x9e3779b9u;
    for (UrelValueId id : key) HashCombine(seed, static_cast<size_t>(id));
    return seed;
  }
};

/// Groups the relation's rows by data tuple: data ids → row indexes.
std::unordered_map<std::vector<UrelValueId>, std::vector<size_t>, RowKeyHash>
GroupRowsByData(const UrelRelation& r) {
  std::unordered_map<std::vector<UrelValueId>, std::vector<size_t>, RowKeyHash>
      groups;
  std::vector<UrelValueId> key(r.columns.size());
  for (size_t i = 0; i < r.NumRows(); ++i) {
    for (size_t a = 0; a < r.columns.size(); ++a) key[a] = r.columns[a][i];
    groups[key].push_back(i);
  }
  return groups;
}

}  // namespace

void UrelRelation::AppendTuple(std::span<const UrelValueId> values,
                               std::span<const UrelDescEntry> desc) {
  for (size_t a = 0; a < columns.size(); ++a) columns[a].push_back(values[a]);
  tids.push_back(next_tid++);
  desc_entries.insert(desc_entries.end(), desc.begin(), desc.end());
  desc_offsets.push_back(static_cast<uint32_t>(desc_entries.size()));
}

Urel::SymbolTable& Urel::MutableSymbols() {
  // Cow::Mutable privatizes iff shared — and unlike the shared_ptr
  // use_count() probe this replaced, its uniqueness check is a sound
  // synchronization point (acquire probe vs acq_rel releases).
  return symbols_.Mutable();
}

std::optional<UrelValueId> Urel::Find(const rel::Value& v) const {
  auto it = symbols().dict_index.find(v);
  if (it == symbols().dict_index.end()) return std::nullopt;
  return it->second;
}

UrelValueId Urel::Intern(const rel::Value& v) {
  if (std::optional<UrelValueId> id = Find(v)) return *id;
  SymbolTable& s = MutableSymbols();
  UrelValueId id = static_cast<UrelValueId>(s.dict.size());
  s.dict.push_back(v);
  s.dict_index.emplace(v, id);
  return id;
}

VarId Urel::AddVariable(std::vector<double> probs) {
  SymbolTable& s = MutableSymbols();
  s.vars.push_back(std::move(probs));
  return static_cast<VarId>(s.vars.size() - 1);
}

bool Urel::Contains(const std::string& name) const {
  return relations_.count(name) > 0;
}

std::vector<std::string> Urel::Names() const {
  std::vector<std::string> names;
  names.reserve(relations_.size());
  for (const auto& [name, r] : relations_) names.push_back(name);
  return names;
}

Result<const UrelRelation*> Urel::Get(const std::string& name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) return Status::NotFound("relation " + name);
  return &it->second.get();
}

Result<UrelRelation*> Urel::GetMutable(const std::string& name) {
  auto it = relations_.find(name);
  if (it == relations_.end()) return Status::NotFound("relation " + name);
  // Per-relation COW break: only this relation stops sharing with forks.
  return &it->second.Mutable();
}

Status Urel::Add(UrelRelation relation) {
  if (relations_.count(relation.name) > 0) {
    return Status::AlreadyExists("relation " + relation.name +
                                 " already exists");
  }
  std::string name = relation.name;
  relations_.emplace(std::move(name), Cow<UrelRelation>(std::move(relation)));
  return Status::Ok();
}

Status Urel::Replace(UrelRelation relation) {
  auto it = relations_.find(relation.name);
  if (it == relations_.end()) {
    return Status::NotFound("relation " + relation.name);
  }
  it->second.Reset(std::move(relation));
  return Status::Ok();
}

Status Urel::Drop(const std::string& name) {
  if (relations_.erase(name) == 0) {
    return Status::NotFound("relation " + name);
  }
  return Status::Ok();
}

void Urel::MaterializeRow(const UrelRelation& r, size_t row,
                          std::vector<rel::Value>& out) const {
  out.resize(r.columns.size());
  for (size_t a = 0; a < r.columns.size(); ++a) {
    out[a] = symbols().dict[r.columns[a][row]];
  }
}

// -- Operators ---------------------------------------------------------------

Status UrelCopy(Urel& u, const std::string& src, const std::string& out) {
  MAYWSD_RETURN_IF_ERROR(RequireAbsent(u, out));
  MAYWSD_ASSIGN_OR_RETURN(const UrelRelation* s, u.Get(src));
  UrelRelation r = *s;
  r.name = out;
  return u.Add(std::move(r));
}

Status UrelSelectPredicate(Urel& u, const std::string& src,
                           const std::string& out,
                           const rel::Predicate& pred) {
  MAYWSD_RETURN_IF_ERROR(RequireAbsent(u, out));
  MAYWSD_ASSIGN_OR_RETURN(const UrelRelation* s, u.Get(src));
  std::vector<uint8_t> keep;
  MAYWSD_RETURN_IF_ERROR(EvalPredicateBitmap(u, *s, pred, keep));
  UrelRelation r = FreshRelation(out, s->schema);
  for (size_t i = 0; i < s->NumRows(); ++i) {
    if (keep[i]) CopyTuple(*s, i, r);
  }
  return u.Add(std::move(r));
}

Status UrelSelectConst(Urel& u, const std::string& src, const std::string& out,
                       const std::string& attr, rel::CmpOp op,
                       const rel::Value& constant) {
  return UrelSelectPredicate(u, src, out, rel::Predicate::Cmp(attr, op,
                                                              constant));
}

Status UrelSelectAttrAttr(Urel& u, const std::string& src,
                          const std::string& out, const std::string& attr_a,
                          rel::CmpOp op, const std::string& attr_b) {
  return UrelSelectPredicate(u, src, out,
                             rel::Predicate::CmpAttr(attr_a, op, attr_b));
}

Status UrelProduct(Urel& u, const std::string& left, const std::string& right,
                   const std::string& out) {
  MAYWSD_RETURN_IF_ERROR(RequireAbsent(u, out));
  MAYWSD_ASSIGN_OR_RETURN(const UrelRelation* l, u.Get(left));
  MAYWSD_ASSIGN_OR_RETURN(const UrelRelation* r, u.Get(right));
  MAYWSD_ASSIGN_OR_RETURN(rel::Schema schema, l->schema.Concat(r->schema));
  UrelRelation p = FreshRelation(out, std::move(schema));
  const size_t la = l->columns.size();
  std::vector<UrelValueId> values(p.columns.size());
  std::vector<UrelDescEntry> desc;
  for (size_t i = 0; i < l->NumRows(); ++i) {
    for (size_t a = 0; a < la; ++a) values[a] = l->columns[a][i];
    for (size_t j = 0; j < r->NumRows(); ++j) {
      if (!MergeDescriptors(l->Descriptor(i), r->Descriptor(j), desc)) {
        continue;  // the pair's descriptors conflict: it exists in no world
      }
      for (size_t a = 0; a < r->columns.size(); ++a) {
        values[la + a] = r->columns[a][j];
      }
      p.AppendTuple(values, desc);
    }
  }
  return u.Add(std::move(p));
}

Status UrelJoin(Urel& u, const std::string& left, const std::string& right,
                const std::string& out, const std::string& left_attr,
                const std::string& right_attr) {
  MAYWSD_RETURN_IF_ERROR(RequireAbsent(u, out));
  MAYWSD_ASSIGN_OR_RETURN(const UrelRelation* l, u.Get(left));
  MAYWSD_ASSIGN_OR_RETURN(const UrelRelation* r, u.Get(right));
  auto lcol = l->schema.IndexOf(left_attr);
  auto rcol = r->schema.IndexOf(right_attr);
  if (!lcol) return Status::NotFound("attribute " + left_attr + " not in " +
                                     left);
  if (!rcol) return Status::NotFound("attribute " + right_attr + " not in " +
                                     right);
  MAYWSD_ASSIGN_OR_RETURN(rel::Schema schema, l->schema.Concat(r->schema));
  UrelRelation p = FreshRelation(out, std::move(schema));

  // Id equality ⟺ value equality: build the hash table on raw ids.
  std::unordered_map<UrelValueId, std::vector<size_t>> build;
  for (size_t j = 0; j < r->NumRows(); ++j) {
    build[r->columns[*rcol][j]].push_back(j);
  }
  const size_t la = l->columns.size();
  std::vector<UrelValueId> values(p.columns.size());
  std::vector<UrelDescEntry> desc;
  for (size_t i = 0; i < l->NumRows(); ++i) {
    auto it = build.find(l->columns[*lcol][i]);
    if (it == build.end()) continue;
    for (size_t a = 0; a < la; ++a) values[a] = l->columns[a][i];
    for (size_t j : it->second) {
      if (!MergeDescriptors(l->Descriptor(i), r->Descriptor(j), desc)) {
        continue;
      }
      for (size_t a = 0; a < r->columns.size(); ++a) {
        values[la + a] = r->columns[a][j];
      }
      p.AppendTuple(values, desc);
    }
  }
  return u.Add(std::move(p));
}

Status UrelUnion(Urel& u, const std::string& left, const std::string& right,
                 const std::string& out) {
  MAYWSD_RETURN_IF_ERROR(RequireAbsent(u, out));
  MAYWSD_ASSIGN_OR_RETURN(const UrelRelation* l, u.Get(left));
  MAYWSD_ASSIGN_OR_RETURN(const UrelRelation* r, u.Get(right));
  if (l->schema != r->schema) {
    return Status::InvalidArgument("union schema mismatch: " + left + " vs " +
                                   right);
  }
  UrelRelation p = FreshRelation(out, l->schema);
  for (size_t i = 0; i < l->NumRows(); ++i) CopyTuple(*l, i, p);
  for (size_t j = 0; j < r->NumRows(); ++j) CopyTuple(*r, j, p);
  return u.Add(std::move(p));
}

Status UrelProject(Urel& u, const std::string& src, const std::string& out,
                   const std::vector<std::string>& attrs) {
  MAYWSD_RETURN_IF_ERROR(RequireAbsent(u, out));
  MAYWSD_ASSIGN_OR_RETURN(const UrelRelation* s, u.Get(src));
  MAYWSD_ASSIGN_OR_RETURN(rel::Schema schema, s->schema.Project(attrs));
  std::vector<size_t> cols;
  for (const std::string& a : attrs) cols.push_back(*s->schema.IndexOf(a));
  UrelRelation p = FreshRelation(out, std::move(schema));
  std::vector<UrelValueId> values(cols.size());
  for (size_t i = 0; i < s->NumRows(); ++i) {
    for (size_t a = 0; a < cols.size(); ++a) {
      values[a] = s->columns[cols[a]][i];
    }
    p.AppendTuple(values, s->Descriptor(i));
  }
  return u.Add(std::move(p));
}

Status UrelRename(
    Urel& u, const std::string& src, const std::string& out,
    const std::vector<std::pair<std::string, std::string>>& renames) {
  MAYWSD_RETURN_IF_ERROR(RequireAbsent(u, out));
  MAYWSD_ASSIGN_OR_RETURN(const UrelRelation* s, u.Get(src));
  rel::Schema schema = s->schema;
  for (const auto& [from, to] : renames) {
    MAYWSD_ASSIGN_OR_RETURN(schema, schema.Rename(from, to));
  }
  UrelRelation p = *s;
  p.name = out;
  p.schema = std::move(schema);
  return u.Add(std::move(p));
}

Status UrelDifference(Urel& u, const std::string& left,
                      const std::string& right, const std::string& out) {
  MAYWSD_RETURN_IF_ERROR(RequireAbsent(u, out));
  MAYWSD_ASSIGN_OR_RETURN(const UrelRelation* l, u.Get(left));
  MAYWSD_ASSIGN_OR_RETURN(const UrelRelation* r, u.Get(right));
  if (l->schema != r->schema) {
    return Status::InvalidArgument("difference schema mismatch: " + left +
                                   " vs " + right);
  }
  auto right_groups = GroupRowsByData(*r);
  UrelRelation p = FreshRelation(out, l->schema);
  std::vector<UrelValueId> key(l->columns.size());
  for (size_t i = 0; i < l->NumRows(); ++i) {
    for (size_t a = 0; a < l->columns.size(); ++a) key[a] = l->columns[a][i];
    auto it = right_groups.find(key);
    if (it == right_groups.end()) {
      CopyTuple(*l, i, p);  // never subtracted
      continue;
    }
    // The tuple survives in the cells of its own descriptor where no
    // matching right descriptor holds.
    std::vector<std::span<const UrelDescEntry>> matches;
    for (size_t j : it->second) matches.push_back(r->Descriptor(j));
    MAYWSD_RETURN_IF_ERROR(SplitByCover(
        u, l->Descriptor(i), matches,
        [&](std::span<const UrelDescEntry> cell, bool subtracted) {
          if (!subtracted) p.AppendTuple(key, cell);
        }));
  }
  return u.Add(std::move(p));
}

Status UrelDrop(Urel& u, const std::string& name) { return u.Drop(name); }

// -- Updates -----------------------------------------------------------------

namespace {

/// The world condition of an update: the worlds where the guard relation
/// is non-empty, i.e. the union of its rows' (deduplicated) descriptors.
/// `always` when there is no guard or one of its rows is certain; with
/// neither `always` nor descriptors, the condition selects no world.
struct UrelGuard {
  bool always = true;
  std::vector<std::vector<UrelDescEntry>> descs;

  bool never() const { return !always && descs.empty(); }
};

Result<UrelGuard> ReadGuard(const Urel& u, const std::string& guard) {
  UrelGuard g;
  if (guard.empty()) return g;
  MAYWSD_ASSIGN_OR_RETURN(const UrelRelation* r, u.Get(guard));
  for (size_t i = 0; i < r->NumRows(); ++i) {
    std::span<const UrelDescEntry> d = r->Descriptor(i);
    if (d.empty()) return g;  // non-empty in every world
    g.descs.emplace_back(d.begin(), d.end());
  }
  g.always = false;
  std::sort(g.descs.begin(), g.descs.end());
  g.descs.erase(std::unique(g.descs.begin(), g.descs.end()), g.descs.end());
  return g;
}

bool NoHits(const std::vector<uint8_t>& hit) {
  return std::find(hit.begin(), hit.end(), 1) == hit.end();
}

/// Rewrites `r` for a delete (`modified` null) or a modify (`modified`
/// collects the output rows that are to take the new values). Rows `hit`
/// misses are copied; a hit row is split by the guard into the cells
/// where the update applies (dropped, or recorded in `modified`) and the
/// cells where it does not (kept as they are). A row the guard leaves
/// whole keeps its TID; split pieces get fresh ones.
Result<UrelRelation> RewriteHits(const Urel& u, const UrelRelation& r,
                                 const std::vector<uint8_t>& hit,
                                 const UrelGuard& guard,
                                 std::vector<size_t>* modified) {
  UrelRelation out = FreshRelation(r.name, r.schema);
  out.next_tid = r.next_tid;
  const std::vector<std::span<const UrelDescEntry>> cover(guard.descs.begin(),
                                                          guard.descs.end());
  for (size_t i = 0; i < r.NumRows(); ++i) {
    std::span<const UrelDescEntry> desc = r.Descriptor(i);
    auto emit = [&](std::span<const UrelDescEntry> cell, bool applies) {
      if (applies && modified == nullptr) return;  // deleted in these worlds
      if (applies) modified->push_back(out.NumRows());
      for (size_t a = 0; a < r.columns.size(); ++a) {
        out.columns[a].push_back(r.columns[a][i]);
      }
      out.tids.push_back(cell.size() == desc.size() ? r.tids[i]
                                                    : out.next_tid++);
      out.desc_entries.insert(out.desc_entries.end(), cell.begin(),
                              cell.end());
      out.desc_offsets.push_back(
          static_cast<uint32_t>(out.desc_entries.size()));
    };
    if (!hit[i]) {
      emit(desc, false);
    } else if (guard.always) {
      emit(desc, true);
    } else {
      MAYWSD_RETURN_IF_ERROR(SplitByCover(u, desc, cover, emit));
    }
  }
  return out;
}

}  // namespace

Status UrelInsert(Urel& u, const std::string& rel, const rel::Relation& tuples,
                  const std::string& guard) {
  MAYWSD_ASSIGN_OR_RETURN(const UrelRelation* target, u.Get(rel));
  if (tuples.arity() != target->schema.arity()) {
    return Status::InvalidArgument("insert arity mismatch on " + rel);
  }
  MAYWSD_ASSIGN_OR_RETURN(UrelGuard g, ReadGuard(u, guard));
  if (g.never()) return Status::Ok();
  MAYWSD_ASSIGN_OR_RETURN(UrelRelation * r, u.GetMutable(rel));
  std::vector<UrelValueId> values(r->columns.size());
  for (size_t i = 0; i < tuples.NumRows(); ++i) {
    rel::TupleRef row = tuples.row(i);
    for (size_t a = 0; a < values.size(); ++a) values[a] = u.Intern(row[a]);
    if (g.always) {
      r->AppendTuple(values, {});
      continue;
    }
    for (const std::vector<UrelDescEntry>& d : g.descs) {
      r->AppendTuple(values, d);
    }
  }
  return Status::Ok();
}

Status UrelDeleteWhere(Urel& u, const std::string& rel,
                       const rel::Predicate& pred, const std::string& guard) {
  MAYWSD_ASSIGN_OR_RETURN(const UrelRelation* r, u.Get(rel));
  MAYWSD_ASSIGN_OR_RETURN(UrelGuard g, ReadGuard(u, guard));
  if (g.never()) return Status::Ok();
  std::vector<uint8_t> hit;
  MAYWSD_RETURN_IF_ERROR(EvalPredicateBitmap(u, *r, pred, hit));
  if (NoHits(hit)) return Status::Ok();  // keep sharing with forks
  MAYWSD_ASSIGN_OR_RETURN(UrelRelation out,
                          RewriteHits(u, *r, hit, g, nullptr));
  return u.Replace(std::move(out));
}

Status UrelModifyWhere(Urel& u, const std::string& rel,
                       const rel::Predicate& pred,
                       std::span<const rel::Assignment> assignments,
                       const std::string& guard) {
  MAYWSD_ASSIGN_OR_RETURN(const UrelRelation* r, u.Get(rel));
  std::vector<size_t> cols;
  for (const rel::Assignment& a : assignments) {
    auto col = r->schema.IndexOf(a.attr);
    if (!col) {
      return Status::NotFound("attribute " + a.attr + " not in " + rel);
    }
    cols.push_back(*col);
  }
  MAYWSD_ASSIGN_OR_RETURN(UrelGuard g, ReadGuard(u, guard));
  if (g.never()) return Status::Ok();
  std::vector<uint8_t> hit;
  MAYWSD_RETURN_IF_ERROR(EvalPredicateBitmap(u, *r, pred, hit));
  if (NoHits(hit)) return Status::Ok();  // keep sharing with forks

  if (g.always) {  // rewrite the matching cells in place
    std::vector<UrelValueId> ids;
    for (const rel::Assignment& a : assignments) ids.push_back(u.Intern(a.value));
    MAYWSD_ASSIGN_OR_RETURN(UrelRelation * m, u.GetMutable(rel));
    for (size_t i = 0; i < m->NumRows(); ++i) {
      if (!hit[i]) continue;
      for (size_t k = 0; k < cols.size(); ++k) m->columns[cols[k]][i] = ids[k];
    }
    return Status::Ok();
  }
  std::vector<size_t> modified;
  MAYWSD_ASSIGN_OR_RETURN(UrelRelation out,
                          RewriteHits(u, *r, hit, g, &modified));
  // Intern only now: an expansion past the cap leaves the store untouched.
  for (size_t k = 0; k < cols.size(); ++k) {
    const UrelValueId id = u.Intern(assignments[k].value);
    for (size_t row : modified) out.columns[cols[k]][row] = id;
  }
  return u.Replace(std::move(out));
}

Status UrelApplyUpdate(Urel& u, const rel::UpdateOp& op,
                       const std::string& guard) {
  switch (op.kind()) {
    case rel::UpdateOp::Kind::kInsert:
      return UrelInsert(u, op.relation(), op.tuples(), guard);
    case rel::UpdateOp::Kind::kDelete:
      return UrelDeleteWhere(u, op.relation(), op.predicate(), guard);
    case rel::UpdateOp::Kind::kModify:
      return UrelModifyWhere(u, op.relation(), op.predicate(),
                             op.assignments(), guard);
  }
  return Status::Internal("unknown update kind");
}

// -- Answer surface ----------------------------------------------------------

Result<rel::Relation> UrelPossibleTuples(const Urel& u,
                                         const std::string& relation) {
  MAYWSD_ASSIGN_OR_RETURN(const UrelRelation* r, u.Get(relation));
  rel::Relation out(r->schema, "possible_" + relation);
  std::vector<rel::Value> row;
  for (size_t i = 0; i < r->NumRows(); ++i) {
    u.MaterializeRow(*r, i, row);
    out.AppendRow(row);
  }
  out.SortDedup();
  return out;
}

Result<rel::Relation> UrelPossibleTuplesWithConfidence(
    const Urel& u, const std::string& relation) {
  MAYWSD_ASSIGN_OR_RETURN(const UrelRelation* r, u.Get(relation));
  rel::Schema schema = r->schema;
  MAYWSD_RETURN_IF_ERROR(
      schema.AddAttribute(rel::Attribute("conf", rel::AttrType::kDouble)));
  rel::Relation out(schema, "possible_conf_" + relation);
  std::vector<rel::Value> row(schema.arity());
  for (const auto& [key, rows] : GroupRowsByData(*r)) {
    std::vector<std::span<const UrelDescEntry>> descs;
    descs.reserve(rows.size());
    for (size_t i : rows) descs.push_back(r->Descriptor(i));
    MAYWSD_ASSIGN_OR_RETURN(double conf, DescriptorUnionProbability(u, descs));
    for (size_t a = 0; a < key.size(); ++a) row[a] = u.ValueAt(key[a]);
    row[key.size()] = rel::Value::Double(conf);
    out.AppendRow(row);
  }
  out.SortDedup();
  return out;
}

Result<rel::Relation> UrelCertainTuples(const Urel& u,
                                        const std::string& relation) {
  MAYWSD_ASSIGN_OR_RETURN(const UrelRelation* r, u.Get(relation));
  rel::Relation out(r->schema, "certain_" + relation);
  std::vector<rel::Value> row;
  for (const auto& [key, rows] : GroupRowsByData(*r)) {
    std::vector<std::span<const UrelDescEntry>> descs;
    descs.reserve(rows.size());
    for (size_t i : rows) descs.push_back(r->Descriptor(i));
    MAYWSD_ASSIGN_OR_RETURN(double conf, DescriptorUnionProbability(u, descs));
    if (conf < 1.0 - 1e-9) continue;
    row.resize(key.size());
    for (size_t a = 0; a < key.size(); ++a) row[a] = u.ValueAt(key[a]);
    out.AppendRow(row);
  }
  out.SortDedup();
  return out;
}

Result<double> UrelTupleConfidence(const Urel& u, const std::string& relation,
                                   std::span<const rel::Value> tuple) {
  MAYWSD_ASSIGN_OR_RETURN(const UrelRelation* r, u.Get(relation));
  if (tuple.size() != r->schema.arity()) {
    return Status::InvalidArgument("tuple arity mismatch on " + relation);
  }
  // The dictionary is injective, so equal tuples are equal id rows, and a
  // value the store never interned occurs in no row.
  std::vector<UrelValueId> key(tuple.size());
  for (size_t a = 0; a < tuple.size(); ++a) {
    std::optional<UrelValueId> id = u.Find(tuple[a]);
    if (!id) return 0.0;
    key[a] = *id;
  }
  std::vector<std::span<const UrelDescEntry>> descs;
  for (size_t i = 0; i < r->NumRows(); ++i) {
    bool equal = true;
    for (size_t a = 0; a < key.size() && equal; ++a) {
      equal = r->columns[a][i] == key[a];
    }
    if (equal) descs.push_back(r->Descriptor(i));
  }
  return DescriptorUnionProbability(u, descs);
}

Result<bool> UrelTupleCertain(const Urel& u, const std::string& relation,
                              std::span<const rel::Value> tuple) {
  MAYWSD_ASSIGN_OR_RETURN(double conf, UrelTupleConfidence(u, relation, tuple));
  return conf >= 1.0 - 1e-9;
}

// -- Conversions -------------------------------------------------------------

Result<Urel> ExportUrel(const Wsdt& wsdt) {
  Urel u;
  std::unordered_map<size_t, VarId> var_of_comp;
  for (size_t c : wsdt.LiveComponents()) {
    const Component& comp = wsdt.component(c);
    if (comp.NumFields() == 0) continue;
    std::vector<double> probs(comp.NumWorlds());
    for (size_t w = 0; w < comp.NumWorlds(); ++w) probs[w] = comp.prob(w);
    var_of_comp[c] = u.AddVariable(std::move(probs));
  }

  for (const std::string& name : wsdt.RelationNames()) {
    MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* tmpl_ptr,
                            wsdt.Template(name));
    const rel::Relation& tmpl = *tmpl_ptr;
    Symbol sym = InternString(name);
    UrelRelation r = FreshRelation(name, tmpl.schema());
    std::vector<UrelValueId> values(tmpl.arity());
    std::vector<UrelDescEntry> desc;
    for (size_t row_idx = 0; row_idx < tmpl.NumRows(); ++row_idx) {
      rel::TupleRef row = tmpl.row(row_idx);
      // Covering components of this row's '?' cells: (comp, [(attr, col)]).
      std::vector<std::pair<size_t, std::vector<std::pair<size_t, size_t>>>>
          covers;
      for (size_t a = 0; a < tmpl.arity(); ++a) {
        if (!row[a].is_question()) {
          values[a] = u.Intern(row[a]);
          continue;
        }
        MAYWSD_ASSIGN_OR_RETURN(
            FieldLoc loc,
            wsdt.Locate(FieldKey(sym, static_cast<TupleId>(row_idx),
                                 tmpl.schema().attr(a).name)));
        size_t comp = static_cast<size_t>(loc.comp);
        auto it = std::find_if(covers.begin(), covers.end(),
                               [comp](const auto& c) {
                                 return c.first == comp;
                               });
        if (it == covers.end()) {
          covers.push_back({comp, {{a, static_cast<size_t>(loc.col)}}});
        } else {
          it->second.push_back({a, static_cast<size_t>(loc.col)});
        }
      }
      if (covers.empty()) {
        r.AppendTuple(values, {});
        continue;
      }
      // One covering component's local worlds are already materialized, so
      // expanding over them is linear in its size; only a product of
      // several components can blow up.
      uint64_t combos = 1;
      for (const auto& [comp, cells] : covers) {
        combos *= wsdt.component(comp).NumWorlds();
        if (covers.size() > 1 && combos > kAssignmentCap) {
          return Status::InvalidArgument(
              "ExportUrel: row expansion exceeds the assignment cap on " +
              name);
        }
      }
      std::vector<size_t> digits(covers.size(), 0);
      for (uint64_t w = 0; w < combos; ++w) {
        bool absent = false;
        for (size_t k = 0; k < covers.size() && !absent; ++k) {
          const Component& comp = wsdt.component(covers[k].first);
          for (const auto& [a, col] : covers[k].second) {
            const rel::Value& v = comp.at(digits[k], col);
            if (v.is_bottom()) {
              absent = true;  // the tuple does not exist in these worlds
              break;
            }
            values[a] = u.Intern(v);
          }
        }
        if (!absent) {
          desc.clear();
          for (size_t k = 0; k < covers.size(); ++k) {
            desc.push_back(UrelDescEntry{
                var_of_comp.at(covers[k].first),
                static_cast<uint32_t>(digits[k])});
          }
          std::sort(desc.begin(), desc.end(),
                    [](const UrelDescEntry& x, const UrelDescEntry& y) {
                      return x.var < y.var;
                    });
          r.AppendTuple(values, desc);
        }
        for (size_t k = covers.size(); k-- > 0;) {
          if (++digits[k] < wsdt.component(covers[k].first).NumWorlds()) break;
          digits[k] = 0;
        }
      }
    }
    MAYWSD_RETURN_IF_ERROR(u.Add(std::move(r)));
  }
  return u;
}

namespace {

/// Union-find over variables; path-halving find.
class VarUnionFind {
 public:
  explicit VarUnionFind(size_t n) : parent_(n) {
    for (size_t i = 0; i < n; ++i) parent_[i] = static_cast<VarId>(i);
  }
  VarId Find(VarId x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(VarId a, VarId b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<VarId> parent_;
};

}  // namespace

Result<Wsdt> ImportUrel(const Urel& u) {
  VarUnionFind uf(u.NumVariables());
  std::vector<bool> used(u.NumVariables(), false);
  for (const std::string& name : u.Names()) {
    const UrelRelation& r = **u.Get(name);
    for (size_t i = 0; i < r.NumRows(); ++i) {
      std::span<const UrelDescEntry> d = r.Descriptor(i);
      for (const UrelDescEntry& e : d) {
        used[e.var] = true;
        uf.Union(d[0].var, e.var);
      }
    }
  }

  // One component column request per conditional tuple, grouped by the
  // tuple's variable group.
  struct ColumnReq {
    Symbol rel;
    TupleId tid;
    Symbol attr;
    UrelValueId head;
    std::vector<UrelDescEntry> desc;
  };
  std::unordered_map<VarId, std::vector<ColumnReq>> reqs;

  Wsdt wsdt;
  for (const std::string& name : u.Names()) {
    const UrelRelation& r = **u.Get(name);
    Symbol sym = InternString(name);
    rel::Relation tmpl(r.schema, name);
    std::vector<rel::Value> row;
    for (size_t i = 0; i < r.NumRows(); ++i) {
      u.MaterializeRow(r, i, row);
      std::span<const UrelDescEntry> d = r.Descriptor(i);
      if (d.empty()) {
        tmpl.AppendRow(row);
        continue;
      }
      if (r.schema.arity() == 0) {
        return Status::InvalidArgument(
            "ImportUrel: conditional tuple in zero-arity relation " + name);
      }
      TupleId tid = static_cast<TupleId>(tmpl.NumRows());
      row[0] = rel::Value::Question();
      tmpl.AppendRow(row);
      reqs[uf.Find(d[0].var)].push_back(
          ColumnReq{sym, tid, r.schema.attr(0).name, r.columns[0][i],
                    std::vector<UrelDescEntry>(d.begin(), d.end())});
    }
    MAYWSD_RETURN_IF_ERROR(wsdt.AddTemplateRelation(std::move(tmpl)));
  }

  // Build one component per used variable group: its local worlds are the
  // group's joint assignments (last member fastest), each column holding
  // the tuple's head value in satisfying assignments and ⊥ elsewhere.
  std::unordered_map<VarId, std::vector<VarId>> groups;
  for (VarId v = 0; v < u.NumVariables(); ++v) {
    if (used[v]) groups[uf.Find(v)].push_back(v);
  }
  for (auto& [root, members] : groups) {
    std::sort(members.begin(), members.end());
    auto req_it = reqs.find(root);
    if (req_it == reqs.end()) continue;
    const std::vector<ColumnReq>& group_reqs = req_it->second;

    uint64_t total = 1;
    for (VarId v : members) {
      total *= u.Domain(v).size();
      if (total > kAssignmentCap) {
        return Status::InvalidArgument(
            "ImportUrel: variable group exceeds the assignment cap");
      }
    }
    std::vector<FieldKey> fields;
    fields.reserve(group_reqs.size());
    for (const ColumnReq& req : group_reqs) {
      fields.emplace_back(req.rel, req.tid, req.attr);
    }
    Component comp(std::move(fields));
    std::vector<uint32_t> assignment(members.size(), 0);
    std::vector<rel::Value> world_values(group_reqs.size());
    for (uint64_t w = 0; w < total; ++w) {
      double p = 1.0;
      for (size_t k = 0; k < members.size(); ++k) {
        p *= u.Domain(members[k])[assignment[k]];
      }
      for (size_t c = 0; c < group_reqs.size(); ++c) {
        world_values[c] =
            DescriptorSatisfied(group_reqs[c].desc, members, assignment)
                ? u.ValueAt(group_reqs[c].head)
                : rel::Value::Bottom();
      }
      comp.AddWorld(world_values, p);
      for (size_t k = members.size(); k-- > 0;) {
        if (++assignment[k] < u.Domain(members[k]).size()) break;
        assignment[k] = 0;
      }
    }
    MAYWSD_RETURN_IF_ERROR(wsdt.AddComponent(std::move(comp)));
  }
  return wsdt;
}

Status ValidateUrel(const Urel& u) {
  for (VarId v = 0; v < u.NumVariables(); ++v) {
    const std::vector<double>& probs = u.Domain(v);
    if (probs.empty()) {
      return Status::InvalidArgument("variable x" + std::to_string(v) +
                                     " has an empty domain");
    }
    double sum = 0.0;
    for (double p : probs) {
      if (p < -kProbEpsilon || p > 1.0 + kProbEpsilon) {
        return Status::InvalidArgument("variable x" + std::to_string(v) +
                                       " has an out-of-range probability");
      }
      sum += p;
    }
    if (sum < 1.0 - kProbEpsilon || sum > 1.0 + kProbEpsilon) {
      return Status::InvalidArgument("variable x" + std::to_string(v) +
                                     " probabilities sum to " +
                                     std::to_string(sum));
    }
  }
  for (const std::string& name : u.Names()) {
    const UrelRelation& r = **u.Get(name);
    if (r.columns.size() != r.schema.arity()) {
      return Status::InvalidArgument("relation " + name +
                                     " column/schema arity mismatch");
    }
    const size_t rows = r.NumRows();
    for (const std::vector<UrelValueId>& col : r.columns) {
      if (col.size() != rows) {
        return Status::InvalidArgument("relation " + name +
                                       " has ragged columns");
      }
      for (UrelValueId id : col) {
        if (id >= u.DictionarySize()) {
          return Status::InvalidArgument("relation " + name +
                                         " references an unknown value id");
        }
        const rel::Value& v = u.ValueAt(id);
        if (v.is_bottom() || v.is_question()) {
          return Status::InvalidArgument("relation " + name +
                                         " stores a ⊥ or '?' value");
        }
      }
    }
    if (r.desc_offsets.size() != rows + 1 || r.desc_offsets.front() != 0 ||
        r.desc_offsets.back() != r.desc_entries.size()) {
      return Status::InvalidArgument("relation " + name +
                                     " has a corrupt descriptor index");
    }
    std::unordered_set<int64_t> seen_tids;
    for (int64_t tid : r.tids) {
      if (tid < 0 || tid >= r.next_tid || !seen_tids.insert(tid).second) {
        return Status::InvalidArgument("relation " + name +
                                       " has invalid or duplicate TIDs");
      }
    }
    for (size_t i = 0; i < rows; ++i) {
      if (r.desc_offsets[i] > r.desc_offsets[i + 1]) {
        return Status::InvalidArgument("relation " + name +
                                       " has a non-monotone descriptor index");
      }
      std::span<const UrelDescEntry> d = r.Descriptor(i);
      for (size_t k = 0; k < d.size(); ++k) {
        if (d[k].var >= u.NumVariables()) {
          return Status::InvalidArgument("relation " + name +
                                         " references an unknown variable");
        }
        if (d[k].world >= u.Domain(d[k].var).size()) {
          return Status::InvalidArgument(
              "relation " + name + " references an out-of-domain value");
        }
        if (k > 0 && d[k - 1].var >= d[k].var) {
          return Status::InvalidArgument("relation " + name +
                                         " has a non-canonical descriptor");
        }
      }
    }
  }
  return Status::Ok();
}

}  // namespace maywsd::core
