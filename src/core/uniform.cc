#include "core/uniform.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "common/hash.h"
#include "rel/eval.h"
#include "core/wsdt_algebra.h"

namespace maywsd::core {

namespace {

rel::Schema CSchema() {
  return rel::Schema({rel::Attribute("REL", rel::AttrType::kString),
                      rel::Attribute("TID", rel::AttrType::kInt),
                      rel::Attribute("ATTR", rel::AttrType::kString),
                      rel::Attribute("LWID", rel::AttrType::kInt),
                      rel::Attribute("VAL", rel::AttrType::kAny)});
}

rel::Schema FSchema() {
  return rel::Schema({rel::Attribute("REL", rel::AttrType::kString),
                      rel::Attribute("TID", rel::AttrType::kInt),
                      rel::Attribute("ATTR", rel::AttrType::kString),
                      rel::Attribute("CID", rel::AttrType::kInt)});
}

rel::Schema WSchema() {
  return rel::Schema({rel::Attribute("CID", rel::AttrType::kInt),
                      rel::Attribute("LWID", rel::AttrType::kInt),
                      rel::Attribute("PR", rel::AttrType::kDouble)});
}

bool IsSystemName(const std::string& name) {
  return name == kUniformC || name == kUniformF || name == kUniformW;
}

/// Fails unless `tmpl` carries the leading TID column of a template.
Status CheckTemplate(const rel::Relation& tmpl) {
  auto tid_idx = tmpl.schema().IndexOf(kTidColumn);
  if (!tid_idx || *tid_idx != 0) {
    return Status::InvalidArgument("template " + tmpl.name() +
                                   " lacks a leading TID column");
  }
  return Status::Ok();
}

/// The template's attributes without its TID column.
rel::Schema LogicalSchema(const rel::Relation& tmpl) {
  return rel::Schema(std::vector<rel::Attribute>(
      tmpl.schema().attrs().begin() + 1, tmpl.schema().attrs().end()));
}

/// The logical cells of a template row (TID column stripped).
rel::TupleRef LogicalRow(rel::TupleRef row) {
  return rel::TupleRef(row.data() + 1, row.arity() - 1);
}

/// Cap on the local-world count of a component product (the relational
/// compose behind select[AθB], ⊥-projection, difference and guarded
/// updates) — the same blow-up class the world-enumeration guards protect
/// against.
constexpr size_t kMaxComposedWorlds = size_t{1} << 20;

/// One field (REL, TID, ATTR) of the store; REL and ATTR are interned.
struct UField {
  Symbol rel = 0;
  int64_t tid = 0;
  Symbol attr = 0;

  bool operator==(const UField&) const = default;
};

struct UFieldHash {
  size_t operator()(const UField& f) const {
    size_t seed = f.rel;
    HashCombine(seed, static_cast<size_t>(f.tid));
    HashCombine(seed, f.attr);
    return seed;
  }
};

/// The field named by the leading (REL, TID, ATTR) columns of an F/C row.
UField RowField(rel::TupleRef row) {
  return {row[0].AsSymbol(), row[1].AsInt(), row[2].AsSymbol()};
}

/// A field's F and C entries: its component and one (LWID, VAL) pair per
/// C row (a local world without one encodes ⊥ — the tuple is absent).
struct FieldEntry {
  int64_t cid = -1;
  std::vector<std::pair<int64_t, rel::Value>> values;
};

using FieldIndex = std::unordered_map<UField, FieldEntry, UFieldHash>;

/// Indexes the F and C entries of every field `want(UField)` accepts.
template <typename Want>
FieldIndex IndexFields(const rel::Relation& f_rel, const rel::Relation& c_rel,
                       Want&& want) {
  FieldIndex index;
  for (size_t r = 0; r < f_rel.NumRows(); ++r) {
    rel::TupleRef row = f_rel.row(r);
    UField field = RowField(row);
    if (want(field)) index[field].cid = row[3].AsInt();
  }
  for (size_t r = 0; r < c_rel.NumRows(); ++r) {
    rel::TupleRef row = c_rel.row(r);
    UField field = RowField(row);
    if (want(field)) index[field].values.emplace_back(row[3].AsInt(), row[4]);
  }
  return index;
}

/// The F/C entry of a '?' cell; Internal when F does not cover it.
Result<const FieldEntry*> EntryOf(const FieldIndex& fields,
                                  const UField& field) {
  auto it = fields.find(field);
  if (it == fields.end() || it->second.cid < 0) {
    return Status::Internal("placeholder " +
                            std::string(SymbolName(field.rel)) + ".t" +
                            std::to_string(field.tid) + "." +
                            std::string(SymbolName(field.attr)) +
                            " has no F row");
  }
  return &it->second;
}

/// W as the sorted local-world list of every component.
class WorldIndex {
 public:
  static constexpr size_t kNpos = static_cast<size_t>(-1);

  WorldIndex() = default;
  explicit WorldIndex(const rel::Relation& w_rel) {
    for (size_t r = 0; r < w_rel.NumRows(); ++r) {
      lwids_[w_rel.row(r)[0].AsInt()].push_back(w_rel.row(r)[1].AsInt());
    }
    for (auto& [cid, lwids] : lwids_) std::sort(lwids.begin(), lwids.end());
  }

  /// The LWIDs of `cid` (empty when W does not declare it).
  const std::vector<int64_t>& Lwids(int64_t cid) const {
    static const std::vector<int64_t> kNone;
    auto it = lwids_.find(cid);
    return it == lwids_.end() ? kNone : it->second;
  }

  /// Position of `lwid` within Lwids(cid), or kNpos.
  size_t Position(int64_t cid, int64_t lwid) const {
    const std::vector<int64_t>& lwids = Lwids(cid);
    auto it = std::lower_bound(lwids.begin(), lwids.end(), lwid);
    return it != lwids.end() && *it == lwid
               ? static_cast<size_t>(it - lwids.begin())
               : kNpos;
  }

  /// True when the field lacks a C row in some local world of its
  /// component, i.e. it encodes conditional presence.
  bool CarriesBottom(const FieldEntry& entry) const {
    return entry.values.size() < Lwids(entry.cid).size();
  }

  /// The field's value per position of Lwids(entry.cid); nullptr = ⊥.
  std::vector<const rel::Value*> Dense(const FieldEntry& entry) const {
    std::vector<const rel::Value*> out(Lwids(entry.cid).size(), nullptr);
    for (const auto& [lwid, value] : entry.values) {
      size_t pos = Position(entry.cid, lwid);
      if (pos != kNpos) out[pos] = &value;
    }
    return out;
  }

 private:
  std::unordered_map<int64_t, std::vector<int64_t>> lwids_;
};

/// Union-find over CIDs: the components an operation has to compose.
/// The smallest CID of a class is its representative.
class CidUnion {
 public:
  int64_t Find(int64_t x) {
    auto it = parent_.try_emplace(x, x).first;
    while (it->second != x) {
      auto up = parent_.find(it->second);
      it->second = up->second;  // path halving
      x = it->second;
      it = parent_.find(x);
    }
    return x;
  }

  void Merge(int64_t a, int64_t b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return;
    if (b < a) std::swap(a, b);
    parent_[b] = a;
  }

  /// The classes of two or more CIDs, members sorted (representative
  /// first).
  std::vector<std::vector<int64_t>> Classes() {
    std::map<int64_t, std::vector<int64_t>> by_root;
    std::vector<int64_t> cids;
    for (const auto& [cid, parent] : parent_) cids.push_back(cid);
    for (int64_t cid : cids) by_root[Find(cid)].push_back(cid);
    std::vector<std::vector<int64_t>> out;
    for (auto& [root, members] : by_root) {
      if (members.size() < 2) continue;
      std::sort(members.begin(), members.end());
      out.push_back(std::move(members));
    }
    return out;
  }

 private:
  std::unordered_map<int64_t, int64_t> parent_;
};

/// The relational compose: merges every class of `merge` into its
/// representative by the independence product. W's rows of a class become
/// the mixed-radix product of its members' local worlds (last member
/// varying fastest, probabilities multiplied), every F row of a member —
/// of any relation, the merge is a global re-factorization — is remapped
/// to the representative, and each member C row is expanded across the
/// product worlds its local world takes part in. Fails with
/// ResourceExhausted (naming `what`) before touching any relation when a
/// product passes kMaxComposedWorlds. Returns whether anything merged.
Result<bool> ComposeComponents(rel::Relation& c_rel, rel::Relation& f_rel,
                               rel::Relation& w_rel, CidUnion& merge,
                               std::string_view what) {
  std::vector<std::vector<int64_t>> classes = merge.Classes();
  if (classes.empty()) return false;
  std::unordered_map<int64_t, std::vector<std::pair<int64_t, double>>> worlds;
  for (const auto& members : classes) {
    for (int64_t m : members) worlds[m];
  }
  for (size_t r = 0; r < w_rel.NumRows(); ++r) {
    rel::TupleRef row = w_rel.row(r);
    auto it = worlds.find(row[0].AsInt());
    if (it != worlds.end()) {
      it->second.emplace_back(row[1].AsInt(), row[2].AsDouble());
    }
  }
  for (auto& [cid, lws] : worlds) {
    if (lws.empty()) {
      return Status::Internal("component " + std::to_string(cid) +
                              " has no local worlds in W");
    }
    std::sort(lws.begin(), lws.end());
  }
  for (const auto& members : classes) {
    size_t total = 1;
    for (int64_t m : members) {
      total *= worlds[m].size();
      if (total > kMaxComposedWorlds) {
        return Status::ResourceExhausted(
            std::string(what) + " component product exceeds " +
            std::to_string(kMaxComposedWorlds) + " local worlds");
      }
    }
  }

  // member CID → old LWID → the product LWIDs it participates in.
  std::unordered_map<int64_t, std::unordered_map<int64_t, std::vector<int64_t>>>
      fanout;
  std::vector<std::pair<int64_t, std::vector<double>>> products;
  for (const auto& members : classes) {
    size_t total = 1;
    for (int64_t m : members) total *= worlds[m].size();
    std::vector<double> probs(total);
    for (size_t flat = 0; flat < total; ++flat) {
      double pr = 1.0;
      size_t rem = flat;
      for (size_t p = members.size(); p-- > 0;) {
        const auto& lws = worlds[members[p]];
        size_t i = rem % lws.size();
        rem /= lws.size();
        pr *= lws[i].second;
        fanout[members[p]][lws[i].first].push_back(static_cast<int64_t>(flat));
      }
      probs[flat] = pr;
    }
    products.emplace_back(members[0], std::move(probs));
  }
  w_rel.RetainRows(
      [&](rel::TupleRef row) { return !worlds.count(row[0].AsInt()); });
  for (const auto& [rep, probs] : products) {
    for (size_t flat = 0; flat < probs.size(); ++flat) {
      w_rel.AppendRow({rel::Value::Int(rep),
                       rel::Value::Int(static_cast<int64_t>(flat)),
                       rel::Value::Double(probs[flat])});
    }
  }
  // Remap the members' F rows, remembering which member each field left.
  std::unordered_map<UField, int64_t, UFieldHash> field_member;
  for (size_t r = 0; r < f_rel.NumRows(); ++r) {
    int64_t cid = f_rel.row(r)[3].AsInt();
    if (!worlds.count(cid)) continue;
    field_member[RowField(f_rel.row(r))] = cid;
    f_rel.SetCell(r, 3, rel::Value::Int(merge.Find(cid)));
  }
  // Expand the members' C rows across the product worlds they survive in.
  std::vector<rel::Value> expanded;
  c_rel.RetainRows([&](rel::TupleRef row) {
    auto it = field_member.find(RowField(row));
    if (it == field_member.end()) return true;
    for (int64_t lwid : fanout[it->second][row[3].AsInt()]) {
      expanded.insert(expanded.end(),
                      {row[0], row[1], row[2], rel::Value::Int(lwid), row[4]});
    }
    return false;
  });
  for (size_t i = 0; i < expanded.size(); i += 5) {
    c_rel.AppendRow(std::span<const rel::Value>(expanded.data() + i, 5));
  }
  return true;
}

/// C and F changes an operation stages while it reads the store, installed
/// in one pass once nothing can fail any more: the C rows of `drop_c`
/// (field → LWIDs) go, then the staged rows are appended.
class StoreEdits {
 public:
  void AddF(const UField& f, int64_t cid) {
    f_add_.insert(f_add_.end(),
                  {rel::Value::StringSymbol(f.rel), rel::Value::Int(f.tid),
                   rel::Value::StringSymbol(f.attr), rel::Value::Int(cid)});
  }
  void AddC(const UField& f, int64_t lwid, const rel::Value& v) {
    c_add_.insert(c_add_.end(),
                  {rel::Value::StringSymbol(f.rel), rel::Value::Int(f.tid),
                   rel::Value::StringSymbol(f.attr), rel::Value::Int(lwid),
                   v});
  }
  void DropC(const UField& f, int64_t lwid) { drop_c_[f].push_back(lwid); }

  void Apply(rel::Relation& c_rel, rel::Relation& f_rel) {
    if (!drop_c_.empty()) {
      for (auto& [field, lwids] : drop_c_) {
        std::sort(lwids.begin(), lwids.end());
      }
      c_rel.RetainRows([&](rel::TupleRef row) {
        auto it = drop_c_.find(RowField(row));
        return it == drop_c_.end() ||
               !std::binary_search(it->second.begin(), it->second.end(),
                                   row[3].AsInt());
      });
    }
    Append(c_rel, c_add_);
    Append(f_rel, f_add_);
  }

 private:
  static void Append(rel::Relation& rel, const std::vector<rel::Value>& flat) {
    const size_t k = rel.arity();
    for (size_t i = 0; i < flat.size(); i += k) {
      rel.AppendRow(std::span<const rel::Value>(flat.data() + i, k));
    }
  }

  std::unordered_map<UField, std::vector<int64_t>, UFieldHash> drop_c_;
  std::vector<rel::Value> c_add_;
  std::vector<rel::Value> f_add_;
};

/// Handles on the three system relations.
struct SystemRels {
  rel::Relation* c;
  rel::Relation* f;
  rel::Relation* w;
};

Result<SystemRels> GetSystemRels(rel::Database& db) {
  SystemRels sys;
  MAYWSD_ASSIGN_OR_RETURN(sys.c, db.GetMutableRelation(kUniformC));
  MAYWSD_ASSIGN_OR_RETURN(sys.f, db.GetMutableRelation(kUniformF));
  MAYWSD_ASSIGN_OR_RETURN(sys.w, db.GetMutableRelation(kUniformW));
  return sys;
}

/// Removes the F and C rows of relation `rel`'s tuples in `tids`.
void DropFieldRows(rel::Relation& c_rel, rel::Relation& f_rel, Symbol rel,
                   const std::unordered_set<int64_t>& tids) {
  auto keep = [&](rel::TupleRef row) {
    return row[0].AsSymbol() != rel || !tids.count(row[1].AsInt());
  };
  f_rel.RetainRows(keep);
  c_rel.RetainRows(keep);
}

/// Steps 4–6 of the Figure 16 select rewritings, shared by the Aθc and AθB
/// variants: propagate-⊥ among same-component same-tuple placeholders of
/// `out_rel` (a placeholder losing its value in a world pads the whole
/// tuple there), then remove tuples whose `required_attrs` placeholder
/// lost every value, and finally register the template.
Status FinishUniformSelect(rel::Database& db, rel::Relation p0,
                           const std::string& out_rel,
                           const std::vector<std::string>& required_attrs) {
  MAYWSD_ASSIGN_OR_RETURN(SystemRels sys, GetSystemRels(db));
  Symbol out_sym = InternString(out_rel);
  FieldIndex fields = IndexFields(
      *sys.f, *sys.c, [&](const UField& x) { return x.rel == out_sym; });
  // Step 4: the relational propagate-⊥ — if placeholder (P,t,X) shares
  // component k with (P,t,Y) and world w has no value for Y, drop X's
  // value for w too: each (tuple, component) group keeps only the worlds
  // where every member has a value.
  std::map<std::pair<int64_t, int64_t>,
           std::vector<std::pair<const UField*, FieldEntry*>>>
      siblings;
  for (auto& [field, entry] : fields) {
    siblings[{field.tid, entry.cid}].emplace_back(&field, &entry);
  }
  StoreEdits edits;
  for (auto& [key, group] : siblings) {
    if (group.size() < 2) continue;
    std::unordered_map<int64_t, size_t> have;
    for (const auto& [field, entry] : group) {
      for (const auto& [lwid, v] : entry->values) ++have[lwid];
    }
    for (auto& [field, entry] : group) {
      std::erase_if(entry->values, [&](const auto& lv) {
        if (have[lv.first] == group.size()) return false;
        edits.DropC(*field, lv.first);
        return true;
      });
    }
  }
  edits.Apply(*sys.c, *sys.f);
  // Steps 5–6: tuples whose required placeholder lost every value disappear;
  // drop their placeholders from F and their values from C.
  std::unordered_set<int64_t> dead_tids;
  for (const std::string& attr : required_attrs) {
    auto a_idx = p0.schema().IndexOf(attr);
    if (!a_idx) return Status::NotFound("attribute " + attr);
    Symbol attr_sym = InternString(attr);
    for (size_t r = 0; r < p0.NumRows(); ++r) {
      rel::TupleRef row = p0.row(r);
      if (!row[*a_idx].is_question()) continue;
      auto it = fields.find({out_sym, row[0].AsInt(), attr_sym});
      if (it == fields.end() || it->second.values.empty()) {
        dead_tids.insert(row[0].AsInt());
      }
    }
  }
  if (!dead_tids.empty()) {
    DropFieldRows(*sys.c, *sys.f, out_sym, dead_tids);
    p0.RetainRows(
        [&](rel::TupleRef row) { return !dead_tids.count(row[0].AsInt()); });
  }
  return db.AddRelation(std::move(p0));
}

}  // namespace

Result<rel::Database> ExportUniform(const Wsdt& wsdt) {
  rel::Database db;
  // Template relations with an explicit TID column.
  for (const std::string& name : wsdt.RelationNames()) {
    MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* tmpl, wsdt.Template(name));
    std::vector<rel::Attribute> attrs;
    attrs.emplace_back(kTidColumn, rel::AttrType::kInt);
    for (const rel::Attribute& a : tmpl->schema().attrs()) attrs.push_back(a);
    rel::Relation out{rel::Schema(std::move(attrs)), name};
    std::vector<rel::Value> row(out.arity());
    for (size_t r = 0; r < tmpl->NumRows(); ++r) {
      row[0] = rel::Value::Int(static_cast<int64_t>(r));
      for (size_t a = 0; a < tmpl->arity(); ++a) row[a + 1] = tmpl->row(r)[a];
      out.AppendRow(row);
    }
    MAYWSD_RETURN_IF_ERROR(db.AddRelation(std::move(out)));
  }
  // System relations.
  rel::Relation c_rel(CSchema(), kUniformC);
  rel::Relation f_rel(FSchema(), kUniformF);
  rel::Relation w_rel(WSchema(), kUniformW);
  int64_t cid = 0;
  for (size_t i : wsdt.LiveComponents()) {
    const Component& comp = wsdt.component(i);
    for (size_t col = 0; col < comp.NumFields(); ++col) {
      const FieldKey& f = comp.field(col);
      f_rel.AppendRow({rel::Value::StringSymbol(f.rel),
                       rel::Value::Int(f.tuple),
                       rel::Value::StringSymbol(f.attr),
                       rel::Value::Int(cid)});
    }
    for (size_t w = 0; w < comp.NumWorlds(); ++w) {
      w_rel.AppendRow({rel::Value::Int(cid),
                       rel::Value::Int(static_cast<int64_t>(w)),
                       rel::Value::Double(comp.prob(w))});
      for (size_t col = 0; col < comp.NumFields(); ++col) {
        const rel::Value& v = comp.at(w, col);
        if (v.is_bottom()) continue;  // absence encodes ⊥
        const FieldKey& f = comp.field(col);
        c_rel.AppendRow({rel::Value::StringSymbol(f.rel),
                         rel::Value::Int(f.tuple),
                         rel::Value::StringSymbol(f.attr),
                         rel::Value::Int(static_cast<int64_t>(w)),
                         v});
      }
    }
    ++cid;
  }
  MAYWSD_RETURN_IF_ERROR(db.AddRelation(std::move(c_rel)));
  MAYWSD_RETURN_IF_ERROR(db.AddRelation(std::move(f_rel)));
  MAYWSD_RETURN_IF_ERROR(db.AddRelation(std::move(w_rel)));
  return db;
}

Result<Wsdt> ImportUniform(const rel::Database& db,
                           std::vector<std::string> templates) {
  // A scoped import reads only the named relations' slice of F and C.
  const bool scoped = !templates.empty();
  if (!scoped) {
    for (const std::string& name : db.Names()) {
      if (!IsSystemName(name)) templates.push_back(name);
    }
  }
  Wsdt wsdt;
  // Template relations: strip the TID column; remember tid → row mapping.
  std::unordered_map<Symbol, std::unordered_map<int64_t, TupleId>> tid_map;
  for (const std::string& name : templates) {
    MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* in, db.GetRelation(name));
    MAYWSD_RETURN_IF_ERROR(CheckTemplate(*in));
    rel::Relation tmpl{LogicalSchema(*in), name};
    tmpl.Reserve(in->NumRows());
    std::unordered_map<int64_t, TupleId>& tids = tid_map[InternString(name)];
    tids.reserve(in->NumRows());
    std::vector<rel::Value> row(tmpl.arity());
    for (size_t r = 0; r < in->NumRows(); ++r) {
      tids[in->row(r)[0].AsInt()] = static_cast<TupleId>(r);
      for (size_t a = 0; a < tmpl.arity(); ++a) row[a] = in->row(r)[a + 1];
      tmpl.AppendRow(row);
    }
    MAYWSD_RETURN_IF_ERROR(wsdt.AddTemplateRelation(std::move(tmpl)));
  }
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* f_rel,
                          db.GetRelation(kUniformF));
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* c_rel,
                          db.GetRelation(kUniformC));
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* w_rel,
                          db.GetRelation(kUniformW));

  // Resolves the tuple an F/C row names: nullopt for a relation outside a
  // scoped import, an error for a dangling reference.
  auto resolve = [&](rel::TupleRef row,
                     const char* which) -> Result<std::optional<TupleId>> {
    auto rel_it = tid_map.find(row[0].AsSymbol());
    if (rel_it == tid_map.end()) {
      if (scoped) return std::optional<TupleId>();
      return Status::InvalidArgument(std::string(which) +
                                     " references unknown relation " +
                                     std::string(row[0].AsStringView()));
    }
    auto it = rel_it->second.find(row[1].AsInt());
    if (it == rel_it->second.end()) {
      return Status::InvalidArgument(std::string(which) +
                                     " references unknown tuple in " +
                                     std::string(row[0].AsStringView()));
    }
    return std::optional<TupleId>(it->second);
  };

  // Group fields by CID (sorted for determinism), remembering each
  // field's stored (REL, TID, ATTR) so C rows find their column directly.
  std::map<int64_t, std::vector<std::pair<FieldKey, UField>>> comp_fields;
  for (size_t r = 0; r < f_rel->NumRows(); ++r) {
    rel::TupleRef row = f_rel->row(r);
    MAYWSD_ASSIGN_OR_RETURN(std::optional<TupleId> tuple, resolve(row, "F"));
    if (!tuple) continue;
    comp_fields[row[3].AsInt()].emplace_back(
        FieldKey(row[0].AsSymbol(), *tuple, row[2].AsSymbol()),
        RowField(row));
  }
  // Local worlds of the referenced components, and each imported field's
  // (component, column).
  struct Slot {
    std::vector<std::pair<int64_t, double>> worlds;
    std::vector<rel::Value> values;  // worlds × fields, ⊥-initialized
  };
  std::unordered_map<int64_t, Slot> slots;
  std::unordered_map<UField, std::pair<Slot*, size_t>, UFieldHash> columns;
  for (auto& [cid, fields] : comp_fields) {
    std::sort(fields.begin(), fields.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    for (size_t col = 0; col < fields.size(); ++col) {
      columns[fields[col].second] = {&slots[cid], col};
    }
  }
  for (size_t r = 0; r < w_rel->NumRows(); ++r) {
    rel::TupleRef row = w_rel->row(r);
    auto it = slots.find(row[0].AsInt());
    if (it == slots.end()) continue;
    it->second.worlds.emplace_back(row[1].AsInt(), row[2].AsDouble());
  }
  for (const auto& [cid, fields] : comp_fields) {
    Slot& slot = slots[cid];
    if (slot.worlds.empty()) {
      return Status::InvalidArgument("component " + std::to_string(cid) +
                                     " has no worlds in W");
    }
    std::sort(slot.worlds.begin(), slot.worlds.end());
    slot.values.assign(slot.worlds.size() * fields.size(),
                       rel::Value::Bottom());
  }
  for (size_t r = 0; r < c_rel->NumRows(); ++r) {
    rel::TupleRef row = c_rel->row(r);
    MAYWSD_ASSIGN_OR_RETURN(std::optional<TupleId> tuple, resolve(row, "C"));
    if (!tuple) continue;
    auto it = columns.find(RowField(row));
    if (it == columns.end()) continue;  // value of an uncovered field
    auto [slot, col] = it->second;
    auto world = std::lower_bound(
        slot->worlds.begin(), slot->worlds.end(),
        std::pair<int64_t, double>(row[3].AsInt(), -1.0));
    if (world == slot->worlds.end() || world->first != row[3].AsInt()) {
      continue;  // LWID its component does not declare
    }
    size_t width = slot->values.size() / slot->worlds.size();
    slot->values[static_cast<size_t>(world - slot->worlds.begin()) * width +
                 col] = row[4];
  }
  for (const auto& [cid, fields] : comp_fields) {
    const Slot& slot = slots[cid];
    const size_t width = fields.size();
    std::vector<FieldKey> keys;
    for (const auto& [key, field] : fields) keys.push_back(key);
    Component comp(std::move(keys));
    for (size_t w = 0; w < slot.worlds.size(); ++w) {
      comp.AddWorld(std::span<const rel::Value>(
                        slot.values.data() + w * width, width),
                    slot.worlds[w].second);
    }
    MAYWSD_RETURN_IF_ERROR(wsdt.AddComponent(std::move(comp)));
  }
  return wsdt;
}

Status UniformSelectConst(rel::Database& db, const std::string& in_rel,
                          const std::string& out_rel, const std::string& attr,
                          rel::CmpOp op, const rel::Value& constant) {
  using rel::Plan;
  using rel::Predicate;
  // Step 1: P⁰ := σ_{Aθc ∨ A=?}(R⁰).
  Plan step1 = Plan::Select(
      Predicate::Or(Predicate::Cmp(attr, op, constant),
                    Predicate::Cmp(attr, rel::CmpOp::kEq,
                                   rel::Value::Question())),
      Plan::Scan(in_rel));
  MAYWSD_ASSIGN_OR_RETURN(rel::Relation p0, rel::Evaluate(step1, db));
  p0.set_name(out_rel);

  // Tuple ids surviving step 1.
  std::set<int64_t> tids;
  for (size_t r = 0; r < p0.NumRows(); ++r) {
    tids.insert(p0.row(r)[0].AsInt());
  }

  MAYWSD_ASSIGN_OR_RETURN(rel::Relation* f_rel,
                          db.GetMutableRelation(kUniformF));
  MAYWSD_ASSIGN_OR_RETURN(rel::Relation* c_rel,
                          db.GetMutableRelation(kUniformC));
  rel::Value in_sym = rel::Value::String(in_rel);
  rel::Value out_sym = rel::Value::String(out_rel);

  // Step 2: F := F ∪ {(P.t.B, k) | (R.t.B, k) ∈ F, t ∈ P⁰}.
  size_t f_rows = f_rel->NumRows();
  for (size_t r = 0; r < f_rows; ++r) {
    rel::TupleRef row = f_rel->row(r);
    if (!(row[0] == in_sym) || !tids.count(row[1].AsInt())) continue;
    f_rel->AppendRow({out_sym, row[1], row[2], row[3]});
  }
  // Step 3: C := C ∪ {(P.t.B, w, v) | (R.t.B, w, v) ∈ C, t ∈ P⁰,
  //                     (B = A ⇒ v θ c)}.
  rel::Value attr_sym = rel::Value::String(attr);
  size_t c_rows = c_rel->NumRows();
  for (size_t r = 0; r < c_rows; ++r) {
    rel::TupleRef row = c_rel->row(r);
    if (!(row[0] == in_sym) || !tids.count(row[1].AsInt())) continue;
    if (row[2] == attr_sym && !row[4].Satisfies(op, constant)) continue;
    c_rel->AppendRow({out_sym, row[1], row[2], row[3], row[4]});
  }

  // Steps 4–6 are shared with the AθB variant: propagate-⊥ among
  // same-component siblings, then drop tuples whose A-placeholder lost
  // every value.
  return FinishUniformSelect(db, std::move(p0), out_rel, {attr});
}

Status UniformSelectAttrAttr(rel::Database& db, const std::string& in_rel,
                             const std::string& out_rel,
                             const std::string& attr_a, rel::CmpOp op,
                             const std::string& attr_b) {
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* in, db.GetRelation(in_rel));
  MAYWSD_RETURN_IF_ERROR(CheckTemplate(*in));
  if (db.Contains(out_rel)) {
    return Status::AlreadyExists("relation " + out_rel);
  }
  rel::Schema logical = LogicalSchema(*in);
  auto a_col = logical.IndexOf(attr_a);
  auto b_col = logical.IndexOf(attr_b);
  if (!a_col) return Status::NotFound("attribute " + attr_a);
  if (!b_col) return Status::NotFound("attribute " + attr_b);
  MAYWSD_ASSIGN_OR_RETURN(
      rel::BoundPredicate pred,
      rel::BoundPredicate::Bind(rel::Predicate::CmpAttr(attr_a, op, attr_b),
                                logical));

  // Step 1: P⁰ keeps the decided-true rows as-is and the undecided rows
  // (a placeholder at A or B) for per-local-world filtering; decided-false
  // rows disappear in every world.
  rel::Relation p0(in->schema(), out_rel);
  std::unordered_set<int64_t> tids;
  std::unordered_set<int64_t> undecided_tids;
  std::vector<size_t> undecided;  // row indexes into p0
  for (size_t r = 0; r < in->NumRows(); ++r) {
    rel::TupleRef row = in->row(r);
    rel::Tri tri = pred.EvalTri(LogicalRow(row));
    if (tri == rel::Tri::kFalse) continue;
    if (tri == rel::Tri::kUnknown) {
      undecided.push_back(p0.NumRows());
      undecided_tids.insert(row[0].AsInt());
    }
    p0.AppendRow(row.span());
    tids.insert(row[0].AsInt());
  }

  MAYWSD_ASSIGN_OR_RETURN(SystemRels sys, GetSystemRels(db));
  Symbol in_sym = InternString(in_rel);
  Symbol out_sym = InternString(out_rel);
  Symbol a_sym = InternString(attr_a);
  Symbol b_sym = InternString(attr_b);
  auto deciding = [&](const UField& x) {
    return x.rel == in_sym && (x.attr == a_sym || x.attr == b_sym) &&
           undecided_tids.count(x.tid);
  };
  FieldIndex fields = IndexFields(*sys.f, *sys.c, deciding);

  // Undecided rows whose A and B placeholders live in different components
  // correlate them: compose those components first.
  CidUnion merge;
  for (size_t r : undecided) {
    rel::TupleRef row = p0.row(r);
    int64_t cid = -1;
    for (auto [col, sym] :
         {std::pair{*a_col, a_sym}, std::pair{*b_col, b_sym}}) {
      if (!row[1 + col].is_question()) continue;
      MAYWSD_ASSIGN_OR_RETURN(const FieldEntry* e,
                              EntryOf(fields, {in_sym, row[0].AsInt(), sym}));
      if (cid < 0) cid = e->cid;
      merge.Merge(cid, e->cid);
    }
  }
  MAYWSD_ASSIGN_OR_RETURN(
      bool composed,
      ComposeComponents(*sys.c, *sys.f, *sys.w, merge, "select[AθB]"));
  if (composed) fields = IndexFields(*sys.f, *sys.c, deciding);
  WorldIndex worlds(*sys.w);

  // Per-local-world filtering of the undecided rows: resolve A and B in
  // each world of the (now single) deciding component; the output copy of
  // a placeholder loses its value where the comparison fails. A ⊥ on
  // either side means the source tuple is absent there — the output is
  // too.
  std::unordered_map<UField, std::vector<int64_t>, UFieldHash> drop;
  for (size_t r : undecided) {
    rel::TupleRef row = p0.row(r);
    int64_t tid = row[0].AsInt();
    bool qa = row[1 + *a_col].is_question();
    bool qb = row[1 + *b_col].is_question();
    UField fa{in_sym, tid, a_sym};
    UField fb{in_sym, tid, b_sym};
    const FieldEntry* ea = nullptr;
    const FieldEntry* eb = nullptr;
    if (qa) {
      MAYWSD_ASSIGN_OR_RETURN(ea, EntryOf(fields, fa));
    }
    if (qb) {
      MAYWSD_ASSIGN_OR_RETURN(eb, EntryOf(fields, fb));
    }
    int64_t cid = qa ? ea->cid : eb->cid;
    std::vector<const rel::Value*> va =
        qa ? worlds.Dense(*ea)
           : std::vector<const rel::Value*>(worlds.Lwids(cid).size(),
                                            &row[1 + *a_col]);
    std::vector<const rel::Value*> vb =
        qb ? worlds.Dense(*eb)
           : std::vector<const rel::Value*>(worlds.Lwids(cid).size(),
                                            &row[1 + *b_col]);
    for (size_t pos = 0; pos < va.size(); ++pos) {
      if (va[pos] != nullptr && vb[pos] != nullptr &&
          va[pos]->Satisfies(op, *vb[pos])) {
        continue;
      }
      int64_t lwid = worlds.Lwids(cid)[pos];
      if (qa) drop[fa].push_back(lwid);
      if (qb) drop[fb].push_back(lwid);
    }
  }
  for (auto& [field, lwids] : drop) std::sort(lwids.begin(), lwids.end());

  // Steps 2–3: copy the surviving tuples' F and C entries under the output
  // name, leaving out the values the filtering dropped.
  size_t f_rows = sys.f->NumRows();
  for (size_t r = 0; r < f_rows; ++r) {
    rel::TupleRef row = sys.f->row(r);
    if (row[0].AsSymbol() != in_sym || !tids.count(row[1].AsInt())) continue;
    sys.f->AppendRow({rel::Value::StringSymbol(out_sym), row[1], row[2],
                      row[3]});
  }
  size_t c_rows = sys.c->NumRows();
  for (size_t r = 0; r < c_rows; ++r) {
    rel::TupleRef row = sys.c->row(r);
    if (row[0].AsSymbol() != in_sym || !tids.count(row[1].AsInt())) continue;
    if (!drop.empty()) {
      auto it = drop.find(RowField(row));
      if (it != drop.end() &&
          std::binary_search(it->second.begin(), it->second.end(),
                             row[3].AsInt())) {
        continue;
      }
    }
    sys.c->AppendRow({rel::Value::StringSymbol(out_sym), row[1], row[2],
                      row[3], row[4]});
  }

  return FinishUniformSelect(db, std::move(p0), out_rel, {attr_a, attr_b});
}

namespace {

/// Copies the F and C entries of tuple (in_rel, old_tid) under
/// (out_rel, new_tid), optionally renaming attributes.
void CopyUniformEntries(
    rel::Relation* f_rel, rel::Relation* c_rel, size_t f_rows, size_t c_rows,
    const rel::Value& in_sym, const rel::Value& out_sym, int64_t old_tid,
    int64_t new_tid,
    const std::map<std::string, std::string>* attr_renames = nullptr) {
  auto rename = [&](const rel::Value& attr) -> rel::Value {
    if (attr_renames == nullptr) return attr;
    auto it = attr_renames->find(std::string(attr.AsStringView()));
    return it == attr_renames->end() ? attr
                                     : rel::Value::String(it->second);
  };
  for (size_t r = 0; r < f_rows; ++r) {
    rel::TupleRef row = f_rel->row(r);
    if (!(row[0] == in_sym) || row[1].AsInt() != old_tid) continue;
    f_rel->AppendRow({out_sym, rel::Value::Int(new_tid), rename(row[2]),
                      row[3]});
  }
  for (size_t r = 0; r < c_rows; ++r) {
    rel::TupleRef row = c_rel->row(r);
    if (!(row[0] == in_sym) || row[1].AsInt() != old_tid) continue;
    c_rel->AppendRow({out_sym, rel::Value::Int(new_tid), rename(row[2]),
                      row[3], row[4]});
  }
}

}  // namespace

Status UniformUnion(rel::Database& db, const std::string& left,
                    const std::string& right, const std::string& out) {
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* l, db.GetRelation(left));
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* r, db.GetRelation(right));
  if (l->schema() != r->schema()) {
    return Status::InvalidArgument("uniform union of incompatible schemas");
  }
  MAYWSD_ASSIGN_OR_RETURN(rel::Relation* f_rel,
                          db.GetMutableRelation(kUniformF));
  MAYWSD_ASSIGN_OR_RETURN(rel::Relation* c_rel,
                          db.GetMutableRelation(kUniformC));
  rel::Relation out_rel(l->schema(), out);
  rel::Value l_sym = rel::Value::String(left);
  rel::Value r_sym = rel::Value::String(right);
  rel::Value out_sym = rel::Value::String(out);
  size_t f_rows = f_rel->NumRows();
  size_t c_rows = c_rel->NumRows();
  std::vector<rel::Value> buf(out_rel.arity());
  int64_t next = 0;
  for (const rel::Relation* side : {l, r}) {
    const rel::Value& sym = side == l ? l_sym : r_sym;
    for (size_t i = 0; i < side->NumRows(); ++i) {
      rel::TupleRef row = side->row(i);
      buf[0] = rel::Value::Int(next);
      for (size_t a = 1; a < buf.size(); ++a) buf[a] = row[a];
      out_rel.AppendRow(buf);
      CopyUniformEntries(f_rel, c_rel, f_rows, c_rows, sym, out_sym,
                         row[0].AsInt(), next);
      ++next;
    }
  }
  return db.AddRelation(std::move(out_rel));
}

Status UniformRename(
    rel::Database& db, const std::string& in_rel, const std::string& out_rel,
    const std::vector<std::pair<std::string, std::string>>& renames) {
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* in, db.GetRelation(in_rel));
  rel::Schema schema = in->schema();
  std::map<std::string, std::string> rename_map;
  for (const auto& [from, to] : renames) {
    MAYWSD_ASSIGN_OR_RETURN(schema, schema.Rename(from, to));
    rename_map[from] = to;
  }
  MAYWSD_ASSIGN_OR_RETURN(rel::Relation* f_rel,
                          db.GetMutableRelation(kUniformF));
  MAYWSD_ASSIGN_OR_RETURN(rel::Relation* c_rel,
                          db.GetMutableRelation(kUniformC));
  rel::Relation out(schema, out_rel);
  rel::Value in_sym = rel::Value::String(in_rel);
  rel::Value out_sym = rel::Value::String(out_rel);
  size_t f_rows = f_rel->NumRows();
  size_t c_rows = c_rel->NumRows();
  for (size_t i = 0; i < in->NumRows(); ++i) {
    out.AppendRow(in->row(i).span());
    CopyUniformEntries(f_rel, c_rel, f_rows, c_rows, in_sym, out_sym,
                       in->row(i)[0].AsInt(), in->row(i)[0].AsInt(),
                       &rename_map);
  }
  return db.AddRelation(std::move(out));
}

Status UniformProduct(rel::Database& db, const std::string& left,
                      const std::string& right, const std::string& out) {
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* l, db.GetRelation(left));
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* r, db.GetRelation(right));
  // Output schema: TID + left attrs + right attrs (attrs must be disjoint;
  // both inputs carry their own TID column which is not duplicated).
  std::vector<rel::Attribute> attrs;
  attrs.emplace_back(kTidColumn, rel::AttrType::kInt);
  for (size_t a = 1; a < l->schema().arity(); ++a) {
    attrs.push_back(l->schema().attr(a));
  }
  for (size_t a = 1; a < r->schema().arity(); ++a) {
    rel::Attribute attr = r->schema().attr(a);
    for (const rel::Attribute& existing : attrs) {
      if (existing.name == attr.name) {
        return Status::InvalidArgument(
            "uniform product requires disjoint attribute sets");
      }
    }
    attrs.push_back(attr);
  }
  MAYWSD_ASSIGN_OR_RETURN(rel::Relation* f_rel,
                          db.GetMutableRelation(kUniformF));
  MAYWSD_ASSIGN_OR_RETURN(rel::Relation* c_rel,
                          db.GetMutableRelation(kUniformC));
  rel::Relation out_rel{rel::Schema(std::move(attrs)), out};
  rel::Value l_sym = rel::Value::String(left);
  rel::Value r_sym = rel::Value::String(right);
  rel::Value out_sym = rel::Value::String(out);
  size_t f_rows = f_rel->NumRows();
  size_t c_rows = c_rel->NumRows();
  int64_t nr = static_cast<int64_t>(r->NumRows());
  std::vector<rel::Value> buf(out_rel.arity());
  for (size_t i = 0; i < l->NumRows(); ++i) {
    rel::TupleRef lr = l->row(i);
    for (size_t j = 0; j < r->NumRows(); ++j) {
      rel::TupleRef rr = r->row(j);
      int64_t tij = static_cast<int64_t>(i) * nr + static_cast<int64_t>(j);
      buf[0] = rel::Value::Int(tij);
      size_t pos = 1;
      for (size_t a = 1; a < lr.arity(); ++a) buf[pos++] = lr[a];
      for (size_t a = 1; a < rr.arity(); ++a) buf[pos++] = rr[a];
      out_rel.AppendRow(buf);
      CopyUniformEntries(f_rel, c_rel, f_rows, c_rows, l_sym, out_sym,
                         lr[0].AsInt(), tij);
      CopyUniformEntries(f_rel, c_rel, f_rows, c_rows, r_sym, out_sym,
                         rr[0].AsInt(), tij);
    }
  }
  return db.AddRelation(std::move(out_rel));
}

Status UniformCopy(rel::Database& db, const std::string& in_rel,
                   const std::string& out_rel) {
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* in, db.GetRelation(in_rel));
  if (db.Contains(out_rel)) {
    return Status::AlreadyExists("relation " + out_rel);
  }
  MAYWSD_ASSIGN_OR_RETURN(rel::Relation* f_rel,
                          db.GetMutableRelation(kUniformF));
  MAYWSD_ASSIGN_OR_RETURN(rel::Relation* c_rel,
                          db.GetMutableRelation(kUniformC));
  rel::Relation out(in->schema(), out_rel);
  for (size_t i = 0; i < in->NumRows(); ++i) {
    out.AppendRow(in->row(i).span());
  }
  // TIDs are unchanged, so one filtered pass re-registers every F/C entry
  // of the source under the copy's name (the driver's materializing Copy
  // runs once per evaluation — keep it linear in |F|+|C|).
  rel::Value in_sym = rel::Value::String(in_rel);
  rel::Value out_sym = rel::Value::String(out_rel);
  size_t f_rows = f_rel->NumRows();
  size_t c_rows = c_rel->NumRows();
  for (size_t r = 0; r < f_rows; ++r) {
    rel::TupleRef row = f_rel->row(r);
    if (!(row[0] == in_sym)) continue;
    f_rel->AppendRow({out_sym, row[1], row[2], row[3]});
  }
  for (size_t r = 0; r < c_rows; ++r) {
    rel::TupleRef row = c_rel->row(r);
    if (!(row[0] == in_sym)) continue;
    c_rel->AppendRow({out_sym, row[1], row[2], row[3], row[4]});
  }
  return db.AddRelation(std::move(out));
}

namespace {

/// Symbols of a template's column names (index = template column).
std::vector<Symbol> AttrSymbols(const rel::Relation& tmpl) {
  std::vector<Symbol> out;
  for (const rel::Attribute& a : tmpl.schema().attrs()) out.push_back(a.name);
  return out;
}

/// Per position of `worlds.Lwids(cid)`: whether every '?' field of the
/// template row that lives in component `cid` has a C row there — the
/// tuple's presence as far as that component decides it.
std::vector<bool> PresenceIn(int64_t cid, rel::TupleRef row, Symbol rel,
                             const std::vector<Symbol>& attrs,
                             const FieldIndex& fields,
                             const WorldIndex& worlds) {
  std::vector<bool> present(worlds.Lwids(cid).size(), true);
  for (size_t a = 1; a < row.arity(); ++a) {
    if (!row[a].is_question()) continue;
    auto it = fields.find({rel, row[0].AsInt(), attrs[a]});
    if (it == fields.end() || it->second.cid != cid) continue;
    std::vector<const rel::Value*> dense = worlds.Dense(it->second);
    for (size_t pos = 0; pos < present.size(); ++pos) {
      if (dense[pos] == nullptr) present[pos] = false;
    }
  }
  return present;
}

bool AnyOf(const std::vector<bool>& bits) {
  return std::find(bits.begin(), bits.end(), true) != bits.end();
}

/// bits[pos], false for WorldIndex::kNpos.
bool At(const std::vector<bool>& bits, size_t pos) {
  return pos < bits.size() && bits[pos];
}

/// Stages `field` as a placeholder of component `cid`: its F row, and a C
/// row holding *value_at(pos) at each position of the component's local
/// worlds where value_at returns non-null (⊥ elsewhere).
template <typename ValueAt>
void StagePlaceholder(StoreEdits& edits, const UField& field, int64_t cid,
                      const WorldIndex& worlds, ValueAt&& value_at) {
  edits.AddF(field, cid);
  const std::vector<int64_t>& lwids = worlds.Lwids(cid);
  for (size_t pos = 0; pos < lwids.size(); ++pos) {
    if (const rel::Value* v = value_at(pos)) edits.AddC(field, lwids[pos], *v);
  }
}

/// Stages a copy of `entry` under `field`; of the C rows in component
/// `cid` only those at the positions `keep` marks are copied.
void StageCopy(StoreEdits& edits, const UField& field, const FieldEntry& entry,
               int64_t cid, const std::vector<bool>& keep,
               const WorldIndex& worlds) {
  edits.AddF(field, entry.cid);
  for (const auto& [lwid, v] : entry.values) {
    if (entry.cid == cid && !At(keep, worlds.Position(cid, lwid))) continue;
    edits.AddC(field, lwid, v);
  }
}

}  // namespace

Status UniformProject(rel::Database& db, const std::string& in_rel,
                      const std::string& out_rel,
                      const std::vector<std::string>& attrs) {
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* in, db.GetRelation(in_rel));
  if (db.Contains(out_rel)) {
    return Status::AlreadyExists("relation " + out_rel);
  }
  MAYWSD_RETURN_IF_ERROR(CheckTemplate(*in));
  rel::Schema logical = LogicalSchema(*in);
  MAYWSD_ASSIGN_OR_RETURN(rel::Schema kept, logical.Project(attrs));
  std::vector<size_t> cols;  // template column of each kept attribute
  std::vector<bool> kept_col(in->arity(), false);
  for (const std::string& a : attrs) {
    cols.push_back(1 + *logical.IndexOf(a));
    kept_col[cols.back()] = true;
  }
  const std::vector<Symbol> attr_syms = AttrSymbols(*in);
  Symbol in_sym = InternString(in_rel);
  Symbol out_sym = InternString(out_rel);

  MAYWSD_ASSIGN_OR_RETURN(SystemRels sys, GetSystemRels(db));
  auto of_input = [&](const UField& x) { return x.rel == in_sym; };
  FieldIndex fields = IndexFields(*sys.f, *sys.c, of_input);
  WorldIndex worlds(*sys.w);

  // Pass 1: a dropped placeholder that carries ⊥ encodes conditional
  // presence the output row must keep. Its components are composed into
  // one, D; the presence then rides on a kept placeholder in D — composed
  // in when only kept placeholders of other components remain — or on the
  // first certain kept cell, which becomes a '?' in D.
  std::vector<std::vector<UField>> bottoms(in->NumRows());
  std::vector<bool> dead(in->NumRows(), false);
  CidUnion merge;
  for (size_t r = 0; r < in->NumRows(); ++r) {
    rel::TupleRef row = in->row(r);
    const FieldEntry* first_kept = nullptr;
    bool certain_kept = false;
    for (size_t a = 1; a < row.arity(); ++a) {
      if (!row[a].is_question()) {
        certain_kept = certain_kept || kept_col[a];
        continue;
      }
      UField field{in_sym, row[0].AsInt(), attr_syms[a]};
      MAYWSD_ASSIGN_OR_RETURN(const FieldEntry* entry, EntryOf(fields, field));
      if (kept_col[a]) {
        if (first_kept == nullptr) first_kept = entry;
      } else if (worlds.CarriesBottom(*entry)) {
        bottoms[r].push_back(field);
        if (entry->values.empty()) dead[r] = true;
      }
    }
    if (bottoms[r].empty() || dead[r]) continue;
    int64_t d = fields.at(bottoms[r][0]).cid;
    for (const UField& field : bottoms[r]) merge.Merge(d, fields.at(field).cid);
    bool carried = false;
    for (size_t a = 1; a < row.arity() && !carried; ++a) {
      if (!kept_col[a] || !row[a].is_question()) continue;
      carried = merge.Find(fields.at({in_sym, row[0].AsInt(), attr_syms[a]})
                               .cid) == merge.Find(d);
    }
    if (carried || certain_kept) continue;
    if (first_kept == nullptr) {
      return Status::InvalidArgument(
          "projection of " + in_rel +
          " onto no attributes cannot carry conditional tuple presence");
    }
    merge.Merge(d, first_kept->cid);
  }
  MAYWSD_ASSIGN_OR_RETURN(
      bool composed,
      ComposeComponents(*sys.c, *sys.f, *sys.w, merge, "projection"));
  if (composed) {
    fields = IndexFields(*sys.f, *sys.c, of_input);
    worlds = WorldIndex(*sys.w);
  }

  // Pass 2: template TID + kept attributes, in the requested order; F/C
  // entries of the kept placeholders only — dropping the other columns
  // from their components is exact marginalization.
  std::vector<rel::Attribute> out_attrs;
  out_attrs.emplace_back(kTidColumn, rel::AttrType::kInt);
  for (const rel::Attribute& a : kept.attrs()) out_attrs.push_back(a);
  rel::Relation out{rel::Schema(std::move(out_attrs)), out_rel};
  StoreEdits edits;
  std::vector<rel::Value> buf(out.arity());
  for (size_t r = 0; r < in->NumRows(); ++r) {
    if (dead[r]) continue;  // present in no local world
    rel::TupleRef row = in->row(r);
    int64_t tid = row[0].AsInt();
    buf[0] = row[0];
    for (size_t i = 0; i < cols.size(); ++i) buf[i + 1] = row[cols[i]];
    int64_t d = -1;
    std::vector<bool> present;
    if (!bottoms[r].empty()) {
      d = fields.at(bottoms[r][0]).cid;
      present = PresenceIn(d, row, in_sym, attr_syms, fields, worlds);
      if (!AnyOf(present)) continue;
      bool carried = false;
      for (size_t i = 0; i < cols.size() && !carried; ++i) {
        carried = row[cols[i]].is_question() &&
                  fields.at({in_sym, tid, attr_syms[cols[i]]}).cid == d;
      }
      if (!carried) {
        size_t i = 0;
        while (i < cols.size() && row[cols[i]].is_question()) ++i;
        if (i == cols.size()) {
          return Status::Internal("no cell of " + in_rel +
                                  " can carry the projected presence");
        }
        buf[i + 1] = rel::Value::Question();
        StagePlaceholder(edits, {out_sym, tid, attr_syms[cols[i]]}, d, worlds,
                         [&](size_t pos) {
                           return present[pos] ? &row[cols[i]] : nullptr;
                         });
      }
    }
    out.AppendRow(buf);
    for (size_t col : cols) {
      if (!row[col].is_question()) continue;
      StageCopy(edits, {out_sym, tid, attr_syms[col]},
                fields.at({in_sym, tid, attr_syms[col]}), d, present, worlds);
    }
  }
  edits.Apply(*sys.c, *sys.f);
  return db.AddRelation(std::move(out));
}

Status UniformDifference(rel::Database& db, const std::string& left,
                         const std::string& right, const std::string& out) {
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* l, db.GetRelation(left));
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* r, db.GetRelation(right));
  if (l->schema() != r->schema()) {
    return Status::InvalidArgument(
        "uniform difference of incompatible schemas");
  }
  if (db.Contains(out)) return Status::AlreadyExists("relation " + out);
  MAYWSD_RETURN_IF_ERROR(CheckTemplate(*l));
  const std::vector<Symbol> attr_syms = AttrSymbols(*l);
  const size_t k = l->arity();
  Symbol l_sym = InternString(left);
  Symbol r_sym = InternString(right);
  Symbol out_sym = InternString(out);

  MAYWSD_ASSIGN_OR_RETURN(SystemRels sys, GetSystemRels(db));
  auto of_inputs = [&](const UField& x) {
    return x.rel == l_sym || x.rel == r_sym;
  };
  FieldIndex fields = IndexFields(*sys.f, *sys.c, of_inputs);
  WorldIndex worlds(*sys.w);

  auto certain = [](rel::TupleRef row) {
    for (size_t a = 1; a < row.arity(); ++a) {
      if (row[a].is_question()) return false;
    }
    return true;
  };
  auto logical = [k](rel::TupleRef row) {
    return rel::TupleRef(row.data() + 1, k - 1);
  };
  auto may_hold = [&](const FieldEntry& e, const rel::Value& v) {
    return std::any_of(e.values.begin(), e.values.end(),
                       [&](const auto& lv) { return lv.second == v; });
  };
  // Could right row j equal left row i in some world? Certain cells must
  // agree, and a certain cell facing a placeholder must be among its
  // values. (Two placeholders are assumed to possibly agree.)
  auto may_equal = [&](rel::TupleRef lrow, rel::TupleRef rrow) {
    for (size_t a = 1; a < k; ++a) {
      bool lq = lrow[a].is_question();
      bool rq = rrow[a].is_question();
      if (!lq && !rq) {
        if (!(lrow[a] == rrow[a])) return false;
      } else if (lq != rq) {
        const rel::Value& v = lq ? rrow[a] : lrow[a];
        auto it =
            fields.find(lq ? UField{l_sym, lrow[0].AsInt(), attr_syms[a]}
                           : UField{r_sym, rrow[0].AsInt(), attr_syms[a]});
        if (it != fields.end() && !may_hold(it->second, v)) return false;
      }
    }
    return true;
  };
  // Registers the composition of a row's components with `*comp` (the
  // first one seen when it is still -1).
  CidUnion merge;
  auto merge_row = [&](rel::TupleRef row, Symbol rel,
                       int64_t* comp) -> Status {
    for (size_t a = 1; a < k; ++a) {
      if (!row[a].is_question()) continue;
      MAYWSD_ASSIGN_OR_RETURN(
          const FieldEntry* e,
          EntryOf(fields, {rel, row[0].AsInt(), attr_syms[a]}));
      if (*comp < 0) *comp = e->cid;
      merge.Merge(*comp, e->cid);
    }
    return Status::Ok();
  };

  // Fully certain right rows, hashed on their values.
  std::unordered_multimap<size_t, size_t> r_certain;
  std::vector<size_t> r_uncertain;
  for (size_t j = 0; j < r->NumRows(); ++j) {
    if (certain(r->row(j))) {
      r_certain.emplace(logical(r->row(j)).Hash(), j);
    } else {
      r_uncertain.push_back(j);
    }
  }

  // Pass 1: each left row's candidate right rows. A left row no right row
  // can equal is copied unchanged; one equal to a fully certain right row
  // is absent everywhere; the others compose their components with their
  // candidates'.
  std::vector<std::vector<size_t>> candidates(l->NumRows());
  std::vector<bool> dead(l->NumRows(), false);
  std::vector<int64_t> comp(l->NumRows(), -1);  // a CID of the row's class
  for (size_t i = 0; i < l->NumRows(); ++i) {
    rel::TupleRef lrow = l->row(i);
    bool l_certain = certain(lrow);
    if (l_certain) {
      auto [lo, hi] = r_certain.equal_range(logical(lrow).Hash());
      for (auto it = lo; it != hi && !dead[i]; ++it) {
        dead[i] = logical(r->row(it->second)) == logical(lrow);
      }
      if (dead[i]) continue;
      for (size_t j : r_uncertain) {
        if (may_equal(lrow, r->row(j))) candidates[i].push_back(j);
      }
    } else {
      for (size_t j = 0; j < r->NumRows(); ++j) {
        if (may_equal(lrow, r->row(j))) candidates[i].push_back(j);
      }
    }
    if (candidates[i].empty()) continue;
    MAYWSD_RETURN_IF_ERROR(merge_row(lrow, l_sym, &comp[i]));
    for (size_t j : candidates[i]) {
      MAYWSD_RETURN_IF_ERROR(merge_row(r->row(j), r_sym, &comp[i]));
    }
  }
  MAYWSD_ASSIGN_OR_RETURN(
      bool composed,
      ComposeComponents(*sys.c, *sys.f, *sys.w, merge, "difference"));
  if (composed) {
    fields = IndexFields(*sys.f, *sys.c, of_inputs);
    worlds = WorldIndex(*sys.w);
  }

  // Pass 2: a left row with candidates stays present at a local world of
  // its (single) component D where it is present and no candidate is
  // present with equal values; that presence rides on its placeholders, or
  // on its first cell turned into a '?' in D.
  rel::Relation out_tmpl(l->schema(), out);
  StoreEdits edits;
  for (size_t i = 0; i < l->NumRows(); ++i) {
    if (dead[i]) continue;
    rel::TupleRef lrow = l->row(i);
    int64_t tid = lrow[0].AsInt();
    std::vector<bool> keep;
    int64_t d = -1;
    if (!candidates[i].empty()) {
      d = merge.Find(comp[i]);  // the composed component
      const size_t n = worlds.Lwids(d).size();
      // Per column, a row's value at each position of D (nullptr = ⊥).
      auto dense_row = [&](rel::TupleRef row, Symbol rel) {
        std::vector<std::vector<const rel::Value*>> dense(k);
        for (size_t a = 1; a < k; ++a) {
          dense[a] = row[a].is_question()
                         ? worlds.Dense(fields.at({rel, row[0].AsInt(),
                                                   attr_syms[a]}))
                         : std::vector<const rel::Value*>(n, &row[a]);
        }
        return dense;
      };
      auto present_at = [&](const auto& dense, size_t pos) {
        for (size_t a = 1; a < k; ++a) {
          if (dense[a][pos] == nullptr) return false;
        }
        return true;
      };
      std::vector<std::vector<const rel::Value*>> lv = dense_row(lrow, l_sym);
      keep.assign(n, false);
      for (size_t pos = 0; pos < n; ++pos) keep[pos] = present_at(lv, pos);
      for (size_t j : candidates[i]) {
        std::vector<std::vector<const rel::Value*>> rv =
            dense_row(r->row(j), r_sym);
        for (size_t pos = 0; pos < n; ++pos) {
          if (!keep[pos] || !present_at(rv, pos)) continue;
          bool equal = true;
          for (size_t a = 1; a < k && equal; ++a) {
            equal = *lv[a][pos] == *rv[a][pos];
          }
          if (equal) keep[pos] = false;
        }
      }
      if (!AnyOf(keep)) continue;
    }
    std::vector<rel::Value> buf = lrow.ToRow();
    if (certain(lrow) && d >= 0 &&
        std::find(keep.begin(), keep.end(), false) != keep.end()) {
      // A certain row with candidates has a cell (k ≥ 2): its first one
      // carries the presence.
      buf[1] = rel::Value::Question();
      StagePlaceholder(edits, {out_sym, tid, attr_syms[1]}, d, worlds,
                       [&](size_t pos) {
                         return keep[pos] ? &lrow[1] : nullptr;
                       });
    }
    out_tmpl.AppendRow(buf);
    for (size_t a = 1; a < k; ++a) {
      if (!lrow[a].is_question()) continue;
      StageCopy(edits, {out_sym, tid, attr_syms[a]},
                fields.at({l_sym, tid, attr_syms[a]}), d, keep, worlds);
    }
  }
  edits.Apply(*sys.c, *sys.f);
  return db.AddRelation(std::move(out_tmpl));
}

Status UniformDrop(rel::Database& db, const std::string& name) {
  if (IsSystemName(name)) {
    return Status::InvalidArgument("cannot drop system relation " + name);
  }
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* tmpl, db.GetRelation(name));
  // F/C rows exist only for '?' cells: dropping a certain template skips
  // the system-relation pass entirely.
  bool has_placeholder = std::any_of(
      tmpl->data().begin(), tmpl->data().end(),
      [](const rel::Value& v) { return v.is_question(); });
  MAYWSD_RETURN_IF_ERROR(db.DropRelation(name));
  if (!has_placeholder) return Status::Ok();
  MAYWSD_ASSIGN_OR_RETURN(SystemRels sys, GetSystemRels(db));
  Symbol sym = InternString(name);
  auto keep = [sym](rel::TupleRef row) { return row[0].AsSymbol() != sym; };
  sys.f->RetainRows(keep);
  sys.c->RetainRows(keep);
  return Status::Ok();
}

namespace {

/// The target template of an update, checked.
Result<rel::Relation*> UpdateTarget(rel::Database& db, const std::string& rel,
                                    const char* verb) {
  if (IsSystemName(rel)) {
    return Status::InvalidArgument(std::string("cannot ") + verb +
                                   " system relation " + rel);
  }
  MAYWSD_ASSIGN_OR_RETURN(rel::Relation * tmpl, db.GetMutableRelation(rel));
  MAYWSD_RETURN_IF_ERROR(CheckTemplate(*tmpl));
  return tmpl;
}

/// `pred` bound against the template's logical schema (TID column
/// stripped), with its three-valued decision on every template row.
struct DecidedRows {
  rel::BoundPredicate pred;
  std::vector<rel::Tri> tri;

  /// Whether the predicate reads template column `a` (logical a − 1).
  bool Reads(size_t a) const {
    return std::binary_search(pred.columns().begin(), pred.columns().end(),
                              a - 1);
  }
};

Result<DecidedRows> DecideRows(const rel::Relation& tmpl,
                               const rel::Predicate& pred) {
  rel::Schema logical = LogicalSchema(tmpl);
  MAYWSD_ASSIGN_OR_RETURN(rel::BoundPredicate bound,
                          rel::BoundPredicate::Bind(pred, logical));
  DecidedRows out{std::move(bound), {}};
  out.tri.reserve(tmpl.NumRows());
  for (size_t r = 0; r < tmpl.NumRows(); ++r) {
    out.tri.push_back(out.pred.EvalTri(LogicalRow(tmpl.row(r))));
  }
  return out;
}

/// A world condition on the store, analyzed like WsdtUpdateGuard: kNever
/// when the guard relation has no rows, kAlways when there is no guard or
/// some guard row carries no ⊥ (it exists in every world), otherwise
/// kConditional with `slots` listing, per guard row, its ⊥-carrying
/// fields.
struct UniformGuard {
  enum class Mode { kAlways, kNever, kConditional };
  Mode mode = Mode::kAlways;
  std::vector<std::vector<UField>> slots;
};

Result<UniformGuard> AnalyzeGuard(const rel::Database& db,
                                  const std::string& guard,
                                  const FieldIndex& fields,
                                  const WorldIndex& worlds) {
  UniformGuard out;
  if (guard.empty()) return out;
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* tmpl, db.GetRelation(guard));
  MAYWSD_RETURN_IF_ERROR(CheckTemplate(*tmpl));
  if (tmpl->NumRows() == 0) {
    out.mode = UniformGuard::Mode::kNever;
    return out;
  }
  const std::vector<Symbol> attrs = AttrSymbols(*tmpl);
  Symbol sym = InternString(guard);
  for (size_t r = 0; r < tmpl->NumRows(); ++r) {
    rel::TupleRef row = tmpl->row(r);
    std::vector<UField> presence;
    for (size_t a = 1; a < row.arity(); ++a) {
      if (!row[a].is_question()) continue;
      UField field{sym, row[0].AsInt(), attrs[a]};
      MAYWSD_ASSIGN_OR_RETURN(const FieldEntry* entry, EntryOf(fields, field));
      if (worlds.CarriesBottom(*entry)) presence.push_back(field);
    }
    // A row with no ⊥-carrying field exists in every world.
    if (presence.empty()) return UniformGuard{};
    out.slots.push_back(std::move(presence));
  }
  out.mode = UniformGuard::Mode::kConditional;
  return out;
}

/// What a guarded or per-world update reads of the store: the F/C entries
/// of the target rows it may touch and of the guard relation, W, and the
/// guard's analysis. A conditional guard's components are registered in
/// `merge` up front (they compose into one, G); the update adds the
/// components its rows must compose, then Compose() runs the relational
/// compose and refreshes the view.
struct UpdateScope {
  SystemRels sys;
  Symbol target = 0;
  std::unordered_set<int64_t> touched;  ///< TIDs of the rows it may touch
  std::string guard_rel;
  FieldIndex fields;
  WorldIndex worlds;
  UniformGuard guard;
  CidUnion merge;
  int64_t g = -1;              ///< G's CID (a member's before Compose())
  std::vector<bool> selected;  ///< per local world of G: guard non-empty

  bool conditional() const {
    return guard.mode == UniformGuard::Mode::kConditional;
  }

  void Index() {
    Symbol guard_sym = guard_rel.empty() ? 0 : InternString(guard_rel);
    fields = IndexFields(*sys.f, *sys.c, [&](const UField& x) {
      return (x.rel == target && touched.count(x.tid)) ||
             (!guard_rel.empty() && x.rel == guard_sym);
    });
    worlds = WorldIndex(*sys.w);
  }

  Status Compose(std::string_view what) {
    MAYWSD_ASSIGN_OR_RETURN(
        bool composed,
        ComposeComponents(*sys.c, *sys.f, *sys.w, merge, what));
    if (composed) Index();
    if (!conditional()) return Status::Ok();
    g = fields.at(guard.slots[0][0]).cid;
    selected.assign(worlds.Lwids(g).size(), false);
    for (const auto& slot : guard.slots) {
      std::vector<bool> present(selected.size(), true);
      for (const UField& f : slot) {
        const FieldEntry& entry = fields.at(f);
        if (entry.cid != g) {
          return Status::Internal("guard field escaped the guard component");
        }
        std::vector<const rel::Value*> dense = worlds.Dense(entry);
        for (size_t pos = 0; pos < dense.size(); ++pos) {
          if (dense[pos] == nullptr) present[pos] = false;
        }
      }
      for (size_t pos = 0; pos < selected.size(); ++pos) {
        if (present[pos]) selected[pos] = true;
      }
    }
    return Status::Ok();
  }
};

Result<UpdateScope> OpenUpdateScope(rel::Database& db, const std::string& rel,
                                    std::unordered_set<int64_t> touched,
                                    const std::string& guard) {
  UpdateScope scope;
  MAYWSD_ASSIGN_OR_RETURN(scope.sys, GetSystemRels(db));
  scope.target = InternString(rel);
  scope.touched = std::move(touched);
  scope.guard_rel = guard;
  scope.Index();
  MAYWSD_ASSIGN_OR_RETURN(
      scope.guard, AnalyzeGuard(db, guard, scope.fields, scope.worlds));
  if (scope.conditional()) {
    scope.g = scope.fields.at(scope.guard.slots[0][0]).cid;
    for (const auto& slot : scope.guard.slots) {
      for (const UField& f : slot) {
        scope.merge.Merge(scope.g, scope.fields.at(f).cid);
      }
    }
  }
  return scope;
}

/// Loads local-world position `pos` into `buf`, a copy of a template
/// row's logical cells (TID stripped): each placeholder column of `cols`
/// takes its value there from `dense` (per template column), ⊥ where it
/// has none — the row the bound predicate re-checks in that world.
void LoadPosition(const std::vector<std::vector<const rel::Value*>>& dense,
                  const std::vector<size_t>& cols, size_t pos,
                  std::vector<rel::Value>& buf) {
  for (size_t a : cols) {
    const auto& column = dense[a];
    buf[a - 1] = pos < column.size() && column[pos] != nullptr
                     ? *column[pos]
                     : rel::Value::Bottom();
  }
}

/// The template columns of `row` holding a '?' for which `wanted(col)`.
template <typename Wanted>
std::vector<size_t> PlaceholderCols(rel::TupleRef row, Wanted&& wanted) {
  std::vector<size_t> cols;
  for (size_t a = 1; a < row.arity(); ++a) {
    if (row[a].is_question() && wanted(a)) cols.push_back(a);
  }
  return cols;
}

}  // namespace

Status UniformInsert(rel::Database& db, const std::string& rel,
                     const rel::Relation& tuples, const std::string& guard) {
  MAYWSD_ASSIGN_OR_RETURN(rel::Relation * tmpl,
                          UpdateTarget(db, rel, "insert into"));
  if (tuples.arity() + 1 != tmpl->arity()) {
    return Status::InvalidArgument("insert arity mismatch on " + rel);
  }
  int64_t next_tid = 0;
  for (size_t r = 0; r < tmpl->NumRows(); ++r) {
    next_tid = std::max(next_tid, tmpl->row(r)[0].AsInt() + 1);
  }
  std::optional<UpdateScope> scope;
  if (!guard.empty()) {
    MAYWSD_ASSIGN_OR_RETURN(scope, OpenUpdateScope(db, rel, {}, guard));
    if (scope->guard.mode == UniformGuard::Mode::kNever) return Status::Ok();
  }
  std::vector<rel::Value> row(tmpl->arity());
  if (!scope || !scope->conditional()) {
    for (size_t r = 0; r < tuples.NumRows(); ++r) {
      row[0] = rel::Value::Int(next_tid++);
      for (size_t a = 0; a < tuples.arity(); ++a) row[a + 1] = tuples.row(r)[a];
      tmpl->AppendRow(row);
    }
    return Status::Ok();
  }
  if (tuples.arity() == 0) {
    return Status::InvalidArgument("guarded insert into " + rel +
                                   " has no cell to carry its presence");
  }
  // Conditional presence: the first attribute becomes a placeholder in G
  // holding the value where the guard is non-empty (no C row elsewhere).
  MAYWSD_RETURN_IF_ERROR(scope->Compose("guarded insert"));
  if (!AnyOf(scope->selected)) return Status::Ok();
  Symbol head = tmpl->schema().attr(1).name;
  StoreEdits edits;
  for (size_t r = 0; r < tuples.NumRows(); ++r) {
    UField field{scope->target, next_tid++, head};
    row[0] = rel::Value::Int(field.tid);
    row[1] = rel::Value::Question();
    for (size_t a = 1; a < tuples.arity(); ++a) row[a + 1] = tuples.row(r)[a];
    tmpl->AppendRow(row);
    const rel::Value& value = tuples.row(r)[0];
    StagePlaceholder(edits, field, scope->g, scope->worlds, [&](size_t pos) {
      return scope->selected[pos] ? &value : nullptr;
    });
  }
  edits.Apply(*scope->sys.c, *scope->sys.f);
  return Status::Ok();
}

Status UniformDeleteWhere(rel::Database& db, const std::string& rel,
                          const rel::Predicate& pred,
                          const std::string& guard) {
  MAYWSD_ASSIGN_OR_RETURN(rel::Relation * tmpl,
                          UpdateTarget(db, rel, "delete from"));
  MAYWSD_ASSIGN_OR_RETURN(DecidedRows decided, DecideRows(*tmpl, pred));
  const std::vector<Symbol> attrs = AttrSymbols(*tmpl);
  Symbol rel_sym = InternString(rel);
  std::unordered_set<int64_t> touched;
  bool any_unknown = false;
  for (size_t r = 0; r < tmpl->NumRows(); ++r) {
    if (decided.tri[r] == rel::Tri::kFalse) continue;
    touched.insert(tmpl->row(r)[0].AsInt());
    any_unknown = any_unknown || decided.tri[r] == rel::Tri::kUnknown;
  }
  if (touched.empty()) return Status::Ok();

  // Rows deleted in every world leave the template with their F/C rows
  // (explicit TIDs keep the others stable).
  std::unordered_set<int64_t> removed;
  bool removed_placeholder = false;
  auto remove_row = [&](rel::TupleRef row) {
    removed.insert(row[0].AsInt());
    for (size_t a = 1; a < row.arity(); ++a) {
      if (row[a].is_question()) removed_placeholder = true;
    }
  };
  auto finish = [&]() -> Status {
    if (removed.empty()) return Status::Ok();
    tmpl->RetainRows(
        [&](rel::TupleRef row) { return !removed.count(row[0].AsInt()); });
    // F/C rows exist only for placeholder fields: removing certain rows
    // (the common case) skips the system relations entirely.
    if (!removed_placeholder) return Status::Ok();
    MAYWSD_ASSIGN_OR_RETURN(SystemRels sys, GetSystemRels(db));
    DropFieldRows(*sys.c, *sys.f, rel_sym, removed);
    return UniformCompact(db);
  };
  // Unguarded, every row decided on certain cells: a template rewriting.
  if (guard.empty() && !any_unknown) {
    for (size_t r = 0; r < tmpl->NumRows(); ++r) {
      if (decided.tri[r] == rel::Tri::kTrue) remove_row(tmpl->row(r));
    }
    return finish();
  }

  MAYWSD_ASSIGN_OR_RETURN(UpdateScope scope,
                          OpenUpdateScope(db, rel, std::move(touched), guard));
  if (scope.guard.mode == UniformGuard::Mode::kNever) return Status::Ok();
  const bool conditional = scope.conditional();

  // Pass 1: what each touched row needs composed. A certain match under a
  // guard is deleted exactly where G is non-empty: one of its placeholders
  // (preferably one already in G) is ⊥-marked there, or the first cell of
  // a certain row becomes a '?' in G present where G is empty. A row the
  // predicate decides per world composes the placeholders it reads (and
  // G) and loses their values where it holds.
  struct Plan {
    size_t row;
    bool per_world;
    std::vector<size_t> cols;  // marked / read placeholder columns
  };
  std::vector<Plan> plans;
  for (size_t r = 0; r < tmpl->NumRows(); ++r) {
    if (decided.tri[r] == rel::Tri::kFalse) continue;
    rel::TupleRef row = tmpl->row(r);
    int64_t tid = row[0].AsInt();
    if (decided.tri[r] == rel::Tri::kTrue && !conditional) {
      remove_row(row);
      continue;
    }
    Plan plan{r, decided.tri[r] == rel::Tri::kUnknown, {}};
    if (plan.per_world) {
      plan.cols =
          PlaceholderCols(row, [&](size_t a) { return decided.Reads(a); });
    } else {
      for (size_t a : PlaceholderCols(row, [](size_t) { return true; })) {
        auto it = scope.fields.find({rel_sym, tid, attrs[a]});
        bool in_g = it != scope.fields.end() &&
                    scope.merge.Find(it->second.cid) ==
                        scope.merge.Find(scope.g);
        if (plan.cols.empty() || in_g) plan.cols = {a};
      }
      if (plan.cols.empty() && row.arity() < 2) {
        return Status::InvalidArgument("guarded delete on " + rel +
                                       " has no cell to carry presence");
      }
    }
    int64_t anchor = scope.g;
    for (size_t a : plan.cols) {
      MAYWSD_ASSIGN_OR_RETURN(const FieldEntry* e,
                              EntryOf(scope.fields, {rel_sym, tid, attrs[a]}));
      if (anchor < 0) anchor = e->cid;
      scope.merge.Merge(anchor, e->cid);
    }
    plans.push_back(std::move(plan));
  }
  MAYWSD_RETURN_IF_ERROR(
      scope.Compose(conditional ? "guarded delete" : "delete"));

  // Pass 2: stage the per-world deletions.
  StoreEdits edits;
  std::vector<size_t> to_question;  // certain rows whose first cell → '?'
  for (const Plan& plan : plans) {
    rel::TupleRef row = tmpl->row(plan.row);
    int64_t tid = row[0].AsInt();
    if (!plan.per_world && plan.cols.empty()) {
      if (!std::count(scope.selected.begin(), scope.selected.end(), false)) {
        remove_row(row);
        continue;
      }
      to_question.push_back(plan.row);
      StagePlaceholder(edits, {rel_sym, tid, attrs[1]}, scope.g, scope.worlds,
                       [&](size_t pos) {
                         return scope.selected[pos] ? nullptr : &row[1];
                       });
      continue;
    }
    std::vector<std::vector<const rel::Value*>> dense(row.arity());
    int64_t t = scope.g;
    for (size_t a : plan.cols) {
      const FieldEntry& e = scope.fields.at({rel_sym, tid, attrs[a]});
      if (t < 0) t = e.cid;
      if (e.cid != t) return Status::Internal("deleted cell escaped");
      dense[a] = scope.worlds.Dense(e);
    }
    const std::vector<int64_t>& lwids = scope.worlds.Lwids(t);
    std::vector<rel::Value> buf = LogicalRow(row).ToRow();
    size_t kept = 0;
    for (size_t pos = 0; pos < lwids.size(); ++pos) {
      bool present = true;
      for (size_t a : plan.cols) present = present && dense[a][pos] != nullptr;
      if (!present) continue;
      bool hit = !conditional || scope.selected[pos];
      if (hit && plan.per_world) {
        LoadPosition(dense, plan.cols, pos, buf);
        hit = decided.pred.Eval(rel::TupleRef(buf.data(), buf.size()));
      }
      if (!hit) {
        ++kept;
        continue;
      }
      for (size_t a : plan.cols) {
        edits.DropC({rel_sym, tid, attrs[a]}, lwids[pos]);
      }
    }
    if (kept == 0) remove_row(row);
  }
  for (size_t r : to_question) tmpl->SetCell(r, 1, rel::Value::Question());
  edits.Apply(*scope.sys.c, *scope.sys.f);
  return finish();
}

Status UniformModifyWhere(rel::Database& db, const std::string& rel,
                          const rel::Predicate& pred,
                          std::span<const rel::Assignment> assignments,
                          const std::string& guard) {
  MAYWSD_ASSIGN_OR_RETURN(rel::Relation * tmpl,
                          UpdateTarget(db, rel, "modify"));
  MAYWSD_ASSIGN_OR_RETURN(DecidedRows decided, DecideRows(*tmpl, pred));
  std::vector<std::pair<size_t, rel::Value>> assigned;  // column → value
  for (const rel::Assignment& a : assignments) {
    auto idx = tmpl->schema().IndexOf(a.attr);
    if (!idx || *idx == 0) {
      return Status::NotFound("assignment attribute " + a.attr + " not in " +
                              rel);
    }
    auto same = std::find_if(assigned.begin(), assigned.end(),
                             [&](const auto& cv) { return cv.first == *idx; });
    if (same != assigned.end()) {
      same->second = a.value;  // the later assignment wins
    } else {
      assigned.emplace_back(*idx, a.value);
    }
  }
  auto is_assigned = [&](size_t col) {
    return std::any_of(assigned.begin(), assigned.end(),
                       [col](const auto& cv) { return cv.first == col; });
  };
  const std::vector<Symbol> attrs = AttrSymbols(*tmpl);
  Symbol rel_sym = InternString(rel);
  std::unordered_set<int64_t> touched;
  bool needs_store = !guard.empty();
  for (size_t r = 0; r < tmpl->NumRows(); ++r) {
    if (decided.tri[r] == rel::Tri::kFalse) continue;
    touched.insert(tmpl->row(r)[0].AsInt());
    needs_store = needs_store || decided.tri[r] == rel::Tri::kUnknown ||
                  !PlaceholderCols(tmpl->row(r), is_assigned).empty();
  }
  if (touched.empty()) return Status::Ok();
  // Unguarded certain matches overwriting certain cells: a template
  // rewriting.
  if (!needs_store) {
    for (size_t r = 0; r < tmpl->NumRows(); ++r) {
      if (decided.tri[r] != rel::Tri::kTrue) continue;
      for (const auto& [col, v] : assigned) tmpl->SetCell(r, col, v);
    }
    return Status::Ok();
  }

  MAYWSD_ASSIGN_OR_RETURN(UpdateScope scope,
                          OpenUpdateScope(db, rel, std::move(touched), guard));
  if (scope.guard.mode == UniformGuard::Mode::kNever) return Status::Ok();
  const bool conditional = scope.conditional();

  // Pass 1: rows matched per world (unknown predicate and/or world
  // condition) compose everything their decision and assignment touch —
  // the placeholders the predicate reads or the assignments write, and G.
  std::vector<std::pair<size_t, std::vector<size_t>>> per_world;  // row, cols
  for (size_t r = 0; r < tmpl->NumRows(); ++r) {
    if (decided.tri[r] == rel::Tri::kFalse) continue;
    if (decided.tri[r] == rel::Tri::kTrue && !conditional) continue;
    rel::TupleRef row = tmpl->row(r);
    std::vector<size_t> cols = PlaceholderCols(row, [&](size_t a) {
      return is_assigned(a) || decided.Reads(a);
    });
    int64_t anchor = scope.g;
    for (size_t a : cols) {
      MAYWSD_ASSIGN_OR_RETURN(
          const FieldEntry* e,
          EntryOf(scope.fields, {rel_sym, row[0].AsInt(), attrs[a]}));
      if (anchor < 0) anchor = e->cid;
      scope.merge.Merge(anchor, e->cid);
    }
    if (anchor < 0) {
      return Status::Internal("per-world modify without placeholders");
    }
    per_world.emplace_back(r, std::move(cols));
  }
  MAYWSD_RETURN_IF_ERROR(
      scope.Compose(conditional ? "guarded modify" : "modify"));

  // Pass 2: stage the rewrites. A placeholder's value changes at the
  // positions `at(lwid)` names a new one for.
  StoreEdits edits;
  std::vector<std::tuple<size_t, size_t, rel::Value>> cells;  // row, col, v
  auto overwrite = [&](const UField& field, auto&& at) {
    for (const auto& [lwid, v] : scope.fields.at(field).values) {
      if (const rel::Value* next = at(lwid)) {
        edits.DropC(field, lwid);
        edits.AddC(field, lwid, *next);
      }
    }
  };
  for (size_t r = 0; r < tmpl->NumRows() && !conditional; ++r) {
    if (decided.tri[r] != rel::Tri::kTrue) continue;
    // Certain match in every world: overwrite template cells, and every
    // value of an assigned placeholder (absent worlds stay absent).
    rel::TupleRef row = tmpl->row(r);
    for (const auto& [col, v] : assigned) {
      if (!row[col].is_question()) {
        cells.emplace_back(r, col, v);
        continue;
      }
      overwrite(UField{rel_sym, row[0].AsInt(), attrs[col]},
                [&](int64_t) { return &v; });
    }
  }
  for (const auto& [r, cols] : per_world) {
    rel::TupleRef row = tmpl->row(r);
    int64_t tid = row[0].AsInt();
    // The target component T: G, or where the row's touched placeholders
    // now live.
    int64_t t = scope.g;
    std::vector<std::vector<const rel::Value*>> dense(row.arity());
    for (size_t a : cols) {
      const FieldEntry& e = scope.fields.at({rel_sym, tid, attrs[a]});
      if (t < 0) t = e.cid;
      if (e.cid != t) return Status::Internal("modified cell escaped");
      dense[a] = scope.worlds.Dense(e);
    }
    std::vector<bool> present =
        PresenceIn(t, row, rel_sym, attrs, scope.fields, scope.worlds);
    std::vector<bool> holds(present.size(), false);
    std::vector<rel::Value> buf = LogicalRow(row).ToRow();
    for (size_t pos = 0; pos < holds.size(); ++pos) {
      if (!present[pos] || (conditional && !scope.selected[pos])) continue;
      if (decided.tri[r] == rel::Tri::kTrue) {
        holds[pos] = true;
        continue;
      }
      LoadPosition(dense, cols, pos, buf);
      holds[pos] = decided.pred.Eval(rel::TupleRef(buf.data(), buf.size()));
    }
    if (!AnyOf(holds)) continue;
    for (const auto& [col, v] : assigned) {
      UField field{rel_sym, tid, attrs[col]};
      if (row[col].is_question()) {
        overwrite(field, [&](int64_t lwid) {
          return At(holds, scope.worlds.Position(t, lwid)) ? &v : nullptr;
        });
        continue;
      }
      // A certain assigned cell becomes a placeholder in T: the new value
      // where the match holds, the old one elsewhere.
      cells.emplace_back(r, col, rel::Value::Question());
      StagePlaceholder(edits, field, t, scope.worlds, [&](size_t pos) {
        return !present[pos] ? nullptr : holds[pos] ? &v : &row[col];
      });
    }
  }
  for (const auto& [r, col, v] : cells) tmpl->SetCell(r, col, v);
  edits.Apply(*scope.sys.c, *scope.sys.f);
  return Status::Ok();
}

Status UniformApplyUpdate(rel::Database& db, const rel::UpdateOp& op,
                          const std::string& guard) {
  switch (op.kind()) {
    case rel::UpdateOp::Kind::kInsert:
      return UniformInsert(db, op.relation(), op.tuples(), guard);
    case rel::UpdateOp::Kind::kDelete:
      return UniformDeleteWhere(db, op.relation(), op.predicate(), guard);
    case rel::UpdateOp::Kind::kModify:
      return UniformModifyWhere(db, op.relation(), op.predicate(),
                                op.assignments(), guard);
  }
  return Status::Internal("unknown update kind");
}

Status UniformCompact(rel::Database& db) {
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* f_rel,
                          db.GetRelation(kUniformF));
  std::unordered_set<int64_t> live;
  for (size_t r = 0; r < f_rel->NumRows(); ++r) {
    live.insert(f_rel->row(r)[3].AsInt());
  }
  MAYWSD_ASSIGN_OR_RETURN(rel::Relation * w_rel,
                          db.GetMutableRelation(kUniformW));
  w_rel->RetainRows(
      [&](rel::TupleRef row) { return live.count(row[0].AsInt()) > 0; });
  return Status::Ok();
}

Status ValidateUniform(const rel::Database& db) {
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* f_rel,
                          db.GetRelation(kUniformF));
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* c_rel,
                          db.GetRelation(kUniformC));
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* w_rel,
                          db.GetRelation(kUniformW));

  // Templates: leading unique TIDs; remember '?' cells awaiting coverage.
  std::set<std::pair<std::string, int64_t>> tuples;
  std::set<std::tuple<std::string, int64_t, std::string>> holes;
  for (const std::string& name : db.Names()) {
    if (name == kUniformC || name == kUniformF || name == kUniformW) continue;
    MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* tmpl, db.GetRelation(name));
    auto tid_idx = tmpl->schema().IndexOf(kTidColumn);
    if (!tid_idx || *tid_idx != 0) {
      return Status::InvalidArgument("template " + name +
                                     " lacks a leading TID column");
    }
    for (size_t r = 0; r < tmpl->NumRows(); ++r) {
      rel::TupleRef row = tmpl->row(r);
      if (!tuples.insert({name, row[0].AsInt()}).second) {
        return Status::InvalidArgument("template " + name + " repeats TID " +
                                       std::to_string(row[0].AsInt()));
      }
      for (size_t a = 1; a < row.arity(); ++a) {
        if (row[a].is_question()) {
          holes.insert({name, row[0].AsInt(),
                        std::string(tmpl->schema().attr(a).name_view())});
        } else if (row[a].is_bottom()) {
          return Status::InvalidArgument("template " + name +
                                         " stores a ⊥ cell");
        }
      }
    }
  }

  // W: local worlds and probability mass per component.
  std::map<int64_t, std::set<int64_t>> w_lwids;
  std::map<int64_t, double> w_mass;
  for (size_t r = 0; r < w_rel->NumRows(); ++r) {
    rel::TupleRef row = w_rel->row(r);
    if (!w_lwids[row[0].AsInt()].insert(row[1].AsInt()).second) {
      return Status::InvalidArgument(
          "W repeats (CID,LWID) = (" + std::to_string(row[0].AsInt()) + "," +
          std::to_string(row[1].AsInt()) + ")");
    }
    w_mass[row[0].AsInt()] += row[2].AsDouble();
  }
  for (const auto& [cid, mass] : w_mass) {
    if (std::abs(mass - 1.0) > 1e-6) {
      return Status::InvalidArgument("component " + std::to_string(cid) +
                                     " has probability mass " +
                                     std::to_string(mass));
    }
  }

  // F: every row covers an existing '?' cell exactly once and names a
  // component that W declares.
  std::map<std::tuple<std::string, int64_t, std::string>, int64_t> f_cid;
  std::set<int64_t> f_cids;
  for (size_t r = 0; r < f_rel->NumRows(); ++r) {
    rel::TupleRef row = f_rel->row(r);
    std::tuple<std::string, int64_t, std::string> key{
        std::string(row[0].AsStringView()), row[1].AsInt(),
        std::string(row[2].AsStringView())};
    if (!holes.count(key)) {
      return Status::InvalidArgument(
          "F row " + std::get<0>(key) + ".t" +
          std::to_string(std::get<1>(key)) + "." + std::get<2>(key) +
          " does not point at a '?' cell");
    }
    if (!f_cid.emplace(key, row[3].AsInt()).second) {
      return Status::InvalidArgument(
          "F covers " + std::get<0>(key) + ".t" +
          std::to_string(std::get<1>(key)) + "." + std::get<2>(key) +
          " twice");
    }
    if (!w_lwids.count(row[3].AsInt())) {
      return Status::InvalidArgument("F references CID " +
                                     std::to_string(row[3].AsInt()) +
                                     " absent from W");
    }
    f_cids.insert(row[3].AsInt());
  }
  for (const auto& hole : holes) {
    if (!f_cid.count(hole)) {
      return Status::InvalidArgument(
          "placeholder " + std::get<0>(hole) + ".t" +
          std::to_string(std::get<1>(hole)) + "." + std::get<2>(hole) +
          " has no F row");
    }
  }

  // C: values belong to a declared placeholder and local world.
  std::set<std::tuple<std::string, int64_t, std::string, int64_t>> c_seen;
  for (size_t r = 0; r < c_rel->NumRows(); ++r) {
    rel::TupleRef row = c_rel->row(r);
    std::tuple<std::string, int64_t, std::string> key{
        std::string(row[0].AsStringView()), row[1].AsInt(),
        std::string(row[2].AsStringView())};
    auto it = f_cid.find(key);
    if (it == f_cid.end()) {
      return Status::InvalidArgument(
          "orphaned C row for " + std::get<0>(key) + ".t" +
          std::to_string(std::get<1>(key)) + "." + std::get<2>(key));
    }
    if (!w_lwids[it->second].count(row[3].AsInt())) {
      return Status::InvalidArgument(
          "C row for " + std::get<0>(key) + ".t" +
          std::to_string(std::get<1>(key)) + "." + std::get<2>(key) +
          " names LWID " + std::to_string(row[3].AsInt()) +
          " absent from its component");
    }
    if (row[4].is_bottom() || row[4].is_question()) {
      return Status::InvalidArgument("C stores a ⊥/'?' value");
    }
    if (!c_seen.insert({std::get<0>(key), std::get<1>(key), std::get<2>(key),
                        row[3].AsInt()})
             .second) {
      return Status::InvalidArgument(
          "C repeats a (field, LWID) value for " + std::get<0>(key) + ".t" +
          std::to_string(std::get<1>(key)) + "." + std::get<2>(key));
    }
  }

  // W: no orphaned local worlds.
  for (const auto& [cid, lwids] : w_lwids) {
    if (!f_cids.count(cid)) {
      return Status::InvalidArgument("W declares CID " + std::to_string(cid) +
                                     " that no F row references");
    }
  }
  return Status::Ok();
}

}  // namespace maywsd::core
