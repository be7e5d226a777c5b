#include "core/wsdt.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace maywsd::core {

Status Wsdt::AddTemplateRelation(rel::Relation relation) {
  const std::string& name = relation.name();
  if (name.empty()) {
    return Status::InvalidArgument("template relation must be named");
  }
  if (templates_.count(name)) {
    return Status::AlreadyExists("template relation " + name);
  }
  templates_.emplace(name, std::move(relation));
  return Status::Ok();
}

Result<const rel::Relation*> Wsdt::Template(const std::string& name) const {
  auto it = templates_.find(name);
  if (it == templates_.end()) {
    return Status::NotFound("template relation " + name);
  }
  return &it->second;
}

Result<rel::Relation*> Wsdt::MutableTemplate(const std::string& name) {
  auto it = templates_.find(name);
  if (it == templates_.end()) {
    return Status::NotFound("template relation " + name);
  }
  return &it->second;
}

bool Wsdt::HasRelation(const std::string& name) const {
  return templates_.count(name) > 0;
}

std::vector<std::string> Wsdt::RelationNames() const {
  std::vector<std::string> out;
  for (const auto& [name, rel] : templates_) out.push_back(name);
  return out;
}

Status Wsdt::DropRelation(const std::string& name) {
  auto it = templates_.find(name);
  if (it == templates_.end()) {
    return Status::NotFound("template relation " + name);
  }
  // Component columns exist only for '?' cells: walk the relation's own
  // cells, not the whole field index, and drop each component's columns
  // in one pass (a component losing all of them dies without being
  // forced). A relation without '?' leaves a shared pool shared.
  const rel::Relation& tmpl = it->second;
  Symbol sym = InternString(name);
  std::map<int32_t, std::vector<size_t>> drops;  // component → columns
  for (size_t r = 0; r < tmpl.NumRows(); ++r) {
    rel::TupleRef row = tmpl.row(r);
    for (size_t a = 0; a < tmpl.arity(); ++a) {
      if (!row[a].is_question()) continue;
      auto& index = pool().field_index;
      auto f = index.find(
          FieldKey(sym, static_cast<TupleId>(r), tmpl.schema().attr(a).name));
      if (f == index.end()) continue;
      drops[f->second.comp].push_back(static_cast<size_t>(f->second.col));
      index.erase(f);
    }
  }
  for (auto& [ci, cols] : drops) {
    Component& comp = pool().components[ci];
    if (cols.size() == comp.NumFields()) {
      KillComponent(static_cast<size_t>(ci));
      continue;
    }
    comp.DropColumns(cols);
    for (size_t c = 0; c < comp.NumFields(); ++c) {
      pool().field_index[comp.field(c)] = FieldLoc{ci, static_cast<int32_t>(c)};
    }
  }
  templates_.erase(it);
  return Status::Ok();
}

void Wsdt::KillComponent(size_t i) {
  pool().alive[i] = false;
  pool().components[i] = Component();
  ++pool().dead;
}

Status Wsdt::AddComponent(Component component) {
  if (component.NumFields() == 0 || component.empty()) {
    return Status::InvalidArgument("component must be non-empty");
  }
  for (const FieldKey& f : component.fields()) {
    if (pool().field_index.count(f)) {
      return Status::AlreadyExists("field " + f.ToString() +
                                   " already covered");
    }
  }
  int32_t idx = static_cast<int32_t>(pool().components.size());
  for (size_t c = 0; c < component.NumFields(); ++c) {
    pool().field_index[component.field(c)] =
        FieldLoc{idx, static_cast<int32_t>(c)};
  }
  pool().components.push_back(std::move(component));
  pool().alive.push_back(true);
  return Status::Ok();
}

std::vector<size_t> Wsdt::LiveComponents() const {
  std::vector<size_t> out;
  for (size_t i = 0; i < pool().components.size(); ++i) {
    if (pool().alive[i]) out.push_back(i);
  }
  return out;
}

Result<FieldLoc> Wsdt::Locate(const FieldKey& field) const {
  auto it = pool().field_index.find(field);
  if (it == pool().field_index.end()) {
    return Status::NotFound("field " + field.ToString() + " not present");
  }
  return it->second;
}

bool Wsdt::HasField(const FieldKey& field) const {
  return pool().field_index.count(field) > 0;
}

Status Wsdt::ComposeInPlace(size_t a, size_t b) {
  if (a == b) return Status::Ok();
  if (a >= pool().components.size() || b >= pool().components.size() || !pool().alive[a] ||
      !pool().alive[b]) {
    return Status::InvalidArgument("compose of dead or invalid component");
  }
  Component composed = Component::Compose(pool().components[a], pool().components[b]);
  size_t offset = pool().components[a].NumFields();
  pool().components[a] = std::move(composed);
  const Component& merged = pool().components[a];
  for (size_t c = offset; c < merged.NumFields(); ++c) {
    pool().field_index[merged.field(c)] =
        FieldLoc{static_cast<int32_t>(a), static_cast<int32_t>(c)};
  }
  KillComponent(b);
  return Status::Ok();
}

Status Wsdt::CopyFieldInto(const FieldKey& src, const FieldKey& dst) {
  auto it = pool().field_index.find(src);
  if (it == pool().field_index.end()) {
    return Status::NotFound("source field " + src.ToString());
  }
  if (pool().field_index.count(dst)) {
    return Status::AlreadyExists("destination field " + dst.ToString());
  }
  FieldLoc loc = it->second;
  Component& comp = pool().components[loc.comp];
  comp.ExtDuplicateColumn(static_cast<size_t>(loc.col), dst);
  pool().field_index[dst] =
      FieldLoc{loc.comp, static_cast<int32_t>(comp.NumFields() - 1)};
  return Status::Ok();
}

Status Wsdt::AddFieldComponent(const FieldKey& dst,
                               std::vector<rel::Value> values,
                               std::vector<double> probs) {
  if (values.empty() || values.size() != probs.size()) {
    return Status::InvalidArgument("values/probs mismatch for " +
                                   dst.ToString());
  }
  Component comp({dst});
  for (size_t i = 0; i < values.size(); ++i) {
    comp.AddWorld({values[i]}, probs[i]);
  }
  return AddComponent(std::move(comp));
}

Status Wsdt::AddColumnToComponent(size_t comp_index, const FieldKey& dst,
                                  std::span<const rel::Value> values) {
  if (comp_index >= pool().components.size() || !pool().alive[comp_index]) {
    return Status::InvalidArgument("dead or invalid component");
  }
  if (pool().field_index.count(dst)) {
    return Status::AlreadyExists("field " + dst.ToString());
  }
  Component& comp = pool().components[comp_index];
  if (values.size() != comp.NumWorlds()) {
    return Status::InvalidArgument("derived column size mismatch");
  }
  comp.ExtColumn(dst, values);
  pool().field_index[dst] = FieldLoc{static_cast<int32_t>(comp_index),
                               static_cast<int32_t>(comp.NumFields() - 1)};
  return Status::Ok();
}

Status Wsdt::DropField(const FieldKey& field) {
  auto it = pool().field_index.find(field);
  if (it == pool().field_index.end()) {
    return Status::NotFound("field " + field.ToString());
  }
  FieldLoc loc = it->second;
  Component& comp = pool().components[loc.comp];
  comp.DropColumns({static_cast<size_t>(loc.col)});
  pool().field_index.erase(it);
  for (size_t c = static_cast<size_t>(loc.col); c < comp.NumFields(); ++c) {
    pool().field_index[comp.field(c)] = FieldLoc{loc.comp, static_cast<int32_t>(c)};
  }
  if (comp.NumFields() == 0) KillComponent(static_cast<size_t>(loc.comp));
  return Status::Ok();
}

Status Wsdt::RenameFieldKey(const FieldKey& from, const FieldKey& to) {
  auto it = pool().field_index.find(from);
  if (it == pool().field_index.end()) {
    return Status::NotFound("field " + from.ToString());
  }
  if (pool().field_index.count(to)) {
    return Status::AlreadyExists("field " + to.ToString());
  }
  FieldLoc loc = it->second;
  pool().components[loc.comp].RenameField(static_cast<size_t>(loc.col), to);
  pool().field_index.erase(it);
  pool().field_index[to] = loc;
  return Status::Ok();
}

Status Wsdt::ReplaceComponent(size_t index, std::vector<Component> parts) {
  if (index >= pool().components.size() || !pool().alive[index]) {
    return Status::InvalidArgument("replacing dead or invalid component");
  }
  std::vector<FieldKey> old_fields = pool().components[index].fields();
  std::vector<FieldKey> new_fields;
  for (const Component& part : parts) {
    for (const FieldKey& f : part.fields()) new_fields.push_back(f);
  }
  auto sorted = [](std::vector<FieldKey> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  if (sorted(old_fields) != sorted(new_fields)) {
    return Status::InvalidArgument(
        "replacement components do not cover the same fields");
  }
  for (const FieldKey& f : old_fields) pool().field_index.erase(f);
  KillComponent(index);
  for (Component& part : parts) {
    int32_t idx = static_cast<int32_t>(pool().components.size());
    for (size_t c = 0; c < part.NumFields(); ++c) {
      pool().field_index[part.field(c)] = FieldLoc{idx, static_cast<int32_t>(c)};
    }
    pool().components.push_back(std::move(part));
    pool().alive.push_back(true);
  }
  return Status::Ok();
}

void Wsdt::CompactComponents() {
  std::vector<Component> live;
  for (size_t i = 0; i < pool().components.size(); ++i) {
    if (pool().alive[i]) live.push_back(std::move(pool().components[i]));
  }
  pool().components = std::move(live);
  pool().alive.assign(pool().components.size(), true);
  pool().dead = 0;
  pool().field_index.clear();
  for (size_t i = 0; i < pool().components.size(); ++i) {
    for (size_t c = 0; c < pool().components[i].NumFields(); ++c) {
      pool().field_index[pool().components[i].field(c)] =
          FieldLoc{static_cast<int32_t>(i), static_cast<int32_t>(c)};
    }
  }
}

Status Wsdt::Validate() const {
  // Every '?' cell covered by exactly one component column, and vice versa.
  size_t question_cells = 0;
  for (const auto& [name, rel] : templates_) {
    Symbol sym = InternString(name);
    for (size_t r = 0; r < rel.NumRows(); ++r) {
      for (size_t a = 0; a < rel.arity(); ++a) {
        if (rel.row(r)[a].is_question()) {
          ++question_cells;
          FieldKey f(sym, static_cast<TupleId>(r), rel.schema().attr(a).name);
          if (!pool().field_index.count(f)) {
            return Status::Internal("placeholder " + f.ToString() +
                                    " has no component column");
          }
        }
      }
    }
  }
  if (question_cells != pool().field_index.size()) {
    return Status::Internal("component columns (" +
                            std::to_string(pool().field_index.size()) +
                            ") != placeholders (" +
                            std::to_string(question_cells) + ")");
  }
  for (const auto& [field, loc] : pool().field_index) {
    if (loc.comp < 0 || static_cast<size_t>(loc.comp) >= pool().components.size() ||
        !pool().alive[loc.comp]) {
      return Status::Internal("index points at dead component: " +
                              field.ToString());
    }
    const Component& comp = pool().components[loc.comp];
    if (loc.col < 0 || static_cast<size_t>(loc.col) >= comp.NumFields() ||
        comp.field(loc.col) != field) {
      return Status::Internal("index column mismatch: " + field.ToString());
    }
    auto t = templates_.find(std::string(SymbolName(field.rel)));
    if (t == templates_.end() ||
        field.tuple >= static_cast<TupleId>(t->second.NumRows())) {
      return Status::Internal("component field outside template: " +
                              field.ToString());
    }
  }
  for (size_t i = 0; i < pool().components.size(); ++i) {
    if (!pool().alive[i]) continue;
    double sum = pool().components[i].ProbSum();
    if (std::abs(sum - 1.0) > 1e-4) {
      return Status::Internal("component probabilities sum to " +
                              std::to_string(sum));
    }
  }
  return Status::Ok();
}

Result<Wsd> Wsdt::ToWsd() const {
  Wsd wsd;
  for (const auto& [name, rel] : templates_) {
    MAYWSD_RETURN_IF_ERROR(wsd.AddRelation(
        name, rel.schema(), static_cast<TupleId>(rel.NumRows())));
  }
  // Uncertain fields: copy components as-is.
  for (size_t i = 0; i < pool().components.size(); ++i) {
    if (!pool().alive[i]) continue;
    MAYWSD_RETURN_IF_ERROR(wsd.AddComponent(pool().components[i]));
  }
  // Certain fields: singleton components.
  for (const auto& [name, rel] : templates_) {
    Symbol sym = InternString(name);
    for (size_t r = 0; r < rel.NumRows(); ++r) {
      for (size_t a = 0; a < rel.arity(); ++a) {
        const rel::Value& v = rel.row(r)[a];
        if (v.is_question()) continue;
        MAYWSD_RETURN_IF_ERROR(wsd.AddCertainField(
            FieldKey(sym, static_cast<TupleId>(r), rel.schema().attr(a).name),
            v));
      }
    }
  }
  return wsd;
}

Result<Wsdt> Wsdt::FromWsd(const Wsd& wsd) {
  Wsdt out;
  // Tuple-slot remapping: slots invalid in every world are removed; the
  // rest are renumbered densely as template rows.
  std::map<std::pair<Symbol, TupleId>, TupleId> remap;
  for (const std::string& name : wsd.RelationNames()) {
    MAYWSD_ASSIGN_OR_RETURN(const WsdRelation* rel, wsd.FindRelation(name));
    rel::Relation tmpl(rel->schema, name);
    std::vector<rel::Value> row(rel->schema.arity());
    TupleId next = 0;
    for (TupleId t = 0; t < rel->max_tuples; ++t) {
      size_t covered = wsd.FieldsOfTuple(*rel, t).size();
      if (covered == 0) continue;  // slot removed by normalization
      if (covered != rel->schema.arity()) {
        return Status::InvalidArgument("partial tuple slot " + name + ".t" +
                                       std::to_string(t));
      }
      bool invalid = false;
      for (size_t a = 0; a < rel->schema.arity(); ++a) {
        FieldKey f(rel->name_sym, t, rel->schema.attr(a).name);
        MAYWSD_ASSIGN_OR_RETURN(FieldLoc loc, wsd.Locate(f));
        const Component& comp = wsd.component(loc.comp);
        size_t col = static_cast<size_t>(loc.col);
        if (comp.ColumnAllBottom(col)) {
          invalid = true;
          break;
        }
        if (comp.ColumnConstant(col)) {
          row[a] = comp.at(0, col);
        } else {
          row[a] = rel::Value::Question();
        }
      }
      if (invalid) continue;
      tmpl.AppendRow(row);
      remap[{rel->name_sym, t}] = next++;
    }
    MAYWSD_RETURN_IF_ERROR(out.AddTemplateRelation(std::move(tmpl)));
  }
  // Components: keep only non-constant columns, remapping tuple ids.
  for (size_t i : wsd.LiveComponents()) {
    const Component& comp = wsd.component(i);
    std::vector<size_t> keep;
    for (size_t c = 0; c < comp.NumFields(); ++c) {
      auto it = remap.find({comp.field(c).rel, comp.field(c).tuple});
      if (it == remap.end()) continue;  // invalid slot dropped entirely
      if (!comp.ColumnConstant(c)) keep.push_back(c);
    }
    if (keep.empty()) continue;
    Component proj = comp.ProjectColumns(keep);
    proj.Compress();
    for (size_t c = 0; c < proj.NumFields(); ++c) {
      FieldKey f = proj.field(c);
      proj.RenameField(c, FieldKey(f.rel, remap.at({f.rel, f.tuple}), f.attr));
    }
    MAYWSD_RETURN_IF_ERROR(out.AddComponent(std::move(proj)));
  }
  return out;
}

WsdtStats Wsdt::ComputeStats() const {
  WsdtStats stats;
  for (size_t i = 0; i < pool().components.size(); ++i) {
    if (!pool().alive[i]) continue;
    const Component& comp = pool().components[i];
    ++stats.num_components;
    if (comp.NumFields() > 1) ++stats.num_components_multi;
    for (size_t w = 0; w < comp.NumWorlds(); ++w) {
      for (size_t c = 0; c < comp.NumFields(); ++c) {
        if (!comp.at(w, c).is_bottom()) ++stats.c_size;
      }
    }
  }
  for (const auto& [name, rel] : templates_) {
    stats.template_rows += rel.NumRows();
  }
  return stats;
}

Result<WsdtStats> Wsdt::StatsForRelation(const std::string& name) const {
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* tmpl, Template(name));
  Symbol sym = InternString(name);
  WsdtStats stats;
  stats.template_rows = tmpl->NumRows();
  for (size_t i = 0; i < pool().components.size(); ++i) {
    if (!pool().alive[i]) continue;
    const Component& comp = pool().components[i];
    size_t own_cols = 0;
    for (size_t c = 0; c < comp.NumFields(); ++c) {
      if (comp.field(c).rel != sym) continue;
      ++own_cols;
      for (size_t w = 0; w < comp.NumWorlds(); ++w) {
        if (!comp.at(w, c).is_bottom()) ++stats.c_size;
      }
    }
    if (own_cols > 0) ++stats.num_components;
    if (own_cols > 1) ++stats.num_components_multi;
  }
  return stats;
}

std::vector<size_t> Wsdt::ComponentSizeHistogram() const {
  std::vector<size_t> hist;
  for (size_t i = 0; i < pool().components.size(); ++i) {
    if (!pool().alive[i]) continue;
    size_t size = pool().components[i].NumFields();
    if (hist.size() <= size) hist.resize(size + 1, 0);
    ++hist[size];
  }
  return hist;
}

std::string Wsdt::ToString() const {
  std::ostringstream os;
  for (const auto& [name, rel] : templates_) {
    os << "Template " << rel.ToString();
  }
  for (size_t i = 0; i < pool().components.size(); ++i) {
    if (!pool().alive[i]) continue;
    os << "C" << i << " " << pool().components[i].ToString();
  }
  return os.str();
}

}  // namespace maywsd::core
