#include "core/wsd.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace maywsd::core {

Status Wsd::AddRelation(const std::string& name, rel::Schema schema,
                        TupleId max_tuples) {
  if (relation_by_name_.count(name)) {
    return Status::AlreadyExists("relation " + name);
  }
  if (max_tuples < 0) {
    return Status::InvalidArgument("negative max_tuples for " + name);
  }
  WsdRelation rel;
  rel.name = name;
  rel.name_sym = InternString(name);
  rel.schema = std::move(schema);
  rel.max_tuples = max_tuples;
  relation_by_name_[name] = relations_.size();
  relations_.push_back(std::move(rel));
  return Status::Ok();
}

Result<const WsdRelation*> Wsd::FindRelation(const std::string& name) const {
  auto it = relation_by_name_.find(name);
  if (it == relation_by_name_.end()) {
    return Status::NotFound("relation " + name + " not in world-set schema");
  }
  return &relations_[it->second];
}

bool Wsd::HasRelation(const std::string& name) const {
  return relation_by_name_.count(name) > 0;
}

std::vector<std::string> Wsd::RelationNames() const {
  std::vector<std::string> names;
  names.reserve(relations_.size());
  for (const auto& [name, idx] : relation_by_name_) names.push_back(name);
  return names;
}

Status Wsd::DropRelation(const std::string& name) {
  auto it = relation_by_name_.find(name);
  if (it == relation_by_name_.end()) {
    return Status::NotFound("relation " + name);
  }
  Symbol sym = relations_[it->second].name_sym;
  // Drop all fields of the relation, component by component.
  std::vector<FieldKey> to_drop;
  for (const auto& [field, loc] : pool().field_index) {
    if (field.rel == sym) to_drop.push_back(field);
  }
  for (const FieldKey& f : to_drop) {
    MAYWSD_RETURN_IF_ERROR(DropField(f));
  }
  // Keep the schema entry slot but remove it from the name map and the
  // relation list by tombstoning is unnecessary: relations_ is indexed by
  // relation_by_name_, so rebuild both.
  size_t gone = it->second;
  relations_.erase(relations_.begin() + static_cast<long>(gone));
  relation_by_name_.clear();
  for (size_t i = 0; i < relations_.size(); ++i) {
    relation_by_name_[relations_[i].name] = i;
  }
  return Status::Ok();
}

Status Wsd::CheckComponentFields(const Component& component) const {
  for (const FieldKey& f : component.fields()) {
    auto rel_it = relation_by_name_.find(std::string(SymbolName(f.rel)));
    if (rel_it == relation_by_name_.end()) {
      return Status::NotFound("component field " + f.ToString() +
                              " refers to unknown relation");
    }
    const WsdRelation& rel = relations_[rel_it->second];
    if (f.tuple < 0 || f.tuple >= rel.max_tuples) {
      return Status::InvalidArgument("component field " + f.ToString() +
                                     " tuple id out of range");
    }
    if (!rel.schema.IndexOf(f.attr)) {
      return Status::NotFound("component field " + f.ToString() +
                              " refers to unknown attribute");
    }
    if (pool().field_index.count(f)) {
      return Status::AlreadyExists("field " + f.ToString() +
                                   " already covered by a component");
    }
  }
  return Status::Ok();
}

Status Wsd::AddComponent(Component component) {
  if (component.NumFields() == 0) {
    return Status::InvalidArgument("component must have at least one field");
  }
  if (component.empty()) {
    return Status::InvalidArgument("component must have at least one world");
  }
  MAYWSD_RETURN_IF_ERROR(CheckComponentFields(component));
  int32_t idx = static_cast<int32_t>(pool().components.size());
  for (size_t c = 0; c < component.NumFields(); ++c) {
    pool().field_index[component.field(c)] = FieldLoc{idx, static_cast<int32_t>(c)};
  }
  pool().components.push_back(std::move(component));
  pool().alive.push_back(true);
  return Status::Ok();
}

std::vector<size_t> Wsd::LiveComponents() const {
  std::vector<size_t> out;
  for (size_t i = 0; i < pool().components.size(); ++i) {
    if (pool().alive[i]) out.push_back(i);
  }
  return out;
}

size_t Wsd::NumLiveComponents() const {
  size_t n = 0;
  for (bool a : pool().alive) n += a;
  return n;
}

Result<FieldLoc> Wsd::Locate(const FieldKey& field) const {
  auto it = pool().field_index.find(field);
  if (it == pool().field_index.end()) {
    return Status::NotFound("field " + field.ToString() + " not present");
  }
  return it->second;
}

bool Wsd::HasField(const FieldKey& field) const {
  return pool().field_index.count(field) > 0;
}

Status Wsd::ComposeInPlace(size_t a, size_t b) {
  if (a == b) return Status::Ok();
  if (a >= pool().components.size() || b >= pool().components.size() || !pool().alive[a] ||
      !pool().alive[b]) {
    return Status::InvalidArgument("compose of dead or invalid component");
  }
  Component composed = Component::Compose(pool().components[a], pool().components[b]);
  size_t offset = pool().components[a].NumFields();
  pool().components[a] = std::move(composed);
  pool().alive[b] = false;
  // Re-point the moved fields of b (they now sit at column offset+i of a).
  const Component& merged = pool().components[a];
  for (size_t c = offset; c < merged.NumFields(); ++c) {
    pool().field_index[merged.field(c)] =
        FieldLoc{static_cast<int32_t>(a), static_cast<int32_t>(c)};
  }
  pool().components[b] = Component();
  return Status::Ok();
}

Status Wsd::DropField(const FieldKey& field) {
  auto it = pool().field_index.find(field);
  if (it == pool().field_index.end()) {
    return Status::NotFound("field " + field.ToString());
  }
  FieldLoc loc = it->second;
  Component& comp = pool().components[loc.comp];
  comp.DropColumns({static_cast<size_t>(loc.col)});
  pool().field_index.erase(it);
  // Columns after `col` shifted left by one.
  for (size_t c = static_cast<size_t>(loc.col); c < comp.NumFields(); ++c) {
    pool().field_index[comp.field(c)] =
        FieldLoc{loc.comp, static_cast<int32_t>(c)};
  }
  if (comp.NumFields() == 0) {
    // Zero-column component: dropping it is exact marginalization.
    pool().alive[loc.comp] = false;
    pool().components[loc.comp] = Component();
  }
  return Status::Ok();
}

Status Wsd::AddCertainField(const FieldKey& dst, const rel::Value& value) {
  // Interned: every certain field of the same value shares one payload node.
  return AddComponent(Component::Certain(dst, value));
}

Status Wsd::ReplaceComponent(size_t index, std::vector<Component> parts) {
  if (index >= pool().components.size() || !pool().alive[index]) {
    return Status::InvalidArgument("replacing dead or invalid component");
  }
  // Verify the parts cover exactly the fields of the replaced component.
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
  // Remove old index entries, tombstone, then add the parts.
  for (const FieldKey& f : old_fields) pool().field_index.erase(f);
  pool().alive[index] = false;
  pool().components[index] = Component();
  for (Component& part : parts) {
    int32_t idx = static_cast<int32_t>(pool().components.size());
    for (size_t c = 0; c < part.NumFields(); ++c) {
      pool().field_index[part.field(c)] =
          FieldLoc{idx, static_cast<int32_t>(c)};
    }
    pool().components.push_back(std::move(part));
    pool().alive.push_back(true);
  }
  return Status::Ok();
}

void Wsd::CompactComponents() {
  std::vector<Component> live;
  live.reserve(pool().components.size());
  for (size_t i = 0; i < pool().components.size(); ++i) {
    if (pool().alive[i]) live.push_back(std::move(pool().components[i]));
  }
  pool().components = std::move(live);
  pool().alive.assign(pool().components.size(), true);
  pool().field_index.clear();
  for (size_t i = 0; i < pool().components.size(); ++i) {
    for (size_t c = 0; c < pool().components[i].NumFields(); ++c) {
      pool().field_index[pool().components[i].field(c)] =
          FieldLoc{static_cast<int32_t>(i), static_cast<int32_t>(c)};
    }
  }
}

std::vector<FieldKey> Wsd::FieldsOfTuple(const WsdRelation& rel,
                                         TupleId tid) const {
  std::vector<FieldKey> out;
  for (size_t a = 0; a < rel.schema.arity(); ++a) {
    FieldKey f(rel.name_sym, tid, rel.schema.attr(a).name);
    if (pool().field_index.count(f)) out.push_back(f);
  }
  return out;
}

bool Wsd::SlotPresent(const WsdRelation& rel, TupleId tid) const {
  return FieldsOfTuple(rel, tid).size() == rel.schema.arity();
}

Status Wsd::Validate() const {
  // 1. Index consistency.
  for (const auto& [field, loc] : pool().field_index) {
    if (loc.comp < 0 || static_cast<size_t>(loc.comp) >= pool().components.size() ||
        !pool().alive[loc.comp]) {
      return Status::Internal("field index points to dead component for " +
                              field.ToString());
    }
    const Component& comp = pool().components[loc.comp];
    if (loc.col < 0 || static_cast<size_t>(loc.col) >= comp.NumFields() ||
        comp.field(loc.col) != field) {
      return Status::Internal("field index column mismatch for " +
                              field.ToString());
    }
  }
  // 2. Every live component's fields are in the index.
  for (size_t i = 0; i < pool().components.size(); ++i) {
    if (!pool().alive[i]) continue;
    if (pool().components[i].empty()) {
      return Status::Internal("live component with no local worlds");
    }
    for (size_t c = 0; c < pool().components[i].NumFields(); ++c) {
      auto it = pool().field_index.find(pool().components[i].field(c));
      if (it == pool().field_index.end() ||
          it->second.comp != static_cast<int32_t>(i) ||
          it->second.col != static_cast<int32_t>(c)) {
        return Status::Internal("component field missing from index: " +
                                pool().components[i].field(c).ToString());
      }
    }
    double sum = pool().components[i].ProbSum();
    if (std::abs(sum - 1.0) > 1e-4) {
      return Status::Internal("component probabilities sum to " +
                              std::to_string(sum));
    }
  }
  // 3. All-or-none coverage of tuple slots.
  for (const WsdRelation& rel : relations_) {
    for (TupleId t = 0; t < rel.max_tuples; ++t) {
      size_t have = FieldsOfTuple(rel, t).size();
      if (have != 0 && have != rel.schema.arity()) {
        return Status::Internal("partial tuple slot " + rel.name + ".t" +
                                std::to_string(t));
      }
    }
  }
  return Status::Ok();
}

uint64_t Wsd::WorldCombinationCount(uint64_t cap) const {
  uint64_t total = 1;
  for (size_t i = 0; i < pool().components.size(); ++i) {
    if (!pool().alive[i]) continue;
    uint64_t n = pool().components[i].NumWorlds();
    if (n == 0) return 0;
    if (total > cap / n) return cap;  // saturate
    total *= n;
  }
  return total;
}

Result<std::vector<PossibleWorld>> Wsd::EnumerateWorlds(
    uint64_t max_worlds, const std::vector<std::string>& relations) const {
  if (WorldCombinationCount(max_worlds + 1) > max_worlds) {
    return Status::ResourceExhausted(
        "world-set has more than " + std::to_string(max_worlds) +
        " combinations");
  }
  std::vector<size_t> live = LiveComponents();
  std::vector<size_t> choice(live.size(), 0);

  // Which relations to materialize.
  std::vector<const WsdRelation*> mats;
  if (relations.empty()) {
    for (const WsdRelation& r : relations_) mats.push_back(&r);
  } else {
    for (const std::string& name : relations) {
      MAYWSD_ASSIGN_OR_RETURN(const WsdRelation* r, FindRelation(name));
      mats.push_back(r);
    }
  }

  // Precompute field locations per (relation, slot) to avoid hash lookups
  // in the inner loop.
  struct SlotInfo {
    const WsdRelation* rel;
    std::vector<FieldLoc> locs;  // one per attribute
  };
  std::vector<SlotInfo> slots;
  for (const WsdRelation* r : mats) {
    for (TupleId t = 0; t < r->max_tuples; ++t) {
      std::vector<FieldKey> fields = FieldsOfTuple(*r, t);
      if (fields.empty()) continue;  // slot removed by normalization
      if (fields.size() != r->schema.arity()) {
        return Status::Internal("partial tuple slot during enumeration");
      }
      SlotInfo info;
      info.rel = r;
      for (size_t a = 0; a < r->schema.arity(); ++a) {
        FieldKey f(r->name_sym, t, r->schema.attr(a).name);
        info.locs.push_back(pool().field_index.at(f));
      }
      slots.push_back(std::move(info));
    }
  }
  // Map component slot index -> position in `choice`.
  std::vector<int> comp_pos(pool().components.size(), -1);
  for (size_t i = 0; i < live.size(); ++i) {
    comp_pos[live[i]] = static_cast<int>(i);
  }

  std::vector<PossibleWorld> out;
  std::vector<rel::Value> row;
  bool done = false;
  while (!done) {
    PossibleWorld world;
    world.prob = 1.0;
    for (size_t i = 0; i < live.size(); ++i) {
      world.prob *= pool().components[live[i]].prob(choice[i]);
    }
    // Materialize relations.
    for (const WsdRelation* r : mats) {
      rel::Relation out_rel(r->schema, r->name);
      world.db.PutRelation(std::move(out_rel));
    }
    for (const SlotInfo& slot : slots) {
      row.clear();
      bool has_bottom = false;
      for (const FieldLoc& loc : slot.locs) {
        const Component& comp = pool().components[loc.comp];
        const rel::Value& v = comp.at(choice[comp_pos[loc.comp]], loc.col);
        if (v.is_bottom()) {
          has_bottom = true;
          break;
        }
        row.push_back(v);
      }
      if (has_bottom) continue;  // t⊥ padding tuple: not part of the world
      rel::Relation* target = world.db.GetMutableRelation(slot.rel->name).value();
      target->AppendRow(row);
    }
    for (const std::string& name : world.db.Names()) {
      world.db.GetMutableRelation(name).value()->SortDedup();
    }
    out.push_back(std::move(world));
    // Advance the odometer.
    done = true;
    for (size_t i = 0; i < live.size(); ++i) {
      if (++choice[i] < pool().components[live[i]].NumWorlds()) {
        done = false;
        break;
      }
      choice[i] = 0;
    }
    if (live.empty()) break;  // single empty-product world
  }
  return out;
}

std::string Wsd::ToString() const {
  std::ostringstream os;
  os << "WSD over {";
  bool first = true;
  for (const WsdRelation& r : relations_) {
    if (!first) os << ", ";
    first = false;
    os << r.name << r.schema.ToString() << " x" << r.max_tuples;
  }
  os << "}\n";
  for (size_t i = 0; i < pool().components.size(); ++i) {
    if (!pool().alive[i]) continue;
    os << "C" << i << " " << pool().components[i].ToString();
  }
  return os.str();
}

std::string CanonicalWorldKey(const rel::Database& db) {
  std::ostringstream os;
  for (const std::string& name : db.Names()) {
    const rel::Relation* rel = db.GetRelation(name).value();
    rel::Relation copy = *rel;
    copy.SortDedup();
    os << name << "{";
    for (size_t i = 0; i < copy.NumRows(); ++i) {
      os << copy.row(i).ToString() << ";";
    }
    os << "}";
  }
  return os.str();
}

std::vector<PossibleWorld> CollapseWorlds(std::vector<PossibleWorld> worlds) {
  std::map<std::string, PossibleWorld> merged;
  for (PossibleWorld& w : worlds) {
    std::string key = CanonicalWorldKey(w.db);
    auto it = merged.find(key);
    if (it == merged.end()) {
      merged.emplace(std::move(key), std::move(w));
    } else {
      it->second.prob += w.prob;
    }
  }
  std::vector<PossibleWorld> out;
  out.reserve(merged.size());
  for (auto& [key, w] : merged) out.push_back(std::move(w));
  return out;
}

bool WorldSetsEquivalent(std::vector<PossibleWorld> a,
                         std::vector<PossibleWorld> b, double eps) {
  std::vector<PossibleWorld> ca = CollapseWorlds(std::move(a));
  std::vector<PossibleWorld> cb = CollapseWorlds(std::move(b));
  if (ca.size() != cb.size()) return false;
  for (size_t i = 0; i < ca.size(); ++i) {
    if (CanonicalWorldKey(ca[i].db) != CanonicalWorldKey(cb[i].db)) {
      return false;
    }
    if (std::abs(ca[i].prob - cb[i].prob) > eps) return false;
  }
  return true;
}

}  // namespace maywsd::core
