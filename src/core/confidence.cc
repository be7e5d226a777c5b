#include "core/confidence.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

namespace maywsd::core {

namespace {

/// Union-find over component indexes, used to group components linked by
/// tuple slots that span several of them.
class UnionFind {
 public:
  int Find(int x) {
    auto it = parent_.find(x);
    if (it == parent_.end()) {
      parent_[x] = x;
      return x;
    }
    int root = x;
    while (parent_[root] != root) root = parent_[root];
    while (parent_[x] != root) {
      int next = parent_[x];
      parent_[x] = root;
      x = next;
    }
    return root;
  }
  void Union(int a, int b) { parent_[Find(a)] = Find(b); }

 private:
  std::map<int, int> parent_;
};

/// A candidate slot and the per-attribute field locations.
struct Slot {
  TupleId tid;
  std::vector<FieldLoc> locs;  // one per schema attribute
};

/// Collects the present slots of `relation` with their field locations.
Result<std::vector<Slot>> CollectSlots(const Wsd& wsd,
                                       const WsdRelation& rel) {
  std::vector<Slot> slots;
  for (TupleId t = 0; t < rel.max_tuples; ++t) {
    Slot slot;
    slot.tid = t;
    bool present = true;
    for (size_t a = 0; a < rel.schema.arity(); ++a) {
      FieldKey f(rel.name_sym, t, rel.schema.attr(a).name);
      auto loc = wsd.Locate(f);
      if (!loc.ok()) {
        present = false;
        break;
      }
      slot.locs.push_back(loc.value());
    }
    if (present) slots.push_back(std::move(slot));
  }
  return slots;
}

/// Composes the projections of the group's components onto the columns in
/// `keep_cols_per_comp`, compressing between steps. Fails when the product
/// exceeds kMaxTupleLevelWorlds rows.
Result<Component> ComposeGroup(
    const Wsd& wsd, const std::vector<int>& comps,
    const std::map<int, std::set<size_t>>& keep_cols_per_comp) {
  Component acc;
  bool first = true;
  for (int ci : comps) {
    const Component& comp = wsd.component(static_cast<size_t>(ci));
    std::vector<size_t> cols(keep_cols_per_comp.at(ci).begin(),
                             keep_cols_per_comp.at(ci).end());
    Component proj = comp.ProjectColumns(cols);
    proj.Compress();
    if (first) {
      acc = std::move(proj);
      first = false;
    } else {
      if (static_cast<uint64_t>(acc.NumWorlds()) * proj.NumWorlds() >
          kMaxTupleLevelWorlds) {
        return Status::ResourceExhausted(
            "tuple-level normalization exceeds the blow-up guard");
      }
      acc = Component::Compose(acc, proj);
      acc.Compress();
    }
  }
  return acc;
}

}  // namespace

Result<double> TupleConfidence(const Wsd& wsd, const std::string& relation,
                               std::span<const rel::Value> tuple) {
  MAYWSD_ASSIGN_OR_RETURN(const WsdRelation* rel, wsd.FindRelation(relation));
  if (tuple.size() != rel->schema.arity()) {
    return Status::InvalidArgument("tuple arity mismatch for " + relation);
  }
  MAYWSD_ASSIGN_OR_RETURN(std::vector<Slot> slots, CollectSlots(wsd, *rel));

  // Candidate slots: every attribute's component column contains the probe
  // value in at least one local world.
  std::vector<Slot> candidates;
  for (Slot& slot : slots) {
    bool possible = true;
    for (size_t a = 0; a < slot.locs.size() && possible; ++a) {
      const Component& comp = wsd.component(slot.locs[a].comp);
      size_t col = static_cast<size_t>(slot.locs[a].col);
      bool found = false;
      for (size_t w = 0; w < comp.NumWorlds() && !found; ++w) {
        if (comp.at(w, col) == tuple[a]) found = true;
      }
      possible = found;
    }
    if (possible) candidates.push_back(std::move(slot));
  }
  if (candidates.empty()) return 0.0;

  // Group components connected via candidate slots.
  UnionFind uf;
  for (const Slot& slot : candidates) {
    for (size_t a = 1; a < slot.locs.size(); ++a) {
      uf.Union(slot.locs[0].comp, slot.locs[a].comp);
    }
  }
  // Per group: the components involved and, per component, the columns of
  // candidate-slot fields (the pruning step of Figure 17).
  std::map<int, std::vector<int>> group_comps;
  std::map<int, std::map<int, std::set<size_t>>> group_cols;
  std::map<int, std::vector<const Slot*>> group_slots;
  for (const Slot& slot : candidates) {
    int g = uf.Find(slot.locs[0].comp);
    group_slots[g].push_back(&slot);
    auto note = [&](const FieldLoc& loc) {
      auto& comps = group_comps[g];
      if (std::find(comps.begin(), comps.end(), loc.comp) == comps.end()) {
        comps.push_back(loc.comp);
      }
      group_cols[g][loc.comp].insert(static_cast<size_t>(loc.col));
    };
    for (const FieldLoc& loc : slot.locs) note(loc);
  }

  double not_conf = 1.0;
  for (const auto& [g, comps] : group_comps) {
    MAYWSD_ASSIGN_OR_RETURN(Component combined,
                            ComposeGroup(wsd, comps, group_cols.at(g)));
    // Column positions of each slot's fields within the combined component.
    double conf_c = 0.0;
    for (size_t w = 0; w < combined.NumWorlds(); ++w) {
      bool any_match = false;
      for (const Slot* slot : group_slots.at(g)) {
        bool match = true;
        for (size_t a = 0; a < slot->locs.size() && match; ++a) {
          FieldKey f(rel->name_sym, slot->tid, rel->schema.attr(a).name);
          int col = combined.FindField(f);
          if (col < 0 || !(combined.at(w, static_cast<size_t>(col)) ==
                           tuple[a])) {
            match = false;
          }
        }
        if (match) {
          any_match = true;
          break;
        }
      }
      if (any_match) conf_c += combined.prob(w);
    }
    not_conf *= (1.0 - conf_c);
  }
  return 1.0 - not_conf;
}

Result<rel::Relation> PossibleTuples(const Wsd& wsd,
                                     const std::string& relation) {
  MAYWSD_ASSIGN_OR_RETURN(const WsdRelation* rel, wsd.FindRelation(relation));
  MAYWSD_ASSIGN_OR_RETURN(std::vector<Slot> slots, CollectSlots(wsd, *rel));
  rel::Relation out(rel->schema, "possible_" + relation);
  std::vector<rel::Value> row(rel->schema.arity());
  for (const Slot& slot : slots) {
    // Compose the components this slot spans, projected onto its columns.
    std::vector<int> comps;
    std::map<int, std::set<size_t>> cols;
    auto note = [&](const FieldLoc& loc) {
      if (std::find(comps.begin(), comps.end(), loc.comp) == comps.end()) {
        comps.push_back(loc.comp);
      }
      cols[loc.comp].insert(static_cast<size_t>(loc.col));
    };
    for (const FieldLoc& loc : slot.locs) note(loc);
    MAYWSD_ASSIGN_OR_RETURN(Component combined,
                            ComposeGroup(wsd, comps, cols));
    // Map schema attributes to combined columns once.
    std::vector<int> attr_col(rel->schema.arity(), -1);
    for (size_t a = 0; a < rel->schema.arity(); ++a) {
      FieldKey f(rel->name_sym, slot.tid, rel->schema.attr(a).name);
      attr_col[a] = combined.FindField(f);
      if (attr_col[a] < 0) {
        return Status::Internal("missing column in tuple-level component");
      }
    }
    for (size_t w = 0; w < combined.NumWorlds(); ++w) {
      if (combined.prob(w) <= 0.0) continue;  // zero-mass local world
      bool has_bottom = false;
      for (size_t a = 0; a < rel->schema.arity(); ++a) {
        const rel::Value& v =
            combined.at(w, static_cast<size_t>(attr_col[a]));
        if (v.is_bottom()) {
          has_bottom = true;
          break;
        }
        row[a] = v;
      }
      if (!has_bottom) out.AppendRow(row);
    }
  }
  out.SortDedup();
  return out;
}

Result<rel::Relation> PossibleTuplesWithConfidence(
    const Wsd& wsd, const std::string& relation) {
  MAYWSD_ASSIGN_OR_RETURN(rel::Relation possible,
                          PossibleTuples(wsd, relation));
  rel::Schema out_schema = possible.schema();
  MAYWSD_RETURN_IF_ERROR(
      out_schema.AddAttribute(rel::Attribute("conf", rel::AttrType::kDouble)));
  rel::Relation out(out_schema, "possible_p_" + relation);
  std::vector<rel::Value> row(out_schema.arity());
  for (size_t i = 0; i < possible.NumRows(); ++i) {
    rel::TupleRef t = possible.row(i);
    MAYWSD_ASSIGN_OR_RETURN(double conf,
                            TupleConfidence(wsd, relation, t.span()));
    for (size_t a = 0; a < t.arity(); ++a) row[a] = t[a];
    row[t.arity()] = rel::Value::Double(conf);
    out.AppendRow(row);
  }
  return out;
}

Result<bool> TupleCertain(const Wsd& wsd, const std::string& relation,
                          std::span<const rel::Value> tuple) {
  MAYWSD_ASSIGN_OR_RETURN(double conf,
                          TupleConfidence(wsd, relation, tuple));
  return conf >= 1.0 - 1e-9;
}

Result<rel::Relation> CertainTuples(const Wsd& wsd,
                                    const std::string& relation) {
  MAYWSD_ASSIGN_OR_RETURN(rel::Relation possible,
                          PossibleTuples(wsd, relation));
  rel::Relation out(possible.schema(), "certain_" + relation);
  for (size_t i = 0; i < possible.NumRows(); ++i) {
    MAYWSD_ASSIGN_OR_RETURN(
        bool certain, TupleCertain(wsd, relation, possible.row(i).span()));
    if (certain) out.AppendRow(possible.row(i).span());
  }
  return out;
}

}  // namespace maywsd::core
