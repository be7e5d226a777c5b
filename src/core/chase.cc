#include "core/chase.h"

#include <algorithm>
#include <set>

namespace maywsd::core {

std::string EgdAtom::ToString() const {
  return attr + std::string(rel::CmpOpName(op)) + constant.ToString();
}

std::string Egd::ToString() const {
  std::string out;
  for (size_t i = 0; i < premises.size(); ++i) {
    if (i > 0) out += " AND ";
    out += premises[i].ToString();
  }
  out += " => " + conclusion.ToString();
  return out + " on " + relation;
}

std::string Fd::ToString() const {
  std::string out;
  for (size_t i = 0; i < lhs.size(); ++i) {
    if (i > 0) out += ",";
    out += lhs[i];
  }
  return out + " -> " + rhs + " on " + relation;
}

namespace {

/// Composes all components in `comps` (a set of live component indexes)
/// into one; returns the surviving index.
Result<size_t> ComposeAll(Wsd& wsd, const std::set<int32_t>& comps) {
  auto it = comps.begin();
  size_t target = static_cast<size_t>(*it);
  for (++it; it != comps.end(); ++it) {
    MAYWSD_RETURN_IF_ERROR(wsd.ComposeInPlace(target,
                                              static_cast<size_t>(*it)));
  }
  return target;
}

/// Removes the local worlds flagged in `remove` from component `comp_idx`,
/// renormalizing the rest. Inconsistent when nothing remains.
Status RemoveWorldsAndRenormalize(Wsd& wsd, size_t comp_idx,
                                  const std::vector<bool>& remove,
                                  const std::string& what) {
  Component& comp = wsd.mutable_component(comp_idx);
  bool any = false;
  for (bool r : remove) any |= r;
  if (!any) return Status::Ok();
  Component next(comp.fields());
  for (size_t w = 0; w < comp.NumWorlds(); ++w) {
    if (remove[w]) continue;
    std::vector<rel::Value> row;
    row.reserve(comp.NumFields());
    for (size_t c = 0; c < comp.NumFields(); ++c) row.push_back(comp.at(w, c));
    next.AddWorld(row, comp.prob(w));
  }
  if (next.empty()) {
    return Status::Inconsistent("world-set is inconsistent: chasing " + what +
                                " removed all local worlds");
  }
  MAYWSD_RETURN_IF_ERROR(next.NormalizeProbs());
  comp = std::move(next);
  return Status::Ok();
}

/// Components that constrain the *presence* of tuple slot t: those holding
/// a column of t that contains ⊥ in some local world. Needed so the chase
/// never removes worlds in which the tuple is absent (and the dependency
/// vacuous).
Result<std::set<int32_t>> PresenceComponents(const Wsd& wsd,
                                             const WsdRelation& rel,
                                             TupleId t) {
  std::set<int32_t> out;
  for (size_t a = 0; a < rel.schema.arity(); ++a) {
    FieldKey f(rel.name_sym, t, rel.schema.attr(a).name);
    MAYWSD_ASSIGN_OR_RETURN(FieldLoc loc, wsd.Locate(f));
    if (wsd.component(loc.comp).ColumnHasBottom(
            static_cast<size_t>(loc.col))) {
      out.insert(loc.comp);
    }
  }
  return out;
}

/// True if the composed component's row `w` has a ⊥ in any column of slot
/// (rel, t) present in the component.
bool RowTupleAbsent(const Component& comp, size_t w, Symbol rel_sym,
                    TupleId t) {
  for (size_t c = 0; c < comp.NumFields(); ++c) {
    const FieldKey& f = comp.field(c);
    if (f.rel == rel_sym && f.tuple == t && comp.at(w, c).is_bottom()) {
      return true;
    }
  }
  return false;
}

}  // namespace

Status ChaseEgd(Wsd& wsd, const Egd& egd) {
  MAYWSD_ASSIGN_OR_RETURN(const WsdRelation* rel,
                          wsd.FindRelation(egd.relation));
  Symbol rel_sym = rel->name_sym;
  rel::Schema schema = rel->schema;
  TupleId max_tuples = rel->max_tuples;

  for (const EgdAtom& atom : egd.premises) {
    if (!schema.Contains(atom.attr)) {
      return Status::NotFound("EGD attribute " + atom.attr + " not in " +
                              egd.relation);
    }
  }
  if (!schema.Contains(egd.conclusion.attr)) {
    return Status::NotFound("EGD attribute " + egd.conclusion.attr +
                            " not in " + egd.relation);
  }

  for (TupleId t = 0; t < max_tuples; ++t) {
    FieldKey probe(rel_sym, t, schema.attr(0).name);
    if (!wsd.HasField(probe)) continue;  // removed slot

    // Refinement (end of Section 8): skip without composing when a premise
    // can never hold or the conclusion always holds. ⊥ rows are vacuous.
    bool skip = false;
    std::set<int32_t> needed;
    for (const EgdAtom& atom : egd.premises) {
      FieldKey f(rel_sym, t, InternString(atom.attr));
      MAYWSD_ASSIGN_OR_RETURN(FieldLoc loc, wsd.Locate(f));
      const Component& comp = wsd.component(loc.comp);
      size_t col = static_cast<size_t>(loc.col);
      bool any_true = false;
      bool all_true = true;
      for (size_t w = 0; w < comp.NumWorlds(); ++w) {
        const rel::Value& v = comp.at(w, col);
        if (v.is_bottom()) continue;  // absent: vacuous
        if (v.Satisfies(atom.op, atom.constant)) {
          any_true = true;
        } else {
          all_true = false;
        }
      }
      if (!any_true) {
        skip = true;
        break;
      }
      // Premises certain in all worlds need not be composed.
      if (!all_true || comp.ColumnHasBottom(col)) needed.insert(loc.comp);
    }
    if (skip) continue;
    {
      FieldKey f(rel_sym, t, InternString(egd.conclusion.attr));
      MAYWSD_ASSIGN_OR_RETURN(FieldLoc loc, wsd.Locate(f));
      const Component& comp = wsd.component(loc.comp);
      size_t col = static_cast<size_t>(loc.col);
      bool all_true = true;
      for (size_t w = 0; w < comp.NumWorlds(); ++w) {
        const rel::Value& v = comp.at(w, col);
        if (v.is_bottom()) continue;
        if (!v.Satisfies(egd.conclusion.op, egd.conclusion.constant)) {
          all_true = false;
          break;
        }
      }
      if (all_true) continue;  // conclusion certain: nothing to enforce
      needed.insert(loc.comp);
    }
    // Presence components keep vacuous (absent-tuple) worlds alive.
    MAYWSD_ASSIGN_OR_RETURN(std::set<int32_t> presence,
                            PresenceComponents(wsd, *rel, t));
    needed.insert(presence.begin(), presence.end());

    MAYWSD_ASSIGN_OR_RETURN(size_t target, ComposeAll(wsd, needed));
    const Component& comp = wsd.component(target);

    // Flag local worlds where the tuple is present, all premises hold and
    // the conclusion fails.
    std::vector<bool> remove(comp.NumWorlds(), false);
    for (size_t w = 0; w < comp.NumWorlds(); ++w) {
      if (RowTupleAbsent(comp, w, rel_sym, t)) continue;
      bool premises_hold = true;
      for (const EgdAtom& atom : egd.premises) {
        FieldKey f(rel_sym, t, InternString(atom.attr));
        int col = comp.FindField(f);
        if (col < 0) continue;  // certain-true premise not composed
        if (!comp.at(w, static_cast<size_t>(col))
                 .Satisfies(atom.op, atom.constant)) {
          premises_hold = false;
          break;
        }
      }
      if (!premises_hold) continue;
      FieldKey f(rel_sym, t, InternString(egd.conclusion.attr));
      int col = comp.FindField(f);
      if (col < 0) {
        return Status::Internal("conclusion column missing after compose");
      }
      if (!comp.at(w, static_cast<size_t>(col))
               .Satisfies(egd.conclusion.op, egd.conclusion.constant)) {
        remove[w] = true;
      }
    }
    MAYWSD_RETURN_IF_ERROR(
        RemoveWorldsAndRenormalize(wsd, target, remove, egd.ToString()));
  }
  return Status::Ok();
}

Status ChaseFd(Wsd& wsd, const Fd& fd) {
  MAYWSD_ASSIGN_OR_RETURN(const WsdRelation* rel,
                          wsd.FindRelation(fd.relation));
  Symbol rel_sym = rel->name_sym;
  rel::Schema schema = rel->schema;
  TupleId max_tuples = rel->max_tuples;

  std::vector<Symbol> lhs;
  for (const std::string& a : fd.lhs) {
    if (!schema.Contains(a)) {
      return Status::NotFound("FD attribute " + a + " not in " + fd.relation);
    }
    lhs.push_back(InternString(a));
  }
  if (!schema.Contains(fd.rhs)) {
    return Status::NotFound("FD attribute " + fd.rhs + " not in " +
                            fd.relation);
  }
  Symbol rhs = InternString(fd.rhs);

  // Possible (non-⊥) values of a field, for the cheap pre-filter.
  auto possible_values = [&](TupleId t, Symbol attr)
      -> Result<std::vector<rel::Value>> {
    FieldKey f(rel_sym, t, attr);
    MAYWSD_ASSIGN_OR_RETURN(FieldLoc loc, wsd.Locate(f));
    const Component& comp = wsd.component(loc.comp);
    std::vector<rel::Value> out;
    for (size_t w = 0; w < comp.NumWorlds(); ++w) {
      const rel::Value& v = comp.at(w, static_cast<size_t>(loc.col));
      if (!v.is_bottom() &&
          std::find(out.begin(), out.end(), v) == out.end()) {
        out.push_back(v);
      }
    }
    return out;
  };

  for (TupleId s = 0; s < max_tuples; ++s) {
    if (!wsd.HasField(FieldKey(rel_sym, s, schema.attr(0).name))) continue;
    for (TupleId t = s + 1; t < max_tuples; ++t) {
      if (!wsd.HasField(FieldKey(rel_sym, t, schema.attr(0).name))) continue;

      // Pre-filter: the pair can only violate if every LHS attribute's
      // possible values intersect and the RHS values can differ.
      bool can_match = true;
      for (Symbol a : lhs) {
        MAYWSD_ASSIGN_OR_RETURN(std::vector<rel::Value> vs,
                                possible_values(s, a));
        MAYWSD_ASSIGN_OR_RETURN(std::vector<rel::Value> vt,
                                possible_values(t, a));
        bool overlap = false;
        for (const rel::Value& v : vs) {
          if (std::find(vt.begin(), vt.end(), v) != vt.end()) {
            overlap = true;
            break;
          }
        }
        if (!overlap) {
          can_match = false;
          break;
        }
      }
      if (!can_match) continue;
      {
        MAYWSD_ASSIGN_OR_RETURN(std::vector<rel::Value> vs,
                                possible_values(s, rhs));
        MAYWSD_ASSIGN_OR_RETURN(std::vector<rel::Value> vt,
                                possible_values(t, rhs));
        if (vs.size() == 1 && vt.size() == 1 && vs[0] == vt[0]) {
          continue;  // RHS certainly equal: cannot violate
        }
      }

      // Compose the components of both tuples' LHS/RHS fields plus their
      // presence components.
      std::set<int32_t> needed;
      for (Symbol a : lhs) {
        MAYWSD_ASSIGN_OR_RETURN(FieldLoc l1,
                                wsd.Locate(FieldKey(rel_sym, s, a)));
        MAYWSD_ASSIGN_OR_RETURN(FieldLoc l2,
                                wsd.Locate(FieldKey(rel_sym, t, a)));
        needed.insert(l1.comp);
        needed.insert(l2.comp);
      }
      MAYWSD_ASSIGN_OR_RETURN(FieldLoc r1,
                              wsd.Locate(FieldKey(rel_sym, s, rhs)));
      MAYWSD_ASSIGN_OR_RETURN(FieldLoc r2,
                              wsd.Locate(FieldKey(rel_sym, t, rhs)));
      needed.insert(r1.comp);
      needed.insert(r2.comp);
      MAYWSD_ASSIGN_OR_RETURN(std::set<int32_t> ps,
                              PresenceComponents(wsd, *rel, s));
      MAYWSD_ASSIGN_OR_RETURN(std::set<int32_t> pt,
                              PresenceComponents(wsd, *rel, t));
      needed.insert(ps.begin(), ps.end());
      needed.insert(pt.begin(), pt.end());

      MAYWSD_ASSIGN_OR_RETURN(size_t target, ComposeAll(wsd, needed));
      const Component& comp = wsd.component(target);

      std::vector<bool> remove(comp.NumWorlds(), false);
      for (size_t w = 0; w < comp.NumWorlds(); ++w) {
        if (RowTupleAbsent(comp, w, rel_sym, s) ||
            RowTupleAbsent(comp, w, rel_sym, t)) {
          continue;
        }
        bool lhs_equal = true;
        for (Symbol a : lhs) {
          int c1 = comp.FindField(FieldKey(rel_sym, s, a));
          int c2 = comp.FindField(FieldKey(rel_sym, t, a));
          if (c1 < 0 || c2 < 0) {
            return Status::Internal("FD column missing after compose");
          }
          if (!(comp.at(w, static_cast<size_t>(c1)) ==
                comp.at(w, static_cast<size_t>(c2)))) {
            lhs_equal = false;
            break;
          }
        }
        if (!lhs_equal) continue;
        int c1 = comp.FindField(FieldKey(rel_sym, s, rhs));
        int c2 = comp.FindField(FieldKey(rel_sym, t, rhs));
        if (c1 < 0 || c2 < 0) {
          return Status::Internal("FD column missing after compose");
        }
        if (!(comp.at(w, static_cast<size_t>(c1)) ==
              comp.at(w, static_cast<size_t>(c2)))) {
          remove[w] = true;
        }
      }
      MAYWSD_RETURN_IF_ERROR(
          RemoveWorldsAndRenormalize(wsd, target, remove, fd.ToString()));
    }
  }
  return Status::Ok();
}

Status Chase(Wsd& wsd, const std::vector<Dependency>& dependencies) {
  for (const Dependency& dep : dependencies) {
    if (const Egd* egd = std::get_if<Egd>(&dep)) {
      MAYWSD_RETURN_IF_ERROR(ChaseEgd(wsd, *egd));
    } else {
      MAYWSD_RETURN_IF_ERROR(ChaseFd(wsd, std::get<Fd>(dep)));
    }
  }
  return Status::Ok();
}

namespace {

/// Does one relational database satisfy the dependency?
Result<bool> WorldSatisfies(const rel::Database& db, const Dependency& dep) {
  if (const Egd* egd = std::get_if<Egd>(&dep)) {
    auto rel_or = db.GetRelation(egd->relation);
    if (!rel_or.ok()) return true;  // relation absent: vacuous
    const rel::Relation& r = *rel_or.value();
    std::vector<size_t> pcols;
    for (const EgdAtom& atom : egd->premises) {
      auto idx = r.schema().IndexOf(atom.attr);
      if (!idx) return Status::NotFound("EGD attribute " + atom.attr);
      pcols.push_back(*idx);
    }
    auto cidx = r.schema().IndexOf(egd->conclusion.attr);
    if (!cidx) return Status::NotFound("EGD attribute " + egd->conclusion.attr);
    for (size_t i = 0; i < r.NumRows(); ++i) {
      rel::TupleRef row = r.row(i);
      bool premises = true;
      for (size_t p = 0; p < pcols.size(); ++p) {
        if (!row[pcols[p]].Satisfies(egd->premises[p].op,
                                     egd->premises[p].constant)) {
          premises = false;
          break;
        }
      }
      if (premises && !row[*cidx].Satisfies(egd->conclusion.op,
                                            egd->conclusion.constant)) {
        return false;
      }
    }
    return true;
  }
  const Fd& fd = std::get<Fd>(dep);
  auto rel_or = db.GetRelation(fd.relation);
  if (!rel_or.ok()) return true;
  const rel::Relation& r = *rel_or.value();
  std::vector<size_t> lhs;
  for (const std::string& a : fd.lhs) {
    auto idx = r.schema().IndexOf(a);
    if (!idx) return Status::NotFound("FD attribute " + a);
    lhs.push_back(*idx);
  }
  auto rhs = r.schema().IndexOf(fd.rhs);
  if (!rhs) return Status::NotFound("FD attribute " + fd.rhs);
  for (size_t i = 0; i < r.NumRows(); ++i) {
    for (size_t j = i + 1; j < r.NumRows(); ++j) {
      bool equal = true;
      for (size_t a : lhs) {
        if (!(r.row(i)[a] == r.row(j)[a])) {
          equal = false;
          break;
        }
      }
      if (equal && !(r.row(i)[*rhs] == r.row(j)[*rhs])) return false;
    }
  }
  return true;
}

}  // namespace

Result<std::vector<PossibleWorld>> FilterWorldsByDependencies(
    const std::vector<PossibleWorld>& worlds,
    const std::vector<Dependency>& dependencies) {
  std::vector<PossibleWorld> out;
  double total = 0.0;
  for (const PossibleWorld& w : worlds) {
    bool ok = true;
    for (const Dependency& dep : dependencies) {
      MAYWSD_ASSIGN_OR_RETURN(bool sat, WorldSatisfies(w.db, dep));
      if (!sat) {
        ok = false;
        break;
      }
    }
    if (ok) {
      out.push_back(w);
      total += w.prob;
    }
  }
  if (out.empty()) {
    return Status::Inconsistent("no world satisfies the dependencies");
  }
  for (PossibleWorld& w : out) w.prob /= total;
  return out;
}

}  // namespace maywsd::core
