#include "core/wsd_algebra.h"

#include <set>
#include <vector>

namespace maywsd::core {

Status WsdCopy(Wsd& wsd, const std::string& src, const std::string& out) {
  MAYWSD_ASSIGN_OR_RETURN(const WsdRelation* r, wsd.FindRelation(src));
  rel::Schema schema = r->schema;
  TupleId max_tuples = r->max_tuples;
  Symbol src_sym = r->name_sym;
  MAYWSD_RETURN_IF_ERROR(wsd.AddRelation(out, schema, max_tuples));
  Symbol out_sym = InternString(out);
  for (TupleId t = 0; t < max_tuples; ++t) {
    for (size_t a = 0; a < schema.arity(); ++a) {
      FieldKey sf(src_sym, t, schema.attr(a).name);
      if (!wsd.HasField(sf)) continue;  // removed slot stays removed
      MAYWSD_RETURN_IF_ERROR(
          wsd.CopyFieldInto(sf, FieldKey(out_sym, t, schema.attr(a).name)));
    }
  }
  return Status::Ok();
}

Status WsdDifference(Wsd& wsd, const std::string& left,
                     const std::string& right, const std::string& out) {
  MAYWSD_ASSIGN_OR_RETURN(const WsdRelation* l, wsd.FindRelation(left));
  MAYWSD_ASSIGN_OR_RETURN(const WsdRelation* r, wsd.FindRelation(right));
  if (l->schema != r->schema) {
    return Status::InvalidArgument("difference of incompatible schemas: " +
                                   l->schema.ToString() + " vs " +
                                   r->schema.ToString());
  }
  MAYWSD_RETURN_IF_ERROR(WsdCopy(wsd, left, out));
  MAYWSD_ASSIGN_OR_RETURN(const WsdRelation* p, wsd.FindRelation(out));
  MAYWSD_ASSIGN_OR_RETURN(const WsdRelation* s, wsd.FindRelation(right));
  rel::Schema schema = p->schema;
  Symbol p_sym = p->name_sym;
  Symbol s_sym = s->name_sym;
  TupleId pmax = p->max_tuples;
  TupleId smax = s->max_tuples;

  for (TupleId i = 0; i < pmax; ++i) {
    FieldKey probe(p_sym, i, schema.attr(0).name);
    if (!wsd.HasField(probe)) continue;
    for (TupleId j = 0; j < smax; ++j) {
      FieldKey sprobe(s_sym, j, schema.attr(0).name);
      if (!wsd.HasField(sprobe)) continue;
      // Certain fast path: when every column the subtraction reads (the
      // attributes of P.tᵢ and S.tⱼ) is constant, the decision is made
      // once with no compose — a ⊥ in any single field deletes P.tᵢ
      // (EnumerateWorlds), so a positive decision marks one column of P.tᵢ
      // across its own component's local worlds.
      {
        bool all_const = true;
        bool equal = true;
        bool s_present = true;
        FieldLoc lp0{};
        for (size_t a = 0; a < schema.arity(); ++a) {
          MAYWSD_ASSIGN_OR_RETURN(
              FieldLoc lp,
              wsd.Locate(FieldKey(p_sym, i, schema.attr(a).name)));
          MAYWSD_ASSIGN_OR_RETURN(
              FieldLoc ls,
              wsd.Locate(FieldKey(s_sym, j, schema.attr(a).name)));
          if (a == 0) lp0 = lp;
          const rel::Value* pv = wsd.component(lp.comp).ColumnConstantValue(
              static_cast<size_t>(lp.col));
          const rel::Value* sv = wsd.component(ls.comp).ColumnConstantValue(
              static_cast<size_t>(ls.col));
          if (pv == nullptr || sv == nullptr) {
            all_const = false;
            break;
          }
          if (sv->is_bottom()) s_present = false;
          if (!(*pv == *sv)) equal = false;
        }
        if (all_const) {
          if (equal && s_present) {
            Component& comp = wsd.mutable_component(lp0.comp);
            size_t col = static_cast<size_t>(lp0.col);
            for (size_t w = 0; w < comp.NumWorlds(); ++w) {
              comp.at(w, col) = rel::Value::Bottom();
            }
            comp.PropagateBottom();
          }
          continue;
        }
      }
      // Compose every component holding a field of P.tᵢ or S.tⱼ.
      std::set<int32_t> comps;
      for (size_t a = 0; a < schema.arity(); ++a) {
        MAYWSD_ASSIGN_OR_RETURN(
            FieldLoc lp, wsd.Locate(FieldKey(p_sym, i, schema.attr(a).name)));
        MAYWSD_ASSIGN_OR_RETURN(
            FieldLoc ls, wsd.Locate(FieldKey(s_sym, j, schema.attr(a).name)));
        comps.insert(lp.comp);
        comps.insert(ls.comp);
      }
      auto it = comps.begin();
      size_t target = static_cast<size_t>(*it);
      for (++it; it != comps.end(); ++it) {
        MAYWSD_RETURN_IF_ERROR(
            wsd.ComposeInPlace(target, static_cast<size_t>(*it)));
      }
      // Mark P.tᵢ as deleted in local worlds where it equals S.tⱼ.
      std::vector<size_t> p_cols, s_cols;
      for (size_t a = 0; a < schema.arity(); ++a) {
        MAYWSD_ASSIGN_OR_RETURN(
            FieldLoc lp, wsd.Locate(FieldKey(p_sym, i, schema.attr(a).name)));
        MAYWSD_ASSIGN_OR_RETURN(
            FieldLoc ls, wsd.Locate(FieldKey(s_sym, j, schema.attr(a).name)));
        p_cols.push_back(static_cast<size_t>(lp.col));
        s_cols.push_back(static_cast<size_t>(ls.col));
        target = static_cast<size_t>(lp.comp);
      }
      Component& comp = wsd.mutable_component(target);
      for (size_t w = 0; w < comp.NumWorlds(); ++w) {
        bool equal = true;
        bool s_present = true;
        for (size_t a = 0; a < schema.arity(); ++a) {
          if (comp.at(w, s_cols[a]).is_bottom()) s_present = false;
          if (!(comp.at(w, p_cols[a]) == comp.at(w, s_cols[a]))) {
            equal = false;
            break;
          }
        }
        if (equal && s_present) {
          for (size_t a = 0; a < schema.arity(); ++a) {
            comp.at(w, p_cols[a]) = rel::Value::Bottom();
          }
        }
      }
      comp.PropagateBottom();
    }
  }
  return Status::Ok();
}

}  // namespace maywsd::core
