#include "core/wsdt_algebra.h"

#include <algorithm>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "core/engine/plan_driver.h"
#include "core/engine/wsdt_backend.h"

namespace maywsd::core {

namespace {

/// Distinct non-⊥ values of a component column, in first-seen order.
std::vector<rel::Value> PossibleColumnValues(const Wsdt& wsdt,
                                             const FieldKey& field) {
  std::vector<rel::Value> out;
  auto loc_or = wsdt.Locate(field);
  if (!loc_or.ok()) return out;
  FieldLoc loc = loc_or.value();
  const Component& comp = wsdt.component(loc.comp);
  size_t col = static_cast<size_t>(loc.col);
  std::unordered_set<rel::Value> seen;
  for (size_t w = 0; w < comp.NumWorlds(); ++w) {
    const rel::Value& v = comp.at(w, col);
    if (!v.is_bottom() && seen.insert(v).second) out.push_back(v);
  }
  return out;
}

/// Copies template row `r` of `src` into `out_tmpl` (appending), copying
/// the '?' component columns under the new tuple id. Returns the new id.
Result<TupleId> CopyRowInto(Wsdt& wsdt, const rel::Relation& src_tmpl,
                            Symbol src_sym, size_t r,
                            rel::Relation* out_tmpl, Symbol out_sym) {
  TupleId n = static_cast<TupleId>(out_tmpl->NumRows());
  rel::TupleRef row = src_tmpl.row(r);
  out_tmpl->AppendRow(row.span());
  for (size_t a = 0; a < src_tmpl.arity(); ++a) {
    if (!row[a].is_question()) continue;
    FieldKey sf(src_sym, static_cast<TupleId>(r),
                src_tmpl.schema().attr(a).name);
    FieldKey df(out_sym, n, src_tmpl.schema().attr(a).name);
    MAYWSD_RETURN_IF_ERROR(wsdt.CopyFieldInto(sf, df));
  }
  return n;
}

/// Serialized key of a fully-certain row (for duplicate merging).
std::string CertainRowKey(rel::TupleRef row) {
  std::string key;
  for (size_t a = 0; a < row.arity(); ++a) {
    row[a].AppendTo(key);
    key += '\x1f';
  }
  return key;
}

bool RowFullyCertain(rel::TupleRef row) {
  for (size_t a = 0; a < row.arity(); ++a) {
    if (row[a].is_question()) return false;
  }
  return true;
}

}  // namespace

Status WsdtCopy(Wsdt& wsdt, const std::string& src, const std::string& out) {
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* src_tmpl, wsdt.Template(src));
  if (wsdt.HasRelation(out)) {
    return Status::AlreadyExists("relation " + out);
  }
  Symbol src_sym = InternString(src);
  Symbol out_sym = InternString(out);
  rel::Relation out_tmpl(src_tmpl->schema(), out);
  out_tmpl.Reserve(src_tmpl->NumRows());
  for (size_t r = 0; r < src_tmpl->NumRows(); ++r) {
    // Normalization on the way out (Figure 20's remove-invalid-tuples):
    // a row whose placeholder column is ⊥ in every local world exists in
    // no world and is not copied.
    rel::TupleRef row = src_tmpl->row(r);
    bool invalid = false;
    for (size_t a = 0; a < src_tmpl->arity() && !invalid; ++a) {
      if (!row[a].is_question()) continue;
      FieldKey f(src_sym, static_cast<TupleId>(r),
                 src_tmpl->schema().attr(a).name);
      MAYWSD_ASSIGN_OR_RETURN(FieldLoc loc, wsdt.Locate(f));
      if (wsdt.component(loc.comp).ColumnAllBottom(
              static_cast<size_t>(loc.col))) {
        invalid = true;
      }
    }
    if (invalid) continue;
    MAYWSD_RETURN_IF_ERROR(
        CopyRowInto(wsdt, *src_tmpl, src_sym, r, &out_tmpl, out_sym)
            .status());
  }
  return wsdt.AddTemplateRelation(std::move(out_tmpl));
}

Status WsdtSelect(Wsdt& wsdt, const std::string& src, const std::string& out,
                  const rel::Predicate& pred) {
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* src_ptr, wsdt.Template(src));
  if (wsdt.HasRelation(out)) {
    return Status::AlreadyExists("relation " + out);
  }
  const rel::Relation& src_tmpl = *src_ptr;
  const rel::Schema& schema = src_tmpl.schema();
  MAYWSD_ASSIGN_OR_RETURN(rel::BoundPredicate bound,
                          rel::BoundPredicate::Bind(pred, schema));
  Symbol src_sym = InternString(src);
  Symbol out_sym = InternString(out);

  // Decide every row first, so the output reserves exactly the rows kept.
  std::vector<rel::Tri> decided(src_tmpl.NumRows());
  size_t kept = 0;
  for (size_t r = 0; r < src_tmpl.NumRows(); ++r) {
    decided[r] = bound.EvalTri(src_tmpl.row(r));
    if (decided[r] != rel::Tri::kFalse) ++kept;
  }
  rel::Relation out_tmpl(schema, out);
  out_tmpl.Reserve(kept);
  std::vector<rel::Value> buf;  // the row with one local world's values
  for (size_t r = 0; r < src_tmpl.NumRows(); ++r) {
    if (decided[r] == rel::Tri::kFalse) continue;
    MAYWSD_ASSIGN_OR_RETURN(
        TupleId n, CopyRowInto(wsdt, src_tmpl, src_sym, r, &out_tmpl, out_sym));
    if (decided[r] == rel::Tri::kTrue) continue;

    // Unknown: compose the components of the referenced placeholders of
    // this tuple (usually a single one) and ⊥-mark failing local worlds.
    rel::TupleRef row = src_tmpl.row(r);
    std::vector<size_t> unknown_attrs;
    std::set<int32_t> comps;
    for (size_t a : bound.columns()) {
      if (!row[a].is_question()) continue;
      unknown_attrs.push_back(a);
      MAYWSD_ASSIGN_OR_RETURN(
          FieldLoc loc, wsdt.Locate(FieldKey(out_sym, n, schema.attr(a).name)));
      comps.insert(loc.comp);
    }
    auto it = comps.begin();
    size_t target = static_cast<size_t>(*it);
    for (++it; it != comps.end(); ++it) {
      MAYWSD_RETURN_IF_ERROR(
          wsdt.ComposeInPlace(target, static_cast<size_t>(*it)));
    }
    // Column of each unknown attribute in the composed component.
    std::vector<std::pair<size_t, size_t>> attr_cols;
    for (size_t a : unknown_attrs) {
      MAYWSD_ASSIGN_OR_RETURN(
          FieldLoc loc, wsdt.Locate(FieldKey(out_sym, n, schema.attr(a).name)));
      attr_cols.emplace_back(a, static_cast<size_t>(loc.col));
    }
    buf.assign(row.data(), row.data() + row.arity());
    Component& comp = wsdt.mutable_component(target);
    for (size_t w = 0; w < comp.NumWorlds(); ++w) {
      bool present = true;
      for (const auto& [a, col] : attr_cols) {
        const rel::Value& v = comp.at(w, col);
        present = present && !v.is_bottom();
        buf[a] = v;
      }
      if (!present) continue;  // tuple already absent in this local world
      if (!bound.Eval(rel::TupleRef(buf.data(), buf.size()))) {
        for (const auto& [a, col] : attr_cols) {
          comp.at(w, col) = rel::Value::Bottom();
        }
      }
    }
    comp.PropagateBottom();
  }
  return wsdt.AddTemplateRelation(std::move(out_tmpl));
}

Status WsdtProject(Wsdt& wsdt, const std::string& src, const std::string& out,
                   const std::vector<std::string>& attrs) {
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* src_ptr, wsdt.Template(src));
  if (wsdt.HasRelation(out)) {
    return Status::AlreadyExists("relation " + out);
  }
  const rel::Relation& src_tmpl = *src_ptr;
  const rel::Schema schema = src_tmpl.schema();
  MAYWSD_ASSIGN_OR_RETURN(rel::Schema out_schema, schema.Project(attrs));
  Symbol src_sym = InternString(src);
  Symbol out_sym = InternString(out);

  std::vector<size_t> keep_cols;
  for (const std::string& a : attrs) keep_cols.push_back(*schema.IndexOf(a));
  std::vector<size_t> drop_cols;
  // Temporary field names of the ⊥-carrying dropped columns, per column.
  std::vector<Symbol> shadow(schema.arity());
  for (size_t a = 0; a < schema.arity(); ++a) {
    if (std::find(keep_cols.begin(), keep_cols.end(), a) == keep_cols.end()) {
      drop_cols.push_back(a);
      shadow[a] = InternString("__shadow_" +
                               std::string(schema.attr(a).name_view()));
    }
  }

  rel::Relation out_tmpl(out_schema, out);
  std::unordered_set<std::string> seen_certain;
  std::vector<rel::Value> buf(out_schema.arity());

  for (size_t r = 0; r < src_tmpl.NumRows(); ++r) {
    rel::TupleRef row = src_tmpl.row(r);
    for (size_t i = 0; i < keep_cols.size(); ++i) buf[i] = row[keep_cols[i]];

    // Dropped placeholders whose column carries a ⊥ encode conditional
    // presence and must survive the projection.
    std::vector<size_t> drop_bottom;
    for (size_t a : drop_cols) {
      if (!row[a].is_question()) continue;
      FieldKey f(src_sym, static_cast<TupleId>(r), schema.attr(a).name);
      MAYWSD_ASSIGN_OR_RETURN(FieldLoc loc, wsdt.Locate(f));
      if (wsdt.component(loc.comp).ColumnHasBottom(
              static_cast<size_t>(loc.col))) {
        drop_bottom.push_back(a);
      }
    }
    bool certain = drop_bottom.empty();
    for (size_t i = 0; i < keep_cols.size() && certain; ++i) {
      if (buf[i].is_question()) certain = false;
    }
    if (certain) {
      // Fully certain result tuple: set semantics merges duplicates.
      rel::TupleRef probe(buf.data(), buf.size());
      std::string key = CertainRowKey(probe);
      if (!seen_certain.insert(key).second) continue;
      out_tmpl.AppendRow(buf);
      continue;
    }

    TupleId n = static_cast<TupleId>(out_tmpl.NumRows());
    out_tmpl.AppendRow(buf);
    // Copy the kept placeholders.
    std::vector<FieldKey> kept_fields;
    for (size_t i = 0; i < keep_cols.size(); ++i) {
      if (!buf[i].is_question()) continue;
      FieldKey sf(src_sym, static_cast<TupleId>(r),
                  schema.attr(keep_cols[i]).name);
      FieldKey df(out_sym, n, out_schema.attr(i).name);
      MAYWSD_RETURN_IF_ERROR(wsdt.CopyFieldInto(sf, df));
      kept_fields.push_back(df);
    }
    if (drop_bottom.empty()) continue;

    // Presence of this tuple depends on dropped columns: bring their ⊥
    // patterns into the kept columns via shadow copies + composition.
    FieldKey target_field;
    if (!kept_fields.empty()) {
      target_field = kept_fields[0];
    } else {
      // Only certain kept fields: materialize a presence helper on the
      // first kept attribute, correlated with the first dropped column.
      size_t d0 = drop_bottom[0];
      FieldKey sf(src_sym, static_cast<TupleId>(r), schema.attr(d0).name);
      FieldKey hf(out_sym, n, out_schema.attr(0).name);
      MAYWSD_RETURN_IF_ERROR(wsdt.CopyFieldInto(sf, hf));
      MAYWSD_ASSIGN_OR_RETURN(FieldLoc loc, wsdt.Locate(hf));
      Component& comp = wsdt.mutable_component(loc.comp);
      size_t col = static_cast<size_t>(loc.col);
      rel::Value kept_value = buf[0];
      for (size_t w = 0; w < comp.NumWorlds(); ++w) {
        if (!comp.at(w, col).is_bottom()) comp.at(w, col) = kept_value;
      }
      out_tmpl.SetCell(static_cast<size_t>(n), 0, rel::Value::Question());
      target_field = hf;
      drop_bottom.erase(drop_bottom.begin());
    }
    // Shadow-copy the remaining ⊥-carrying dropped columns, compose them
    // with the target, propagate ⊥ to the whole tuple, drop the shadows.
    MAYWSD_ASSIGN_OR_RETURN(FieldLoc tloc, wsdt.Locate(target_field));
    for (size_t a : drop_bottom) {
      FieldKey sf(src_sym, static_cast<TupleId>(r), schema.attr(a).name);
      FieldKey shadow_field(out_sym, n, shadow[a]);
      MAYWSD_RETURN_IF_ERROR(wsdt.CopyFieldInto(sf, shadow_field));
      MAYWSD_ASSIGN_OR_RETURN(FieldLoc sloc, wsdt.Locate(shadow_field));
      if (sloc.comp != tloc.comp) {
        MAYWSD_RETURN_IF_ERROR(
            wsdt.ComposeInPlace(static_cast<size_t>(tloc.comp),
                                static_cast<size_t>(sloc.comp)));
      }
      MAYWSD_ASSIGN_OR_RETURN(tloc, wsdt.Locate(target_field));
    }
    wsdt.mutable_component(static_cast<size_t>(tloc.comp)).PropagateBottom();
    for (size_t a : drop_bottom) {
      MAYWSD_RETURN_IF_ERROR(wsdt.DropField(FieldKey(out_sym, n, shadow[a])));
    }
  }
  return wsdt.AddTemplateRelation(std::move(out_tmpl));
}

Status WsdtUnion(Wsdt& wsdt, const std::string& left, const std::string& right,
                 const std::string& out) {
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* l_ptr, wsdt.Template(left));
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* r_ptr, wsdt.Template(right));
  if (l_ptr->schema() != r_ptr->schema()) {
    return Status::InvalidArgument("union of incompatible schemas");
  }
  if (wsdt.HasRelation(out)) {
    return Status::AlreadyExists("relation " + out);
  }
  Symbol out_sym = InternString(out);
  rel::Relation out_tmpl(l_ptr->schema(), out);
  std::unordered_set<std::string> seen_certain;
  for (const std::string& side : {left, right}) {
    MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* src_ptr,
                            wsdt.Template(side));
    const rel::Relation& src_tmpl = *src_ptr;
    Symbol src_sym = InternString(side);
    for (size_t r = 0; r < src_tmpl.NumRows(); ++r) {
      rel::TupleRef row = src_tmpl.row(r);
      if (RowFullyCertain(row) &&
          !seen_certain.insert(CertainRowKey(row)).second) {
        continue;
      }
      MAYWSD_RETURN_IF_ERROR(
          CopyRowInto(wsdt, src_tmpl, src_sym, r, &out_tmpl, out_sym)
              .status());
    }
  }
  return wsdt.AddTemplateRelation(std::move(out_tmpl));
}

Status WsdtProduct(Wsdt& wsdt, const std::string& left,
                   const std::string& right, const std::string& out) {
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* l_ptr, wsdt.Template(left));
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* r_ptr, wsdt.Template(right));
  MAYWSD_ASSIGN_OR_RETURN(rel::Schema out_schema,
                          l_ptr->schema().Concat(r_ptr->schema()));
  if (wsdt.HasRelation(out)) {
    return Status::AlreadyExists("relation " + out);
  }
  const rel::Relation& l_tmpl = *l_ptr;
  const rel::Relation& r_tmpl = *r_ptr;
  Symbol l_sym = InternString(left);
  Symbol r_sym = InternString(right);
  Symbol out_sym = InternString(out);
  rel::Relation out_tmpl(out_schema, out);
  std::vector<rel::Value> buf(out_schema.arity());
  for (size_t i = 0; i < l_tmpl.NumRows(); ++i) {
    rel::TupleRef lr = l_tmpl.row(i);
    for (size_t j = 0; j < r_tmpl.NumRows(); ++j) {
      rel::TupleRef rr = r_tmpl.row(j);
      std::copy(lr.data(), lr.data() + lr.arity(), buf.begin());
      std::copy(rr.data(), rr.data() + rr.arity(),
                buf.begin() + static_cast<long>(lr.arity()));
      TupleId n = static_cast<TupleId>(out_tmpl.NumRows());
      out_tmpl.AppendRow(buf);
      for (size_t a = 0; a < l_tmpl.arity(); ++a) {
        if (!lr[a].is_question()) continue;
        MAYWSD_RETURN_IF_ERROR(wsdt.CopyFieldInto(
            FieldKey(l_sym, static_cast<TupleId>(i),
                     l_tmpl.schema().attr(a).name),
            FieldKey(out_sym, n, out_schema.attr(a).name)));
      }
      for (size_t a = 0; a < r_tmpl.arity(); ++a) {
        if (!rr[a].is_question()) continue;
        MAYWSD_RETURN_IF_ERROR(wsdt.CopyFieldInto(
            FieldKey(r_sym, static_cast<TupleId>(j),
                     r_tmpl.schema().attr(a).name),
            FieldKey(out_sym, n, out_schema.attr(l_tmpl.arity() + a).name)));
      }
    }
  }
  return wsdt.AddTemplateRelation(std::move(out_tmpl));
}

namespace {

/// Enforces `out.tn.A == out.tn.B`-style equality between a possibly
/// uncertain output field and either a certain value or another output
/// field, ⊥-marking local worlds that violate it.
Status EnforceFieldEquality(Wsdt& wsdt, const FieldKey& a_field,
                            bool a_uncertain, const rel::Value& a_certain,
                            const FieldKey& b_field, bool b_uncertain,
                            const rel::Value& b_certain) {
  if (!a_uncertain && !b_uncertain) {
    return Status::Internal("certain-certain equality must be pre-filtered");
  }
  if (a_uncertain && b_uncertain) {
    MAYWSD_ASSIGN_OR_RETURN(FieldLoc la, wsdt.Locate(a_field));
    MAYWSD_ASSIGN_OR_RETURN(FieldLoc lb, wsdt.Locate(b_field));
    if (la.comp != lb.comp) {
      MAYWSD_RETURN_IF_ERROR(
          wsdt.ComposeInPlace(static_cast<size_t>(la.comp),
                              static_cast<size_t>(lb.comp)));
      MAYWSD_ASSIGN_OR_RETURN(la, wsdt.Locate(a_field));
      MAYWSD_ASSIGN_OR_RETURN(lb, wsdt.Locate(b_field));
    }
    Component& comp = wsdt.mutable_component(la.comp);
    size_t ca = static_cast<size_t>(la.col);
    size_t cb = static_cast<size_t>(lb.col);
    for (size_t w = 0; w < comp.NumWorlds(); ++w) {
      const rel::Value& va = comp.at(w, ca);
      const rel::Value& vb = comp.at(w, cb);
      if (va.is_bottom() || vb.is_bottom()) {
        // Either side absent: the pair tuple does not exist in this world;
        // make that explicit on the a-side.
        comp.at(w, ca) = rel::Value::Bottom();
      } else if (!(va == vb)) {
        comp.at(w, ca) = rel::Value::Bottom();
      }
    }
    comp.PropagateBottom();
    return Status::Ok();
  }
  // Exactly one side uncertain.
  const FieldKey& field = a_uncertain ? a_field : b_field;
  const rel::Value& constant = a_uncertain ? b_certain : a_certain;
  MAYWSD_ASSIGN_OR_RETURN(FieldLoc loc, wsdt.Locate(field));
  Component& comp = wsdt.mutable_component(loc.comp);
  size_t col = static_cast<size_t>(loc.col);
  for (size_t w = 0; w < comp.NumWorlds(); ++w) {
    const rel::Value& v = comp.at(w, col);
    if (!v.is_bottom() && !(v == constant)) {
      comp.at(w, col) = rel::Value::Bottom();
    }
  }
  comp.PropagateBottom();
  return Status::Ok();
}

}  // namespace

Status WsdtJoin(Wsdt& wsdt, const std::string& left, const std::string& right,
                const std::string& out, const std::string& left_attr,
                const std::string& right_attr) {
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* l_ptr, wsdt.Template(left));
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* r_ptr, wsdt.Template(right));
  MAYWSD_ASSIGN_OR_RETURN(rel::Schema out_schema,
                          l_ptr->schema().Concat(r_ptr->schema()));
  if (wsdt.HasRelation(out)) {
    return Status::AlreadyExists("relation " + out);
  }
  const rel::Relation& l_tmpl = *l_ptr;
  const rel::Relation& r_tmpl = *r_ptr;
  auto lcol_or = l_tmpl.schema().IndexOf(left_attr);
  auto rcol_or = r_tmpl.schema().IndexOf(right_attr);
  if (!lcol_or || !rcol_or) {
    return Status::NotFound("join attribute " + left_attr + "/" + right_attr);
  }
  size_t lcol = *lcol_or;
  size_t rcol = *rcol_or;
  Symbol l_sym = InternString(left);
  Symbol r_sym = InternString(right);
  Symbol out_sym = InternString(out);
  Symbol la_sym = l_tmpl.schema().attr(lcol).name;
  Symbol ra_sym = r_tmpl.schema().attr(rcol).name;

  // Index the right side: certain rows by key value; uncertain rows by
  // every possible value.
  std::unordered_map<rel::Value, std::vector<size_t>> certain_r;
  std::unordered_map<rel::Value, std::vector<size_t>> possible_r;
  for (size_t j = 0; j < r_tmpl.NumRows(); ++j) {
    const rel::Value& v = r_tmpl.row(j)[rcol];
    if (v.is_question()) {
      for (const rel::Value& pv : PossibleColumnValues(
               wsdt, FieldKey(r_sym, static_cast<TupleId>(j), ra_sym))) {
        possible_r[pv].push_back(j);
      }
    } else {
      certain_r[v].push_back(j);
    }
  }

  rel::Relation out_tmpl(out_schema, out);
  std::vector<rel::Value> buf(out_schema.arity());

  // Emits the pair (i, j); `cond` = the key equality is not certain.
  auto emit = [&](size_t i, size_t j, bool cond) -> Status {
    rel::TupleRef lr = l_tmpl.row(i);
    rel::TupleRef rr = r_tmpl.row(j);
    std::copy(lr.data(), lr.data() + lr.arity(), buf.begin());
    std::copy(rr.data(), rr.data() + rr.arity(),
              buf.begin() + static_cast<long>(lr.arity()));
    TupleId n = static_cast<TupleId>(out_tmpl.NumRows());
    out_tmpl.AppendRow(buf);
    for (size_t a = 0; a < l_tmpl.arity(); ++a) {
      if (!lr[a].is_question()) continue;
      MAYWSD_RETURN_IF_ERROR(wsdt.CopyFieldInto(
          FieldKey(l_sym, static_cast<TupleId>(i),
                   l_tmpl.schema().attr(a).name),
          FieldKey(out_sym, n, out_schema.attr(a).name)));
    }
    for (size_t a = 0; a < r_tmpl.arity(); ++a) {
      if (!rr[a].is_question()) continue;
      MAYWSD_RETURN_IF_ERROR(wsdt.CopyFieldInto(
          FieldKey(r_sym, static_cast<TupleId>(j),
                   r_tmpl.schema().attr(a).name),
          FieldKey(out_sym, n, out_schema.attr(l_tmpl.arity() + a).name)));
    }
    if (!cond) return Status::Ok();
    bool l_unc = lr[lcol].is_question();
    bool r_unc = rr[rcol].is_question();
    return EnforceFieldEquality(
        wsdt, FieldKey(out_sym, n, out_schema.attr(lcol).name), l_unc,
        lr[lcol],
        FieldKey(out_sym, n, out_schema.attr(l_tmpl.arity() + rcol).name),
        r_unc, rr[rcol]);
  };

  for (size_t i = 0; i < l_tmpl.NumRows(); ++i) {
    const rel::Value& lv = l_tmpl.row(i)[lcol];
    if (!lv.is_question()) {
      auto it = certain_r.find(lv);
      if (it != certain_r.end()) {
        for (size_t j : it->second) {
          MAYWSD_RETURN_IF_ERROR(emit(i, j, false));
        }
      }
      auto pit = possible_r.find(lv);
      if (pit != possible_r.end()) {
        for (size_t j : pit->second) {
          MAYWSD_RETURN_IF_ERROR(emit(i, j, true));
        }
      }
    } else {
      std::vector<rel::Value> pv = PossibleColumnValues(
          wsdt, FieldKey(l_sym, static_cast<TupleId>(i), la_sym));
      std::set<size_t> uncertain_matches;
      for (const rel::Value& v : pv) {
        auto it = certain_r.find(v);
        if (it != certain_r.end()) {
          for (size_t j : it->second) {
            MAYWSD_RETURN_IF_ERROR(emit(i, j, true));
          }
        }
        auto pit = possible_r.find(v);
        if (pit != possible_r.end()) {
          for (size_t j : pit->second) uncertain_matches.insert(j);
        }
      }
      for (size_t j : uncertain_matches) {
        MAYWSD_RETURN_IF_ERROR(emit(i, j, true));
      }
    }
  }
  return wsdt.AddTemplateRelation(std::move(out_tmpl));
}

Status WsdtRename(Wsdt& wsdt, const std::string& src, const std::string& out,
                  const std::vector<std::pair<std::string, std::string>>&
                      renames) {
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* src_ptr, wsdt.Template(src));
  if (wsdt.HasRelation(out)) {
    return Status::AlreadyExists("relation " + out);
  }
  const rel::Relation& src_tmpl = *src_ptr;
  rel::Schema out_schema = src_tmpl.schema();
  for (const auto& [from, to] : renames) {
    MAYWSD_ASSIGN_OR_RETURN(out_schema, out_schema.Rename(from, to));
  }
  Symbol src_sym = InternString(src);
  Symbol out_sym = InternString(out);
  rel::Relation out_tmpl(out_schema, out);
  for (size_t r = 0; r < src_tmpl.NumRows(); ++r) {
    rel::TupleRef row = src_tmpl.row(r);
    out_tmpl.AppendRow(row.span());
    for (size_t a = 0; a < src_tmpl.arity(); ++a) {
      if (!row[a].is_question()) continue;
      MAYWSD_RETURN_IF_ERROR(wsdt.CopyFieldInto(
          FieldKey(src_sym, static_cast<TupleId>(r),
                   src_tmpl.schema().attr(a).name),
          FieldKey(out_sym, static_cast<TupleId>(r),
                   out_schema.attr(a).name)));
    }
  }
  return wsdt.AddTemplateRelation(std::move(out_tmpl));
}

Status WsdtDifference(Wsdt& wsdt, const std::string& left,
                      const std::string& right, const std::string& out) {
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* l_ptr, wsdt.Template(left));
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* r_ptr, wsdt.Template(right));
  if (l_ptr->schema() != r_ptr->schema()) {
    return Status::InvalidArgument("difference of incompatible schemas: " +
                                   l_ptr->schema().ToString() + " vs " +
                                   r_ptr->schema().ToString());
  }
  if (wsdt.HasRelation(out)) {
    return Status::AlreadyExists("relation " + out);
  }
  const rel::Relation& l_tmpl = *l_ptr;
  const rel::Relation& r_tmpl = *r_ptr;
  const size_t k = l_tmpl.arity();
  Symbol l_sym = InternString(left);
  Symbol r_sym = InternString(right);
  Symbol out_sym = InternString(out);

  // Possible values of each '?' cell of a row (empty for certain cells).
  using CellValues = std::vector<std::unordered_set<rel::Value>>;
  auto row_values = [&](const rel::Relation& tmpl, Symbol sym, size_t r) {
    CellValues values(k);
    for (size_t a = 0; a < k; ++a) {
      if (!tmpl.row(r)[a].is_question()) continue;
      std::vector<rel::Value> v = PossibleColumnValues(
          wsdt, FieldKey(sym, static_cast<TupleId>(r),
                         tmpl.schema().attr(a).name));
      values[a].insert(v.begin(), v.end());
    }
    return values;
  };
  // Could the two rows be equal in some world? Certain cells must agree, a
  // certain cell facing a '?' must be among its values, and two '?' cells
  // must share a value.
  auto may_equal = [&](rel::TupleRef lrow, const CellValues& lvals,
                       rel::TupleRef rrow, const CellValues& rvals) {
    for (size_t a = 0; a < k; ++a) {
      bool lq = lrow[a].is_question();
      bool rq = rrow[a].is_question();
      if (!lq && !rq) {
        if (!(lrow[a] == rrow[a])) return false;
      } else if (lq != rq) {
        if (!(lq ? lvals[a] : rvals[a]).count(lq ? rrow[a] : lrow[a])) {
          return false;
        }
      } else if (std::none_of(lvals[a].begin(), lvals[a].end(),
                              [&](const rel::Value& v) {
                                return rvals[a].count(v) > 0;
                              })) {
        return false;
      }
    }
    return true;
  };
  // Component column of each '?' cell of a row (-1 for certain cells).
  auto row_cols = [&](const rel::Relation& tmpl, Symbol sym,
                      size_t r) -> Result<std::vector<int32_t>> {
    std::vector<int32_t> cols(k, -1);
    for (size_t a = 0; a < k; ++a) {
      if (!tmpl.row(r)[a].is_question()) continue;
      MAYWSD_ASSIGN_OR_RETURN(
          FieldLoc loc, wsdt.Locate(FieldKey(sym, static_cast<TupleId>(r),
                                             tmpl.schema().attr(a).name)));
      cols[a] = loc.col;
    }
    return cols;
  };

  // Fully certain right rows by value; the others with their values.
  std::unordered_set<std::string> r_certain;
  std::vector<size_t> r_uncertain;
  std::vector<CellValues> r_values(r_tmpl.NumRows());
  for (size_t j = 0; j < r_tmpl.NumRows(); ++j) {
    if (RowFullyCertain(r_tmpl.row(j))) {
      r_certain.insert(CertainRowKey(r_tmpl.row(j)));
    } else {
      r_uncertain.push_back(j);
      r_values[j] = row_values(r_tmpl, r_sym, j);
    }
  }
  std::vector<size_t> r_all(r_tmpl.NumRows());
  for (size_t j = 0; j < r_all.size(); ++j) r_all[j] = j;

  rel::Relation out_tmpl(l_tmpl.schema(), out);
  for (size_t i = 0; i < l_tmpl.NumRows(); ++i) {
    rel::TupleRef lrow = l_tmpl.row(i);
    const bool l_certain = RowFullyCertain(lrow);
    // Equal to a fully certain right row: absent in every world.
    if (l_certain && r_certain.count(CertainRowKey(lrow))) continue;
    CellValues l_values;
    if (!l_certain) l_values = row_values(l_tmpl, l_sym, i);
    std::vector<size_t> candidates;
    for (size_t j : l_certain ? r_uncertain : r_all) {
      if (may_equal(lrow, l_values, r_tmpl.row(j), r_values[j])) {
        candidates.push_back(j);
      }
    }
    // No right row can equal it: copied as is.
    if (candidates.empty()) {
      MAYWSD_RETURN_IF_ERROR(
          CopyRowInto(wsdt, l_tmpl, l_sym, i, &out_tmpl, out_sym).status());
      continue;
    }

    // Compose the row's components with its candidates' into one.
    std::set<int32_t> comps;
    auto add_comps = [&](const rel::Relation& tmpl, Symbol sym,
                         size_t r) -> Status {
      for (size_t a = 0; a < k; ++a) {
        if (!tmpl.row(r)[a].is_question()) continue;
        MAYWSD_ASSIGN_OR_RETURN(
            FieldLoc loc, wsdt.Locate(FieldKey(sym, static_cast<TupleId>(r),
                                               tmpl.schema().attr(a).name)));
        comps.insert(loc.comp);
      }
      return Status::Ok();
    };
    MAYWSD_RETURN_IF_ERROR(add_comps(l_tmpl, l_sym, i));
    for (size_t j : candidates) {
      MAYWSD_RETURN_IF_ERROR(add_comps(r_tmpl, r_sym, j));
    }
    auto it = comps.begin();
    size_t target = static_cast<size_t>(*it);
    for (++it; it != comps.end(); ++it) {
      MAYWSD_RETURN_IF_ERROR(
          wsdt.ComposeInPlace(target, static_cast<size_t>(*it)));
    }

    // The local worlds where the row is present and a present candidate
    // equals it.
    const Component& comp = wsdt.component(target);
    auto value_at = [&](rel::TupleRef row, const std::vector<int32_t>& cols,
                        size_t w, size_t a) -> const rel::Value& {
      return cols[a] < 0 ? row[a]
                         : comp.at(w, static_cast<size_t>(cols[a]));
    };
    auto present_at = [&](rel::TupleRef row, const std::vector<int32_t>& cols,
                          size_t w) {
      for (size_t a = 0; a < k; ++a) {
        if (value_at(row, cols, w, a).is_bottom()) return false;
      }
      return true;
    };
    MAYWSD_ASSIGN_OR_RETURN(std::vector<int32_t> l_cols,
                            row_cols(l_tmpl, l_sym, i));
    std::vector<std::vector<int32_t>> r_cols;
    for (size_t j : candidates) {
      MAYWSD_ASSIGN_OR_RETURN(r_cols.emplace_back(),
                              row_cols(r_tmpl, r_sym, j));
    }
    std::vector<bool> drop(comp.NumWorlds(), false);
    bool any_kept = false;
    bool any_dropped = false;
    for (size_t w = 0; w < comp.NumWorlds(); ++w) {
      if (!present_at(lrow, l_cols, w)) continue;
      for (size_t c = 0; c < candidates.size(); ++c) {
        rel::TupleRef rrow = r_tmpl.row(candidates[c]);
        if (!present_at(rrow, r_cols[c], w)) continue;
        bool equal = true;
        for (size_t a = 0; a < k && equal; ++a) {
          equal = value_at(lrow, l_cols, w, a) ==
                  value_at(rrow, r_cols[c], w, a);
        }
        if (equal) {
          drop[w] = true;
          break;
        }
      }
      any_dropped = any_dropped || drop[w];
      any_kept = any_kept || !drop[w];
    }
    if (!any_kept) continue;  // present in no local world
    if (!any_dropped) {
      MAYWSD_RETURN_IF_ERROR(
          CopyRowInto(wsdt, l_tmpl, l_sym, i, &out_tmpl, out_sym).status());
      continue;
    }
    // The output row's '?' cells become fresh columns of `target` that are
    // ⊥ where the row was dropped; a certain row's first cell becomes one.
    // Built before the first write, which replaces `comp`'s payload.
    std::vector<rel::Value> buf = lrow.ToRow();
    if (l_certain) buf[0] = rel::Value::Question();
    std::vector<std::pair<size_t, std::vector<rel::Value>>> columns;
    for (size_t a = 0; a < k; ++a) {
      if (!buf[a].is_question()) continue;
      std::vector<rel::Value>& column =
          columns.emplace_back(a, std::vector<rel::Value>(drop.size())).second;
      for (size_t w = 0; w < drop.size(); ++w) {
        column[w] = drop[w] ? rel::Value::Bottom()
                            : value_at(lrow, l_cols, w, a);
      }
    }
    TupleId n = static_cast<TupleId>(out_tmpl.NumRows());
    out_tmpl.AppendRow(buf);
    for (const auto& [a, column] : columns) {
      MAYWSD_RETURN_IF_ERROR(wsdt.AddColumnToComponent(
          target, FieldKey(out_sym, n, l_tmpl.schema().attr(a).name),
          column));
    }
  }
  return wsdt.AddTemplateRelation(std::move(out_tmpl));
}

Status WsdtEvaluate(Wsdt& wsdt, const rel::Plan& plan, const std::string& out,
                    bool keep_temps) {
  engine::WsdtBackend backend(wsdt);
  return engine::Evaluate(backend, plan, out, keep_temps);
}

Status WsdtEvaluateOptimized(Wsdt& wsdt, const rel::Plan& plan,
                             const std::string& out) {
  engine::WsdtBackend backend(wsdt);
  return engine::EvaluateOptimized(backend, plan, out);
}

}  // namespace maywsd::core
