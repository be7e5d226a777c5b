#include "core/wsdt_update.h"

#include <algorithm>
#include <optional>
#include <set>
#include <utility>

#include "core/wsdt_algebra.h"

namespace maywsd::core {

namespace {

/// Composes every component of `comps` into `target` (skipping target
/// itself); `target` stays alive and keeps its index. Returns whether any
/// composition happened (the caller's cached guard bitmap stays valid
/// otherwise).
Result<bool> ComposeInto(Wsdt& wsdt, size_t target,
                         const std::set<int32_t>& comps) {
  bool composed = false;
  for (int32_t c : comps) {
    if (static_cast<size_t>(c) == target) continue;
    MAYWSD_RETURN_IF_ERROR(
        wsdt.ComposeInPlace(target, static_cast<size_t>(c)));
    composed = true;
  }
  return composed;
}

/// First '?' column index of a template row, or nullopt.
std::optional<size_t> FirstPlaceholder(rel::TupleRef row) {
  for (size_t a = 0; a < row.arity(); ++a) {
    if (row[a].is_question()) return a;
  }
  return std::nullopt;
}

/// Loads local world `w` of `comp` into a template row copy: `row[attr]`
/// takes the value of each (attr, column) pair, so the bound predicate can
/// re-check the row there. False when the tuple is absent in `w` (a ⊥).
bool LoadLocalWorld(const Component& comp, size_t w,
                    const std::vector<std::pair<size_t, size_t>>& attr_cols,
                    std::vector<rel::Value>& row) {
  bool present = true;
  for (const auto& [attr, col] : attr_cols) {
    const rel::Value& v = comp.at(w, col);
    present = present && !v.is_bottom();
    row[attr] = v;
  }
  return present;
}

}  // namespace

Result<WsdtUpdateGuard> WsdtUpdateGuard::Analyze(
    Wsdt& wsdt, const std::string& guard_rel) {
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* tmpl_ptr,
                          wsdt.Template(guard_rel));
  const rel::Relation& tmpl = *tmpl_ptr;
  if (tmpl.NumRows() == 0) return WsdtUpdateGuard(Mode::kNever);
  Symbol sym = InternString(guard_rel);

  std::vector<std::vector<FieldKey>> slots;
  std::set<int32_t> comps;
  for (size_t r = 0; r < tmpl.NumRows(); ++r) {
    rel::TupleRef row = tmpl.row(r);
    std::vector<FieldKey> presence_fields;
    for (size_t a = 0; a < tmpl.arity(); ++a) {
      if (!row[a].is_question()) continue;
      FieldKey f(sym, static_cast<TupleId>(r), tmpl.schema().attr(a).name);
      MAYWSD_ASSIGN_OR_RETURN(FieldLoc loc, wsdt.Locate(f));
      if (wsdt.component(static_cast<size_t>(loc.comp))
              .ColumnHasBottom(static_cast<size_t>(loc.col))) {
        presence_fields.push_back(f);
        comps.insert(loc.comp);
      }
    }
    // A row with no ⊥-carrying field exists in every world: the guard
    // relation is certainly non-empty.
    if (presence_fields.empty()) return WsdtUpdateGuard(Mode::kAlways);
    slots.push_back(std::move(presence_fields));
  }

  WsdtUpdateGuard guard(Mode::kConditional);
  auto it = comps.begin();
  guard.comp_ = static_cast<size_t>(*it);
  for (++it; it != comps.end(); ++it) {
    MAYWSD_RETURN_IF_ERROR(
        wsdt.ComposeInPlace(guard.comp_, static_cast<size_t>(*it)));
  }
  guard.slot_presence_fields_ = std::move(slots);
  return guard;
}

Result<std::vector<bool>> WsdtUpdateGuard::Selected(const Wsdt& wsdt) const {
  const Component& comp = wsdt.component(comp_);
  std::vector<bool> selected(comp.NumWorlds(), false);
  for (const std::vector<FieldKey>& fields : slot_presence_fields_) {
    std::vector<size_t> cols;
    for (const FieldKey& f : fields) {
      MAYWSD_ASSIGN_OR_RETURN(FieldLoc loc, wsdt.Locate(f));
      if (static_cast<size_t>(loc.comp) != comp_) {
        return Status::Internal("guard field " + f.ToString() +
                                " escaped the guard component");
      }
      cols.push_back(static_cast<size_t>(loc.col));
    }
    for (size_t w = 0; w < comp.NumWorlds(); ++w) {
      if (selected[w]) continue;
      bool present = true;
      for (size_t c : cols) {
        if (comp.at(w, c).is_bottom()) {
          present = false;
          break;
        }
      }
      if (present) selected[w] = true;
    }
  }
  return selected;
}

Status WsdtInsertTuples(Wsdt& wsdt, const std::string& rel,
                        const rel::Relation& tuples,
                        const WsdtUpdateGuard& guard) {
  if (guard.mode() == WsdtUpdateGuard::Mode::kNever) return Status::Ok();
  MAYWSD_ASSIGN_OR_RETURN(rel::Relation * tmpl, wsdt.MutableTemplate(rel));
  if (tuples.arity() != tmpl->arity()) {
    return Status::InvalidArgument("insert arity mismatch on " + rel);
  }
  Symbol rel_sym = InternString(rel);

  if (guard.mode() == WsdtUpdateGuard::Mode::kAlways) {
    for (size_t r = 0; r < tuples.NumRows(); ++r) {
      tmpl->AppendRow(tuples.row(r).span());
    }
    return Status::Ok();
  }

  // Conditional presence: the first attribute becomes a placeholder whose
  // component column (in the guard component) holds the value in selected
  // worlds and ⊥ elsewhere.
  MAYWSD_ASSIGN_OR_RETURN(std::vector<bool> selected, guard.Selected(wsdt));
  for (size_t r = 0; r < tuples.NumRows(); ++r) {
    TupleId tid = static_cast<TupleId>(tmpl->NumRows());
    std::vector<rel::Value> row = tuples.row(r).ToRow();
    rel::Value head = row[0];
    row[0] = rel::Value::Question();
    tmpl->AppendRow(row);
    std::vector<rel::Value> column(selected.size());
    for (size_t w = 0; w < selected.size(); ++w) {
      column[w] = selected[w] ? head : rel::Value::Bottom();
    }
    MAYWSD_RETURN_IF_ERROR(wsdt.AddColumnToComponent(
        guard.comp(), FieldKey(rel_sym, tid, tmpl->schema().attr(0).name),
        column));
  }
  return Status::Ok();
}

Status WsdtDeleteWhere(Wsdt& wsdt, const std::string& rel,
                       const rel::Predicate& pred,
                       const WsdtUpdateGuard& guard) {
  if (guard.mode() == WsdtUpdateGuard::Mode::kNever) return Status::Ok();
  const bool conditional =
      guard.mode() == WsdtUpdateGuard::Mode::kConditional;
  MAYWSD_ASSIGN_OR_RETURN(rel::Relation * tmpl, wsdt.MutableTemplate(rel));
  const rel::Schema schema = tmpl->schema();
  Symbol rel_sym = InternString(rel);
  MAYWSD_ASSIGN_OR_RETURN(rel::BoundPredicate bound,
                          rel::BoundPredicate::Bind(pred, schema));

  // The guard's selection bitmap only changes when a composition grows the
  // guard component's local-world set; recompute it lazily instead of per
  // row.
  std::vector<bool> selected;
  bool selected_valid = false;
  auto refresh_selected = [&]() -> Status {
    if (!selected_valid) {
      MAYWSD_ASSIGN_OR_RETURN(selected, guard.Selected(wsdt));
      selected_valid = true;
    }
    return Status::Ok();
  };

  const size_t num_rows = tmpl->NumRows();
  // A copy of the current row, reused: the per-world re-checks load
  // component values into it.
  std::vector<rel::Value> old_row;
  for (size_t r = 0; r < num_rows; ++r) {
    rel::TupleRef cur = tmpl->row(r);
    old_row.assign(cur.data(), cur.data() + cur.arity());
    rel::TupleRef row_ref(old_row.data(), old_row.size());
    const rel::Tri tri = bound.EvalTri(row_ref);
    if (tri == rel::Tri::kFalse) continue;

    if (tri == rel::Tri::kTrue) {
      std::optional<size_t> mark = FirstPlaceholder(row_ref);
      if (!conditional) {
        // Delete the tuple in every world: make one column all-⊥ (the
        // tuple exists in no world; template rows are never removed, so
        // tuple ids of later rows stay stable).
        if (mark) {
          FieldKey f(rel_sym, static_cast<TupleId>(r),
                     schema.attr(*mark).name);
          MAYWSD_ASSIGN_OR_RETURN(FieldLoc loc, wsdt.Locate(f));
          Component& comp = wsdt.mutable_component(loc.comp);
          size_t col = static_cast<size_t>(loc.col);
          for (size_t w = 0; w < comp.NumWorlds(); ++w) {
            comp.at(w, col) = rel::Value::Bottom();
          }
          comp.PropagateBottom();
        } else {
          FieldKey f(rel_sym, static_cast<TupleId>(r), schema.attr(0).name);
          tmpl->SetCell(r, 0, rel::Value::Question());
          MAYWSD_RETURN_IF_ERROR(
              wsdt.AddFieldComponent(f, {rel::Value::Bottom()}, {1.0}));
        }
        continue;
      }
      // Conditional certain match: delete exactly in the selected worlds.
      if (mark) {
        FieldKey f(rel_sym, static_cast<TupleId>(r),
                   schema.attr(*mark).name);
        MAYWSD_ASSIGN_OR_RETURN(FieldLoc loc, wsdt.Locate(f));
        if (static_cast<size_t>(loc.comp) != guard.comp()) {
          MAYWSD_RETURN_IF_ERROR(wsdt.ComposeInPlace(
              guard.comp(), static_cast<size_t>(loc.comp)));
          MAYWSD_ASSIGN_OR_RETURN(loc, wsdt.Locate(f));
          selected_valid = false;
        }
        MAYWSD_RETURN_IF_ERROR(refresh_selected());
        Component& comp = wsdt.mutable_component(guard.comp());
        size_t col = static_cast<size_t>(loc.col);
        for (size_t w = 0; w < comp.NumWorlds(); ++w) {
          if (selected[w]) comp.at(w, col) = rel::Value::Bottom();
        }
        comp.PropagateBottom();
      } else {
        MAYWSD_RETURN_IF_ERROR(refresh_selected());
        FieldKey f(rel_sym, static_cast<TupleId>(r), schema.attr(0).name);
        tmpl->SetCell(r, 0, rel::Value::Question());
        std::vector<rel::Value> column(selected.size());
        for (size_t w = 0; w < selected.size(); ++w) {
          column[w] = selected[w] ? rel::Value::Bottom() : old_row[0];
        }
        MAYWSD_RETURN_IF_ERROR(
            wsdt.AddColumnToComponent(guard.comp(), f, column));
      }
      continue;
    }

    // Unknown: compose the components of the referenced placeholders (and
    // the guard component), then ⊥-mark the local worlds where the
    // predicate holds and the world is selected — WsdtSelect's unknown
    // path, inverted in place.
    std::set<int32_t> comps;
    std::vector<size_t> unknown_attrs;
    for (size_t a : bound.columns()) {
      if (!row_ref[a].is_question()) continue;
      unknown_attrs.push_back(a);
      MAYWSD_ASSIGN_OR_RETURN(
          FieldLoc loc, wsdt.Locate(FieldKey(rel_sym, static_cast<TupleId>(r),
                                             schema.attr(a).name)));
      comps.insert(loc.comp);
    }
    size_t target = conditional ? guard.comp()
                                : static_cast<size_t>(*comps.begin());
    MAYWSD_ASSIGN_OR_RETURN(bool composed, ComposeInto(wsdt, target, comps));
    if (composed) selected_valid = false;

    std::vector<std::pair<size_t, size_t>> attr_cols;  // attr → column
    for (size_t a : unknown_attrs) {
      MAYWSD_ASSIGN_OR_RETURN(
          FieldLoc loc, wsdt.Locate(FieldKey(rel_sym, static_cast<TupleId>(r),
                                             schema.attr(a).name)));
      attr_cols.emplace_back(a, static_cast<size_t>(loc.col));
    }
    if (conditional) {
      MAYWSD_RETURN_IF_ERROR(refresh_selected());
    }
    Component& comp = wsdt.mutable_component(target);
    for (size_t w = 0; w < comp.NumWorlds(); ++w) {
      if (conditional && !selected[w]) continue;
      if (!LoadLocalWorld(comp, w, attr_cols, old_row)) continue;
      if (bound.Eval(row_ref)) {
        for (const auto& [a, col] : attr_cols) {
          comp.at(w, col) = rel::Value::Bottom();
        }
      }
    }
    comp.PropagateBottom();
  }
  return Status::Ok();
}

Status WsdtModifyWhere(Wsdt& wsdt, const std::string& rel,
                       const rel::Predicate& pred,
                       std::span<const rel::Assignment> assignments,
                       const WsdtUpdateGuard& guard) {
  if (guard.mode() == WsdtUpdateGuard::Mode::kNever) return Status::Ok();
  const bool conditional =
      guard.mode() == WsdtUpdateGuard::Mode::kConditional;
  MAYWSD_ASSIGN_OR_RETURN(rel::Relation * tmpl, wsdt.MutableTemplate(rel));
  const rel::Schema schema = tmpl->schema();
  Symbol rel_sym = InternString(rel);
  MAYWSD_ASSIGN_OR_RETURN(rel::BoundPredicate bound,
                          rel::BoundPredicate::Bind(pred, schema));
  std::vector<std::pair<size_t, rel::Value>> assigned;  // column → value
  for (const rel::Assignment& a : assignments) {
    auto idx = schema.IndexOf(a.attr);
    if (!idx) {
      return Status::NotFound("assignment attribute " + a.attr + " not in " +
                              rel);
    }
    assigned.emplace_back(*idx, a.value);
  }

  // Guard bitmap, recomputed only after compositions into the guard
  // component (see WsdtDeleteWhere).
  std::vector<bool> selected;
  bool selected_valid = false;
  auto refresh_selected = [&]() -> Status {
    if (!selected_valid) {
      MAYWSD_ASSIGN_OR_RETURN(selected, guard.Selected(wsdt));
      selected_valid = true;
    }
    return Status::Ok();
  };

  const size_t num_rows = tmpl->NumRows();
  // A copy of the current row, reused: the per-world re-checks load
  // component values into it.
  std::vector<rel::Value> old_row;
  for (size_t r = 0; r < num_rows; ++r) {
    rel::TupleRef cur = tmpl->row(r);
    old_row.assign(cur.data(), cur.data() + cur.arity());
    rel::TupleRef row_ref(old_row.data(), old_row.size());
    const rel::Tri tri = bound.EvalTri(row_ref);
    if (tri == rel::Tri::kFalse) continue;

    if (tri == rel::Tri::kTrue && !conditional) {
      // Certain match, all worlds: overwrite in place (⊥s — absent
      // worlds — stay ⊥).
      for (const auto& [col, v] : assigned) {
        if (old_row[col].is_question()) {
          MAYWSD_ASSIGN_OR_RETURN(
              FieldLoc loc,
              wsdt.Locate(FieldKey(rel_sym, static_cast<TupleId>(r),
                                   schema.attr(col).name)));
          Component& comp = wsdt.mutable_component(loc.comp);
          size_t c = static_cast<size_t>(loc.col);
          for (size_t w = 0; w < comp.NumWorlds(); ++w) {
            if (!comp.at(w, c).is_bottom()) comp.at(w, c) = v;
          }
        } else {
          tmpl->SetCell(r, col, v);
        }
      }
      continue;
    }

    // Per-world match (unknown predicate and/or world condition): compose
    // everything the decision and the assignment depend on into one
    // component, then rewrite the selected local worlds.
    std::set<int32_t> comps;
    std::vector<size_t> unknown_attrs;
    for (size_t a : bound.columns()) {
      if (!old_row[a].is_question()) continue;
      unknown_attrs.push_back(a);
      MAYWSD_ASSIGN_OR_RETURN(
          FieldLoc loc, wsdt.Locate(FieldKey(rel_sym, static_cast<TupleId>(r),
                                             schema.attr(a).name)));
      comps.insert(loc.comp);
    }
    for (const auto& [col, v] : assigned) {
      if (!old_row[col].is_question()) continue;
      MAYWSD_ASSIGN_OR_RETURN(
          FieldLoc loc, wsdt.Locate(FieldKey(rel_sym, static_cast<TupleId>(r),
                                             schema.attr(col).name)));
      comps.insert(loc.comp);
    }
    size_t target;
    if (conditional) {
      target = guard.comp();
    } else if (!comps.empty()) {
      target = static_cast<size_t>(*comps.begin());
    } else {
      return Status::Internal("per-world modify without placeholders");
    }
    MAYWSD_ASSIGN_OR_RETURN(bool composed, ComposeInto(wsdt, target, comps));
    if (composed && target == guard.comp()) selected_valid = false;

    // Assigned attributes that were certain become placeholders with a
    // constant column in the target component, so their value can differ
    // per world from here on.
    for (const auto& [col, v] : assigned) {
      if (!old_row[col].is_question()) {
        FieldKey f(rel_sym, static_cast<TupleId>(r), schema.attr(col).name);
        tmpl->SetCell(r, col, rel::Value::Question());
        std::vector<rel::Value> column(
            wsdt.component(target).NumWorlds(), old_row[col]);
        MAYWSD_RETURN_IF_ERROR(wsdt.AddColumnToComponent(target, f, column));
      }
    }

    // Column positions of everything we read or write, in the target.
    std::vector<std::pair<size_t, size_t>> attr_cols;  // attr → column
    for (size_t a : unknown_attrs) {
      MAYWSD_ASSIGN_OR_RETURN(
          FieldLoc loc, wsdt.Locate(FieldKey(rel_sym, static_cast<TupleId>(r),
                                             schema.attr(a).name)));
      attr_cols.emplace_back(a, static_cast<size_t>(loc.col));
    }
    std::vector<std::pair<size_t, rel::Value>> assigned_cols;
    for (const auto& [col, v] : assigned) {
      MAYWSD_ASSIGN_OR_RETURN(
          FieldLoc loc, wsdt.Locate(FieldKey(rel_sym, static_cast<TupleId>(r),
                                             schema.attr(col).name)));
      attr_cols.emplace_back(col, static_cast<size_t>(loc.col));
      assigned_cols.emplace_back(static_cast<size_t>(loc.col), v);
    }
    if (conditional) {
      MAYWSD_RETURN_IF_ERROR(refresh_selected());
    }
    Component& comp = wsdt.mutable_component(target);
    // Existing ⊥s of this tuple (absent worlds) flow into the freshly
    // added constant columns before any per-world decision.
    comp.PropagateBottom();
    for (size_t w = 0; w < comp.NumWorlds(); ++w) {
      if (conditional && !selected[w]) continue;
      if (!LoadLocalWorld(comp, w, attr_cols, old_row)) continue;
      if (tri == rel::Tri::kTrue || bound.Eval(row_ref)) {
        for (const auto& [col, v] : assigned_cols) comp.at(w, col) = v;
      }
    }
  }
  return Status::Ok();
}

Status WsdtApplyUpdate(Wsdt& wsdt, const rel::UpdateOp& op,
                       const std::string& guard_rel) {
  WsdtUpdateGuard guard = WsdtUpdateGuard::Always();
  if (!guard_rel.empty()) {
    MAYWSD_ASSIGN_OR_RETURN(guard, WsdtUpdateGuard::Analyze(wsdt, guard_rel));
  }
  switch (op.kind()) {
    case rel::UpdateOp::Kind::kInsert:
      return WsdtInsertTuples(wsdt, op.relation(), op.tuples(), guard);
    case rel::UpdateOp::Kind::kDelete:
      return WsdtDeleteWhere(wsdt, op.relation(), op.predicate(), guard);
    case rel::UpdateOp::Kind::kModify:
      return WsdtModifyWhere(wsdt, op.relation(), op.predicate(),
                             op.assignments(), guard);
  }
  return Status::Internal("unknown update kind");
}

}  // namespace maywsd::core
