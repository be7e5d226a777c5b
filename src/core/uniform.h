// The uniform relational encoding of WSDTs — UWSDTs (Section 3, Figure 8).
//
// DBMSs do not support relations of data-dependent arity, so the paper
// stores all components in three fixed-schema relations
//
//   C[REL, TID, ATTR, LWID, VAL]   — component values per local world
//   F[REL, TID, ATTR, CID]         — field → component mapping
//   W[CID, LWID, PR]               — local worlds and their probabilities
//
// plus one template relation R⁰ per database relation (placeholder '?' for
// uncertain fields). A placeholder missing its value in some local world
// (no C row for that LWID) encodes the tuple's absence in those worlds —
// "worlds of different sizes are represented by allowing for a same
// placeholder different amounts of values in different worlds".
//
// Exported template relations carry an explicit leading TID column so the
// F/C references are expressible relationally.
//
// UniformSelectConst implements the select[Aθc] rewriting of Figure 16
// literally against these relations through the rel:: engine, as the
// PostgreSQL prototype did with SQL. Every other operator and every update
// is such a row rewriting too; the ones that correlate independent
// components (select[AθB], projecting away a ⊥-carrying placeholder,
// difference, world-conditional updates) first run the relational
// compose: W is rewritten to the product of the merged components' local
// worlds, F is remapped and C expanded — no round trip through a WSDT.

#ifndef MAYWSD_CORE_UNIFORM_H_
#define MAYWSD_CORE_UNIFORM_H_

#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "rel/database.h"
#include "rel/predicate.h"
#include "rel/update.h"
#include "core/wsdt.h"

namespace maywsd::core {

/// Names of the three system relations in a uniform database.
inline constexpr const char* kUniformC = "C";
inline constexpr const char* kUniformF = "F";
inline constexpr const char* kUniformW = "W";
/// Name of the leading tuple-id column added to exported templates.
inline constexpr const char* kTidColumn = "__TID";

/// Exports a WSDT into the uniform encoding: template relations (with a
/// leading TID column) under their own names plus C, F, W.
Result<rel::Database> ExportUniform(const Wsdt& wsdt);

/// Rebuilds a WSDT from a uniform database. `templates` lists the template
/// relations to import (defaults to every relation except C, F, W). A
/// scoped import reads only those relations' slice of the store: F and C
/// rows of other relations are skipped, and each component keeps only the
/// listed relations' fields — exact marginalization. A dangling F/C
/// reference into an imported relation is still an error.
Result<Wsdt> ImportUniform(const rel::Database& db,
                           std::vector<std::string> templates = {});

/// Figure 16: evaluates P := σ_{AθC}(R) directly on the uniform relations
/// of `db`, adding template P and extending C and F (steps 1–6).
Status UniformSelectConst(rel::Database& db, const std::string& in_rel,
                          const std::string& out_rel, const std::string& attr,
                          rel::CmpOp op, const rel::Value& constant);

/// The Figure 16 rewriting generalized to attribute–attribute selections:
/// P := σ_{AθB}(R) directly on the uniform relations. Rows whose decision
/// rests on placeholder values are filtered per local world; when A and B
/// live in different components those components are first merged via
/// their independence product (the relational compose: W is rewritten to
/// the mixed-radix product, F is remapped and C expanded globally), so no
/// import → template → export round trip is paid.
Status UniformSelectAttrAttr(rel::Database& db, const std::string& in_rel,
                             const std::string& out_rel,
                             const std::string& attr_a, rel::CmpOp op,
                             const std::string& attr_b);

/// T := R ∪ S on the uniform relations: template rows are concatenated
/// with re-numbered TIDs; F and C entries are copied under the new FIDs
/// (Section 5's pure-SQL rewriting of the union of Figure 9).
Status UniformUnion(rel::Database& db, const std::string& left,
                    const std::string& right, const std::string& out);

/// P := δ(R) on the uniform relations: the template's columns and the
/// ATTR values in F and C are renamed.
Status UniformRename(
    rel::Database& db, const std::string& in_rel, const std::string& out_rel,
    const std::vector<std::pair<std::string, std::string>>& renames);

/// T := R × S on the uniform relations: the product of the templates with
/// TID pairing tᵢⱼ = i·|S| + j, F/C entries duplicated per partner tuple
/// (the paper's product of Figure 9, expressed relationally).
Status UniformProduct(rel::Database& db, const std::string& left,
                      const std::string& right, const std::string& out);

/// P := R on the uniform relations: the template is duplicated (same TIDs)
/// and the F/C entries are copied under the new name, sharing CIDs so the
/// copy stays correlated with its source.
Status UniformCopy(rel::Database& db, const std::string& in_rel,
                   const std::string& out_rel);

/// P := π_attrs(R) on the uniform relations: the template's columns are
/// projected (TID kept) and only the kept attributes' F/C entries are
/// copied — exact marginalization of the dropped component columns. A
/// dropped placeholder that carries ⊥ (a local world with no C row)
/// encodes conditional tuple presence, which the output row keeps: its
/// components are composed into one, D, and the kept placeholders in D
/// keep their values only where the row is present — or, when the row
/// keeps no placeholder in D, its first certain kept cell becomes a '?' in
/// D holding its value there. Rows present in no local world are dropped.
Status UniformProject(rel::Database& db, const std::string& in_rel,
                      const std::string& out_rel,
                      const std::vector<std::string>& attrs);

/// T := L − R on the uniform relations (schemas must match). An L row no
/// R row can equal on its certain cells (or possible placeholder values)
/// is copied unchanged; otherwise its components and its candidate R
/// rows' are composed, and the row stays present exactly at the local
/// worlds where it is present and no candidate is present with equal
/// values (presence carried as in UniformProject).
Status UniformDifference(rel::Database& db, const std::string& left,
                         const std::string& right, const std::string& out);

/// Removes a template relation and its F/C rows (a template without '?'
/// cells has none, and C/F are not scanned). Local worlds whose component
/// no longer has any field are garbage-collected by UniformCompact, not
/// here.
Status UniformDrop(rel::Database& db, const std::string& name);

// -- Updates (see core/wsdt_update.h for the semantics) ---------------------
//
// Every update runs as a row rewriting of the template and of C/F/W, like
// the Figure 16 query rewritings. `guard` names the materialized answer of
// a world condition (empty = every world): the update applies only in the
// worlds where that relation is non-empty. A guard with no rows makes the
// update a no-op; one with a row present in every world makes it
// unconditional; otherwise the components carrying the guard rows' ⊥s are
// composed into one, G, and every row the update touches is correlated
// with G. Compositions past the local-world cap fail with
// ResourceExhausted and leave the store untouched.

/// Appends `tuples` (a fully certain instance) to template `rel` under
/// fresh TIDs. Under a conditional guard the first cell of each new row is
/// a '?' in G holding the tuple's value where G is non-empty.
Status UniformInsert(rel::Database& db, const std::string& rel,
                     const rel::Relation& tuples,
                     const std::string& guard = {});

/// delete from `rel` where `pred`: rows matching on certain cells are
/// removed with their F/C entries (explicit TIDs keep the others stable);
/// a row the guard restricts keeps its presence only where G is empty; a
/// row whose decision rests on '?' cells loses those cells' values at the
/// local worlds where the predicate holds (and G is non-empty).
Status UniformDeleteWhere(rel::Database& db, const std::string& rel,
                          const rel::Predicate& pred,
                          const std::string& guard = {});

/// update `rel` set `assignments` where `pred`: certain matches overwrite
/// template cells and every value of an assigned placeholder; a match
/// decided per local world (a '?'-cell predicate or a guard) makes each
/// assigned cell a '?' holding the new value where the match holds and
/// the old value elsewhere.
Status UniformModifyWhere(rel::Database& db, const std::string& rel,
                          const rel::Predicate& pred,
                          std::span<const rel::Assignment> assignments,
                          const std::string& guard = {});

/// Dispatches `op` (already validated by the engine driver) to the three
/// operators above under world condition `guard`.
Status UniformApplyUpdate(rel::Database& db, const rel::UpdateOp& op,
                          const std::string& guard);

/// Garbage-collects W rows whose CID no longer appears in F (components
/// fully dropped with their last relation).
Status UniformCompact(rel::Database& db);

/// Referential-integrity check of a uniform database: templates carry a
/// leading unique TID column; every F row points at an existing '?' cell
/// and a CID present in W; every '?' cell is covered by exactly one F row;
/// every C row has a matching F row and an LWID declared in W; every W row's
/// CID appears in F (no orphans); per-CID probabilities sum to 1.
Status ValidateUniform(const rel::Database& db);

}  // namespace maywsd::core

#endif  // MAYWSD_CORE_UNIFORM_H_
