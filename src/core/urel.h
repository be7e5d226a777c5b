// U-relations: the columnar world-set representation of the authors'
// follow-up work ("Fast and Simple Relational Processing of Uncertain
// Data" — see PAPERS.md).
//
// Where a WSDT keeps uncertainty in components composed on demand, a
// U-relation annotates every tuple with a *world-set descriptor*: a
// conjunction of (variable = domain-value) assignments over independent
// finite random variables. A tuple exists exactly in the worlds whose
// total assignment satisfies its descriptor; an empty descriptor means the
// tuple is certain. The payoff is structural: every positive relational
// algebra operator is a pure relational rewriting — selections filter
// rows, products/joins concatenate descriptors (dropping pairs whose
// descriptors assign one variable two values), unions and projections
// copy descriptors verbatim. No component composition, no representation
// round trips.
//
// The store is columnar: per relation, one structure-of-arrays value
// vector per attribute holding ids into a store-wide interned value
// dictionary, a TID column (stable across deletes, like core/uniform's
// __TID), and the descriptors in CSR layout. Descriptors are canonical —
// sorted by variable, one assignment per variable.
//
// ExportUrel/ImportUrel convert ⇄ WSDT (components become variables and
// vice versa), plugging the representation into the existing
// cross-backend machinery; engine/urel_backend.h adapts the store to the
// WorldSetOps contract.

#ifndef MAYWSD_CORE_UREL_H_
#define MAYWSD_CORE_UREL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/cow.h"
#include "common/status.h"
#include "rel/predicate.h"
#include "rel/relation.h"
#include "rel/update.h"
#include "core/wsdt.h"

namespace maywsd::core {

/// Index of an independent finite random variable of a Urel store.
using VarId = uint32_t;
/// Index into a Urel store's interned value dictionary.
using UrelValueId = uint32_t;

/// One conjunct of a world-set descriptor: variable `var` takes domain
/// value `world` (an index into the variable's probability vector).
struct UrelDescEntry {
  VarId var = 0;
  uint32_t world = 0;

  bool operator==(const UrelDescEntry& o) const {
    return var == o.var && world == o.world;
  }
  bool operator<(const UrelDescEntry& o) const {
    return var != o.var ? var < o.var : world < o.world;
  }
};

/// One columnar relation: per-attribute value-id vectors, a stable TID
/// column, and per-tuple world-set descriptors in CSR layout.
struct UrelRelation {
  std::string name;
  rel::Schema schema;
  /// columns[a][row] — column-major value ids, one vector per attribute.
  std::vector<std::vector<UrelValueId>> columns;
  /// Stable tuple ids; deletes remove rows without renumbering survivors.
  std::vector<int64_t> tids;
  /// CSR descriptor index: tuple `row`'s descriptor is
  /// desc_entries[desc_offsets[row] .. desc_offsets[row + 1]).
  std::vector<uint32_t> desc_offsets = {0};
  std::vector<UrelDescEntry> desc_entries;
  int64_t next_tid = 0;

  size_t NumRows() const { return tids.size(); }

  std::span<const UrelDescEntry> Descriptor(size_t row) const {
    return std::span<const UrelDescEntry>(
        desc_entries.data() + desc_offsets[row],
        desc_offsets[row + 1] - desc_offsets[row]);
  }

  /// Appends one tuple; `desc` must be canonical (sorted by var, unique).
  void AppendTuple(std::span<const UrelValueId> values,
                   std::span<const UrelDescEntry> desc);
};

/// A U-relational database: the variable table (each variable's domain is
/// the index range of its probability vector), the interned value
/// dictionary shared by all relations, and the relation catalog.
class Urel {
 public:
  Urel() : symbols_(SymbolTable{}) {}

  // -- Value dictionary -------------------------------------------------------

  /// Interns `v`, returning its stable id (injective modulo Value
  /// equality). ⊥ and '?' are rejected by the operators, not here.
  /// Interning a value already in the dictionary is a read-only lookup;
  /// only a genuinely new value privatizes a shared symbol table.
  UrelValueId Intern(const rel::Value& v);

  /// The id of `v` if it is already in the dictionary; never interns.
  std::optional<UrelValueId> Find(const rel::Value& v) const;

  const rel::Value& ValueAt(UrelValueId id) const {
    return symbols().dict[id];
  }
  size_t DictionarySize() const { return symbols().dict.size(); }

  // -- Variables --------------------------------------------------------------

  /// Registers an independent variable with the given domain-value
  /// probabilities (must sum to 1; validated by ValidateUrel).
  VarId AddVariable(std::vector<double> probs);

  size_t NumVariables() const { return symbols().vars.size(); }
  const std::vector<double>& Domain(VarId var) const {
    return symbols().vars[var];
  }

  // -- Symbol-table sharing ---------------------------------------------------
  //
  // The dictionary and the variable table live behind one refcounted,
  // copy-on-write table (common::Cow, whose shared-or-unique probe is a
  // genuine acquire/release synchronization point): copying a Urel (and
  // so pinning a session via Snapshot()/Fork()) shares it, so dictionary
  // ids and VarIds transfer verbatim between sharers; the first divergent
  // Intern/AddVariable privatizes. Ids are append-only, so ids minted
  // before a split stay valid in every sharer.

  /// True while both stores still reference the same symbol table, i.e.
  /// value ids and variable ids agree verbatim.
  bool SharesSymbolsWith(const Urel& other) const {
    return symbols_.SharesWith(other.symbols_);
  }

  // -- Catalog ----------------------------------------------------------------
  //
  // Relations are held behind per-relation copy-on-write handles: copying
  // a Urel shares every relation's columns/TIDs/CSR descriptors in O(1),
  // and GetMutable or Replace breaks sharing for that relation only. Raw
  // pointers returned by Get/GetMutable are valid until the catalog entry
  // is dropped or (for Get) the relation is next privatized or replaced —
  // do not hold them across a session-lock release.

  bool Contains(const std::string& name) const;
  std::vector<std::string> Names() const;
  Result<const UrelRelation*> Get(const std::string& name) const;
  Result<UrelRelation*> GetMutable(const std::string& name);
  Status Add(UrelRelation relation);
  /// Installs `relation` in place of the catalog entry of the same name
  /// without copying the old payload: forks and snapshots keep sharing
  /// theirs, and every other relation stays shared.
  Status Replace(UrelRelation relation);
  Status Drop(const std::string& name);

  /// Materializes row `row` of `r` as engine values.
  void MaterializeRow(const UrelRelation& r, size_t row,
                      std::vector<rel::Value>& out) const;

 private:
  struct SymbolTable {
    std::vector<rel::Value> dict;
    std::unordered_map<rel::Value, UrelValueId> dict_index;
    std::vector<std::vector<double>> vars;
  };

  /// The symbol table, privatized for writing (copied when shared).
  SymbolTable& MutableSymbols();
  const SymbolTable& symbols() const { return symbols_.get(); }

  Cow<SymbolTable> symbols_;
  std::map<std::string, Cow<UrelRelation>> relations_;
};

// -- Figure 9 operator core as pure columnar rewritings ----------------------
//
// Every operator extends the store with a fresh relation `out` (which must
// not exist yet), mirroring the WorldSetOps contract. Descriptors are
// copied or merged; no operator composes probabilities.

/// out := src (descriptors copied verbatim — the copy stays correlated
/// with its source through the shared variables).
Status UrelCopy(Urel& u, const std::string& src, const std::string& out);

/// out := σ_pred(src) for an arbitrary predicate tree, evaluated
/// vectorized: constant comparisons are memoized per dictionary id, so a
/// column of k distinct values costs k comparisons regardless of rows.
Status UrelSelectPredicate(Urel& u, const std::string& src,
                           const std::string& out, const rel::Predicate& pred);

/// out := σ_{attr θ c}(src).
Status UrelSelectConst(Urel& u, const std::string& src, const std::string& out,
                       const std::string& attr, rel::CmpOp op,
                       const rel::Value& constant);

/// out := σ_{a θ b}(src).
Status UrelSelectAttrAttr(Urel& u, const std::string& src,
                          const std::string& out, const std::string& attr_a,
                          rel::CmpOp op, const std::string& attr_b);

/// out := left × right: data columns concatenated, descriptors merged;
/// pairs whose descriptors assign one variable two different values exist
/// in no world and are dropped.
Status UrelProduct(Urel& u, const std::string& left, const std::string& right,
                   const std::string& out);

/// out := left ⋈_{left_attr = right_attr} right — the fused σ(×) hash
/// join, probing on dictionary ids (id equality ⟺ value equality).
Status UrelJoin(Urel& u, const std::string& left, const std::string& right,
                const std::string& out, const std::string& left_attr,
                const std::string& right_attr);

/// out := left ∪ right (schemas must match; descriptors copied).
Status UrelUnion(Urel& u, const std::string& left, const std::string& right,
                 const std::string& out);

/// out := π_attrs(src): column subset, descriptors verbatim (a U-relation
/// has no ⊥-carrying placeholders, so projection never composes).
Status UrelProject(Urel& u, const std::string& src, const std::string& out,
                   const std::vector<std::string>& attrs);

/// out := δ(src) for every (from, to) pair.
Status UrelRename(
    Urel& u, const std::string& src, const std::string& out,
    const std::vector<std::pair<std::string, std::string>>& renames);

/// out := left − right. Not positive RA: a left tuple matched by uncertain
/// right tuples is expanded over the variables its own descriptor leaves
/// free (kept where no matching right descriptor is satisfied). Returns
/// kUnsupported when that expansion exceeds an internal cap — callers
/// fall back to the template semantics.
Status UrelDifference(Urel& u, const std::string& left,
                      const std::string& right, const std::string& out);

/// Removes a relation (variables and dictionary entries are shared and
/// stay).
Status UrelDrop(Urel& u, const std::string& name);

// -- Native update fragment ---------------------------------------------------
//
// With no '?' cells and no ⊥, every update is a pure row rewriting:
// predicates always decide on concrete data. A world condition names a
// guard relation G (the engine materializes the condition's answer); the
// update applies in the worlds where G is non-empty, i.e. under the union
// of G's descriptors:
//   - insert appends the tuples once under each of G's descriptors;
//   - delete keeps a matching row t under desc(t) ∧ ¬G;
//   - modify splits a matching row t into the new values under
//     desc(t) ∧ G and the old values under desc(t) ∧ ¬G.
// desc(t) ∧ ¬G is the expansion UrelDifference performs: only the
// variables desc(t) leaves free are enumerated. Rows a split creates get
// fresh TIDs; a row the guard leaves whole keeps its TID. An empty guard
// name, or a G with a certain row, is the unconditional update; an empty G
// is a no-op. Deletes and guarded modifies build the rewritten relation
// first and swap it in with Urel::Replace; either way only the target
// stops sharing with forks. An expansion past the cap returns
// kUnsupported with the store untouched — callers fall back to the
// template semantics.

/// insert `tuples` (a fully certain instance) into `rel` under fresh TIDs,
/// in the worlds where `guard` is non-empty (every world when empty).
Status UrelInsert(Urel& u, const std::string& rel, const rel::Relation& tuples,
                  const std::string& guard = {});

/// delete from `rel` where `pred`, in the worlds where `guard` is
/// non-empty (unconditionally: matching rows are removed outright).
Status UrelDeleteWhere(Urel& u, const std::string& rel,
                       const rel::Predicate& pred,
                       const std::string& guard = {});

/// update `rel` set `assignments` where `pred`, in the worlds where
/// `guard` is non-empty (unconditionally: matching rows' cells are
/// rewritten in place and descriptors are untouched).
Status UrelModifyWhere(Urel& u, const std::string& rel,
                       const rel::Predicate& pred,
                       std::span<const rel::Assignment> assignments,
                       const std::string& guard = {});

/// Dispatches `op` (already validated by the engine driver) to the three
/// operators above; `guard` names the materialized world-condition
/// answer, empty = unconditional.
Status UrelApplyUpdate(Urel& u, const rel::UpdateOp& op,
                       const std::string& guard);

// -- Answer surface (Section 6) via descriptor-aware aggregation --------------

/// possible(R): the distinct data tuples (every stored tuple's descriptor
/// is satisfiable by construction).
Result<rel::Relation> UrelPossibleTuples(const Urel& u,
                                         const std::string& relation);

/// possibleᵖ(R): possible tuples with a trailing "conf" column.
Result<rel::Relation> UrelPossibleTuplesWithConfidence(
    const Urel& u, const std::string& relation);

/// certain(R): tuples whose descriptor-union probability is 1.
Result<rel::Relation> UrelCertainTuples(const Urel& u,
                                        const std::string& relation);

/// conf(t): probability of the union of the worlds selected by the
/// descriptors of the tuples equal to `tuple` — a sum over disjoint cells
/// that expand the involved variables only. The tuple is looked up in the
/// dictionary (a value it never interned means confidence 0) and rows are
/// matched on value ids.
Result<double> UrelTupleConfidence(const Urel& u, const std::string& relation,
                                   std::span<const rel::Value> tuple);

/// certain(t): true iff conf(t) = 1.
Result<bool> UrelTupleCertain(const Urel& u, const std::string& relation,
                              std::span<const rel::Value> tuple);

// -- Conversions ⇄ WSDT -------------------------------------------------------

/// Encodes a WSDT as a U-relational store: every live component becomes a
/// variable (local worlds → domain values), every template row expands
/// into one tuple per combination of its covering components' local
/// worlds (combinations where a covered cell is ⊥ encode absence and emit
/// nothing); certain rows become certain tuples.
Result<Urel> ExportUrel(const Wsdt& wsdt);

/// Rebuilds a WSDT: variables co-occurring in a descriptor are grouped
/// (union-find) and each used group becomes one component whose local
/// worlds are the group's joint assignments; a conditional tuple becomes a
/// template row whose first attribute is a '?' backed by a component
/// column holding the value in satisfying assignments and ⊥ elsewhere.
Result<Wsdt> ImportUrel(const Urel& u);

/// Structural integrity: column lengths agree with the TID column,
/// dictionary ids are in range and materialize to concrete values (no ⊥,
/// no '?'), TIDs are unique and below next_tid, descriptors are canonical
/// (sorted by var, unique) with in-range variables and domain values, and
/// every variable's probabilities sum to 1 (within kProbEpsilon).
Status ValidateUrel(const Urel& u);

}  // namespace maywsd::core

#endif  // MAYWSD_CORE_UREL_H_
