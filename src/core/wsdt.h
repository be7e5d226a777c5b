// Wsdt: world-set decomposition with template relations (Section 3,
// Figures 5 and 8) — the representation the paper's experiments run on
// (there under its uniform relational encoding, UWSDT; see uniform.h for
// the C/F/W encoding and conversions).
//
// A template relation R⁰ stores, once, everything the worlds agree on; a
// field whose value differs across worlds holds the placeholder '?' and its
// possible values live in a component column keyed by (R, tid, A). Tuple
// slots are template rows (tid = row number). Worlds of differing sizes are
// represented by ⊥ values inside components ("a placeholder has different
// amounts of values in different worlds").
//
// Copying a Wsdt is O(relations): template relations share their row
// storage (rel::Relation is internally copy-on-write) and the component
// pool sits behind one copy-on-write handle, privatized wholesale on the
// first mutating call — the basis of O(1) Session::Snapshot()/Fork().

#ifndef MAYWSD_CORE_WSDT_H_
#define MAYWSD_CORE_WSDT_H_

#include <map>
#include <string>
#include <vector>

#include "common/cow.h"
#include "common/status.h"
#include "rel/relation.h"
#include "core/component.h"
#include "core/field.h"
#include "core/wsd.h"

namespace maywsd::core {

/// Size/characteristics record matching the rows of Figure 27.
struct WsdtStats {
  size_t num_components = 0;        ///< #comp   — live components
  size_t num_components_multi = 0;  ///< #comp>1 — components with >1 placeholder
  size_t c_size = 0;                ///< |C|     — (FID,LWID,VAL) entries
  size_t template_rows = 0;         ///< |R|     — total template tuples
};

/// A WSDT: template relations plus components over the '?' fields.
class Wsdt {
 public:
  Wsdt() = default;

  /// Adds a template relation; cells may contain '?'. Every '?' must later
  /// be covered by exactly one component column (checked by Validate()).
  Status AddTemplateRelation(rel::Relation relation);

  Result<const rel::Relation*> Template(const std::string& name) const;
  Result<rel::Relation*> MutableTemplate(const std::string& name);
  bool HasRelation(const std::string& name) const;
  std::vector<std::string> RelationNames() const;
  Status DropRelation(const std::string& name);

  /// Registers a component over '?' fields of template relations.
  Status AddComponent(Component component);

  size_t NumComponentSlots() const { return pool().components.size(); }
  /// Dead slots (composed-away or emptied components) that
  /// CompactComponents() would remove.
  size_t NumDeadComponents() const { return pool().dead; }
  bool IsLiveComponent(size_t i) const { return pool().alive[i]; }
  const Component& component(size_t i) const { return pool().components[i]; }
  Component& mutable_component(size_t i) { return pool().components[i]; }
  std::vector<size_t> LiveComponents() const;

  Result<FieldLoc> Locate(const FieldKey& field) const;
  bool HasField(const FieldKey& field) const;

  /// Composes component `b` into `a` (paper's compose); `b` dies.
  Status ComposeInPlace(size_t a, size_t b);

  /// Appends to the component of `src` a duplicate column registered as
  /// `dst` (the ext primitive across template copies).
  Status CopyFieldInto(const FieldKey& src, const FieldKey& dst);

  /// Registers `dst` as a fresh single-column component with the given
  /// per-local-world values and probabilities.
  Status AddFieldComponent(const FieldKey& dst,
                           std::vector<rel::Value> values,
                           std::vector<double> probs);

  /// Appends a derived column (one value per local world) to an existing
  /// live component, registering it under `dst` (used to materialize
  /// presence helpers correlated with the component).
  Status AddColumnToComponent(size_t comp_index, const FieldKey& dst,
                              std::span<const rel::Value> values);

  /// Drops one component column (zero-column components die).
  Status DropField(const FieldKey& field);

  /// Re-registers the column of `from` under `to` (same component/values).
  Status RenameFieldKey(const FieldKey& from, const FieldKey& to);

  /// Replaces a live component with components covering the same fields.
  Status ReplaceComponent(size_t index, std::vector<Component> parts);

  /// Removes dead slots, renumbering components and rebuilding the field
  /// index: O(store), so callers amortize it (see WsdtBackend::Compact).
  void CompactComponents();

  /// Structural invariants: every '?' covered exactly once, every component
  /// column points at a '?' cell, probabilities sum to 1.
  Status Validate() const;

  /// Conversions. ToWsd() expands template fields into singleton
  /// components; FromWsd() pulls certain fields into templates (slots that
  /// are invalid in all worlds are removed first) and rejects a tuple slot
  /// whose fields are only partly covered (InvalidArgument).
  Result<Wsd> ToWsd() const;
  static Result<Wsdt> FromWsd(const Wsd& wsd);

  /// Figure 27 characteristics.
  WsdtStats ComputeStats() const;

  /// Figure 27 characteristics restricted to one relation: components that
  /// carry at least one of its placeholders, multi-placeholder counts and
  /// |C| over its columns only, |R| = its template rows.
  Result<WsdtStats> StatsForRelation(const std::string& name) const;

  /// Figure 28: histogram[i] = number of components with i placeholders
  /// (index 0 unused).
  std::vector<size_t> ComponentSizeHistogram() const;

  std::string ToString() const;

 private:
  /// Component pool shared on copy; see Wsd::Pool for the access contract.
  struct Pool {
    std::vector<Component> components;
    std::vector<bool> alive;
    std::unordered_map<FieldKey, FieldLoc> field_index;
    size_t dead = 0;  ///< slots with alive[i] == false
  };

  /// Marks slot `i` dead and frees its component.
  void KillComponent(size_t i);

  const Pool& pool() const { return pool_.get(); }
  Pool& pool() { return pool_.Mutable(); }

  std::map<std::string, rel::Relation> templates_;
  Cow<Pool> pool_;
};

}  // namespace maywsd::core

#endif  // MAYWSD_CORE_WSDT_H_
