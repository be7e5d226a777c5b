// Wsd: a (probabilistic) world-set decomposition — Definitions 1 and 2.
//
// A Wsd holds, per relation of the world-set schema, the schema and the
// maximum tuple count |R|max across worlds, plus a set of components whose
// product is the represented world-set relation. Every field R.tᵢ.A of every
// declared relation belongs to exactly one component ("all fields covered,
// each exactly once"); certain fields simply live in a component whose
// column is constant. Tuple slots may be removed wholesale by normalization
// (tuples invalid in all worlds), in which case none of their fields remain.
//
// rep(W) — the represented finite set of possible worlds — is computable via
// EnumerateWorlds() (exponential; guarded by a cap) and is used as the
// ground truth in tests and ablation benchmarks.
//
// The component pool (components, liveness bits, field index) sits behind a
// copy-on-write handle: copying a Wsd shares the pool in O(1) and the first
// mutating call on either copy privatizes it wholesale. Components span
// relations, so pool sharing is all-or-nothing — but the component payloads
// themselves are refcounted store nodes, so even a privatized pool still
// shares every unmutated payload.
//
// Queries do not run on a Wsd: a kWsd api::Session adopts it as a Wsdt
// (Wsdt::FromWsd) at the edge, and no operator converts back — difference
// included. The Wsd remains the Section 4 data type and the oracle —
// chase, or-sets, normalization, world enumeration and confidence all work
// on it.

#ifndef MAYWSD_CORE_WSD_H_
#define MAYWSD_CORE_WSD_H_

#include <map>
#include <string>
#include <vector>

#include "common/cow.h"
#include "common/status.h"
#include "rel/database.h"
#include "core/component.h"
#include "core/field.h"

namespace maywsd::core {

/// Declared relation of the world-set schema.
struct WsdRelation {
  std::string name;
  Symbol name_sym = 0;
  rel::Schema schema;
  TupleId max_tuples = 0;
};

/// Location of a field: component index and column within it.
struct FieldLoc {
  int32_t comp = -1;
  int32_t col = -1;
};

/// One possible world with its probability.
struct PossibleWorld {
  rel::Database db;
  double prob = 1.0;
};

/// A probabilistic world-set decomposition.
class Wsd {
 public:
  Wsd() = default;

  /// Declares a relation with |R|max tuple slots.
  Status AddRelation(const std::string& name, rel::Schema schema,
                     TupleId max_tuples);

  /// Looks up a declared relation.
  Result<const WsdRelation*> FindRelation(const std::string& name) const;
  bool HasRelation(const std::string& name) const;
  std::vector<std::string> RelationNames() const;

  /// Removes a relation and all component columns referring to it.
  Status DropRelation(const std::string& name);

  /// Registers a component; all its fields must refer to declared relations
  /// and must not yet be covered by another component.
  Status AddComponent(Component component);

  /// Number of component slots, including dead ones; iterate with
  /// IsLiveComponent(). CompactComponents() removes tombstones.
  size_t NumComponentSlots() const { return pool().components.size(); }
  bool IsLiveComponent(size_t i) const { return pool().alive[i]; }
  const Component& component(size_t i) const { return pool().components[i]; }
  Component& mutable_component(size_t i) { return pool().components[i]; }

  /// Indexes of live components.
  std::vector<size_t> LiveComponents() const;
  size_t NumLiveComponents() const;

  /// Finds the component/column of a field. NotFound for removed slots.
  Result<FieldLoc> Locate(const FieldKey& field) const;
  bool HasField(const FieldKey& field) const;

  /// Composes component `b` into component `a` (paper's compose); `b`
  /// becomes a tombstone. No-op when a == b.
  Status ComposeInPlace(size_t a, size_t b);

  /// Removes one column; a component left with zero columns is dropped
  /// (exact marginalization: its probabilities summed to 1).
  Status DropField(const FieldKey& field);

  /// Registers `dst` as a new single-field component holding `value` with
  /// probability 1 (used when materializing certain fields).
  Status AddCertainField(const FieldKey& dst, const rel::Value& value);

  /// Replaces a live component with the given components covering exactly
  /// the same fields (used by decompose-normalization).
  Status ReplaceComponent(size_t index, std::vector<Component> parts);

  /// Removes tombstoned component slots (invalidates component indexes).
  void CompactComponents();

  /// Checks structural invariants: full or empty coverage of each tuple
  /// slot, consistent field index, probabilities summing to 1.
  Status Validate() const;

  /// The fields of tuple slot (rel, tid) that are present in the index.
  std::vector<FieldKey> FieldsOfTuple(const WsdRelation& rel,
                                      TupleId tid) const;

  /// True if slot (rel, tid) has all its fields present.
  bool SlotPresent(const WsdRelation& rel, TupleId tid) const;

  /// Number of world combinations (product of live component sizes),
  /// saturating at `cap`.
  uint64_t WorldCombinationCount(uint64_t cap) const;

  /// Enumerates rep(W): one PossibleWorld per combination of local worlds.
  /// Worlds that coincide are NOT merged (see CollapseWorlds). If
  /// `relations` is non-empty, only those relations are materialized.
  /// Fails with kResourceExhausted beyond `max_worlds` combinations.
  Result<std::vector<PossibleWorld>> EnumerateWorlds(
      uint64_t max_worlds,
      const std::vector<std::string>& relations = {}) const;

  std::string ToString() const;

 private:
  Status CheckComponentFields(const Component& component) const;

  /// The shared-on-copy part of the store: everything that scales with the
  /// data. Accessed only through pool() so constness decides read vs
  /// privatize.
  struct Pool {
    std::vector<Component> components;
    std::vector<bool> alive;
    std::unordered_map<FieldKey, FieldLoc> field_index;
  };

  /// Read access to the pool; never copies.
  const Pool& pool() const { return pool_.get(); }
  /// Write access; breaks sharing with any copies first. References
  /// obtained from the pool before this call stay valid until the next
  /// privatization (common::Cow's retired-generation keepalive).
  Pool& pool() { return pool_.Mutable(); }

  std::vector<WsdRelation> relations_;
  std::map<std::string, size_t> relation_by_name_;
  Cow<Pool> pool_;
};

/// Merges equal worlds, summing probabilities; worlds are compared as sets
/// of tuples per relation. The result is sorted by canonical form.
std::vector<PossibleWorld> CollapseWorlds(std::vector<PossibleWorld> worlds);

/// True if the two world-sets are the same probability distribution over
/// worlds (after collapsing), within probability tolerance `eps`.
bool WorldSetsEquivalent(std::vector<PossibleWorld> a,
                         std::vector<PossibleWorld> b, double eps = 1e-6);

/// Canonical serialization of one world (sorted relations, sorted rows) —
/// the key used by CollapseWorlds/WorldSetsEquivalent.
std::string CanonicalWorldKey(const rel::Database& db);

}  // namespace maywsd::core

#endif  // MAYWSD_CORE_WSD_H_
