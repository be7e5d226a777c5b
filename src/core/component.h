// Component: one factor of a world-set decomposition (Definition 1).
//
// A component is a relation over a set of fields (its columns, identified by
// FieldKey) whose rows — the paper's *local worlds* — each carry a
// probability. The world-set represented by a WSD is the product of its
// components: one local world is chosen per component, independently.
//
// The local-world payload is a refcounted handle into the shared component
// store (core/component_store.h): copying a Component shares the payload,
// Compose/ext record O(1) nodes in a composition DAG, reads force and
// memoize lazily, and writers privatize the payload copy-on-write. The
// public surface below is unchanged from the eager implementation; only
// the cost model moved. Mutating a Component still requires external
// synchronization; sharing and reading are thread-safe.

#ifndef MAYWSD_CORE_COMPONENT_H_
#define MAYWSD_CORE_COMPONENT_H_

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/component_store.h"
#include "core/field.h"
#include "rel/value.h"

namespace maywsd::core {

/// Probabilities within this tolerance of each other compare equal; a
/// component's probabilities must sum to 1 within this tolerance.
inline constexpr double kProbEpsilon = 1e-7;

/// One factor of a WSD: columns are fields, rows are local worlds.
class Component {
 public:
  Component() = default;

  /// Creates a component with the given field columns and no rows.
  explicit Component(std::vector<FieldKey> fields)
      : fields_(std::move(fields)) {}

  /// The certain singleton [value | 1.0] under `field`, interned: equal
  /// values across the store share one payload node.
  static Component Certain(const FieldKey& field, const rel::Value& value);

  size_t NumFields() const { return fields_.size(); }
  size_t NumWorlds() const { return node_ ? node_->worlds : 0; }
  bool empty() const { return NumWorlds() == 0; }

  const std::vector<FieldKey>& fields() const { return fields_; }
  const FieldKey& field(size_t col) const { return fields_[col]; }

  /// Column index of `field`, or -1.
  int FindField(const FieldKey& field) const;

  /// Appends a local world. `values` must match the field count.
  void AddWorld(std::span<const rel::Value> values, double prob);
  void AddWorld(std::initializer_list<rel::Value> values, double prob);

  /// Field value in local world `world` (forces a lazy payload).
  const rel::Value& at(size_t world, size_t col) const {
    const store::Node& n = store::ForcedRef(node_);
    return n.values[world * n.width + col];
  }
  rel::Value& at(size_t world, size_t col) {
    EnsureMutable();
    return node_->values[world * node_->width + col];
  }

  double prob(size_t world) const {
    return store::ForcedRef(node_).probs[world];
  }
  void set_prob(size_t world, double p) {
    EnsureMutable();
    node_->probs[world] = p;
  }

  /// Sum of local-world probabilities (should be 1 for a valid component).
  /// Computed structurally — never forces a lazy payload.
  double ProbSum() const { return store::ProbSum(node_.get()); }

  /// Scales all probabilities by 1/ProbSum(); fails if the sum is 0.
  Status NormalizeProbs();

  /// Appends a column that duplicates column `src_col` under a new field
  /// name — the paper's ext(C, A, B) primitive (Section 4). O(1) beyond
  /// the store's eager-materialization threshold.
  void ExtDuplicateColumn(size_t src_col, const FieldKey& new_field);

  /// Appends a column with the same value in every local world.
  void ExtConstantColumn(const FieldKey& new_field, const rel::Value& value);

  /// Appends a column with explicit per-local-world values (size must equal
  /// NumWorlds()).
  void ExtColumn(const FieldKey& new_field,
                 std::span<const rel::Value> values);

  /// The paper's compose(C1, C2): the product of the local-world sets with
  /// multiplied probabilities (Section 4). Records an O(1) DAG node; the
  /// product is materialized only when a read forces it.
  static Component Compose(const Component& a, const Component& b);

  /// Removes the columns listed in `cols` (the "project away" step of the
  /// WSD projection and normalization algorithms). Does not merge rows.
  void DropColumns(const std::vector<size_t>& cols);

  /// Keeps only the columns in `cols` (in that order).
  Component ProjectColumns(const std::vector<size_t>& cols) const;

  /// True when `other` shares this component's payload node.
  bool SharesPayloadWith(const Component& other) const {
    return node_ != nullptr && node_ == other.node_;
  }

  /// Removes local world `world` (swap-remove; order is not meaningful).
  void RemoveWorld(size_t world);

  /// Merges identical rows by summing probabilities (Figure 20, compress).
  void Compress();

  /// The paper's propagate-⊥ (Figure 12): within every local world, if any
  /// field of tuple R.tᵢ is ⊥, all fields of R.tᵢ in this component become ⊥.
  /// Probes the payload structurally first: a component with no ⊥ anywhere
  /// (or no two columns of the same tuple) returns without forcing.
  void PropagateBottom();

  /// True if every value in column `col` is ⊥. Never forces.
  bool ColumnAllBottom(size_t col) const {
    return store::ColumnAllBottom(node_.get(), col);
  }

  /// True if column `col` contains at least one ⊥. Never forces.
  bool ColumnHasBottom(size_t col) const {
    return store::ColumnHasBottom(node_.get(), col);
  }

  /// True if every value in column `col` equals the value in its first row
  /// (i.e. the field is certain). False for empty components. Never forces.
  bool ColumnConstant(size_t col) const {
    return store::ColumnConstant(node_.get(), col);
  }

  /// Renames the field of a column (δ on WSDs renames component attributes).
  void RenameField(size_t col, const FieldKey& new_field);

  std::string ToString() const;

 private:
  /// Guarantees node_ is a uniquely held mutable leaf (creating an empty
  /// one when the component has no payload yet). unique() is an acquire
  /// probe, so in-place mutation is sound even when the other owners were
  /// forked sessions releasing from other threads.
  void EnsureMutable() {
    if (node_ != nullptr && node_->kind == store::NodeKind::kLeaf &&
        !node_->interned && node_.unique()) {
      return;
    }
    PrivatizePayload();
  }
  void PrivatizePayload();

  std::vector<FieldKey> fields_;
  store::NodePtr node_;  ///< null = no local worlds
};

}  // namespace maywsd::core

#endif  // MAYWSD_CORE_COMPONENT_H_
