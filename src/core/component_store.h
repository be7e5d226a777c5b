// The shared, interned component store: refcounted local-world payloads
// behind every Component, with lazy composition.
//
// A Component used to own its local-world matrix by value, so compose(C1,
// C2) materialized the product of the local-world sets eagerly — the
// quadratic paths the paper's 10^10^6-worlds headline argues against.
// Here the payload is a refcounted node in a composition DAG:
//
//   kLeaf      owns a row-major value matrix and a probability vector;
//   kCompose   the product of two child payloads — O(1) to record,
//              |a|·|b| local worlds when (and only when) forced;
//   kExtDup    the paper's ext(C, A, B): one appended column duplicating
//              an existing column of the child — O(1) to record;
//   kExtConst  one appended column holding a constant in every world.
//
// Reads (`at`, `prob`) force a derived node on first touch and memoize
// the materialized matrix in the node itself, so repeated enumeration
// pays once per DAG node; column predicates (has-⊥ / all-⊥ / constant)
// and probability sums evaluate structurally on the DAG without forcing
// anything. Writers go through copy-on-write: a uniquely held leaf
// mutates in place, anything shared or derived is first forced into a
// fresh private leaf.
//
// Certain singleton leaves (one world, one column, probability 1 — the
// bulk of any census-style store) are interned in a process-wide table
// keyed on the value, so a million certain fields of the same value share
// one node. The table holds raw entries that lookups revive with a
// CAS-if-nonzero increment: dropping the last Component frees the node and
// clears its entry, which keeps the leak accounting exact.
//
// Thread-safety: nodes referenced by more than one owner are immutable
// (copy-on-write guarantees it), forcing is idempotent and guarded by a
// striped mutex, and the statistics are process-global atomics — so
// sessions on different threads may share and force nodes freely. Nodes are
// refcounted intrusively (NodeRef) rather than via shared_ptr so that the
// mutate-in-place probe is a *sound* synchronization point: releases
// decrement with acq_rel, NodeRef::unique() loads with acquire, so a
// probe that observes 1 happens-after every prior owner's release — the
// guarantee shared_ptr::use_count() (a relaxed load) never gave. Sessions
// forked from one another may therefore share and release nodes from
// different threads with no lock beyond their own state locks. Mutating a
// Component still requires external synchronization, as before.

#ifndef MAYWSD_CORE_COMPONENT_STORE_H_
#define MAYWSD_CORE_COMPONENT_STORE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "rel/value.h"

namespace maywsd::core::store {

enum class NodeKind : uint8_t { kLeaf, kCompose, kExtDup, kExtConst };

struct Node;

/// Destroys `n` if this release drops the last reference; unlinks interned
/// nodes from the certain-singleton table first. Out of line so NodeRef
/// stays header-only without pulling the intern table in.
void ReleaseNode(Node* n) noexcept;

/// Intrusive refcounted handle to a Node. Copy is a relaxed increment;
/// release is an acq_rel decrement (the dropping thread deletes);
/// unique() is an acquire load — a genuine synchronization point, unlike
/// shared_ptr::use_count(). Handles themselves are externally
/// synchronized; only the *count* is contended across sessions.
class NodeRef {
 public:
  NodeRef() = default;
  NodeRef(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  /// Takes ownership of one existing reference (a freshly minted node, or
  /// a count the caller already incremented).
  static NodeRef Adopt(Node* n) {
    NodeRef r;
    r.n_ = n;
    return r;
  }

  NodeRef(const NodeRef& o) : n_(o.AcquireRaw()) {}
  NodeRef(NodeRef&& o) noexcept : n_(o.n_) { o.n_ = nullptr; }
  NodeRef& operator=(const NodeRef& o) {
    if (this != &o) {
      Node* acquired = o.AcquireRaw();
      ReleaseNode(n_);
      n_ = acquired;
    }
    return *this;
  }
  NodeRef& operator=(NodeRef&& o) noexcept {
    if (this != &o) {
      ReleaseNode(n_);
      n_ = o.n_;
      o.n_ = nullptr;
    }
    return *this;
  }
  ~NodeRef() { ReleaseNode(n_); }

  Node* get() const { return n_; }
  Node& operator*() const { return *n_; }
  Node* operator->() const { return n_; }
  explicit operator bool() const { return n_ != nullptr; }
  bool operator==(const NodeRef& o) const { return n_ == o.n_; }
  bool operator==(std::nullptr_t) const { return n_ == nullptr; }

  /// True iff this handle is the only reference. An acquire load paired
  /// with acq_rel release decrements: observing 1 happens-after every
  /// prior owner's release, so mutating in place is race-free.
  bool unique() const;

 private:
  Node* AcquireRaw() const;

  Node* n_ = nullptr;
};

using NodePtr = NodeRef;

/// One payload node of the composition DAG. `values`/`probs` are the owned
/// matrix for leaves and the memoized materialization for derived nodes
/// (valid once `ready` is set).
struct Node {
  Node(NodeKind k, size_t w, size_t n);
  ~Node();
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeKind kind;
  size_t width;   ///< column count
  size_t worlds;  ///< local-world count (known at creation for every kind)

  std::vector<rel::Value> values;  ///< row-major: world * width + col
  std::vector<double> probs;
  std::atomic<bool> ready;  ///< values/probs are valid (always for leaves)
  bool interned = false;    ///< lives in the certain-singleton table

  /// Intrusive reference count; see NodeRef for the memory-order contract.
  std::atomic<uint32_t> refs{1};

  NodePtr a, b;             ///< children (kCompose: both; ext kinds: a)
  size_t src_col = 0;       ///< kExtDup: duplicated column of `a`
  rel::Value constant;      ///< kExtConst: the appended value

  /// Cells currently charged to the live-cell counter (see Account()).
  size_t accounted_cells = 0;
};

inline bool NodeRef::unique() const {
  return n_ != nullptr && n_->refs.load(std::memory_order_acquire) == 1;
}

inline Node* NodeRef::AcquireRaw() const {
  if (n_ != nullptr) n_->refs.fetch_add(1, std::memory_order_relaxed);
  return n_;
}

/// Derived nodes whose forced matrix would stay at or under this many
/// cells are materialized eagerly: below this size a node + chain walk
/// costs more than the copy, and bounded eager steps keep per-step cost
/// O(1) for long chains (each step re-crosses the threshold at most once).
inline constexpr size_t kEagerCells = 64;

/// Process-wide accounting, surfaced through api::SessionStats.
struct StoreStats {
  uint64_t live_nodes = 0;      ///< nodes currently alive
  uint64_t live_cells = 0;      ///< materialized value cells currently alive
  uint64_t peak_cells = 0;      ///< high-water mark of live_cells
  uint64_t compose_nodes = 0;   ///< kCompose nodes ever recorded
  uint64_t ext_nodes = 0;       ///< ext nodes ever recorded
  uint64_t forced_evals = 0;    ///< derived nodes materialized
  uint64_t dedup_hits = 0;      ///< certain-singleton intern hits
  uint64_t cow_breaks = 0;      ///< shared payloads privatized for writing
};

StoreStats GetStoreStats();

/// A fresh mutable leaf with `width` columns and no worlds.
NodePtr NewLeaf(size_t width);

/// The interned certain singleton [v | 1.0]. Never mutated in place.
NodePtr CertainLeaf(const rel::Value& v);

/// Records the product of `a` and `b` (either may be null = zero worlds,
/// yielding null). O(1) beyond kEagerCells; forces eagerly below it.
NodePtr Compose(const NodePtr& a, const NodePtr& b);

/// Records ext: one appended column duplicating `src_col` of `n`.
NodePtr ExtDup(const NodePtr& n, size_t src_col);

/// Records ext with a constant column.
NodePtr ExtConst(const NodePtr& n, const rel::Value& v);

/// Materializes `n` (and whatever of its inputs the fill needs), memoizing
/// into the node. Idempotent, thread-safe. Null is a no-op.
void Force(const NodePtr& n);

/// `n`, guaranteed forced (convenience for read paths).
inline const Node& ForcedRef(const NodePtr& n) {
  if (!n->ready.load(std::memory_order_acquire)) Force(n);
  return *n;
}

/// A leaf that is safe to mutate through `n`'s owner: `n` itself when it
/// is a uniquely held non-interned leaf, otherwise a fresh private leaf
/// with the same (forced) contents. Null stays null.
NodePtr MutableLeaf(NodePtr n);

/// Re-charges `n`'s materialized cells against the live/peak counters;
/// call after growing or shrinking a mutable leaf's matrix.
void Account(Node& n);

// -- Non-forcing structural probes --------------------------------------------
//
// Column predicates used by the algebra's certain-column fast paths and by
// WsdtUpdateGuard::Analyze. They recurse over the DAG (compose delegates to
// the side that owns the column, ext resolves the appended column), so
// probing never materializes a product. All return false for null or
// zero-world nodes, matching the eager semantics.

bool ColumnHasBottom(const Node* n, size_t col);
bool ColumnAllBottom(const Node* n, size_t col);
bool ColumnConstant(const Node* n, size_t col);

/// The value a constant column holds in every local world, or null when the
/// column is not constant (or the node is null / has no worlds). The pointer
/// is valid until the owning node is mutated or destroyed.
const rel::Value* ColumnConstantValue(const Node* n, size_t col);

/// Sum of local-world probabilities, computed structurally (compose
/// multiplies the children's sums).
double ProbSum(const Node* n);

/// When set, Compose/ExtDup/ExtConst force immediately on creation — the
/// lazy-vs-eager equivalence oracle runs the same workload both ways.
void SetEagerForTesting(bool eager);
bool EagerForTesting();

}  // namespace maywsd::core::store

#endif  // MAYWSD_CORE_COMPONENT_STORE_H_
