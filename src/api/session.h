// Session: the one front door of the query engine.
//
// The paper's central claim is that one relational algebra (Figure 9) runs
// over interchangeable representations of incomplete information — WSDs
// (Section 4), WSDTs/UWSDTs (Section 5), the C/F/W uniform relational
// encoding the PostgreSQL prototype stored (Section 3, Figure 8), and the
// columnar U-relations of the authors' follow-up work (core/urel.h). A
// Session makes that claim an API: open it over any representation with
// Session::Open (backends are data — a BackendKind value — not method
// names), register base relations, run rel::Plans through the shared
// engine driver (scratch lifecycle managed), and ask the Section 6
// answer-side questions — PossibleTuples, CertainTuples, TupleConfidence —
// through one interface regardless of which backend holds the data.
//
// The WSD family runs on one algebra. Section 5 defines a WSDT as a WSD
// plus template relations holding what every world agrees on, so a kWsd
// session adopts its Section 4 decomposition at the edge (Wsdt::FromWsd)
// and from then on holds a Wsdt: every operator, update and answer runs
// through the WSDT backend, exactly as on kWsdt. The kind stays a tag — it
// names what the caller handed in — and core::Wsd stays the Section 4 data
// type and oracle (chase, or-sets, normalization, world enumeration,
// confidence) below the facade.
//
// Evaluation is sequential: Run, RunAll, Apply and ApplyAll execute on the
// calling thread, one operator at a time, whatever SessionOptions::threads
// says (Figure 30's claim is that a query costs about one world,
// sequentially).
//
// Representation-level tooling (chase, normalization, statistics, or-set
// noise) stays below the facade; wsdt()/uniform()/urel() expose the owned
// representation for it. The historical per-representation entry points
// (WsdtEvaluate*, confidence.h, wsdt_confidence.h) remain as thin
// compatibility shims over the same engine code.
//
// Concurrency: a Session is internally synchronized. Mutators (Register,
// Drop, Run*, Apply*, the mutable representation accessors) serialize
// behind a writer lock; the const catalog and answer surface runs under a
// shared reader lock and counts every read that had to wait behind an
// in-flight writer (SessionStats::reader_blocked_waits). Readers that must
// never wait take a Snapshot() — an immutable read view pinned to the
// per-relation version vector at creation time. Pinning is O(relations),
// not O(data): every backend store shares its bulk state copy-on-write
// (component payloads and pools, template and uniform rows, urel columns
// and symbols), and the first write on either side privatizes only what it
// touches. Fork() hands out the same cheap clone as a fully writable
// independent Session.

#ifndef MAYWSD_API_SESSION_H_
#define MAYWSD_API_SESSION_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/engine/world_set_ops.h"
#include "core/urel.h"
#include "core/wsd.h"
#include "core/wsdt.h"
#include "rel/algebra.h"
#include "rel/database.h"
#include "rel/relation.h"
#include "rel/update.h"

namespace maywsd::api {

/// The representation a Session runs over.
enum class BackendKind { kWsd, kWsdt, kUniform, kUrel };

/// "wsd" / "wsdt" / "uniform" / "urel".
std::string_view BackendKindName(BackendKind kind);

/// Parses a backend tag ("wsd", "wsdt", "uniform", "urel" — the
/// BackendKindName spellings) for --backend= style flags; InvalidArgument
/// on anything else, listing the accepted spellings.
Result<BackendKind> ParseBackendKind(std::string_view name);

/// Execution policy of a Session.
struct SessionOptions {
  /// Accepted and ignored: Run and ApplyAll always evaluate sequentially.
  /// Kept so existing callers that set it still compile.
  int threads = 1;
  /// Caching: common subplans across a RunAll workload, and the memoized
  /// answer surface (PossibleTuples/CertainTuples/TupleConfidence per
  /// relation version, invalidated by Apply).
  bool cache = true;
};

/// Cumulative execution counters of a Session (see Stats()).
struct SessionStats {
  uint64_t runs = 0;           ///< Run/RunOptimized calls
  /// Always 0: no run fans out. Kept for existing readers of the field.
  uint64_t sharded_runs = 0;
  /// Always 0: no run fans out, so none falls back. Kept for existing
  /// readers of the field.
  uint64_t fallback_runs = 0;
  uint64_t batches = 0;        ///< RunAll calls
  uint64_t cache_hits = 0;     ///< RunAll subplan-cache hits
  uint64_t cache_misses = 0;   ///< RunAll subplan-cache misses
  uint64_t applies = 0;          ///< Apply/ApplyAll update operations
  uint64_t snapshots = 0;        ///< Snapshot() views taken
  uint64_t forks = 0;            ///< Fork() clones taken
  /// Reads (answer surface, Stats, Snapshot) that had to wait behind an
  /// in-flight writer holding the session's state lock. Always 0 on a
  /// Snapshot's own stats: no writer ever touches a snapshot's private
  /// copy.
  uint64_t reader_blocked_waits = 0;
  uint64_t answer_cache_hits = 0;    ///< memoized answer-surface hits
  uint64_t answer_cache_misses = 0;  ///< memoized answer-surface misses
  /// ApplyAll guard sharing: world conditions actually evaluated + copied
  /// versus updates served by a batch-cached guard (structurally equal
  /// conditions share one materialization until an applied update mutates
  /// a relation the condition reads).
  uint64_t guard_materializations = 0;
  uint64_t guard_shares = 0;
  /// Import → template semantics → export round trips the backend paid for
  /// operators outside its native fragment (urel, past its expansion cap;
  /// always 0 for wsd, wsdt and uniform).
  uint64_t round_trips = 0;
  /// Interned component-store counters, snapshotted from the process-wide
  /// store at Stats() time (the store is shared by every session in the
  /// process — benches diff two snapshots around a workload).
  uint64_t store_compose_nodes = 0;  ///< lazy compose DAG nodes recorded
  uint64_t store_forced_evals = 0;   ///< derived nodes actually materialized
  uint64_t store_live_cells = 0;     ///< value cells currently materialized
  uint64_t store_peak_cells = 0;     ///< high-water mark of live cells
  uint64_t store_dedup_hits = 0;     ///< certain-singleton intern hits
  uint64_t store_cow_breaks = 0;     ///< shared payloads privatized
};

class Snapshot;

/// A query session over one world-set representation.
class Session {
 public:
  // -- Opening a session ----------------------------------------------------
  //
  // One factory, backends as data: Open(kind) starts empty, the
  // adopt-existing overloads wrap a representation you already built, and
  // Open(kind, wsdt) converts a WSDT into any backend's encoding. Adding a
  // backend adds a BackendKind value, not a factory name.

  /// Over an empty store of the given kind.
  static Session Open(BackendKind kind, SessionOptions options = {});

  /// Over an existing Section 4 world-set decomposition (kind kWsd),
  /// adopted as its WSDT (Wsdt::FromWsd). A malformed decomposition — one
  /// FromWsd rejects, e.g. a partially covered tuple slot — comes back as
  /// that error.
  static Result<Session> Open(const core::Wsd& wsd,
                              SessionOptions options = {});

  /// Over an existing Section 5 template decomposition.
  static Session Open(core::Wsdt wsdt, SessionOptions options = {});

  /// Over an existing uniform store (templates with a leading __TID column
  /// plus the C, F, W system relations).
  static Session Open(rel::Database db, SessionOptions options = {});

  /// Over an existing columnar U-relations store.
  static Session Open(core::Urel urel, SessionOptions options = {});

  /// Over the `kind` encoding of an existing WSDT (kWsd and kWsdt by
  /// copy-on-write copy, kUniform via ExportUniform, kUrel via ExportUrel).
  static Result<Session> Open(BackendKind kind, const core::Wsdt& wsdt,
                              SessionOptions options = {});

  ~Session();
  Session(Session&&) noexcept;
  Session& operator=(Session&&) noexcept;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  BackendKind kind() const;
  /// BackendKindName(kind()): "wsd", "wsdt", "uniform" or "urel".
  std::string_view BackendName() const;

  // -- Execution policy ------------------------------------------------------

  const SessionOptions& options() const;
  void set_options(const SessionOptions& options);

  /// Cumulative execution counters (runs, cache hits, representation
  /// round trips). Returns a snapshot by value — safe against concurrent
  /// const getters updating the answer-cache counters.
  SessionStats Stats() const;

  // -- Catalog --------------------------------------------------------------

  bool HasRelation(std::string_view name) const;
  std::vector<std::string> RelationNames() const;
  Result<rel::Schema> RelationSchema(std::string_view name) const;

  /// Registers a fully certain base relation under its name (equal in
  /// every world). Uncertainty is introduced below the facade — or-sets,
  /// noise injection, chase — against the owned representation.
  Status Register(const rel::Relation& relation);

  Status Drop(std::string_view name);

  // -- Query evaluation -----------------------------------------------------

  /// Evaluates `plan` through the shared engine driver, adding the result
  /// under `out`. Scratch relations are dropped on every path.
  Status Run(const rel::Plan& plan, const std::string& out);

  /// Runs the Section 5 logical optimizations against the session catalog
  /// first, then evaluates the rewritten plan.
  Status RunOptimized(const rel::Plan& plan, const std::string& out);

  /// Evaluates a workload of plans in order, `plans[i]` materializing
  /// under `outs[i]`, sharing one scratch lifecycle; common subplans
  /// across the workload are evaluated once (options().cache). Later
  /// plans may scan earlier outputs. On error, outputs already
  /// materialized remain.
  Status RunAll(std::span<const rel::Plan> plans,
                std::span<const std::string> outs);

  // -- Updates --------------------------------------------------------------

  /// Applies one update — insert, delete or conditional modify, optionally
  /// world-conditional — through the engine's update driver. Mutates the
  /// owned representation in place, bumps the target relation's version
  /// and invalidates its memoized answers (and, on the next RunAll, any
  /// subplan cache is rebuilt — it never outlives one batch).
  Status Apply(const rel::UpdateOp& op);

  /// Applies a workload of updates in order; stops at the first error
  /// (already-applied updates remain — updates are not transactional).
  /// Structurally equal world conditions share one guard materialization
  /// (engine::ApplyUpdates).
  Status ApplyAll(std::span<const rel::UpdateOp> ops);

  /// Monotonic per-relation version: bumped by Register, Apply, Drop and
  /// by Run/RunAll materializing the relation. Keys the answer cache.
  uint64_t RelationVersion(std::string_view name) const;

  // -- Snapshot reads (MVCC) ------------------------------------------------

  /// Pins an immutable read view: an O(relations) copy-on-write clone of
  /// the representation (component pools, template and uniform rows, urel
  /// columns and symbols are all shared handles; nothing that scales with
  /// the data is copied) plus the per-relation version vector at creation
  /// time. Reads on the returned Snapshot never block behind and never
  /// observe a later Apply/Run on this session. Taking the snapshot
  /// itself briefly holds the reader lock (counted in
  /// reader_blocked_waits when it had to wait).
  api::Snapshot Snapshot() const;

  /// Clones this session into an independent, fully writable Session — the
  /// same O(relations) copy-on-write pin Snapshot() takes (options and the
  /// per-relation versions carry over; stats and caches start fresh).
  /// Writes on either side privatize only the relation they touch; neither
  /// side ever observes the other's mutations. Teardown needs no
  /// coordination with the parent: the store's refcount discipline
  /// (acquire/release intrusive counts) makes cross-session release safe
  /// from any thread.
  Session Fork() const;

  // -- Answers (Section 6) --------------------------------------------------
  //
  // With options().cache, answers are memoized per (relation, version) and
  // served from the cache until an Apply/Run invalidates the relation;
  // Stats() exposes the hit/miss counters.

  /// possible(R): tuples appearing in at least one world.
  Result<rel::Relation> PossibleTuples(std::string_view relation) const;

  /// possibleᵖ(R): possible tuples with a trailing "conf" column.
  Result<rel::Relation> PossibleTuplesWithConfidence(
      std::string_view relation) const;

  /// certain(R): tuples occurring in every world.
  Result<rel::Relation> CertainTuples(std::string_view relation) const;

  /// conf(t): probability that `tuple` ∈ R in a random world.
  Result<double> TupleConfidence(std::string_view relation,
                                 std::span<const rel::Value> tuple) const;

  /// certain(t): true iff conf(t) = 1.
  Result<bool> TupleCertain(std::string_view relation,
                            std::span<const rel::Value> tuple) const;

  // -- Representation access ------------------------------------------------
  //
  // Taking MUTABLE access through any accessor below drops the whole
  // memoized answer surface (the cache cannot see what you change); the
  // const overloads leave it intact.

  /// The engine backend (for code driving WorldSetOps directly).
  core::engine::WorldSetOps& ops();
  const core::engine::WorldSetOps& ops() const;

  /// The owned representation; non-null only for the matching kind()
  /// (wsdt() for both kWsd and kWsdt).
  core::Wsdt* wsdt();
  const core::Wsdt* wsdt() const;
  rel::Database* uniform();
  const rel::Database* uniform() const;
  core::Urel* urel();
  const core::Urel* urel() const;

 private:
  struct Rep;
  friend class Snapshot;
  explicit Session(std::shared_ptr<Rep> rep);

  /// Over `wsdt` through the WSDT backend, tagged `kind` (kWsd or kWsdt).
  static Session OpenWsdt(BackendKind kind, core::Wsdt wsdt,
                          SessionOptions options);

  /// Clone backing Snapshot()/Fork(): O(relations) COW copy of the
  /// representation plus the version vector, taken under the reader lock.
  Session CowClone(SessionOptions clone_options,
                   std::unordered_map<std::string, uint64_t>* versions) const;

  std::shared_ptr<Rep> rep_;
};

/// An immutable MVCC read view of a Session (see Session::Snapshot()).
///
/// A Snapshot owns a private copy of the parent's representation and the
/// version vector that was current when it was taken. Its answer surface
/// mirrors the Session's, but no writer can ever touch the private copy:
/// reads here never wait (the snapshot's own
/// SessionStats::reader_blocked_waits is 0 by construction) and never see
/// a later update. Run materializes only inside the snapshot — the parent
/// session never observes snapshot-local relations.
///
/// The private copy *shares* copy-on-write state with the parent (the
/// component pool, template and uniform rows, urel columns and symbols);
/// writers privatize before mutating, so sharing is never observable.
/// Teardown is lock-free and independent of the parent — every shared
/// handle releases through acquire/release refcounts whose uniqueness
/// probes are genuine synchronization points, so a snapshot may outlive
/// its session and die on any thread.
class Snapshot {
 public:
  ~Snapshot();
  Snapshot(Snapshot&&) noexcept = default;
  Snapshot& operator=(Snapshot&&) noexcept;

  BackendKind kind() const;
  std::string_view BackendName() const;

  // -- Catalog (of the pinned view) -----------------------------------------

  bool HasRelation(std::string_view name) const;
  std::vector<std::string> RelationNames() const;
  Result<rel::Schema> RelationSchema(std::string_view name) const;

  /// The pinned version of `name` — what Session::RelationVersion returned
  /// when the snapshot was taken. Relations materialized inside the
  /// snapshot by Run report the snapshot-local version instead.
  uint64_t RelationVersion(std::string_view name) const;

  /// The whole pinned version vector.
  const std::unordered_map<std::string, uint64_t>& Versions() const;

  // -- Answers --------------------------------------------------------------

  Result<rel::Relation> PossibleTuples(std::string_view relation) const;
  Result<rel::Relation> PossibleTuplesWithConfidence(
      std::string_view relation) const;
  Result<rel::Relation> CertainTuples(std::string_view relation) const;
  Result<double> TupleConfidence(std::string_view relation,
                                 std::span<const rel::Value> tuple) const;
  Result<bool> TupleCertain(std::string_view relation,
                            std::span<const rel::Value> tuple) const;

  /// Evaluates `plan` against the pinned view, materializing `out` inside
  /// the snapshot only. `out` must be a fresh name: a snapshot never
  /// replaces a pinned relation.
  Status Run(const rel::Plan& plan, const std::string& out);

  /// Counters of the snapshot's private session; reader_blocked_waits is
  /// structurally 0.
  SessionStats Stats() const;

 private:
  friend class Session;
  Snapshot(Session session,
           std::unordered_map<std::string, uint64_t> versions);

  Session session_;
  std::unordered_map<std::string, uint64_t> versions_;
};

}  // namespace maywsd::api

#endif  // MAYWSD_API_SESSION_H_
