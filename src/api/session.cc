#include "api/session.h"

#include <atomic>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <unordered_map>
#include <utility>
#include <variant>

#include "core/engine/plan_driver.h"
#include "core/engine/uniform_backend.h"
#include "core/engine/update_plan.h"
#include "core/engine/urel_backend.h"
#include "core/engine/wsdt_backend.h"
#include "core/component_store.h"
#include "core/uniform.h"

namespace maywsd::api {

std::string_view BackendKindName(BackendKind kind) {
  switch (kind) {
    case BackendKind::kWsd:
      return "wsd";
    case BackendKind::kWsdt:
      return "wsdt";
    case BackendKind::kUniform:
      return "uniform";
    case BackendKind::kUrel:
      return "urel";
  }
  return "?";
}

Result<BackendKind> ParseBackendKind(std::string_view name) {
  for (BackendKind kind : {BackendKind::kWsd, BackendKind::kWsdt,
                           BackendKind::kUniform, BackendKind::kUrel}) {
    if (name == BackendKindName(kind)) return kind;
  }
  return Status::InvalidArgument("unknown backend \"" + std::string(name) +
                                 "\" (expected wsd, wsdt, uniform or urel)");
}

/// Lexicographic order over tuples via Value::Compare (a kind-ranked total
/// order), so the per-tuple cache keys distinguish any two distinct tuples
/// — including doubles that only differ past printing precision.
struct TupleLess {
  bool operator()(const std::vector<rel::Value>& a,
                  const std::vector<rel::Value>& b) const {
    if (a.size() != b.size()) return a.size() < b.size();
    return rel::TupleRef(a.data(), a.size())
               .Compare(rel::TupleRef(b.data(), b.size())) < 0;
  }
};

/// Memoized answers of one relation at one version.
struct AnswerEntry {
  std::optional<rel::Relation> possible;
  std::optional<rel::Relation> possible_conf;
  std::optional<rel::Relation> certain;
  std::map<std::vector<rel::Value>, double, TupleLess> confidence;
  std::map<std::vector<rel::Value>, bool, TupleLess> tuple_certain;
};

/// The owned representation plus its engine adapter. The variant lives in
/// a heap-allocated Rep so the adapter's pointer into it stays stable
/// across Session moves. kWsd and kWsdt both hold the Wsdt alternative.
struct Session::Rep {
  BackendKind kind;
  std::variant<core::Wsdt, rel::Database, core::Urel> data;
  std::unique_ptr<core::engine::WorldSetOps> backend;
  SessionOptions options;
  // Two-level locking, always state_mu before cache_mu:
  //  - state_mu serializes the representation itself. Mutators (Register,
  //    Drop, Run*, Apply*, mutable accessors) hold it exclusively; the
  //    const catalog/answer surface holds it shared, so reads run
  //    concurrently with each other and block only behind writers.
  //  - cache_mu guards the memoized answers, versions and counters — held
  //    only for map probes/publishes, never across backend work.
  mutable std::shared_mutex state_mu;
  mutable std::mutex cache_mu;
  mutable SessionStats stats;
  /// Reads that found a writer in flight (see
  /// SessionStats::reader_blocked_waits). Atomic: bumped before the
  /// blocking lock acquisition, so no lock protects it.
  mutable std::atomic<uint64_t> blocked_reads{0};
  std::unordered_map<std::string, uint64_t> versions;
  mutable std::unordered_map<std::string, AnswerEntry> answers;

  /// Shared (reader) lock on the representation, counting the acquisitions
  /// that had to wait behind an exclusive holder.
  std::shared_lock<std::shared_mutex> ReadLock() const {
    std::shared_lock<std::shared_mutex> lock(state_mu, std::try_to_lock);
    if (!lock.owns_lock()) {
      blocked_reads.fetch_add(1, std::memory_order_relaxed);
      lock.lock();
    }
    return lock;
  }

  /// Bumps a relation's version and forgets its memoized answers — called
  /// on every state change touching `name`.
  void Invalidate(const std::string& name) {
    std::lock_guard<std::mutex> lock(cache_mu);
    ++versions[name];
    answers.erase(name);
  }

  /// Forgets every memoized answer and bumps every known relation's
  /// version: called when a caller takes mutable access to the backend or
  /// the owned representation, which can change any relation behind the
  /// cache's back.
  void InvalidateAll() {
    std::vector<std::string> names = backend->RelationNames();
    std::lock_guard<std::mutex> lock(cache_mu);
    for (const std::string& name : names) ++versions[name];
    answers.clear();
  }
};

Session::Session(std::shared_ptr<Rep> rep) : rep_(std::move(rep)) {}
Session::~Session() = default;
Session::Session(Session&&) noexcept = default;
Session& Session::operator=(Session&&) noexcept = default;

Session Session::OpenWsdt(BackendKind kind, core::Wsdt wsdt,
                          SessionOptions options) {
  auto rep = std::make_unique<Rep>();
  rep->kind = kind;
  rep->data = std::move(wsdt);
  rep->backend = std::make_unique<core::engine::WsdtBackend>(
      std::get<core::Wsdt>(rep->data));
  rep->options = options;
  return Session(std::move(rep));
}

Result<Session> Session::Open(const core::Wsd& wsd, SessionOptions options) {
  MAYWSD_ASSIGN_OR_RETURN(core::Wsdt wsdt, core::Wsdt::FromWsd(wsd));
  return OpenWsdt(BackendKind::kWsd, std::move(wsdt), options);
}

Session Session::Open(core::Wsdt wsdt, SessionOptions options) {
  return OpenWsdt(BackendKind::kWsdt, std::move(wsdt), options);
}

Session Session::Open(rel::Database db, SessionOptions options) {
  auto rep = std::make_unique<Rep>();
  rep->kind = BackendKind::kUniform;
  rep->data = std::move(db);
  rep->backend = std::make_unique<core::engine::UniformBackend>(
      std::get<rel::Database>(rep->data));
  rep->options = options;
  return Session(std::move(rep));
}

Session Session::Open(core::Urel urel, SessionOptions options) {
  auto rep = std::make_unique<Rep>();
  rep->kind = BackendKind::kUrel;
  rep->data = std::move(urel);
  rep->backend = std::make_unique<core::engine::UrelBackend>(
      std::get<core::Urel>(rep->data));
  rep->options = options;
  return Session(std::move(rep));
}

Session Session::Open(BackendKind kind, SessionOptions options) {
  switch (kind) {
    case BackendKind::kWsd:
    case BackendKind::kWsdt:
      break;
    case BackendKind::kUniform:
      // The export of an empty WSDT is a store with empty C, F, W.
      return Open(core::ExportUniform(core::Wsdt()).value(), options);
    case BackendKind::kUrel:
      return Open(core::Urel(), options);
  }
  return OpenWsdt(kind, core::Wsdt(), options);
}

Result<Session> Session::Open(BackendKind kind, const core::Wsdt& wsdt,
                              SessionOptions options) {
  switch (kind) {
    case BackendKind::kWsd:
    case BackendKind::kWsdt:
      break;
    case BackendKind::kUniform: {
      MAYWSD_ASSIGN_OR_RETURN(rel::Database db, core::ExportUniform(wsdt));
      return Open(std::move(db), options);
    }
    case BackendKind::kUrel: {
      MAYWSD_ASSIGN_OR_RETURN(core::Urel urel, core::ExportUrel(wsdt));
      return Open(std::move(urel), options);
    }
  }
  return OpenWsdt(kind, core::Wsdt(wsdt), options);
}

BackendKind Session::kind() const { return rep_->kind; }

std::string_view Session::BackendName() const {
  return BackendKindName(rep_->kind);
}

bool Session::HasRelation(std::string_view name) const {
  auto read = rep_->ReadLock();
  return rep_->backend->HasRelation(std::string(name));
}

std::vector<std::string> Session::RelationNames() const {
  auto read = rep_->ReadLock();
  return rep_->backend->RelationNames();
}

Result<rel::Schema> Session::RelationSchema(std::string_view name) const {
  auto read = rep_->ReadLock();
  return rep_->backend->RelationSchema(std::string(name));
}

Status Session::Register(const rel::Relation& relation) {
  std::unique_lock<std::shared_mutex> write(rep_->state_mu);
  rep_->Invalidate(relation.name());
  return rep_->backend->AddCertainRelation(relation);
}

Status Session::Drop(std::string_view name) {
  std::unique_lock<std::shared_mutex> write(rep_->state_mu);
  std::string key(name);
  rep_->Invalidate(key);
  return rep_->backend->Drop(key);
}

const SessionOptions& Session::options() const { return rep_->options; }
void Session::set_options(const SessionOptions& options) {
  std::unique_lock<std::shared_mutex> write(rep_->state_mu);
  rep_->options = options;
}

SessionStats Session::Stats() const {
  auto read = rep_->ReadLock();
  std::lock_guard<std::mutex> lock(rep_->cache_mu);
  SessionStats snapshot = rep_->stats;
  snapshot.reader_blocked_waits =
      rep_->blocked_reads.load(std::memory_order_relaxed);
  snapshot.round_trips = rep_->backend->RoundTrips();
  core::store::StoreStats ss = core::store::GetStoreStats();
  snapshot.store_compose_nodes = ss.compose_nodes;
  snapshot.store_forced_evals = ss.forced_evals;
  snapshot.store_live_cells = ss.live_cells;
  snapshot.store_peak_cells = ss.peak_cells;
  snapshot.store_dedup_hits = ss.dedup_hits;
  snapshot.store_cow_breaks = ss.cow_breaks;
  return snapshot;
}

Status Session::Run(const rel::Plan& plan, const std::string& out) {
  std::unique_lock<std::shared_mutex> write(rep_->state_mu);
  rep_->stats.runs++;
  rep_->Invalidate(out);
  return core::engine::Evaluate(*rep_->backend, plan, out);
}

Status Session::RunOptimized(const rel::Plan& plan, const std::string& out) {
  // Optimize against the catalog under the reader lock, then release it
  // before Run takes the writer lock. A writer slipping in between can
  // only make the rewrite stale, never wrong — the rewritten plan is
  // re-resolved against the catalog when it executes.
  auto optimized = [&]() -> Result<rel::Plan> {
    auto read = rep_->ReadLock();
    return core::engine::OptimizeForBackend(*rep_->backend, plan);
  }();
  if (!optimized.ok()) return optimized.status();
  return Run(optimized.value(), out);
}

Status Session::RunAll(std::span<const rel::Plan> plans,
                       std::span<const std::string> outs) {
  std::unique_lock<std::shared_mutex> write(rep_->state_mu);
  rep_->stats.batches++;
  for (const std::string& out : outs) rep_->Invalidate(out);
  core::engine::BatchStats bs;
  Status st = core::engine::EvaluateBatch(*rep_->backend, plans, outs,
                                          rep_->options.cache, &bs);
  rep_->stats.cache_hits += bs.cache_hits;
  rep_->stats.cache_misses += bs.cache_misses;
  return st;
}

Status Session::Apply(const rel::UpdateOp& op) {
  std::unique_lock<std::shared_mutex> write(rep_->state_mu);
  rep_->stats.applies++;
  // Invalidate up front: a failed conditional update may still have
  // composed components, and a stale answer is worse than a recompute.
  rep_->Invalidate(op.relation());
  return core::engine::ApplyUpdate(*rep_->backend, op);
}

Status Session::ApplyAll(std::span<const rel::UpdateOp> ops) {
  std::unique_lock<std::shared_mutex> write(rep_->state_mu);
  // Counted and invalidated up front for the same reason Apply invalidates
  // eagerly: a mid-batch failure leaves earlier updates applied, and a
  // stale answer is worse than a recompute.
  rep_->stats.applies += ops.size();
  for (const rel::UpdateOp& op : ops) rep_->Invalidate(op.relation());
  core::engine::UpdateBatchStats ubs;
  Status st = core::engine::ApplyUpdates(*rep_->backend, ops, &ubs);
  {
    std::lock_guard<std::mutex> lock(rep_->cache_mu);
    rep_->stats.guard_materializations += ubs.guard_materializations;
    rep_->stats.guard_shares += ubs.guard_shares;
  }
  return st;
}

uint64_t Session::RelationVersion(std::string_view name) const {
  std::lock_guard<std::mutex> lock(rep_->cache_mu);
  auto it = rep_->versions.find(std::string(name));
  return it == rep_->versions.end() ? 0 : it->second;
}

Session Session::CowClone(SessionOptions clone_options,
                          std::unordered_map<std::string, uint64_t>* versions)
    const {
  auto read = rep_->ReadLock();
  // Representation copies are O(relations): every backend shares its bulk
  // state copy-on-write (component pools, template/uniform rows, urel
  // columns and symbols). The reader lock orders the pin against in-flight
  // writers; after that, the store's acquire/release refcounts make the
  // shared state safe without further coordination.
  std::optional<Session> clone;
  switch (rep_->kind) {
    case BackendKind::kWsd:
    case BackendKind::kWsdt:
      clone = OpenWsdt(rep_->kind, std::get<core::Wsdt>(rep_->data),
                       clone_options);
      break;
    case BackendKind::kUniform:
      clone = Open(rel::Database(std::get<rel::Database>(rep_->data)),
                   clone_options);
      break;
    case BackendKind::kUrel:
      clone = Open(core::Urel(std::get<core::Urel>(rep_->data)), clone_options);
      break;
  }
  std::lock_guard<std::mutex> lock(rep_->cache_mu);
  if (versions != nullptr) *versions = rep_->versions;
  clone->rep_->versions = rep_->versions;
  return std::move(*clone);
}

api::Snapshot Session::Snapshot() const {
  std::unordered_map<std::string, uint64_t> versions;
  Session inner = CowClone(rep_->options, &versions);
  {
    std::lock_guard<std::mutex> lock(rep_->cache_mu);
    rep_->stats.snapshots++;
  }
  return api::Snapshot(std::move(inner), std::move(versions));
}

Session Session::Fork() const {
  Session clone = CowClone(rep_->options, nullptr);
  {
    std::lock_guard<std::mutex> lock(rep_->cache_mu);
    rep_->stats.forks++;
  }
  return clone;
}

namespace {

// One memoization protocol for every cached answer getter: probe under
// cache_mu WITHOUT creating an entry, run the backend computation with the
// lock RELEASED (concurrent read-only use stays parallel; two racing
// misses both compute, first store wins), then re-take the lock to count
// the miss and publish. A failed computation touches neither the counters
// nor the map, so bad relation names cannot pollute either. Entry
// references are never held across the unlock — the map may rehash.

/// Relation-level answers (possible / possible-with-conf / certain).
template <typename Fn>
Result<rel::Relation> MemoizedRelationAnswer(
    std::mutex& mu, SessionStats& stats,
    std::unordered_map<std::string, AnswerEntry>& answers,
    const std::string& relation,
    std::optional<rel::Relation> AnswerEntry::* slot, Fn&& compute) {
  {
    std::lock_guard<std::mutex> lock(mu);
    auto it = answers.find(relation);
    if (it != answers.end() && it->second.*slot) {
      stats.answer_cache_hits++;
      return *(it->second.*slot);
    }
  }
  MAYWSD_ASSIGN_OR_RETURN(rel::Relation out, compute());
  std::lock_guard<std::mutex> lock(mu);
  stats.answer_cache_misses++;
  AnswerEntry& entry = answers[relation];
  if (!(entry.*slot)) entry.*slot = std::move(out);
  return *(entry.*slot);
}

/// Per-tuple answers (confidence / certainty).
template <typename V, typename Fn>
Result<V> MemoizedTupleAnswer(
    std::mutex& mu, SessionStats& stats,
    std::unordered_map<std::string, AnswerEntry>& answers,
    const std::string& relation,
    std::map<std::vector<rel::Value>, V, TupleLess> AnswerEntry::* slot,
    std::span<const rel::Value> tuple, Fn&& compute) {
  std::vector<rel::Value> key(tuple.begin(), tuple.end());
  {
    std::lock_guard<std::mutex> lock(mu);
    auto it = answers.find(relation);
    if (it != answers.end()) {
      auto hit = (it->second.*slot).find(key);
      if (hit != (it->second.*slot).end()) {
        stats.answer_cache_hits++;
        return hit->second;
      }
    }
  }
  MAYWSD_ASSIGN_OR_RETURN(V out, compute());
  std::lock_guard<std::mutex> lock(mu);
  stats.answer_cache_misses++;
  (answers[relation].*slot).emplace(std::move(key), out);
  return out;
}

}  // namespace

Result<rel::Relation> Session::PossibleTuples(std::string_view relation) const {
  auto read = rep_->ReadLock();
  std::string rel_name(relation);
  if (!rep_->options.cache) return rep_->backend->PossibleTuples(rel_name);
  return MemoizedRelationAnswer(
      rep_->cache_mu, rep_->stats, rep_->answers, rel_name,
      &AnswerEntry::possible,
      [&] { return rep_->backend->PossibleTuples(rel_name); });
}

Result<rel::Relation> Session::PossibleTuplesWithConfidence(
    std::string_view relation) const {
  auto read = rep_->ReadLock();
  std::string rel_name(relation);
  if (!rep_->options.cache) {
    return rep_->backend->PossibleTuplesWithConfidence(rel_name);
  }
  return MemoizedRelationAnswer(
      rep_->cache_mu, rep_->stats, rep_->answers, rel_name,
      &AnswerEntry::possible_conf,
      [&] { return rep_->backend->PossibleTuplesWithConfidence(rel_name); });
}

Result<rel::Relation> Session::CertainTuples(std::string_view relation) const {
  auto read = rep_->ReadLock();
  std::string rel_name(relation);
  if (!rep_->options.cache) return rep_->backend->CertainTuples(rel_name);
  return MemoizedRelationAnswer(
      rep_->cache_mu, rep_->stats, rep_->answers, rel_name,
      &AnswerEntry::certain,
      [&] { return rep_->backend->CertainTuples(rel_name); });
}

Result<double> Session::TupleConfidence(
    std::string_view relation, std::span<const rel::Value> tuple) const {
  auto read = rep_->ReadLock();
  std::string rel_name(relation);
  if (!rep_->options.cache) {
    return rep_->backend->TupleConfidence(rel_name, tuple);
  }
  return MemoizedTupleAnswer<double>(
      rep_->cache_mu, rep_->stats, rep_->answers, rel_name,
      &AnswerEntry::confidence, tuple,
      [&] { return rep_->backend->TupleConfidence(rel_name, tuple); });
}

Result<bool> Session::TupleCertain(std::string_view relation,
                                   std::span<const rel::Value> tuple) const {
  auto read = rep_->ReadLock();
  std::string rel_name(relation);
  if (!rep_->options.cache) {
    return rep_->backend->TupleCertain(rel_name, tuple);
  }
  return MemoizedTupleAnswer<bool>(
      rep_->cache_mu, rep_->stats, rep_->answers, rel_name,
      &AnswerEntry::tuple_certain, tuple,
      [&] { return rep_->backend->TupleCertain(rel_name, tuple); });
}

// Representation accessors hand out raw pointers, so the session's
// internal locks cannot cover the caller's accesses — concurrent use of
// the pointers still requires external synchronization against writers.
// The mutable overloads invalidate the answer surface (under the writer
// lock, so in-flight reads never see a half-invalidated cache).

core::engine::WorldSetOps& Session::ops() {
  std::unique_lock<std::shared_mutex> write(rep_->state_mu);
  // Mutable access can change any relation behind the answer cache's back.
  rep_->InvalidateAll();
  return *rep_->backend;
}
const core::engine::WorldSetOps& Session::ops() const {
  return *rep_->backend;
}

core::Wsdt* Session::wsdt() {
  std::unique_lock<std::shared_mutex> write(rep_->state_mu);
  rep_->InvalidateAll();
  return std::get_if<core::Wsdt>(&rep_->data);
}
const core::Wsdt* Session::wsdt() const {
  return std::get_if<core::Wsdt>(&rep_->data);
}
rel::Database* Session::uniform() {
  std::unique_lock<std::shared_mutex> write(rep_->state_mu);
  rep_->InvalidateAll();
  return std::get_if<rel::Database>(&rep_->data);
}
const rel::Database* Session::uniform() const {
  return std::get_if<rel::Database>(&rep_->data);
}
core::Urel* Session::urel() {
  std::unique_lock<std::shared_mutex> write(rep_->state_mu);
  rep_->InvalidateAll();
  return std::get_if<core::Urel>(&rep_->data);
}
const core::Urel* Session::urel() const {
  return std::get_if<core::Urel>(&rep_->data);
}

// -- Snapshot -----------------------------------------------------------------

Snapshot::Snapshot(Session session,
                   std::unordered_map<std::string, uint64_t> versions)
    : session_(std::move(session)), versions_(std::move(versions)) {}

// Teardown needs no coordination with the parent session: the private copy
// shares copy-on-write state with it (component pools and payload nodes,
// relation rows, urel symbols), but every shared handle releases through
// an acq_rel refcount decrement, and the parent's mutate-in-place probes
// are acquire loads — a probe that observes uniqueness happens-after this
// snapshot's release, reads included. (Under the old shared_ptr scheme the
// probe was a relaxed use_count() and teardown had to hide behind the
// parent's reader lock.)
Snapshot::~Snapshot() = default;

Snapshot& Snapshot::operator=(Snapshot&& other) noexcept {
  if (this != &other) {
    session_ = std::move(other.session_);
    versions_ = std::move(other.versions_);
  }
  return *this;
}

BackendKind Snapshot::kind() const { return session_.kind(); }
std::string_view Snapshot::BackendName() const {
  return session_.BackendName();
}

bool Snapshot::HasRelation(std::string_view name) const {
  return session_.HasRelation(name);
}
std::vector<std::string> Snapshot::RelationNames() const {
  return session_.RelationNames();
}
Result<rel::Schema> Snapshot::RelationSchema(std::string_view name) const {
  return session_.RelationSchema(name);
}

uint64_t Snapshot::RelationVersion(std::string_view name) const {
  auto it = versions_.find(std::string(name));
  if (it != versions_.end()) return it->second;
  return session_.RelationVersion(name);
}

const std::unordered_map<std::string, uint64_t>& Snapshot::Versions() const {
  return versions_;
}

Result<rel::Relation> Snapshot::PossibleTuples(
    std::string_view relation) const {
  return session_.PossibleTuples(relation);
}
Result<rel::Relation> Snapshot::PossibleTuplesWithConfidence(
    std::string_view relation) const {
  return session_.PossibleTuplesWithConfidence(relation);
}
Result<rel::Relation> Snapshot::CertainTuples(
    std::string_view relation) const {
  return session_.CertainTuples(relation);
}
Result<double> Snapshot::TupleConfidence(
    std::string_view relation, std::span<const rel::Value> tuple) const {
  return session_.TupleConfidence(relation, tuple);
}
Result<bool> Snapshot::TupleCertain(std::string_view relation,
                                    std::span<const rel::Value> tuple) const {
  return session_.TupleCertain(relation, tuple);
}

Status Snapshot::Run(const rel::Plan& plan, const std::string& out) {
  // Fresh names only: a snapshot's pinned catalog is immutable by
  // contract — Run may only add snapshot-local derived relations.
  if (session_.HasRelation(out)) {
    return Status::AlreadyExists("snapshot relation " + out);
  }
  return session_.Run(plan, out);
}

SessionStats Snapshot::Stats() const { return session_.Stats(); }

}  // namespace maywsd::api
