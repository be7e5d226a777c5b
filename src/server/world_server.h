// WorldServer: many independent Sessions behind one request API.
//
// The paper's PostgreSQL prototype was a client/server system — world-set
// relations lived in a shared database and many clients queried them. This
// subsystem reproduces that shape over the in-process engine: a WorldServer
// owns a registry of named api::Sessions (each over any of the four
// backends), serves value-typed Requests against them, and fans a batch of
// requests out over the shared worker pool (ExecuteAll). Concurrency is
// layered: the server's registry lock only guards the session map (open,
// close, lookup — held shared for the whole request so a session cannot be
// closed under an in-flight call); each Session synchronizes its own state,
// and snapshot reads (Request::Kind::kSnapshotRead) pin an MVCC view so
// they never wait behind a concurrent writer on the same session.
//
// The wire front end (protocol.h, serve_worlds.cc) is a thin layer over
// this class; tests and benches drive it directly with Requests.

#ifndef MAYWSD_SERVER_WORLD_SERVER_H_
#define MAYWSD_SERVER_WORLD_SERVER_H_

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "api/session.h"
#include "common/status.h"
#include "rel/algebra.h"
#include "rel/relation.h"
#include "rel/update.h"
#include "rel/value.h"

namespace maywsd::server {

/// One request against the server. Which fields are read depends on kind;
/// unset optional fields on a kind that needs them are InvalidArgument.
struct Request {
  enum class Kind {
    kOpenSession,   ///< open `session` over `backend`
    kCloseSession,  ///< close `session` (waits out in-flight requests on it)
    kListSessions,  ///< list open session ids
    kRegister,      ///< register `relation` in `session`
    kRun,           ///< evaluate `plan`, materializing `target` in `session`
    kApply,         ///< apply `update` to `session`
    kPossible,      ///< possible(`target`) — direct (locking) read
    kCertain,       ///< certain(`target`) — direct (locking) read
    kConfidence,    ///< conf(`tuple` in `target`)
    kSnapshotRead,  ///< possible(`target`) via a pinned MVCC snapshot
    kStats,         ///< the session's SessionStats, formatted
  };

  Kind kind = Kind::kListSessions;
  std::string session;
  api::BackendKind backend = api::BackendKind::kWsdt;  // kOpenSession
  std::optional<rel::Relation> relation;               // kRegister
  std::optional<rel::Plan> plan;                       // kRun
  std::optional<rel::UpdateOp> update;                 // kApply
  std::string target;            // output (kRun) / answer relation name
  std::vector<rel::Value> tuple;  // kConfidence
};

/// The outcome of one request. Exactly one payload field is set on success
/// (which one depends on the request kind); none on error.
struct Response {
  Status status = Status::Ok();
  std::optional<rel::Relation> relation;  ///< relational answers
  std::optional<double> number;           ///< kConfidence
  std::string text;                       ///< lists, stats, acknowledgments
};

/// Cumulative server-level counters (session-level ones live in
/// api::SessionStats, reachable via Request::Kind::kStats).
struct ServerStats {
  uint64_t requests = 0;         ///< requests executed (including failed)
  uint64_t errors = 0;           ///< requests that returned a non-OK status
  uint64_t sessions_opened = 0;  ///< kOpenSession successes
  uint64_t snapshot_reads = 0;   ///< kSnapshotRead successes
};

class WorldServer {
 public:
  /// Every session the server opens inherits `session_options` (caching
  /// policy).
  explicit WorldServer(api::SessionOptions session_options = {});

  WorldServer(const WorldServer&) = delete;
  WorldServer& operator=(const WorldServer&) = delete;

  /// Executes one request against the registry. Session-scoped kinds hold
  /// the registry lock shared for the duration of the call, so a
  /// concurrent kCloseSession waits for them to drain.
  Response Execute(const Request& request);

  /// Executes a batch concurrently over the shared worker pool, one
  /// response per request (same order). Requests against the same session
  /// serialize on that session's own lock; requests against different
  /// sessions proceed in parallel.
  std::vector<Response> ExecuteAll(const std::vector<Request>& requests);

  std::vector<std::string> SessionIds() const;
  ServerStats Stats() const;

 private:
  Response Dispatch(const Request& request);

  api::SessionOptions session_options_;
  mutable std::shared_mutex registry_mu_;
  std::map<std::string, std::unique_ptr<api::Session>> sessions_;
  mutable std::mutex stats_mu_;
  ServerStats stats_;
};

}  // namespace maywsd::server

#endif  // MAYWSD_SERVER_WORLD_SERVER_H_
