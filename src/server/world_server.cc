#include "server/world_server.h"

#include <functional>
#include <sstream>
#include <utility>

#include "core/engine/parallel.h"

namespace maywsd::server {

namespace {

std::string FormatSessionStats(const api::SessionStats& s) {
  std::ostringstream os;
  os << "runs=" << s.runs << " applies=" << s.applies
     << " snapshots=" << s.snapshots << " forks=" << s.forks
     << " reader_blocked_waits=" << s.reader_blocked_waits
     << " answer_cache_hits=" << s.answer_cache_hits
     << " answer_cache_misses=" << s.answer_cache_misses;
  return os.str();
}

}  // namespace

WorldServer::WorldServer(api::SessionOptions session_options)
    : session_options_(session_options) {}

Response WorldServer::Execute(const Request& request) {
  Response resp = Dispatch(request);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.requests++;
    if (!resp.status.ok()) stats_.errors++;
    if (resp.status.ok()) {
      if (request.kind == Request::Kind::kOpenSession) stats_.sessions_opened++;
      if (request.kind == Request::Kind::kSnapshotRead) stats_.snapshot_reads++;
    }
  }
  return resp;
}

std::vector<Response> WorldServer::ExecuteAll(
    const std::vector<Request>& requests) {
  std::vector<Response> responses(requests.size());
  std::vector<std::function<Status()>> tasks;
  tasks.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    tasks.push_back([this, &requests, &responses, i] {
      responses[i] = Execute(requests[i]);
      return Status::Ok();  // per-request status travels in the Response
    });
  }
  core::engine::ThreadPool::Shared().RunAll(tasks);
  return responses;
}

std::vector<std::string> WorldServer::SessionIds() const {
  std::shared_lock<std::shared_mutex> lock(registry_mu_);
  std::vector<std::string> ids;
  ids.reserve(sessions_.size());
  for (const auto& [id, _] : sessions_) ids.push_back(id);
  return ids;
}

ServerStats WorldServer::Stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

Response WorldServer::Dispatch(const Request& request) {
  Response resp;
  switch (request.kind) {
    case Request::Kind::kOpenSession: {
      if (request.session.empty()) {
        resp.status = Status::InvalidArgument("open: empty session id");
        return resp;
      }
      std::unique_lock<std::shared_mutex> lock(registry_mu_);
      if (sessions_.count(request.session) != 0) {
        resp.status =
            Status::AlreadyExists("session " + request.session + " is open");
        return resp;
      }
      sessions_.emplace(request.session,
                        std::make_unique<api::Session>(api::Session::Open(
                            request.backend, session_options_)));
      resp.text = "opened " + request.session + " over " +
                  std::string(api::BackendKindName(request.backend));
      return resp;
    }
    case Request::Kind::kCloseSession: {
      // Exclusive: waits for every in-flight request on any session to
      // drain (they hold the registry lock shared) before destroying.
      std::unique_lock<std::shared_mutex> lock(registry_mu_);
      if (sessions_.erase(request.session) == 0) {
        resp.status = Status::NotFound("session " + request.session);
        return resp;
      }
      resp.text = "closed " + request.session;
      return resp;
    }
    case Request::Kind::kListSessions: {
      std::shared_lock<std::shared_mutex> lock(registry_mu_);
      std::string out;
      for (const auto& [id, session] : sessions_) {
        if (!out.empty()) out += ' ';
        out += id + ':' + std::string(session->BackendName());
      }
      resp.text = std::move(out);
      return resp;
    }
    default:
      break;
  }

  // Session-scoped request: hold the registry shared so kCloseSession
  // cannot destroy the session mid-call. The Session synchronizes itself.
  std::shared_lock<std::shared_mutex> lock(registry_mu_);
  auto it = sessions_.find(request.session);
  if (it == sessions_.end()) {
    resp.status = Status::NotFound("session " + request.session);
    return resp;
  }
  api::Session& session = *it->second;
  switch (request.kind) {
    case Request::Kind::kRegister:
      resp.status = request.relation.has_value()
                        ? session.Register(*request.relation)
                        : Status::InvalidArgument("register: no relation");
      if (resp.status.ok()) {
        resp.text = "registered " + request.relation->name();
      }
      return resp;
    case Request::Kind::kRun:
      if (!request.plan.has_value()) {
        resp.status = Status::InvalidArgument("run: no plan");
        return resp;
      }
      resp.status = session.Run(*request.plan, request.target);
      if (resp.status.ok()) resp.text = "materialized " + request.target;
      return resp;
    case Request::Kind::kApply:
      resp.status = request.update.has_value()
                        ? session.Apply(*request.update)
                        : Status::InvalidArgument("apply: no update");
      if (resp.status.ok()) resp.text = "applied to " + request.update->relation();
      return resp;
    case Request::Kind::kPossible: {
      auto r = session.PossibleTuples(request.target);
      if (r.ok()) {
        resp.relation = std::move(r.value());
      } else {
        resp.status = r.status();
      }
      return resp;
    }
    case Request::Kind::kCertain: {
      auto r = session.CertainTuples(request.target);
      if (r.ok()) {
        resp.relation = std::move(r.value());
      } else {
        resp.status = r.status();
      }
      return resp;
    }
    case Request::Kind::kConfidence: {
      auto r = session.TupleConfidence(request.target, request.tuple);
      if (r.ok()) {
        resp.number = r.value();
      } else {
        resp.status = r.status();
      }
      return resp;
    }
    case Request::Kind::kSnapshotRead: {
      // Pin an MVCC view, answer from the private copy: never blocks
      // behind (or observes) a writer applying updates to this session.
      // Repinning per request is O(relations) — the snapshot is a
      // copy-on-write clone of the store, not a data copy.
      api::Snapshot snapshot = session.Snapshot();
      auto r = snapshot.PossibleTuples(request.target);
      if (r.ok()) {
        resp.relation = std::move(r.value());
      } else {
        resp.status = r.status();
      }
      return resp;
    }
    case Request::Kind::kStats:
      resp.text = FormatSessionStats(session.Stats());
      return resp;
    case Request::Kind::kOpenSession:
    case Request::Kind::kCloseSession:
    case Request::Kind::kListSessions:
      break;  // handled above
  }
  resp.status = Status::Internal("unhandled request kind");
  return resp;
}

}  // namespace maywsd::server
