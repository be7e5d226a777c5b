#include "belief/belief.h"

#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "rel/predicate.h"
#include "rel/relation.h"
#include "rel/schema.h"
#include "rel/value.h"

namespace maywsd::belief {
namespace {

using rel::Plan;
using rel::Predicate;
using rel::UpdateOp;
using rel::Value;

/// P(alive) below this mass counts as "every world eliminated" — the
/// conditional-probability denominator would be numerically meaningless.
constexpr double kDeadMass = 1e-9;

rel::Relation MarkerRelation(const char* name, const char* attr) {
  rel::Relation r(rel::Schema{{attr, rel::AttrType::kInt}}, name);
  r.AppendRow({Value::Int(0)});
  return r;
}

std::string TupleKey(std::span<const Value> tuple) {
  std::string key;
  for (const Value& v : tuple) {
    v.AppendTo(key);
    key += '\x1f';
  }
  return key;
}

}  // namespace

std::vector<UpdateOp> ObservationOps(const Plan& fact) {
  // The marker dies exactly in the worlds where `fact` has no witness:
  // delete-all-of-obs guarded by  unit − π_{__UNIT}(fact × unit),
  // which is non-empty precisely in the fact-violating worlds. Dead worlds
  // are unaffected (their marker is already gone).
  Plan unit = Plan::Scan(kUnitRelation);
  Plan witnessed = Plan::Project({kUnitAttr}, Plan::Product(fact, unit));
  Plan eliminated = Plan::Difference(unit, witnessed);
  std::vector<UpdateOp> ops;
  ops.push_back(UpdateOp::DeleteWhere(kAliveRelation, Predicate::True())
                    .When(eliminated));
  return ops;
}

namespace internal {

/// The per-session half of an Agent or Successor: the owned Session, the
/// version-stamped witness-relation cache, and the belief-layer counters.
/// One mutex serializes everything per state; cross-state work (other
/// agents, the Game successor cache) never nests inside it.
class KnowledgeState {
 public:
  explicit KnowledgeState(api::Session session)
      : session_(std::move(session)) {}

  api::Session& session() { return session_; }
  const api::Session& session() const { return session_; }

  /// Registers the alive/unit markers when absent and drops any reserved
  /// witness relations inherited from a parent session (a forked successor
  /// starts with fresh bookkeeping, so inherited materializations are
  /// unreachable garbage and their names must be freed for reuse).
  Status Init() {
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::string& name : session_.RelationNames()) {
      if (name.rfind(kDerivedPrefix, 0) == 0) {
        MAYWSD_RETURN_IF_ERROR(session_.Drop(name));
      }
    }
    MAYWSD_RETURN_IF_ERROR(EnsureMarker(kAliveRelation, kAliveAttr));
    return EnsureMarker(kUnitRelation, kUnitAttr);
  }

  Status Observe(std::span<const UpdateOp> ops) {
    std::lock_guard<std::mutex> lock(mu_);
    MAYWSD_RETURN_IF_ERROR(session_.ApplyAll(ops));
    ++observes_;
    applies_ += ops.size();
    return Status::Ok();
  }

  /// A game step or successor expansion: same application, not counted as
  /// an observation.
  Status Apply(std::span<const UpdateOp> ops) {
    std::lock_guard<std::mutex> lock(mu_);
    MAYWSD_RETURN_IF_ERROR(session_.ApplyAll(ops));
    applies_ += ops.size();
    return Status::Ok();
  }

  Result<bool> Knows(std::string_view relation,
                     std::span<const Value> tuple) {
    std::lock_guard<std::mutex> lock(mu_);
    ++knowledge_queries_;
    MAYWSD_ASSIGN_OR_RETURN(Predicate match,
                            MatchPredicateLocked(relation, tuple));
    // Non-empty in a world  ⟺  the world is alive and lacks t: Knows is
    // the emptiness of its possible answer. Exact — no float thresholds.
    Plan has_t = Plan::Project(
        {kUnitAttr},
        Plan::Product(Plan::Select(match, Plan::Scan(std::string(relation))),
                      Plan::Scan(kUnitRelation)));
    Plan missing_t = Plan::Difference(Plan::Scan(kUnitRelation), has_t);
    Plan bad = Plan::Project(
        {kUnitAttr}, Plan::Product(missing_t, Plan::Scan(kAliveRelation)));
    MAYWSD_ASSIGN_OR_RETURN(
        std::string witness,
        EnsureDerivedLocked("knows:" + std::string(relation) + ":" +
                                TupleKey(tuple),
                            relation, bad));
    MAYWSD_ASSIGN_OR_RETURN(rel::Relation possible,
                            session_.PossibleTuples(witness));
    return possible.empty();
  }

  Result<bool> ConsidersPossible(std::string_view relation,
                                 std::span<const Value> tuple) {
    std::lock_guard<std::mutex> lock(mu_);
    ++knowledge_queries_;
    MAYWSD_ASSIGN_OR_RETURN(rel::Schema schema,
                            session_.RelationSchema(relation));
    if (tuple.size() != schema.arity()) {
      return Status::InvalidArgument("tuple arity does not match relation '" +
                                     std::string(relation) + "'");
    }
    MAYWSD_ASSIGN_OR_RETURN(std::string live, EnsureLiveLocked(relation));
    MAYWSD_ASSIGN_OR_RETURN(rel::Relation possible,
                            session_.PossibleTuples(live));
    return possible.ContainsRow(tuple);
  }

  Result<double> Confidence(std::string_view relation,
                            std::span<const Value> tuple) {
    std::lock_guard<std::mutex> lock(mu_);
    ++knowledge_queries_;
    return ConfidenceLocked(relation, tuple);
  }

  Result<bool> Believes(std::string_view relation,
                        std::span<const Value> tuple, double threshold) {
    std::lock_guard<std::mutex> lock(mu_);
    ++knowledge_queries_;
    MAYWSD_ASSIGN_OR_RETURN(double conf, ConfidenceLocked(relation, tuple));
    return conf >= threshold;
  }

  BeliefStats Stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    BeliefStats s;
    s.observes = observes_;
    s.applies = applies_;
    s.knowledge_queries = knowledge_queries_;
    s.knowledge_cache_hits = knowledge_cache_hits_;
    s.knowledge_cache_misses = knowledge_cache_misses_;
    api::SessionStats ss = session_.Stats();
    s.answer_cache_hits = ss.answer_cache_hits;
    s.answer_cache_misses = ss.answer_cache_misses;
    return s;
  }

 private:
  struct DerivedEntry {
    std::string name;
    uint64_t base_version = 0;
    uint64_t alive_version = 0;
  };

  Status EnsureMarker(const char* name, const char* attr) {
    if (session_.HasRelation(name)) {
      MAYWSD_ASSIGN_OR_RETURN(rel::Schema schema,
                              session_.RelationSchema(name));
      if (schema.arity() != 1 || schema.attr(0).name_view() != attr) {
        return Status::InvalidArgument(
            std::string("relation '") + name +
            "' exists with a schema other than the reserved belief marker");
      }
      return Status::Ok();
    }
    return session_.Register(MarkerRelation(name, attr));
  }

  /// Materializes `plan` once per (base relation version, alive version)
  /// under a reserved name and reuses it until either input changes, so
  /// repeated questions hit the Session's memoized answer surface.
  Result<std::string> EnsureDerivedLocked(const std::string& key,
                                          std::string_view base_relation,
                                          const Plan& plan) {
    const uint64_t base_version = session_.RelationVersion(base_relation);
    const uint64_t alive_version = session_.RelationVersion(kAliveRelation);
    auto it = derived_.find(key);
    if (it != derived_.end() && it->second.base_version == base_version &&
        it->second.alive_version == alive_version &&
        session_.HasRelation(it->second.name)) {
      ++knowledge_cache_hits_;
      return it->second.name;
    }
    ++knowledge_cache_misses_;
    // A stale witness gives its name to its successor, so an agent interns
    // one name per question however often it re-materializes.
    std::string name;
    if (it != derived_.end()) {
      if (session_.HasRelation(it->second.name)) {
        MAYWSD_RETURN_IF_ERROR(session_.Drop(it->second.name));
      }
      name = it->second.name;
    } else {
      do {
        name = std::string(kDerivedPrefix) + std::to_string(next_id_++);
      } while (session_.HasRelation(name));
    }
    MAYWSD_RETURN_IF_ERROR(session_.Run(plan, name));
    derived_[key] = DerivedEntry{name, base_version, alive_version};
    return name;
  }

  /// R restricted to alive worlds (empty wherever the marker is gone).
  Result<std::string> EnsureLiveLocked(std::string_view relation) {
    MAYWSD_ASSIGN_OR_RETURN(rel::Schema schema,
                            session_.RelationSchema(relation));
    std::vector<std::string> attrs;
    attrs.reserve(schema.arity());
    for (const rel::Attribute& a : schema.attrs()) {
      attrs.emplace_back(a.name_view());
    }
    Plan live =
        Plan::Project(attrs, Plan::Product(Plan::Scan(std::string(relation)),
                                           Plan::Scan(kAliveRelation)));
    return EnsureDerivedLocked("live:" + std::string(relation), relation,
                               live);
  }

  Result<Predicate> MatchPredicateLocked(std::string_view relation,
                                         std::span<const Value> tuple) {
    MAYWSD_ASSIGN_OR_RETURN(rel::Schema schema,
                            session_.RelationSchema(relation));
    if (tuple.size() != schema.arity()) {
      return Status::InvalidArgument("tuple arity does not match relation '" +
                                     std::string(relation) + "'");
    }
    std::vector<Predicate> eqs;
    eqs.reserve(tuple.size());
    for (size_t i = 0; i < tuple.size(); ++i) {
      eqs.push_back(Predicate::Cmp(std::string(schema.attr(i).name_view()),
                                   rel::CmpOp::kEq, tuple[i]));
    }
    return Predicate::AndAll(std::move(eqs));
  }

  Result<double> ConfidenceLocked(std::string_view relation,
                                  std::span<const Value> tuple) {
    MAYWSD_ASSIGN_OR_RETURN(rel::Schema schema,
                            session_.RelationSchema(relation));
    if (tuple.size() != schema.arity()) {
      return Status::InvalidArgument("tuple arity does not match relation '" +
                                     std::string(relation) + "'");
    }
    const Value marker[] = {Value::Int(0)};
    MAYWSD_ASSIGN_OR_RETURN(double alive,
                            session_.TupleConfidence(kAliveRelation, marker));
    if (alive < kDeadMass) {
      return Status::Inconsistent(
          "observations eliminated every world; conditional confidence is "
          "undefined");
    }
    MAYWSD_ASSIGN_OR_RETURN(std::string live, EnsureLiveLocked(relation));
    MAYWSD_ASSIGN_OR_RETURN(double joint,
                            session_.TupleConfidence(live, tuple));
    return joint / alive;
  }

  api::Session session_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, DerivedEntry> derived_;
  uint64_t next_id_ = 0;
  uint64_t observes_ = 0;
  uint64_t applies_ = 0;
  uint64_t knowledge_queries_ = 0;
  uint64_t knowledge_cache_hits_ = 0;
  uint64_t knowledge_cache_misses_ = 0;
};

}  // namespace internal

// -- Agent --------------------------------------------------------------------

Agent::Agent(std::string name, std::unique_ptr<internal::KnowledgeState> know)
    : name_(std::move(name)), know_(std::move(know)) {}

Agent::Agent(Agent&&) noexcept = default;
Agent& Agent::operator=(Agent&&) noexcept = default;
Agent::~Agent() = default;

Result<Agent> Agent::Make(std::string name, api::Session session) {
  if (name.empty()) {
    return Status::InvalidArgument("agent name must be non-empty");
  }
  auto know = std::make_unique<internal::KnowledgeState>(std::move(session));
  MAYWSD_RETURN_IF_ERROR(know->Init());
  return Agent(std::move(name), std::move(know));
}

api::Session& Agent::session() { return know_->session(); }
const api::Session& Agent::session() const { return know_->session(); }

Status Agent::Observe(std::span<const rel::UpdateOp> ops) {
  // Apply first (the knowledge state's lock is released on return), then
  // invalidate — the game mutex is never taken while holding it.
  MAYWSD_RETURN_IF_ERROR(know_->Observe(ops));
  if (game_ != nullptr) game_->InvalidateSuccessors(name_);
  return Status::Ok();
}

Status Agent::Observe(const rel::Plan& fact) {
  std::vector<rel::UpdateOp> ops = ObservationOps(fact);
  return Observe(std::span<const rel::UpdateOp>(ops));
}

Result<bool> Agent::Knows(std::string_view relation,
                          std::span<const rel::Value> tuple) {
  return know_->Knows(relation, tuple);
}

Result<bool> Agent::ConsidersPossible(std::string_view relation,
                                      std::span<const rel::Value> tuple) {
  return know_->ConsidersPossible(relation, tuple);
}

Result<double> Agent::Confidence(std::string_view relation,
                                 std::span<const rel::Value> tuple) {
  return know_->Confidence(relation, tuple);
}

Result<bool> Agent::Believes(std::string_view relation,
                             std::span<const rel::Value> tuple,
                             double threshold) {
  return know_->Believes(relation, tuple, threshold);
}

BeliefStats Agent::Stats() const { return know_->Stats(); }

// -- Successor ----------------------------------------------------------------

Successor::Successor(std::unique_ptr<internal::KnowledgeState> know)
    : know_(std::move(know)) {}

Successor::~Successor() = default;

const api::Session& Successor::session() const { return know_->session(); }

Result<bool> Successor::Knows(std::string_view relation,
                              std::span<const rel::Value> tuple) {
  return know_->Knows(relation, tuple);
}

Result<bool> Successor::ConsidersPossible(std::string_view relation,
                                          std::span<const rel::Value> tuple) {
  return know_->ConsidersPossible(relation, tuple);
}

Result<double> Successor::Confidence(std::string_view relation,
                                     std::span<const rel::Value> tuple) {
  return know_->Confidence(relation, tuple);
}

Result<bool> Successor::Believes(std::string_view relation,
                                 std::span<const rel::Value> tuple,
                                 double threshold) {
  return know_->Believes(relation, tuple, threshold);
}

BeliefStats Successor::Stats() const { return know_->Stats(); }

// -- Game ---------------------------------------------------------------------

namespace {

/// Successor-cache key: the agent plus the structural identity of the
/// action batch (rel::UpdateOpHash/Equal — order-sensitive, as update
/// batches are).
struct SuccKey {
  std::string agent;
  std::vector<UpdateOp> actions;
};

struct SuccKeyHash {
  size_t operator()(const SuccKey& k) const {
    size_t h = std::hash<std::string>{}(k.agent);
    for (const UpdateOp& op : k.actions) HashCombine(h, rel::UpdateOpHash(op));
    return h;
  }
};

struct SuccKeyEq {
  bool operator()(const SuccKey& a, const SuccKey& b) const {
    if (a.agent != b.agent || a.actions.size() != b.actions.size()) {
      return false;
    }
    for (size_t i = 0; i < a.actions.size(); ++i) {
      if (!rel::UpdateOpEqual(a.actions[i], b.actions[i])) return false;
    }
    return true;
  }
};

}  // namespace

struct Game::Rep {
  mutable std::mutex mu;
  /// unique_ptr for pointer stability across push_back (AddAgent hands out
  /// raw pointers that must survive later additions).
  std::vector<std::unique_ptr<Agent>> agents;
  std::unordered_map<SuccKey, std::shared_ptr<Successor>, SuccKeyHash,
                     SuccKeyEq>
      successors;
  uint64_t steps = 0;
  uint64_t speculations = 0;
  uint64_t successor_hits = 0;
  uint64_t successor_misses = 0;
  /// Speculation work only — agent-level applies are aggregated from the
  /// agents themselves in Stats().
  uint64_t forks = 0;
  uint64_t applies = 0;

  Agent* FindLocked(std::string_view name) {
    for (const auto& a : agents) {
      if (a->name() == name) return a.get();
    }
    return nullptr;
  }
};

Game::Game() : rep_(std::make_unique<Rep>()) {}
Game::~Game() = default;

Result<Agent*> Game::AddAgent(std::string name, api::Session session) {
  MAYWSD_ASSIGN_OR_RETURN(Agent made,
                          Agent::Make(std::move(name), std::move(session)));
  std::lock_guard<std::mutex> lock(rep_->mu);
  if (rep_->FindLocked(made.name()) != nullptr) {
    return Status::AlreadyExists("agent '" + made.name() +
                                 "' already exists in this game");
  }
  rep_->agents.push_back(std::make_unique<Agent>(std::move(made)));
  Agent* agent = rep_->agents.back().get();
  agent->game_ = this;
  return agent;
}

Agent* Game::agent(std::string_view name) {
  std::lock_guard<std::mutex> lock(rep_->mu);
  return rep_->FindLocked(name);
}

const Agent* Game::agent(std::string_view name) const {
  std::lock_guard<std::mutex> lock(rep_->mu);
  return rep_->FindLocked(name);
}

std::vector<std::string> Game::AgentNames() const {
  std::lock_guard<std::mutex> lock(rep_->mu);
  std::vector<std::string> names;
  names.reserve(rep_->agents.size());
  for (const auto& a : rep_->agents) names.push_back(a->name());
  return names;
}

Status Game::Step(std::span<const rel::UpdateOp> actions) {
  std::lock_guard<std::mutex> lock(rep_->mu);
  for (const auto& a : rep_->agents) {
    MAYWSD_RETURN_IF_ERROR(a->know_->Apply(actions));
  }
  ++rep_->steps;
  // The real state advanced: every cached successor is now the expansion
  // of a stale belief state.
  rep_->successors.clear();
  return Status::Ok();
}

Status Game::Observe(std::string_view agent_name,
                     std::span<const rel::UpdateOp> ops) {
  Agent* ag = agent(agent_name);
  if (ag == nullptr) {
    return Status::NotFound("no agent named '" + std::string(agent_name) +
                            "'");
  }
  return ag->Observe(ops);
}

Status Game::Observe(std::string_view agent_name, const rel::Plan& fact) {
  std::vector<rel::UpdateOp> ops = ObservationOps(fact);
  return Observe(agent_name, std::span<const rel::UpdateOp>(ops));
}

Result<std::shared_ptr<Successor>> Game::Speculate(
    std::string_view agent_name, std::span<const rel::UpdateOp> actions) {
  std::lock_guard<std::mutex> lock(rep_->mu);
  Agent* ag = rep_->FindLocked(agent_name);
  if (ag == nullptr) {
    return Status::NotFound("no agent named '" + std::string(agent_name) +
                            "'");
  }
  ++rep_->speculations;
  SuccKey key{std::string(agent_name),
              std::vector<UpdateOp>(actions.begin(), actions.end())};
  auto it = rep_->successors.find(key);
  if (it != rep_->successors.end()) {
    // Re-pin the memoized fork: no new fork, no re-applied batch.
    ++rep_->successor_hits;
    return it->second;
  }
  ++rep_->successor_misses;
  auto know =
      std::make_unique<internal::KnowledgeState>(ag->know_->session().Fork());
  ++rep_->forks;
  MAYWSD_RETURN_IF_ERROR(know->Init());
  MAYWSD_RETURN_IF_ERROR(know->Apply(actions));
  rep_->applies += actions.size();
  std::shared_ptr<Successor> succ(new Successor(std::move(know)));
  rep_->successors.emplace(std::move(key), succ);
  return succ;
}

Result<bool> Game::CommonlyKnown(std::string_view relation,
                                 std::span<const rel::Value> tuple) {
  // Snapshot the agent list, then query without the game mutex — agents
  // are stable (append-only, unique_ptr) and knowledge queries synchronize
  // per agent.
  std::vector<Agent*> agents;
  {
    std::lock_guard<std::mutex> lock(rep_->mu);
    agents.reserve(rep_->agents.size());
    for (const auto& a : rep_->agents) agents.push_back(a.get());
  }
  for (Agent* a : agents) {
    MAYWSD_ASSIGN_OR_RETURN(bool knows, a->Knows(relation, tuple));
    if (!knows) return false;
  }
  return true;  // vacuously over an agentless game
}

void Game::InvalidateSuccessors(std::string_view agent) {
  std::lock_guard<std::mutex> lock(rep_->mu);
  for (auto it = rep_->successors.begin(); it != rep_->successors.end();) {
    if (it->first.agent == agent) {
      it = rep_->successors.erase(it);
    } else {
      ++it;
    }
  }
}

BeliefStats Game::Stats() const {
  std::lock_guard<std::mutex> lock(rep_->mu);
  BeliefStats s;
  s.steps = rep_->steps;
  s.speculations = rep_->speculations;
  s.successor_hits = rep_->successor_hits;
  s.successor_misses = rep_->successor_misses;
  s.forks = rep_->forks;
  s.applies = rep_->applies;
  for (const auto& a : rep_->agents) {
    BeliefStats as = a->Stats();
    s.observes += as.observes;
    s.applies += as.applies;
    s.knowledge_queries += as.knowledge_queries;
    s.knowledge_cache_hits += as.knowledge_cache_hits;
    s.knowledge_cache_misses += as.knowledge_cache_misses;
    s.answer_cache_hits += as.answer_cache_hits;
    s.answer_cache_misses += as.answer_cache_misses;
  }
  return s;
}

}  // namespace maywsd::belief
