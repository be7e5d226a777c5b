// The belief subsystem against its per-world reference oracle.
//
// Conditioning is encoded as state (the alive marker dies in the worlds an
// observation eliminates), so the whole knowledge surface is specified by
// explicit world enumeration: simulate every world through the same update
// and observation script with rel::ApplyUpdate, call a world alive iff its
// marker relation is non-empty, and demand
//
//   Knows(R, t)              == every alive world contains t
//   ConsidersPossible(R, t)  == some alive world contains t
//   Confidence(R, t)         == P(alive ∧ t ∈ R) / P(alive)
//
// on all four backends, tuple by tuple over the full probe grid. The
// successor-cache tests pin the Speculate contract (a structurally equal
// batch re-pins the same fork — no new fork, no re-applied ops), the leak
// test demands exact store node/cell equality after a game tears down, and
// the stress test races Speculate / Step / Observe / knowledge queries for
// the TSan CI job.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/session.h"
#include "belief/belief.h"
#include "common/interner.h"
#include "core/component_store.h"
#include "rel/update.h"
#include "tests/test_util.h"

namespace maywsd::belief {
namespace {

using api::BackendKind;
using api::BackendKindName;
using api::Session;
using rel::CmpOp;
using rel::Plan;
using rel::Predicate;
using rel::UpdateOp;
using rel::Value;
using testutil::I;
using testutil::RelSpec;

rel::Relation Marker(const char* name, const char* attr) {
  rel::Relation r(rel::Schema{{attr, rel::AttrType::kInt}}, name);
  r.AppendRow({I(0)});
  return r;
}

/// The explicit one-world-at-a-time simulation the agent must agree with.
/// Worlds carry the same marker relations the agent registers, and every
/// batch (moves and ObservationOps alike) runs through rel::ApplyUpdate.
struct WorldOracle {
  std::vector<core::PossibleWorld> worlds;

  static WorldOracle Over(const std::vector<core::PossibleWorld>& base) {
    WorldOracle o{base};
    for (core::PossibleWorld& w : o.worlds) {
      w.db.PutRelation(Marker(kAliveRelation, kAliveAttr));
      w.db.PutRelation(Marker(kUnitRelation, kUnitAttr));
    }
    return o;
  }

  Status Apply(std::span<const UpdateOp> ops) {
    for (core::PossibleWorld& w : worlds) {
      for (const UpdateOp& op : ops) {
        MAYWSD_RETURN_IF_ERROR(rel::ApplyUpdate(w.db, op));
      }
    }
    return Status::Ok();
  }

  bool Alive(const core::PossibleWorld& w) const {
    auto r = w.db.GetRelation(kAliveRelation);
    return r.ok() && r.value()->NumRows() > 0;
  }

  bool Contains(const core::PossibleWorld& w, const std::string& rel,
                std::span<const Value> tuple) const {
    auto r = w.db.GetRelation(rel);
    return r.ok() && r.value()->ContainsRow(tuple);
  }

  double AliveMass() const {
    double mass = 0;
    for (const core::PossibleWorld& w : worlds) {
      if (Alive(w)) mass += w.prob;
    }
    return mass;
  }

  bool Knows(const std::string& rel, std::span<const Value> tuple) const {
    for (const core::PossibleWorld& w : worlds) {
      if (Alive(w) && !Contains(w, rel, tuple)) return false;
    }
    return true;  // vacuously over an all-dead world set
  }

  bool Possible(const std::string& rel, std::span<const Value> tuple) const {
    for (const core::PossibleWorld& w : worlds) {
      if (Alive(w) && Contains(w, rel, tuple)) return true;
    }
    return false;
  }

  /// nullopt when every world is dead (the agent reports Inconsistent).
  std::optional<double> Confidence(const std::string& rel,
                                   std::span<const Value> tuple) const {
    double alive = 0, with_t = 0;
    for (const core::PossibleWorld& w : worlds) {
      if (!Alive(w)) continue;
      alive += w.prob;
      if (Contains(w, rel, tuple)) with_t += w.prob;
    }
    if (alive < 1e-9) return std::nullopt;
    return with_t / alive;
  }
};

/// Every tuple over [0, domain)^arity — the probe grid the oracle and the
/// agent are compared on.
std::vector<std::vector<Value>> ProbeGrid(const RelSpec& spec) {
  std::vector<std::vector<Value>> grid;
  size_t arity = spec.attrs.size();
  std::vector<int64_t> digits(arity, 0);
  for (;;) {
    std::vector<Value> probe;
    probe.reserve(arity);
    for (int64_t d : digits) probe.push_back(I(d));
    grid.push_back(std::move(probe));
    size_t i = 0;
    while (i < arity && ++digits[i] == spec.domain) digits[i++] = 0;
    if (i == arity) break;
  }
  return grid;
}

UpdateOp RandomInsert(Rng& rng, const RelSpec& spec) {
  rel::Relation rows(rel::Schema::FromNames(spec.attrs), spec.name);
  std::vector<Value> row;
  row.reserve(spec.attrs.size());
  for (size_t a = 0; a < spec.attrs.size(); ++a) {
    row.push_back(I(static_cast<int64_t>(
        rng.Uniform(static_cast<uint64_t>(spec.domain)))));
  }
  rows.AppendRow(row);
  return UpdateOp::InsertTuples(spec.name, std::move(rows));
}

UpdateOp RandomDelete(Rng& rng, const std::vector<RelSpec>& specs) {
  const RelSpec& spec = specs[rng.Uniform(specs.size())];
  const std::string& attr = spec.attrs[rng.Uniform(spec.attrs.size())];
  Value v = I(static_cast<int64_t>(
      rng.Uniform(static_cast<uint64_t>(spec.domain))));
  UpdateOp op = UpdateOp::DeleteWhere(spec.name,
                                      Predicate::Cmp(attr, CmpOp::kEq, v));
  if (rng.Uniform(2) == 0) {
    const RelSpec& g = specs[rng.Uniform(specs.size())];
    Value bound = I(static_cast<int64_t>(
        rng.Uniform(static_cast<uint64_t>(g.domain))));
    op = op.When(Plan::Select(Predicate::Cmp(g.attrs[0], CmpOp::kLe, bound),
                              Plan::Scan(g.name)));
  }
  return op;
}

/// A random conditioning observation: "σ_{AθB}(R) is non-empty". θ is kept
/// permissive (kLe against a high bound most of the time) so scripts only
/// occasionally eliminate worlds and rarely kill the whole set — both
/// regimes stay covered across seeds.
std::vector<UpdateOp> RandomObservation(Rng& rng,
                                        const std::vector<RelSpec>& specs) {
  const RelSpec& spec = specs[rng.Uniform(specs.size())];
  const std::string& attr = spec.attrs[rng.Uniform(spec.attrs.size())];
  CmpOp op = rng.Uniform(4) == 0 ? CmpOp::kEq : CmpOp::kLe;
  Value v = I(static_cast<int64_t>(
      rng.Uniform(static_cast<uint64_t>(spec.domain))));
  return ObservationOps(
      Plan::Select(Predicate::Cmp(attr, op, v), Plan::Scan(spec.name)));
}

/// One script round: a couple of moves, sometimes ending in an observation.
std::vector<UpdateOp> RandomRound(Rng& rng,
                                  const std::vector<RelSpec>& specs) {
  std::vector<UpdateOp> round;
  size_t moves = 1 + rng.Uniform(2);
  for (size_t i = 0; i < moves; ++i) {
    if (rng.Uniform(2) == 0) {
      round.push_back(RandomInsert(rng, specs[rng.Uniform(specs.size())]));
    } else {
      round.push_back(RandomDelete(rng, specs));
    }
  }
  if (rng.Uniform(2) == 0) {
    for (UpdateOp& op : RandomObservation(rng, specs)) {
      round.push_back(std::move(op));
    }
  }
  return round;
}

/// The reference oracle: random worlds, a random move/observation script,
/// and after every round the full probe grid compared between the agent
/// and the explicit per-world simulation — on every backend.
TEST(BeliefOracle, KnowledgeSurfaceMatchesPerWorldSimulation) {
  const std::vector<RelSpec> specs = {RelSpec{"R", {"A", "B"}, 2, 3},
                                      RelSpec{"S", {"V"}, 2, 3}};
  for (uint64_t seed : {7u, 21u, 98u}) {
    testutil::SeededRng rng(seed);
    MAYWSD_SEED_TRACE(rng);
    const std::vector<core::PossibleWorld> base =
        testutil::RandomWorlds(rng, specs, 4);
    auto wsd_or = core::WsdFromWorlds(base);
    ASSERT_TRUE(wsd_or.ok());
    core::Wsd wsd = std::move(wsd_or).value();
    ASSERT_TRUE(core::NormalizeWsd(wsd).ok());
    std::vector<std::vector<UpdateOp>> script;
    for (int round = 0; round < 5; ++round) {
      script.push_back(RandomRound(rng, specs));
    }

    for (BackendKind kind : testutil::AllBackendKinds()) {
      SCOPED_TRACE(BackendKindName(kind));
      auto session = testutil::OpenSessionOver(kind, wsd);
      ASSERT_TRUE(session.ok());
      auto agent_or = Agent::Make("oracle", std::move(session).value());
      ASSERT_TRUE(agent_or.ok());
      Agent agent = std::move(agent_or).value();
      WorldOracle oracle = WorldOracle::Over(base);

      for (size_t round = 0; round < script.size(); ++round) {
        SCOPED_TRACE(::testing::Message() << "round " << round);
        ASSERT_TRUE(agent.Observe(std::span<const UpdateOp>(script[round]))
                        .ok());
        ASSERT_TRUE(oracle.Apply(script[round]).ok());

        for (const RelSpec& spec : specs) {
          for (const std::vector<Value>& probe : ProbeGrid(spec)) {
            SCOPED_TRACE(::testing::Message()
                         << spec.name << " probe " << probe[0].ToString());
            auto knows = agent.Knows(spec.name, probe);
            ASSERT_TRUE(knows.ok());
            EXPECT_EQ(knows.value(), oracle.Knows(spec.name, probe));
            auto possible = agent.ConsidersPossible(spec.name, probe);
            ASSERT_TRUE(possible.ok());
            EXPECT_EQ(possible.value(), oracle.Possible(spec.name, probe));
            std::optional<double> want = oracle.Confidence(spec.name, probe);
            auto conf = agent.Confidence(spec.name, probe);
            if (want.has_value()) {
              ASSERT_TRUE(conf.ok());
              EXPECT_NEAR(conf.value(), *want, 1e-9);
            } else {
              EXPECT_FALSE(conf.ok());
            }
          }
        }
      }
      // Re-asking within a round hits the witness cache ("live:R" serves
      // ConsidersPossible and Confidence alike).
      EXPECT_GT(agent.Stats().knowledge_cache_hits, 0u);
      EXPECT_TRUE(testutil::ValidateSession(agent.session()).ok());
    }
  }
}

rel::Relation OneIntRelation(const char* name, const char* attr,
                             std::vector<int64_t> values) {
  rel::Relation r(rel::Schema::FromNames({attr}), name);
  for (int64_t v : values) r.AppendRow({I(v)});
  r.SortDedup();
  return r;
}

std::vector<core::PossibleWorld> ThreeWorldDeal() {
  // P(w1)=0.5 R={1}, P(w2)=0.3 R={1,2}, P(w3)=0.2 R={}.
  std::vector<core::PossibleWorld> worlds(3);
  worlds[0].prob = 0.5;
  worlds[0].db.PutRelation(OneIntRelation("R", "A", {1}));
  worlds[1].prob = 0.3;
  worlds[1].db.PutRelation(OneIntRelation("R", "A", {1, 2}));
  worlds[2].prob = 0.2;
  worlds[2].db.PutRelation(OneIntRelation("R", "A", {}));
  return worlds;
}

Result<Session> OpenOver(BackendKind kind,
                         const std::vector<core::PossibleWorld>& worlds) {
  MAYWSD_ASSIGN_OR_RETURN(core::Wsd wsd, core::WsdFromWorlds(worlds));
  MAYWSD_RETURN_IF_ERROR(core::NormalizeWsd(wsd));
  return testutil::OpenSessionOver(kind, wsd);
}

/// Deterministic conditioning arithmetic on a three-world deal, including
/// the all-worlds-eliminated regime.
TEST(BeliefKnowledge, ConditioningArithmeticIsExact) {
  const Value one[] = {I(1)};
  const Value two[] = {I(2)};
  for (BackendKind kind : testutil::AllBackendKinds()) {
    SCOPED_TRACE(BackendKindName(kind));
    auto session = OpenOver(kind, ThreeWorldDeal());
    ASSERT_TRUE(session.ok());
    auto agent_or = Agent::Make("a", std::move(session).value());
    ASSERT_TRUE(agent_or.ok());
    Agent agent = std::move(agent_or).value();

    EXPECT_FALSE(agent.Knows("R", one).value());  // w3 lacks (1)
    EXPECT_TRUE(agent.ConsidersPossible("R", two).value());
    EXPECT_NEAR(agent.Confidence("R", one).value(), 0.8, 1e-12);
    EXPECT_TRUE(agent.Believes("R", one, 0.75).value());
    EXPECT_FALSE(agent.Believes("R", one, 0.85).value());

    // Observe "R contains 1": w3 dies; the rest renormalizes.
    ASSERT_TRUE(agent
                    .Observe(Plan::Select(Predicate::Cmp("A", CmpOp::kEq, I(1)),
                                          Plan::Scan("R")))
                    .ok());
    EXPECT_TRUE(agent.Knows("R", one).value());
    EXPECT_NEAR(agent.Confidence("R", two).value(), 0.3 / 0.8, 1e-12);

    // An impossible observation kills every world: Knows goes vacuous,
    // nothing is possible, and conditional confidence is undefined.
    ASSERT_TRUE(agent
                    .Observe(Plan::Select(Predicate::Cmp("A", CmpOp::kEq, I(5)),
                                          Plan::Scan("R")))
                    .ok());
    EXPECT_TRUE(agent.Knows("R", two).value());
    EXPECT_FALSE(agent.ConsidersPossible("R", one).value());
    EXPECT_FALSE(agent.Confidence("R", one).ok());
  }
}

/// A long-lived agent re-materializes its witness relations after every
/// observation; each stale witness hands its name to its successor, so
/// the interned-string pool stays flat however many rounds are played,
/// and the answers are those of the first rounds.
TEST(BeliefKnowledge, RematerializedWitnessesReuseTheirNames) {
  const Value one[] = {I(1)};
  const Value two[] = {I(2)};
  const Plan saw_one =
      Plan::Select(Predicate::Cmp("A", CmpOp::kEq, I(1)), Plan::Scan("R"));
  for (BackendKind kind : testutil::AllBackendKinds()) {
    SCOPED_TRACE(BackendKindName(kind));
    auto session = OpenOver(kind, ThreeWorldDeal());
    ASSERT_TRUE(session.ok());
    auto agent_or = Agent::Make("a", std::move(session).value());
    ASSERT_TRUE(agent_or.ok());
    Agent agent = std::move(agent_or).value();
    EXPECT_FALSE(agent.Knows("R", one).value());  // w3 lacks (1)

    size_t warm_pool = 0;
    const uint64_t misses_before = agent.Stats().knowledge_cache_misses;
    constexpr int kWarmup = 3;
    constexpr int kRounds = 40;
    for (int round = 0; round < kRounds; ++round) {
      if (round == kWarmup) warm_pool = StringInterner::Global().size();
      // Every Observe bumps the alive marker's version, so every Knows
      // below re-materializes its witness.
      ASSERT_TRUE(agent.Observe(saw_one).ok());
      EXPECT_TRUE(agent.Knows("R", one).value()) << "round " << round;
      EXPECT_FALSE(agent.Knows("R", two).value()) << "round " << round;
    }
    EXPECT_EQ(StringInterner::Global().size(), warm_pool);
    EXPECT_GE(agent.Stats().knowledge_cache_misses - misses_before,
              static_cast<uint64_t>(kRounds));
  }
}

/// A game relation squatting on a reserved marker name with the wrong
/// shape must be rejected at agent construction.
TEST(BeliefKnowledge, RejectsMalformedReservedRelations) {
  Session session = Session::Open(BackendKind::kWsdt);
  rel::Relation bad(rel::Schema::FromNames({"X", "Y"}), kAliveRelation);
  ASSERT_TRUE(session.Register(bad).ok());
  EXPECT_FALSE(Agent::Make("a", std::move(session)).ok());
}

std::vector<UpdateOp> SentinelInsert(int64_t v) {
  rel::Relation rows(rel::Schema::FromNames({"A"}), "R");
  rows.AppendRow({I(v)});
  std::vector<UpdateOp> batch;
  batch.push_back(UpdateOp::InsertTuples("R", std::move(rows))
                      .When(Plan::Select(Predicate::Cmp("A", CmpOp::kLe, I(9)),
                                         Plan::Scan("Base"))));
  return batch;
}

Result<Session> SmallGameSession(BackendKind kind) {
  std::vector<core::PossibleWorld> worlds(2);
  worlds[0].prob = 0.5;
  worlds[0].db.PutRelation(OneIntRelation("R", "A", {1}));
  worlds[1].prob = 0.5;
  worlds[1].db.PutRelation(OneIntRelation("R", "A", {1, 2}));
  for (core::PossibleWorld& w : worlds) {
    w.db.PutRelation(OneIntRelation("Base", "A", {1}));
  }
  return OpenOver(kind, worlds);
}

/// The successor-cache contract: a structurally equal batch (rebuilt from
/// scratch — value equality, not pointer identity) re-pins the *same*
/// successor with zero new forks and zero re-applied ops.
TEST(SuccessorCache, EqualBatchRepinsWithoutForkOrApply) {
  const Value sentinel[] = {I(77)};
  for (BackendKind kind : testutil::AllBackendKinds()) {
    SCOPED_TRACE(BackendKindName(kind));
    Game game;
    auto session = SmallGameSession(kind);
    ASSERT_TRUE(session.ok());
    auto added = game.AddAgent("a", std::move(session).value());
    ASSERT_TRUE(added.ok());

    std::vector<UpdateOp> batch = SentinelInsert(77);
    auto succ1 = game.Speculate("a", batch);
    ASSERT_TRUE(succ1.ok());
    BeliefStats s1 = game.Stats();
    EXPECT_EQ(s1.speculations, 1u);
    EXPECT_EQ(s1.successor_misses, 1u);
    EXPECT_EQ(s1.forks, 1u);
    EXPECT_EQ(s1.applies, batch.size());

    // The successor sees the applied action; the agent does not.
    EXPECT_TRUE(succ1.value()->ConsidersPossible("R", sentinel).value());
    EXPECT_TRUE(succ1.value()->Knows("R", sentinel).value());
    EXPECT_FALSE(
        game.agent("a")->ConsidersPossible("R", sentinel).value());

    std::vector<UpdateOp> rebuilt = SentinelInsert(77);
    auto succ2 = game.Speculate("a", rebuilt);
    ASSERT_TRUE(succ2.ok());
    EXPECT_EQ(succ1.value().get(), succ2.value().get());
    BeliefStats s2 = game.Stats();
    EXPECT_EQ(s2.successor_hits, 1u);
    EXPECT_EQ(s2.forks, s1.forks) << "cache hit must not fork";
    EXPECT_EQ(s2.applies, s1.applies) << "cache hit must not re-apply";

    // A different batch is a different successor.
    std::vector<UpdateOp> other = SentinelInsert(78);
    auto succ3 = game.Speculate("a", other);
    ASSERT_TRUE(succ3.ok());
    EXPECT_NE(succ1.value().get(), succ3.value().get());
  }
}

TEST(SuccessorCache, StepAndObserveInvalidate) {
  for (BackendKind kind : testutil::AllBackendKinds()) {
    SCOPED_TRACE(BackendKindName(kind));
    Game game;
    auto sa = SmallGameSession(kind);
    auto sb = SmallGameSession(kind);
    ASSERT_TRUE(sa.ok());
    ASSERT_TRUE(sb.ok());
    ASSERT_TRUE(game.AddAgent("a", std::move(sa).value()).ok());
    ASSERT_TRUE(game.AddAgent("b", std::move(sb).value()).ok());

    std::vector<UpdateOp> batch = SentinelInsert(77);
    ASSERT_TRUE(game.Speculate("a", batch).ok());
    ASSERT_TRUE(game.Speculate("b", batch).ok());
    EXPECT_EQ(game.Stats().successor_misses, 2u);

    // A step advances the real state: every cached successor is stale.
    std::vector<UpdateOp> step = SentinelInsert(5);
    ASSERT_TRUE(game.Step(step).ok());
    ASSERT_TRUE(game.Speculate("a", batch).ok());
    EXPECT_EQ(game.Stats().successor_misses, 3u);

    // A private observation invalidates that agent's successors only.
    ASSERT_TRUE(game.Speculate("b", batch).ok());
    BeliefStats before = game.Stats();
    ASSERT_TRUE(game.Observe("b",
                             Plan::Select(Predicate::Cmp("A", CmpOp::kEq, I(1)),
                                          Plan::Scan("R")))
                    .ok());
    ASSERT_TRUE(game.Speculate("a", batch).ok());
    ASSERT_TRUE(game.Speculate("b", batch).ok());
    BeliefStats after = game.Stats();
    EXPECT_EQ(after.successor_hits, before.successor_hits + 1);  // a hit
    EXPECT_EQ(after.successor_misses, before.successor_misses + 1);  // b miss
  }
}

/// Step applies to every agent; CommonlyKnown is the everybody-knows
/// conjunction and flips as a private observation resolves one agent's
/// uncertainty.
TEST(BeliefGame, StepBroadcastsAndCommonKnowledgeFollows) {
  const Value one[] = {I(1)};
  const Value two[] = {I(2)};
  for (BackendKind kind : testutil::AllBackendKinds()) {
    SCOPED_TRACE(BackendKindName(kind));
    Game game;
    // Agent a is certain of R ⊇ {1}; agent b considers R = {1} and
    // R = {1,2} equally possible.
    std::vector<core::PossibleWorld> certain(1);
    certain[0].prob = 1.0;
    certain[0].db.PutRelation(OneIntRelation("R", "A", {1}));
    certain[0].db.PutRelation(OneIntRelation("Base", "A", {1}));
    auto sa = OpenOver(kind, certain);
    auto sb = SmallGameSession(kind);
    ASSERT_TRUE(sa.ok());
    ASSERT_TRUE(sb.ok());
    ASSERT_TRUE(game.AddAgent("a", std::move(sa).value()).ok());
    ASSERT_TRUE(game.AddAgent("b", std::move(sb).value()).ok());

    EXPECT_TRUE(game.CommonlyKnown("R", one).value());
    EXPECT_FALSE(game.CommonlyKnown("R", two).value());  // b is unsure

    // b privately learns that 2 ∈ R.
    ASSERT_TRUE(game.Observe("b",
                             Plan::Select(Predicate::Cmp("A", CmpOp::kEq, I(2)),
                                          Plan::Scan("R")))
                    .ok());
    EXPECT_FALSE(game.CommonlyKnown("R", two).value());  // a still lacks 2

    // A public move inserts 2 everywhere: now everybody knows it.
    rel::Relation rows(rel::Schema::FromNames({"A"}), "R");
    rows.AppendRow({I(2)});
    std::vector<UpdateOp> step;
    step.push_back(UpdateOp::InsertTuples("R", std::move(rows)));
    ASSERT_TRUE(game.Step(step).ok());
    EXPECT_TRUE(game.CommonlyKnown("R", two).value());
    EXPECT_EQ(game.Stats().steps, 1u);

    EXPECT_FALSE(game.Speculate("ghost", step).ok());
    EXPECT_EQ(game.agent("ghost"), nullptr);
  }
}

void RunBeliefWorkload(BackendKind kind) {
  Game game;
  auto sa = SmallGameSession(kind);
  auto sb = SmallGameSession(kind);
  ASSERT_TRUE(sa.ok());
  ASSERT_TRUE(sb.ok());
  ASSERT_TRUE(game.AddAgent("a", std::move(sa).value()).ok());
  ASSERT_TRUE(game.AddAgent("b", std::move(sb).value()).ok());
  const Value one[] = {I(1)};
  const Value two[] = {I(2)};
  ASSERT_TRUE(game.Observe("a",
                           Plan::Select(Predicate::Cmp("A", CmpOp::kEq, I(2)),
                                        Plan::Scan("R")))
                  .ok());
  std::vector<UpdateOp> batch = SentinelInsert(77);
  auto succ = game.Speculate("a", batch);
  ASSERT_TRUE(succ.ok());
  ASSERT_TRUE(succ.value()->Confidence("R", two).ok());
  ASSERT_TRUE(game.Speculate("a", SentinelInsert(77)).ok());
  ASSERT_TRUE(game.Step(SentinelInsert(5)).ok());
  ASSERT_TRUE(game.agent("a")->Knows("R", one).ok());
  ASSERT_TRUE(game.agent("b")->Confidence("R", two).ok());
  ASSERT_TRUE(game.CommonlyKnown("R", one).ok());
}

/// A full game (agents, observations, speculation, a step, queries) must
/// release the interned store exactly on teardown: the fork family, the
/// witness materializations and the successor cache retain nothing.
TEST(BeliefLeakCheck, GameTeardownReleasesStoreExactly) {
  for (BackendKind kind : testutil::AllBackendKinds()) {
    SCOPED_TRACE(BackendKindName(kind));
    RunBeliefWorkload(kind);  // warm-up: first-touch interning settles
    core::store::StoreStats before = core::store::GetStoreStats();
    RunBeliefWorkload(kind);
    core::store::StoreStats after = core::store::GetStoreStats();
    EXPECT_EQ(after.live_nodes, before.live_nodes)
        << "dead game leaked payload nodes";
    EXPECT_EQ(after.live_cells, before.live_cells)
        << "dead game leaked value cells";
  }
}

/// The TSan stress: speculators expanding (and re-pinning) successors,
/// a stepper advancing the real state, a private observer and a knowledge
/// querier, all racing on one game. Exercises the game-mutex / knowledge-
/// mutex / session-lock ordering and the invalidation paths; every call
/// must succeed and the cache counters must reconcile.
TEST(BeliefStress, ConcurrentSpeculateStepObserveQuery) {
  constexpr int kSteps = 6;
  constexpr int kSpeculators = 2;
  for (BackendKind kind : testutil::AllBackendKinds()) {
    SCOPED_TRACE(BackendKindName(kind));
    Game game;
    auto sa = SmallGameSession(kind);
    auto sb = SmallGameSession(kind);
    ASSERT_TRUE(sa.ok());
    ASSERT_TRUE(sb.ok());
    ASSERT_TRUE(game.AddAgent("a", std::move(sa).value()).ok());
    ASSERT_TRUE(game.AddAgent("b", std::move(sb).value()).ok());

    std::atomic<bool> done{false};
    std::vector<std::thread> threads;
    for (int s = 0; s < kSpeculators; ++s) {
      threads.emplace_back([&game, &done, s] {
        const char* agent = (s % 2 == 0) ? "a" : "b";
        const Value sentinel[] = {I(70 + s)};
        size_t i = 0;
        do {
          auto succ = game.Speculate(agent, SentinelInsert(
                                                static_cast<int64_t>(70 + s +
                                                                     i++ % 3)));
          ASSERT_TRUE(succ.ok());
          ASSERT_TRUE(succ.value()->ConsidersPossible("R", sentinel).ok());
        } while (!done.load(std::memory_order_acquire));
      });
    }
    threads.emplace_back([&game, &done] {
      const Value one[] = {I(1)};
      do {
        ASSERT_TRUE(game.agent("a")->Knows("R", one).ok());
        ASSERT_TRUE(game.agent("b")->Confidence("R", one).ok());
        ASSERT_TRUE(game.CommonlyKnown("R", one).ok());
      } while (!done.load(std::memory_order_acquire));
    });
    threads.emplace_back([&game, &done] {
      // "Base is non-empty" holds in every world: the conditioning guard
      // runs for real but never kills anything, so the querier's
      // Confidence stays well-defined throughout.
      do {
        ASSERT_TRUE(game.Observe("b", Plan::Scan("Base")).ok());
      } while (!done.load(std::memory_order_acquire));
    });
    std::thread stepper([&game, &done] {
      for (int i = 0; i < kSteps; ++i) {
        ASSERT_TRUE(game.Step(SentinelInsert(5 + i)).ok());
      }
      done.store(true, std::memory_order_release);
    });
    stepper.join();
    for (std::thread& t : threads) t.join();

    BeliefStats stats = game.Stats();
    EXPECT_EQ(stats.speculations, stats.successor_hits +
                                      stats.successor_misses);
    EXPECT_EQ(stats.steps, static_cast<uint64_t>(kSteps));
    EXPECT_EQ(stats.forks, stats.successor_misses);
    EXPECT_TRUE(testutil::ValidateSession(game.agent("a")->session()).ok());
    EXPECT_TRUE(testutil::ValidateSession(game.agent("b")->session()).ok());
  }
}

}  // namespace
}  // namespace maywsd::belief
