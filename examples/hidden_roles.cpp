// A hidden-role game (Mafia night) played over belief world sets.
//
// Four players — alice, bob, carol, dan — are dealt one mafia, one
// detective and two townsfolk. Each player sees only their own card, so a
// player's belief state is the set of deals consistent with it: a world
// set over Roles(PLAYER, ROLE), one world per possible assignment. The
// belief::Game runs the epistemics on top of an api::Session per agent:
//
//   - a public claim is a Game::Step of ObservationOps(fact) — every
//     agent's world set is conditioned at once,
//   - a private investigation is Game::Observe on one agent,
//   - "what would I believe if …" is Game::Speculate — an O(1) COW fork
//     with the batch applied, memoized per structurally equal batch, so
//     re-considering the same move during deliberation re-pins the cached
//     successor (zero new forks, zero re-applied updates).
//
// The story runs on the wsdt backend with full narration, then replays on
// the other three backends and checks they reach identical conclusions.

#include <algorithm>
#include <cstdio>
#include <cmath>
#include <string>
#include <vector>

#include "api/session.h"
#include "belief/belief.h"
#include "core/worldset.h"

using namespace maywsd;
using rel::CmpOp;
using rel::Plan;
using rel::Predicate;
using rel::Value;

namespace {

const char* kPlayers[] = {"alice", "bob", "carol", "dan"};
// The actual deal: bob drew mafia, carol the detective.
const char* kDeal[] = {"towns", "mafia", "detective", "towns"};

rel::Relation DealRelation(const std::vector<std::string>& roles) {
  rel::Relation r(rel::Schema::FromNames({"PLAYER", "ROLE"}), "Roles");
  for (size_t i = 0; i < 4; ++i) {
    r.AppendRow({Value::String(kPlayers[i]), Value::String(roles[i])});
  }
  r.SortDedup();
  return r;
}

/// The deals consistent with `self` holding their true card: every
/// permutation of the remaining roles over the other players, uniformly.
Result<api::Session> DealSession(api::BackendKind kind, size_t self) {
  std::vector<size_t> others;
  std::vector<std::string> remaining;
  for (size_t i = 0; i < 4; ++i) {
    if (i == self) continue;
    others.push_back(i);
    remaining.push_back(kDeal[i]);
  }
  std::sort(remaining.begin(), remaining.end());
  std::vector<core::PossibleWorld> worlds;
  do {
    core::PossibleWorld w;
    std::vector<std::string> roles(4);
    roles[self] = kDeal[self];
    for (size_t i = 0; i < 3; ++i) roles[others[i]] = remaining[i];
    w.db.PutRelation(DealRelation(roles));
    w.prob = 1.0;
    worlds.push_back(std::move(w));
  } while (std::next_permutation(remaining.begin(), remaining.end()));
  for (core::PossibleWorld& w : worlds) w.prob /= worlds.size();
  MAYWSD_ASSIGN_OR_RETURN(core::Wsd wsd, core::WsdFromWorlds(worlds));
  if (kind == api::BackendKind::kWsd) {
    return api::Session::Open(wsd);
  }
  MAYWSD_ASSIGN_OR_RETURN(core::Wsdt wsdt, core::Wsdt::FromWsd(wsd));
  return api::Session::Open(kind, wsdt);
}

Plan HasRole(const char* player, const char* role) {
  return Plan::Select(
      Predicate::And(Predicate::Cmp("PLAYER", CmpOp::kEq,
                                    Value::String(player)),
                     Predicate::Cmp("ROLE", CmpOp::kEq, Value::String(role))),
      Plan::Scan("Roles"));
}

std::vector<Value> RoleTuple(const char* player, const char* role) {
  return {Value::String(player), Value::String(role)};
}

template <typename T>
T ValueOr(Result<T> result, T fallback) {
  return result.ok() ? std::move(result).value() : fallback;
}

/// What one backend concluded, for the cross-backend agreement check.
struct Conclusions {
  bool alice_knows_carol = false;
  double alice_conf_bob_mafia = 0;
  bool carol_knows_bob = false;
  bool commonly_known_before = true;
  bool speculation_knows = false;
  uint64_t forks_second_speculation = 1;
  bool commonly_known_after = false;
};

int PlayGame(api::BackendKind kind, bool narrate, Conclusions& out) {
  belief::Game game;
  for (size_t i = 0; i < 4; ++i) {
    auto session = DealSession(kind, i);
    if (!session.ok()) return 1;
    if (!game.AddAgent(kPlayers[i], std::move(session).value()).ok()) {
      return 1;
    }
  }
  if (narrate) {
    std::printf("the deal (hidden): bob=mafia carol=detective, "
                "alice/dan=townsfolk\n");
    std::printf("each player's belief state: %zu agents over the deals "
                "consistent with their own card\n\n",
                game.AgentNames().size());
  }

  // Day 1: carol publicly claims the detective card. A public claim is a
  // Step of the conditioning batch — every agent's worlds are filtered.
  std::vector<rel::UpdateOp> claim =
      belief::ObservationOps(HasRole("carol", "detective"));
  if (!game.Step(claim).ok()) return 1;
  belief::Agent* alice = game.agent("alice");
  out.alice_knows_carol =
      ValueOr(alice->Knows("Roles", RoleTuple("carol", "detective")), false);
  out.alice_conf_bob_mafia =
      ValueOr(alice->Confidence("Roles", RoleTuple("bob", "mafia")), -1.0);
  if (narrate) {
    std::printf("carol claims detective (public Step):\n");
    std::printf("  alice knows carol=detective: %s\n",
                out.alice_knows_carol ? "yes" : "no");
    std::printf("  alice's P(bob=mafia): %.3f  (bob and dan split the "
                "suspicion)\n\n",
                out.alice_conf_bob_mafia);
  }

  // Night 1: carol investigates bob — a private observation; only carol's
  // world set is conditioned.
  if (!game.Observe("carol", HasRole("bob", "mafia")).ok()) return 1;
  belief::Agent* carol = game.agent("carol");
  out.carol_knows_bob =
      ValueOr(carol->Knows("Roles", RoleTuple("bob", "mafia")), false);
  out.commonly_known_before =
      ValueOr(game.CommonlyKnown("Roles", RoleTuple("bob", "mafia")), true);
  if (narrate) {
    std::printf("carol investigates bob (private Observe):\n");
    std::printf("  carol knows bob=mafia: %s\n",
                out.carol_knows_bob ? "yes" : "no");
    std::printf("  commonly known that bob=mafia: %s\n\n",
                out.commonly_known_before ? "yes" : "no");
  }

  // Deliberation: alice weighs "what if the investigation outs bob?" —
  // a speculative successor. Re-considering the same scenario must re-pin
  // the memoized fork: no new fork, no re-applied conditioning.
  std::vector<rel::UpdateOp> scenario =
      belief::ObservationOps(HasRole("bob", "mafia"));
  auto successor = game.Speculate("alice", scenario);
  if (!successor.ok()) return 1;
  out.speculation_knows =
      ValueOr(successor.value()
          ->Knows("Roles", RoleTuple("bob", "mafia")), false);
  belief::BeliefStats before = game.Stats();
  auto again =
      game.Speculate("alice", belief::ObservationOps(HasRole("bob", "mafia")));
  if (!again.ok()) return 1;
  belief::BeliefStats after = game.Stats();
  out.forks_second_speculation = after.forks - before.forks;
  if (narrate) {
    std::printf("alice speculates \"what if bob is outed?\" (Speculate):\n");
    std::printf("  in that successor she knows bob=mafia: %s\n",
                out.speculation_knows ? "yes" : "no");
    std::printf("  re-considering the same scenario: %llu new forks, "
                "cache hits %llu (the successor was re-pinned)\n\n",
                static_cast<unsigned long long>(out.forks_second_speculation),
                static_cast<unsigned long long>(after.successor_hits));
  }

  // Day 2: bob is voted out and his card is revealed — public once more.
  if (!game.Step(belief::ObservationOps(HasRole("bob", "mafia"))).ok()) {
    return 1;
  }
  out.commonly_known_after =
      ValueOr(game.CommonlyKnown("Roles", RoleTuple("bob", "mafia")), false);
  if (narrate) {
    std::printf("bob is voted out, card revealed (public Step):\n");
    std::printf("  commonly known that bob=mafia: %s\n",
                out.commonly_known_after ? "yes" : "no");
    belief::Agent* dan = game.agent("dan");
    double conf =
        ValueOr(dan->Confidence("Roles", RoleTuple("alice", "towns")), -1.0);
    std::printf("  dan's P(alice=townsfolk) after both reveals: %.3f\n\n",
                conf);
  }
  return 0;
}

bool Sane(const Conclusions& c) {
  return c.alice_knows_carol && c.alice_conf_bob_mafia > 0.49 &&
         c.alice_conf_bob_mafia < 0.51 && c.carol_knows_bob &&
         !c.commonly_known_before && c.speculation_knows &&
         c.forks_second_speculation == 0 && c.commonly_known_after;
}

bool Agrees(const Conclusions& a, const Conclusions& b) {
  return a.alice_knows_carol == b.alice_knows_carol &&
         std::abs(a.alice_conf_bob_mafia - b.alice_conf_bob_mafia) < 1e-9 &&
         a.carol_knows_bob == b.carol_knows_bob &&
         a.commonly_known_before == b.commonly_known_before &&
         a.speculation_knows == b.speculation_knows &&
         a.forks_second_speculation == b.forks_second_speculation &&
         a.commonly_known_after == b.commonly_known_after;
}

}  // namespace

int main() {
  Conclusions reference;
  if (PlayGame(api::BackendKind::kWsdt, /*narrate=*/true, reference) != 0 ||
      !Sane(reference)) {
    std::printf("wsdt game went wrong\n");
    return 1;
  }
  for (api::BackendKind kind :
       {api::BackendKind::kWsd, api::BackendKind::kUniform,
        api::BackendKind::kUrel}) {
    Conclusions c;
    if (PlayGame(kind, /*narrate=*/false, c) != 0 || !Agrees(reference, c)) {
      std::printf("backend %s disagrees with wsdt\n",
                  std::string(api::BackendKindName(kind)).c_str());
      return 1;
    }
    std::printf("replayed on %s: identical conclusions\n",
                std::string(api::BackendKindName(kind)).c_str());
  }
  return 0;
}
