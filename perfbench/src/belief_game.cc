// belief_game: hidden-role games with 10 players (2 mafia, 1 detective,
// 7 town), one client, closed loop.
//
// A round is a fresh game over a seeded deal: `deal` builds every agent's
// world set — the deals consistent with its own card (252 worlds for a
// townsperson) — and adds it with Session::Open and Game::AddAgent; then
// one public claim (Step), Knows and Confidence for every agent, one
// private Observe by the detective, four Speculate calls each repeated
// once, and one CommonlyKnown. Deals come from a pool generated before
// timing; the round script (who claims, who is asked about, who is
// investigated, what is speculated) is seeded per round, within limits that
// give every nine rounds the same work whatever the seed. For the
// end-to-end metrics each backend plays in a process of its own and the
// backends take turns (see Measure). Conclusions must be identical on all
// four backends, Knows must imply Confidence = 1, a known fact must be true
// in the deal, and the public claim must be commonly known.

#include <sys/prctl.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "belief/belief.h"
#include "bench.h"
#include "common/rng.h"
#include "core/worldset.h"
#include "core/wsdt.h"

namespace perfbench {
namespace {

using maywsd::Rng;
using maywsd::Status;
using maywsd::api::BackendKind;
using maywsd::api::Session;
using maywsd::rel::CmpOp;
using maywsd::rel::Plan;
using maywsd::rel::Predicate;
using maywsd::rel::Value;

constexpr int kPlayers = 10;
constexpr int kDealPool = 25;
constexpr int kSpeculations = 4;
const char* const kPlayerNames[kPlayers] = {"p0", "p1", "p2", "p3", "p4",
                                            "p5", "p6", "p7", "p8", "p9"};

uint64_t Mix(uint64_t a, uint64_t b, uint64_t c) {
  return Rng(a * 0x9E3779B97F4A7C15ULL ^ (b << 28) ^ c ^ 0xB311EFULL).Next();
}

maywsd::rel::Relation RolesRelation(const std::vector<std::string>& roles) {
  maywsd::rel::Relation r(
      maywsd::rel::Schema::FromNames({"PLAYER", "ROLE"}), "Roles");
  for (int i = 0; i < kPlayers; ++i) {
    r.AppendRow({Value::String(kPlayerNames[i]), Value::String(roles[i])});
  }
  r.SortDedup();
  return r;
}

/// A deal and, per agent, the worlds consistent with the agent's card.
struct Deal {
  std::vector<std::string> roles;
  std::vector<std::vector<maywsd::core::PossibleWorld>> worlds;
};

Deal MakeDeal(uint64_t seed, int index) {
  Deal d;
  d.roles = {"mafia", "mafia", "detective", "town", "town",
             "town",  "town",  "town",      "town", "town"};
  Rng rng(Mix(seed, 0xDEA1, static_cast<uint64_t>(index)));
  for (size_t i = d.roles.size() - 1; i > 0; --i) {
    std::swap(d.roles[i], d.roles[rng.Uniform(i + 1)]);
  }
  for (int self = 0; self < kPlayers; ++self) {
    std::vector<std::string> rest;
    for (int i = 0; i < kPlayers; ++i) {
      if (i != self) rest.push_back(d.roles[static_cast<size_t>(i)]);
    }
    std::sort(rest.begin(), rest.end());
    std::vector<maywsd::core::PossibleWorld> worlds;
    do {
      std::vector<std::string> roles;
      for (int i = 0, k = 0; i < kPlayers; ++i) {
        roles.push_back(i == self ? d.roles[static_cast<size_t>(self)]
                                  : rest[static_cast<size_t>(k++)]);
      }
      maywsd::core::PossibleWorld w;
      w.db.PutRelation(RolesRelation(roles));
      worlds.push_back(std::move(w));
    } while (std::next_permutation(rest.begin(), rest.end()));
    for (auto& w : worlds) w.prob = 1.0 / static_cast<double>(worlds.size());
    d.worlds.push_back(std::move(worlds));
  }
  return d;
}

Plan HasRole(const std::string& player, const std::string& role) {
  return Plan::Select(
      Predicate::And(
          Predicate::Cmp("PLAYER", CmpOp::kEq, Value::String(player)),
          Predicate::Cmp("ROLE", CmpOp::kEq, Value::String(role))),
      Plan::Scan("Roles"));
}

std::vector<Value> RoleTuple(const std::string& player,
                             const std::string& role) {
  return {Value::String(player), Value::String(role)};
}

/// The seeded script of one round.
struct Script {
  int deal = 0;
  int claimant = 0;
  std::vector<int> asked;  // per agent: the player it asks about
  int investigated = 0;
  int speculator = 0;
  std::vector<int> suspects;  // speculated "is mafia"
};

Script MakeScript(uint64_t seed, int round, const Deal& deal) {
  Script s;
  s.deal = round % kDealPool;
  Rng rng(Mix(seed, 0x5C41, static_cast<uint64_t>(round)));
  // The claimed role cycles town, mafia, detective over the rounds, so
  // every run sees the same mix of claims; what a claim eliminates, and so
  // what Step costs, depends on the role.
  static const char* const kClaims[] = {"town", "mafia", "detective"};
  std::vector<int> holders;
  for (int i = 0; i < kPlayers; ++i) {
    if (deal.roles[static_cast<size_t>(i)] == kClaims[round % 3]) {
      holders.push_back(i);
    }
  }
  s.claimant = holders[rng.Uniform(holders.size())];
  // Everything else is chosen so that every nine rounds do the same work
  // whatever the seed. Agent a asks about a player of role
  // kClaims[(round / 3 + a) mod 3] other than itself (itself when it holds
  // that role alone), so over nine rounds every agent asks about every
  // role under every claim; the detective investigates the
  // (round mod 9)-th other player.
  for (int a = 0; a < kPlayers; ++a) {
    const char* role = kClaims[(round / 3 + a) % 3];
    std::vector<int> candidates;
    for (int i = 0; i < kPlayers; ++i) {
      if (i != a && deal.roles[static_cast<size_t>(i)] == role) {
        candidates.push_back(i);
      }
    }
    s.asked.push_back(candidates.empty()
                          ? a
                          : candidates[rng.Uniform(candidates.size())]);
  }
  int detective = static_cast<int>(
      std::find(deal.roles.begin(), deal.roles.end(), "detective") -
      deal.roles.begin());
  s.investigated = (detective + 1 + round % (kPlayers - 1)) % kPlayers;
  // The speculator is a townsperson other than the claimant. The suspects
  // are, among the other players but the claimant, the mafia and the
  // detective, then townspeople drawn at random up to four: every cold
  // Speculate is consistent with what the speculator knows and forks.
  std::vector<int> town, suspects;
  for (int i = 0; i < kPlayers; ++i) {
    if (i == s.claimant) continue;
    (deal.roles[static_cast<size_t>(i)] == "town" ? town : suspects)
        .push_back(i);
  }
  for (size_t k = 0; k < town.size(); ++k) {
    std::swap(town[k], town[k + rng.Uniform(town.size() - k)]);
  }
  s.speculator = town.back();
  town.pop_back();
  for (int t : town) {
    if (suspects.size() < kSpeculations) suspects.push_back(t);
  }
  s.suspects = suspects;
  return s;
}

/// What one round concluded; compared across backends.
struct Conclusions {
  std::vector<bool> knows;
  std::vector<double> conf;
  bool commonly_known = false;

  bool Same(const Conclusions& o) const {
    if (knows != o.knows || commonly_known != o.commonly_known) return false;
    for (size_t i = 0; i < conf.size(); ++i) {
      if (std::fabs(conf[i] - o.conf[i]) > 1e-9) return false;
    }
    return true;
  }
};

/// The belief-layer counters of every agent session plus the game's.
Counters GameCounters(const maywsd::belief::Game& game) {
  Counters c;
  for (const std::string& name : game.AgentNames()) {
    c += Counters::Of(game.agent(name)->session().Stats());
  }
  maywsd::belief::BeliefStats b = game.Stats();
  c.forks = b.forks;
  c.successor_hits = b.successor_hits;
  c.successor_misses = b.successor_misses;
  return c;
}

/// Times `fn` as one request into `lat`, under a span named `name`.
template <typename Fn>
auto Timed(Latencies& lat, const char* name, const std::string& tag, Fn&& fn) {
  Tracer::BeginRequest();
  double t0 = NowSeconds();
  auto result = [&] {
    Tracer::Span span(name, tag);
    return fn();
  }();
  lat.Add((NowSeconds() - t0) * 1e3);
  return result;
}

/// Plays one round on `kind`; returns its conclusions and adds the
/// request latencies. Failed calls are counted in `report`.
Conclusions PlayRound(BackendKind kind, const char* backend,
                      const Deal& deal, const Script& s, Latencies& lat,
                      Counters* counters, bool corrupt, Report& report) {
  Conclusions out;
  Counters store0 = StoreCounters();
  maywsd::belief::Game game;
  Status dealt = Timed(lat, "belief.deal", backend, [&]() -> Status {
    for (int i = 0; i < kPlayers; ++i) {
      maywsd::Result<maywsd::core::Wsd> wsd = [&] {
        Tracer::Span span("core.WsdFromWorlds", backend);
        return maywsd::core::WsdFromWorlds(deal.worlds[static_cast<size_t>(i)]);
      }();
      if (!wsd.ok()) return wsd.status();
      maywsd::Result<Session> session = [&]() -> maywsd::Result<Session> {
        Tracer::Span span("api.Session::Open", backend);
        if (kind == BackendKind::kWsd) return Session::Open(std::move(*wsd));
        auto wsdt = maywsd::core::Wsdt::FromWsd(*wsd);
        if (!wsdt.ok()) return wsdt.status();
        return Session::Open(kind, *wsdt);
      }();
      if (!session.ok()) return session.status();
      Tracer::Span span("belief.Game::AddAgent", backend);
      auto agent = game.AddAgent(kPlayerNames[i], std::move(session).value());
      if (!agent.ok()) return agent.status();
    }
    return Status::Ok();
  });
  report.Check(dealt.ok(), std::string("deal on ") + backend + ": " +
                               dealt.ToString());
  if (!dealt.ok()) return out;

  const std::string claimant = kPlayerNames[s.claimant];
  const std::string claim_role = deal.roles[static_cast<size_t>(s.claimant)];
  Status step = Timed(lat, "belief.Game::Step", backend, [&] {
    return game.Step(maywsd::belief::ObservationOps(HasRole(claimant, claim_role)));
  });
  report.Check(step.ok(), std::string("step on ") + backend);

  for (int a = 0; a < kPlayers; ++a) {
    maywsd::belief::Agent* agent = game.agent(kPlayerNames[a]);
    int q = s.asked[static_cast<size_t>(a)];
    auto tuple = RoleTuple(kPlayerNames[q], deal.roles[static_cast<size_t>(q)]);
    auto knows = Timed(lat, "belief.Agent::Knows", backend,
                       [&] { return agent->Knows("Roles", tuple); });
    auto conf = Timed(lat, "belief.Agent::Confidence", backend,
                      [&] { return agent->Confidence("Roles", tuple); });
    bool ok = knows.ok() && conf.ok();
    double c = conf.ok() ? *conf : -1;
    if (corrupt && a == 0) c += 0.125;
    // Knows ⇒ Confidence = 1, and the asked tuple is true in the deal, so
    // it must be possible (Confidence > 0).
    ok = ok && (!*knows || std::fabs(c - 1.0) <= 1e-9) && c > 0 && c <= 1 + 1e-9;
    report.Check(ok, std::string("knows/confidence on ") + backend);
    out.knows.push_back(knows.ok() && *knows);
    out.conf.push_back(c);
  }

  int detective = static_cast<int>(
      std::find(deal.roles.begin(), deal.roles.end(), "detective") -
      deal.roles.begin());
  Status observed = Timed(lat, "belief.Game::Observe", backend, [&] {
    return game.Observe(
        kPlayerNames[detective],
        HasRole(kPlayerNames[s.investigated],
                deal.roles[static_cast<size_t>(s.investigated)]));
  });
  report.Check(observed.ok(), std::string("observe on ") + backend);

  for (int rep = 0; rep < 2; ++rep) {
    for (int k = 0; k < kSpeculations; ++k) {
      auto ops = maywsd::belief::ObservationOps(
          HasRole(kPlayerNames[s.suspects[static_cast<size_t>(k)]], "mafia"));
      uint64_t forks0 = game.Stats().forks;
      auto succ = Timed(lat, "belief.Game::Speculate",
                        std::string(backend) + (rep ? ".hit" : ".cold"),
                        [&] { return game.Speculate(kPlayerNames[s.speculator], ops); });
      bool ok = succ.ok() && (rep == 0 || game.Stats().forks == forks0);
      report.Check(ok, std::string("speculate on ") + backend);
    }
  }

  auto ck = Timed(lat, "belief.Game::CommonlyKnown", backend, [&] {
    return game.CommonlyKnown("Roles", RoleTuple(claimant, claim_role));
  });
  out.commonly_known = ck.ok() && *ck;
  report.Check(out.commonly_known,
               std::string("public claim not commonly known on ") + backend);
  if (counters != nullptr) {
    *counters = GameCounters(game);
    Counters store = StoreCounters() - store0;
    counters->forced_evals = store.forced_evals;
    counters->cow_breaks = store.cow_breaks;
  }
  return out;
}

/// One backend's round as its process reports it.
struct RoundResult {
  Conclusions conclusions;
  std::vector<double> ms;
  uint64_t attempted = 0, failed = 0;
  std::vector<std::string> notes;
};

bool WriteAll(int fd, const void* data, size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    ssize_t w = write(fd, p, n);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    p += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

bool ReadAll(int fd, void* data, size_t n) {
  char* p = static_cast<char*>(data);
  while (n > 0) {
    ssize_t r = read(fd, p, n);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    p += r;
    n -= static_cast<size_t>(r);
  }
  return true;
}

template <typename T>
void Put(std::string& buf, T v) {
  buf.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

template <typename T>
T Get(const std::string& buf, size_t& at) {
  T v{};
  if (at + sizeof(v) <= buf.size()) {
    buf.copy(reinterpret_cast<char*>(&v), sizeof(v), at);
  }
  at += sizeof(v);
  return v;
}

std::string Encode(const RoundResult& r) {
  std::string buf;
  Put(buf, r.attempted);
  Put(buf, r.failed);
  Put(buf, r.notes.size());
  for (const std::string& n : r.notes) {
    Put(buf, n.size());
    buf += n;
  }
  Put(buf, r.ms.size());
  for (double v : r.ms) Put(buf, v);
  Put(buf, r.conclusions.knows.size());
  for (size_t i = 0; i < r.conclusions.knows.size(); ++i) {
    Put(buf, static_cast<uint8_t>(r.conclusions.knows[i]));
    Put(buf, r.conclusions.conf[i]);
  }
  Put(buf, static_cast<uint8_t>(r.conclusions.commonly_known));
  return buf;
}

RoundResult Decode(const std::string& buf) {
  RoundResult r;
  size_t at = 0;
  r.attempted = Get<uint64_t>(buf, at);
  r.failed = Get<uint64_t>(buf, at);
  for (size_t n = Get<size_t>(buf, at); n > 0 && at < buf.size(); --n) {
    size_t len = Get<size_t>(buf, at);
    r.notes.push_back(buf.substr(std::min(at, buf.size()), len));
    at += len;
  }
  for (size_t n = Get<size_t>(buf, at); n > 0 && at < buf.size(); --n) {
    r.ms.push_back(Get<double>(buf, at));
  }
  for (size_t n = Get<size_t>(buf, at); n > 0 && at < buf.size(); --n) {
    r.conclusions.knows.push_back(Get<uint8_t>(buf, at) != 0);
    r.conclusions.conf.push_back(Get<double>(buf, at));
  }
  r.conclusions.commonly_known = Get<uint8_t>(buf, at) != 0;
  return r;
}

/// One backend's rounds, played in a process of its own that builds its own
/// deal pool and plays a round when told to. The backends still take
/// turns, but none runs on a heap another backend, or the timed set-ups,
/// churned: urel's Step took 300-400 ms when wsd, wsdt and uniform rounds
/// ran in the same process and 100-200 ms when it ran alone, and 300 ms
/// against 150 ms on some seeds when forked after the set-ups.
class BackendProcess {
 public:
  /// Forks the process and waits until it has built its deal pool; false
  /// if it could not be started. `earlier` are the processes started
  /// before, whose pipe ends the child must not hold open.
  bool Start(BackendKind kind, const char* backend, uint64_t seed,
             bool corrupt, const std::vector<BackendProcess>& earlier) {
    int down[2], up[2];
    if (pipe(down) != 0) return false;
    if (pipe(up) != 0) {
      close(down[0]);
      close(down[1]);
      return false;
    }
    std::fflush(nullptr);
    const pid_t parent = getpid();
    pid_ = fork();
    if (pid_ == 0) {
      // Die with the parent, also when it is killed mid-round.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (getppid() != parent) _exit(1);
      close(down[1]);
      close(up[0]);
      for (const BackendProcess& p : earlier) {
        close(p.to_);
        close(p.from_);
      }
      Serve(down[0], up[1], kind, backend, seed, corrupt);
    }
    close(down[0]);
    close(up[1]);
    if (pid_ < 0) {
      close(down[1]);
      close(up[0]);
      return false;
    }
    to_ = down[1];
    from_ = up[0];
    uint8_t ready = 0;
    return ReadAll(from_, &ready, sizeof(ready));
  }

  /// Has the process play `round`; false if it did not answer.
  bool Play(int round, RoundResult* out) {
    int32_t r = round;
    uint64_t size = 0;
    if (!WriteAll(to_, &r, sizeof(r)) || !ReadAll(from_, &size, sizeof(size))) {
      return false;
    }
    std::string buf(size, '\0');
    if (!ReadAll(from_, buf.data(), size)) return false;
    *out = Decode(buf);
    return true;
  }

  /// Ends the process and waits for it; returns its peak RSS in kB (0 when
  /// it did not report one).
  long Stop() {
    if (pid_ <= 0) return 0;
    close(to_);
    long peak_kb = 0;
    if (!ReadAll(from_, &peak_kb, sizeof(peak_kb))) peak_kb = 0;
    close(from_);
    while (waitpid(pid_, nullptr, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    return peak_kb;
  }

 private:
  /// The child: builds the deal pool, then plays each round it is sent
  /// until its input closes, reports its peak RSS and exits without
  /// running the parent's exit handlers.
  [[noreturn]] static void Serve(int in, int out, BackendKind kind,
                                 const char* backend, uint64_t seed,
                                 bool corrupt) {
    std::vector<Deal> pool;
    for (int i = 0; i < kDealPool; ++i) pool.push_back(MakeDeal(seed, i));
    uint8_t ready = 1;
    if (!WriteAll(out, &ready, sizeof(ready))) _exit(1);
    int32_t round = 0;
    while (ReadAll(in, &round, sizeof(round))) {
      Script s = MakeScript(seed, round,
                            pool[static_cast<size_t>(round % kDealPool)]);
      Latencies lat;
      Report report;
      RoundResult r;
      r.conclusions =
          PlayRound(kind, backend, pool[static_cast<size_t>(s.deal)], s, lat,
                    nullptr, corrupt, report);
      corrupt = false;
      r.ms = lat.ms;
      r.attempted = report.attempted;
      r.failed = report.failed;
      r.notes = report.notes;
      std::string buf = Encode(r);
      uint64_t size = buf.size();
      if (!WriteAll(out, &size, sizeof(size)) ||
          !WriteAll(out, buf.data(), buf.size())) {
        _exit(1);
      }
    }
    long peak_kb = PeakRssKb();
    WriteAll(out, &peak_kb, sizeof(peak_kb));
    _exit(0);
  }

  pid_t pid_ = -1;
  int to_ = -1, from_ = -1;
};

/// Starts every backend's process; false if one could not be started.
bool StartAll(const Options& opt, std::vector<BackendProcess>& procs,
              Report& report) {
  for (size_t bi = 0; bi < kBackends.size(); ++bi) {
    bool started =
        procs[bi].Start(*maywsd::api::ParseBackendKind(kBackends[bi]),
                        kBackends[bi], opt.seed, opt.corrupt && bi == 0,
                        procs);
    report.Check(started, std::string("starting the process of ") +
                              kBackends[bi]);
    if (!started) return false;
  }
  return true;
}

/// The end-to-end pass over the processes StartAll started (`started`:
/// all of them), the backends taking turns so that a slow phase of the
/// host falls on all of them alike. Round 0 warms every backend up and is
/// checked but not timed; timed rounds follow until the run's seconds are
/// spent. Stops every process.
void Measure(const Options& opt, std::vector<BackendProcess>& procs,
             bool started, Report& report) {
  std::vector<Latencies> lats(kBackends.size());
  // Rounds per turn: a wsdt round is about ten times shorter than the
  // others', so wsdt plays eight in a turn; one short round between long
  // ones measured mostly how cold the caches of its process were.
  constexpr int kTurn[] = {1, 8, 1, 1};
  std::map<int, Conclusions> first_seen;  // round → conclusions
  double start = NowSeconds();
  for (int cycle = 0;
       started && (cycle < 4 || NowSeconds() - start < opt.seconds);
       ++cycle) {
    for (size_t bi = 0; bi < kBackends.size() && started; ++bi) {
      const char* b = kBackends[bi];
      for (int j = 0; j < kTurn[bi] && started; ++j) {
        int round = cycle * kTurn[bi] + j;
        RoundResult r;
        started = procs[bi].Play(round, &r);
        report.Check(started,
                     std::string("the process of ") + b + " ended early");
        if (!started) break;
        report.attempted += r.attempted;
        report.failed += r.failed;
        for (std::string& n : r.notes) {
          if (report.notes.size() < 5) report.notes.push_back(std::move(n));
        }
        if (round > 0) {
          for (double ms : r.ms) lats[bi].Add(ms);
          lats[bi].EndRound();
        }
        auto [it, fresh] = first_seen.emplace(round, r.conclusions);
        if (!fresh) {
          report.Check(r.conclusions.Same(it->second),
                       std::string("round ") + std::to_string(round) +
                           " on " + b + " disagrees with an earlier backend");
        }
      }
    }
  }
  for (BackendProcess& p : procs) {
    report.peak_rss_kb = std::max(report.peak_rss_kb, p.Stop());
  }
  if (!started) return;
  // The tail percentile of each backend falls inside one group of
  // requests of like cost: p80 lies among the townspeople's Knows and
  // Confidence and the cold Speculates on wsd, wsdt and uniform; on urel,
  // where those are cheap, p90 lies among the cold Speculates. A block of
  // three rounds holds one claim of each role.
  constexpr double kTail[] = {80, 80, 80, 90};
  for (size_t bi = 0; bi < kBackends.size(); ++bi) {
    report.AddEndToEnd(kBackends[bi], lats[bi], BlockRate(lats[bi], 3),
                       kTail[bi]);
  }
}

}  // namespace

void RunBeliefGame(const Options& opt, Report& report,
                   std::vector<SpanRecord>& trace) {
  const bool measure = opt.mode == Mode::kMeasure;
  const bool compact = opt.mode == Mode::kCompact;

  // The end-to-end pass plays every backend in a process of its own,
  // started before the set-ups so that it does not inherit their heap.
  std::vector<BackendProcess> procs(kBackends.size());
  const bool started = measure && StartAll(opt, procs, report);

  // Set-up: the deal pool (every agent's consistent worlds). Repeated
  // 11 times when measuring, median reported.
  std::vector<Deal> pool;
  std::vector<double> setup_times;
  for (int rep = 0; rep < (measure ? 11 : 1); ++rep) {
    pool.clear();
    double t0 = NowSeconds();
    for (int i = 0; i < kDealPool; ++i) pool.push_back(MakeDeal(opt.seed, i));
    setup_times.push_back(NowSeconds() - t0);
  }
  if (measure) report.Set("setup_s", Median(setup_times), "s");

  if (measure) {
    Measure(opt, procs, started, report);
    return;
  }

  // The traced pass plays in this process, so that the spans land in its
  // tracer: the backends take turns as in Measure, odd rounds traced. A
  // compact pass plays rounds 0 and 1.
  struct Pass {
    Latencies untraced, traced;
    Counters sum;
  };
  std::vector<Pass> passes(kBackends.size());
  bool corrupt = opt.corrupt;
  double start = NowSeconds();
  for (int round = 0;
       compact ? round < 2
               : round < 3 || NowSeconds() - start < opt.seconds;
       ++round) {
    bool trace_round = round % 2 == 1;
    Script s = MakeScript(opt.seed, round,
                          pool[static_cast<size_t>(round % kDealPool)]);
    const Deal& deal = pool[static_cast<size_t>(s.deal)];
    Conclusions first;
    for (size_t bi = 0; bi < kBackends.size(); ++bi) {
      const char* b = kBackends[bi];
      BackendKind kind = *maywsd::api::ParseBackendKind(b);
      Pass& pass = passes[bi];
      Latencies warmup;
      Latencies& lat =
          round == 0 ? warmup : trace_round ? pass.traced : pass.untraced;
      Counters c;
      Tracer::SetEnabled(trace_round);
      Conclusions got =
          PlayRound(kind, b, deal, s, lat, trace_round ? &c : nullptr,
                    corrupt, report);
      Tracer::SetEnabled(false);
      lat.EndRound();
      corrupt = false;
      if (bi == 0) {
        first = got;
      } else {
        report.Check(got.Same(first),
                     std::string("round ") + std::to_string(round) + " on " +
                         b + " disagrees with " + kBackends[0]);
      }
      if (!trace_round) continue;
      pass.sum += c;
      if (round == 1) {
        const std::string p = std::string("belief_game.") + b + ".";
        report.counters[p + "round_trips"] = c.round_trips;
        report.counters[p + "forks"] = c.forks;
        report.counters[p + "successor_hits"] = c.successor_hits;
        report.counters[p + "successor_misses"] = c.successor_misses;
        report.counters[p + "guard_materializations"] = c.guard_materializations;
        report.counters[p + "forced_evals"] = c.forced_evals;
        if (!compact) {
          report.Set(std::string("core.forced_evals.") + b,
                     double(c.forced_evals), "count");
          report.Set(std::string("core.cow_breaks.") + b, double(c.cow_breaks),
                     "count");
          if (kind == BackendKind::kUniform || kind == BackendKind::kUrel) {
            report.Set(std::string("engine.round_trips.") + b,
                       double(c.round_trips), "count");
          }
        }
      }
    }
  }

  std::vector<double> overheads;
  for (size_t bi = 0; bi < kBackends.size(); ++bi) {
    const char* b = kBackends[bi];
    const Pass& pass = passes[bi];
    if (!compact) {
      overheads.push_back(pass.traced.Mean() / pass.untraced.Mean() - 1.0);
    }
    const Counters& sum = pass.sum;
    double guards = double(sum.guard_shares + sum.guard_materializations);
    report.Set(std::string("engine.guard_share_ratio.") + b,
               guards > 0 ? double(sum.guard_shares) / guards : 0.0, "ratio");
    double succ = double(sum.successor_hits + sum.successor_misses);
    report.Set(std::string("belief.successor_hit_ratio.") + b,
               succ > 0 ? double(sum.successor_hits) / succ : 0.0, "ratio");
  }

  std::vector<SpanRecord> spans = Tracer::Drain();
  auto summary = Summarize(spans);
  auto mean_ms = [&](const char* n, const std::string& tag) {
    auto it = summary.find({n, tag});
    return it == summary.end() || it->second.count == 0
               ? 0.0
               : it->second.total_s * 1e3 / double(it->second.count);
  };
  for (const char* b : kBackends) {
    report.Set(std::string("belief.deal_ms.") + b, mean_ms("belief.deal", b),
               "ms");
    report.Set(std::string("belief.step_ms.") + b,
               mean_ms("belief.Game::Step", b), "ms");
    report.Set(std::string("belief.knows_ms.") + b,
               mean_ms("belief.Agent::Knows", b), "ms");
    report.Set(std::string("belief.speculate_cold_ms.") + b,
               mean_ms("belief.Game::Speculate", std::string(b) + ".cold"),
               "ms");
  }
  if (!compact) {
    double mean = 0;
    for (double o : overheads) mean += o / double(overheads.size());
    report.Set("trace.overhead_frac", mean, "ratio");
  }
  trace.insert(trace.end(), spans.begin(), spans.end());
}

}  // namespace perfbench
