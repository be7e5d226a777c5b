// serve_mixed: the serve_worlds operator.
//
// Every request is a protocol line through ParseRequest →
// WorldServer::Execute → FormatResponse. Three client threads (closed
// loops) share one session per backend holding 500 certain census rows,
// loaded with a `register` line (an ID column keys the rows). Per cycle of
// 20 requests a client sends 8 `read`, 3 `possible`, 2 `certain`, 3 `conf`
// and 4 `apply` lines in a seeded order; an apply is a `modify` that cycles
// a value or a `delete` directly followed by an `insert` of the same row,
// so the row count stays constant. Each client only writes the rows whose
// ID is its own modulo 3 and keeps a model of them, so every answer it
// gets is checked against that model. `run` is left out: the protocol has
// no `drop` verb, so runs would grow the catalog.

#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "census/ipums.h"
#include "common/rng.h"
#include "server/protocol.h"
#include "server/world_server.h"

namespace perfbench {
namespace {

using maywsd::Rng;
using maywsd::api::Session;
using maywsd::rel::Relation;
using maywsd::rel::Value;
using maywsd::server::Request;
using maywsd::server::Response;
using maywsd::server::WorldServer;

constexpr size_t kRows = 500;
constexpr int kClients = 3;
constexpr const char* kCycleAttr = "FERTIL";
constexpr int64_t kCycleDomain = 14;

enum class Kind { kRead, kPossible, kCertain, kConf, kApply };
constexpr const char* kKindNames[] = {"read", "possible", "certain", "conf",
                                      "apply"};

/// One scripted request: its protocol line (session id spliced in at run
/// time), what the client's model expects, and how an apply changes the
/// model.
struct Line {
  Kind kind = Kind::kRead;
  std::string text;        // "{}" stands for the session id
  double expect = 0;       // conf: the expected answer
  int64_t id = -1;         // apply: the row it writes
  bool erase = false;      // apply: a delete
  std::vector<Value> row;  // apply: the row after a modify / insert
};

Line Query(Kind kind, std::string text, double expect = 0) {
  Line l;
  l.kind = kind;
  l.text = std::move(text);
  l.expect = expect;
  return l;
}

Line Apply(std::string text, int64_t id, bool erase,
           std::vector<Value> row) {
  Line l = Query(Kind::kApply, std::move(text));
  l.id = id;
  l.erase = erase;
  l.row = std::move(row);
  return l;
}

uint64_t Mix(uint64_t a, uint64_t b) {
  return Rng(a * 0x9E3779B97F4A7C15ULL ^ (b << 24) ^ 0x5E4EULL).Next();
}

std::string Tuple(const std::vector<Value>& row) {
  std::string s;
  for (size_t i = 0; i < row.size(); ++i) {
    if (i) s += ',';
    s += row[i].ToString();
  }
  return s;
}

/// The 500 certain rows: census attributes behind a unique ID column.
Relation ServeRows(uint64_t seed) {
  const auto schema = maywsd::census::CensusSchema::Standard();
  Relation census = maywsd::census::GenerateCensus(schema, kRows, seed);
  std::vector<std::string> names = {"ID"};
  for (const auto& a : schema.attributes()) names.push_back(a.name);
  Relation r(maywsd::rel::Schema::FromNames(names), "R");
  for (size_t i = 0; i < census.NumRows(); ++i) {
    std::vector<Value> row = {Value::Int(static_cast<int64_t>(i))};
    auto src = census.row(i).span();
    row.insert(row.end(), src.begin(), src.end());
    r.AppendRow(row);
  }
  return r;
}

std::string RegisterLine(const Relation& r) {
  std::string line = "register {} R ";
  for (size_t a = 0; a < r.arity(); ++a) {
    line += (a ? "," : "") + std::string(r.schema().attr(a).name_view());
  }
  for (size_t i = 0; i < r.NumRows(); ++i) {
    auto row = r.row(i).span();
    line += ' ' + Tuple(std::vector<Value>(row.begin(), row.end()));
  }
  return line;
}

/// A client: its own rows (ID % kClients == id) and a script generator
/// that replays the model forward as it emits lines.
struct Client {
  int id = 0;
  std::map<int64_t, std::vector<Value>> own;  // the model of its rows
  std::vector<Line> script;
  size_t next = 0;
  double cycle_busy_s = 0;      // time inside requests, current cycle
  std::vector<double> cycle_s;  // the same, per completed cycle of 20
};

/// Generates `cycles` cycles of 20 requests, advancing `model` (a copy of
/// the client's rows) as the applies would.
std::vector<Line> MakeScript(uint64_t seed, int client, size_t cycle_attr,
                             const std::string& attrs,
                             std::map<int64_t, std::vector<Value>> model,
                             int cycles) {
  Rng rng(Mix(seed, static_cast<uint64_t>(client) + 1));
  std::vector<int64_t> ids;
  for (const auto& [id, row] : model) ids.push_back(id);
  std::vector<Line> out;
  // 19 slots: the delete+insert pair is one slot of two requests.
  std::vector<int> slots = {0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1,
                            2, 2, 3, 3, 3, 4, 4, 5};
  for (int c = 0; c < cycles; ++c) {
    for (size_t i = slots.size() - 1; i > 0; --i) {
      std::swap(slots[i], slots[rng.Uniform(i + 1)]);
    }
    for (int slot : slots) {
      int64_t id = ids[rng.Uniform(ids.size())];
      std::vector<Value>& row = model[id];
      std::string sid_id = "ID = " + std::to_string(id);
      switch (slot) {
        case 0:
          out.push_back(Query(Kind::kRead, "read {} R"));
          break;
        case 1:
          out.push_back(Query(Kind::kPossible, "possible {} R"));
          break;
        case 2:
          out.push_back(Query(Kind::kCertain, "certain {} R"));
          break;
        case 3: {
          // Two in three ask for the row as it is (conf 1), one in three
          // for a stale version of it (conf 0).
          std::vector<Value> probe = row;
          double expect = 1.0;
          if (rng.Uniform(3) == 0) {
            probe[cycle_attr] = Value::Int(
                (row[cycle_attr].AsInt() + 1 + static_cast<int64_t>(rng.Uniform(
                                                   kCycleDomain - 1))) %
                kCycleDomain);
            expect = 0.0;
          }
          out.push_back(Query(Kind::kConf, "conf {} R " + Tuple(probe), expect));
          break;
        }
        case 4: {
          int64_t v = (row[cycle_attr].AsInt() + 1) % kCycleDomain;
          row[cycle_attr] = Value::Int(v);
          out.push_back(Apply("apply {} modify R " + sid_id + " set " +
                                  kCycleAttr + "=" + std::to_string(v),
                              id, false, row));
          break;
        }
        case 5:
          out.push_back(Apply("apply {} delete R " + sid_id, id, true, {}));
          out.push_back(Apply("apply {} insert R " + attrs + " " + Tuple(row),
                              id, false, row));
          break;
      }
    }
  }
  return out;
}

std::string Splice(const std::string& text, const std::string& sid) {
  size_t at = text.find("{}");
  return text.substr(0, at) + sid + text.substr(at + 2);
}

/// Checks a relational answer against the client's model: its own rows
/// exactly, and between 500 - clients and 500 rows in all (other clients
/// may be between a delete and its insert).
bool CheckRows(const Relation& r, const Client& client,
               const std::map<int64_t, std::vector<Value>>& model) {
  if (r.NumRows() > kRows || r.NumRows() + kClients < kRows) return false;
  size_t own = 0;
  for (size_t i = 0; i < r.NumRows(); ++i) {
    auto row = r.row(i).span();
    int64_t id = row[0].AsInt();
    if (id % kClients != client.id) continue;
    auto it = model.find(id);
    if (it == model.end()) return false;
    if (!std::equal(row.begin(), row.end(), it->second.begin(),
                    it->second.end())) {
      return false;
    }
    ++own;
  }
  return own == model.size();
}

std::map<std::string, uint64_t> ParseStats(const std::string& text) {
  std::map<std::string, uint64_t> out;
  std::istringstream is(text);
  std::string tok;
  while (is >> tok) {
    size_t eq = tok.find('=');
    if (eq != std::string::npos) {
      out[tok.substr(0, eq)] = std::stoull(tok.substr(eq + 1));
    }
  }
  return out;
}

}  // namespace

void RunServeMixed(const Options& opt, Report& report,
                   std::vector<SpanRecord>& trace) {
  const bool measure = opt.mode == Mode::kMeasure;
  const bool compact = opt.mode == Mode::kCompact;
  const Relation rows = ServeRows(Mix(opt.seed, 0xDA7A));
  const size_t cycle_attr = *rows.schema().IndexOf(kCycleAttr);
  std::string attrs;
  for (size_t a = 0; a < rows.arity(); ++a) {
    attrs += (a ? "," : "") + std::string(rows.schema().attr(a).name_view());
  }
  const std::string register_line = RegisterLine(rows);

  // Shares of the run's seconds: wsd gets the most, so that it too has
  // 200 samples for p95 (certain, the slowest kind, is 10% of requests,
  // so p90 would sit on its boundary).
  constexpr double kShare[] = {0.4, 0.2, 0.2, 0.2};
  // Client scripts, generated before any timing, sized for 3000 requests
  // per second per client over a 0.2 share (about three times the fastest
  // backend's rate today). A client that exhausts its script stops early
  // and the result notes it.
  const int cycles =
      compact ? 1 : static_cast<int>(opt.seconds * 0.2 * 3000 / 20) + 1;
  // Every backend's session starts from the same rows and replays the
  // same scripts, so each backend pass starts from `initial`.
  std::vector<Client> initial(kClients);
  for (int c = 0; c < kClients; ++c) {
    Client& cl = initial[static_cast<size_t>(c)];
    cl.id = c;
    for (size_t i = 0; i < rows.NumRows(); ++i) {
      auto row = rows.row(i).span();
      int64_t id = row[0].AsInt();
      if (id % kClients == c) cl.own[id] = {row.begin(), row.end()};
    }
    cl.script = MakeScript(opt.seed, c, cycle_attr, attrs, cl.own, cycles);
  }

  // Set-up: a server with one session per backend, each loaded by its
  // register line. Repeated 41 times when measuring (one set-up takes
  // about 13 ms; the median of 11 moved by a third from run to run),
  // median reported.
  std::unique_ptr<WorldServer> server;
  std::vector<double> setup_times;
  for (int rep = 0; rep < (measure ? 41 : 1); ++rep) {
    server.reset();
    double t0 = NowSeconds();
    server = std::make_unique<WorldServer>();
    for (const char* b : kBackends) {
      const std::string sid = std::string("s_") + b;
      auto open = maywsd::server::ParseRequest(std::string("open ") + sid +
                                               " " + b);
      auto reg = maywsd::server::ParseRequest(Splice(register_line, sid));
      maywsd::Status st = !open.ok()  ? open.status()
                          : !reg.ok() ? reg.status()
                                      : server->Execute(*open).status;
      if (st.ok()) st = server->Execute(*reg).status;
      if (!st.ok()) {
        std::fprintf(stderr, "serve_mixed setup failed on %s: %s\n", b,
                     st.ToString().c_str());
        std::exit(3);
      }
    }
    setup_times.push_back(NowSeconds() - t0);
  }
  if (measure) report.Set("setup_s", Median(setup_times), "s");

  // Corrupts the first conf answer checked (self-test of the checks).
  std::atomic<bool> corrupt{opt.corrupt};

  // One phase on backend b: every client runs its script until the time is
  // up (or, compact, one cycle of 20 requests).
  auto phase = [&](const char* b, std::vector<Client>& clients,
                   double seconds, bool traced) {
    const std::string sid = std::string("s_") + b;
    std::vector<Latencies> lat(kClients);
    std::vector<Report> checks(kClients);
    Tracer::SetEnabled(traced);
    double start = NowSeconds();
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        Client& cl = clients[static_cast<size_t>(c)];
        const size_t stop = compact ? cl.next + 20 : cl.script.size();
        // A client never stops between a delete and its insert.
        auto more = [&] {
          if (cl.next >= cl.script.size()) return false;
          if (cl.next > 0 && cl.script[cl.next - 1].erase) return true;
          return cl.next < stop &&
                 (compact || NowSeconds() - start < seconds);
        };
        while (more()) {
          const Line& line = cl.script[cl.next++];
          std::string text = Splice(line.text, sid);
          const char* kind = kKindNames[static_cast<int>(line.kind)];
          Tracer::BeginRequest();
          double t0 = NowSeconds();
          std::string out;
          Response resp;
          {
            Tracer::Span req("request", kind);
            maywsd::Result<Request> parsed = [&] {
              Tracer::Span span("server.ParseRequest", kind);
              return maywsd::server::ParseRequest(text);
            }();
            if (parsed.ok()) {
              Tracer::Span span("server.WorldServer::Execute",
                                std::string(kind) + "." + b);
              resp = server->Execute(*parsed);
            } else {
              resp.status = parsed.status();
            }
            Tracer::Span span("server.FormatResponse", kind);
            out = maywsd::server::FormatResponse(resp);
          }
          const double ms = (NowSeconds() - t0) * 1e3;
          lat[static_cast<size_t>(c)].Add(ms);
          cl.cycle_busy_s += ms / 1e3;
          if (cl.next % 20 == 0) {
            cl.cycle_s.push_back(cl.cycle_busy_s);
            cl.cycle_busy_s = 0;
          }

          // Advance the model, then check the answer against it.
          bool ok = resp.status.ok() && out.rfind("OK", 0) == 0;
          if (ok && line.kind == Kind::kApply) {
            if (line.erase) {
              cl.own.erase(line.id);
            } else {
              cl.own[line.id] = line.row;
            }
          } else if (ok && line.kind == Kind::kConf) {
            double got = resp.number.value_or(-1);
            if (corrupt.load() && corrupt.exchange(false)) got = 0.5;
            ok = got == line.expect;
          } else if (ok) {
            ok = resp.relation.has_value() &&
                 CheckRows(*resp.relation, cl, cl.own) &&
                 out.rfind("OK " + std::to_string(resp.relation->NumRows()) +
                               " rows",
                           0) == 0;
          }
          checks[static_cast<size_t>(c)].Check(
              ok, std::string(kind) + " on " + b + " broke the invariant: " +
                      out.substr(0, 80));
        }
      });
    }
    for (std::thread& t : threads) t.join();
    Tracer::SetEnabled(false);
    Latencies all;
    for (int c = 0; c < kClients; ++c) {
      const Latencies& l = lat[static_cast<size_t>(c)];
      all.ms.insert(all.ms.end(), l.ms.begin(), l.ms.end());
      all.busy_s += l.busy_s;
      const Report& r = checks[static_cast<size_t>(c)];
      report.attempted += r.attempted;
      report.failed += r.failed;
      report.notes.insert(report.notes.end(), r.notes.begin(),
                          r.notes.end());
      if (!compact &&
          clients[static_cast<size_t>(c)].next ==
              clients[static_cast<size_t>(c)].script.size()) {
        report.notes.push_back("serve_mixed client script exhausted");
      }
    }
    all.wall_s = NowSeconds() - start;
    return all;
  };

  // Quiescent invariants: possible = certain, 500 rows, equal to the
  // clients' models.
  auto check_final = [&](const char* b, const std::vector<Client>& clients) {
    const std::string sid = std::string("s_") + b;
    std::map<int64_t, std::vector<Value>> expected;
    for (const Client& c : clients) expected.insert(c.own.begin(), c.own.end());
    Response possible = server->Execute(
        *maywsd::server::ParseRequest("possible " + sid + " R"));
    Response certain = server->Execute(
        *maywsd::server::ParseRequest("certain " + sid + " R"));
    bool ok = possible.relation.has_value() && certain.relation.has_value() &&
              possible.relation->EqualsAsSet(*certain.relation) &&
              possible.relation->NumRows() == kRows;
    for (size_t i = 0; ok && i < possible.relation->NumRows(); ++i) {
      auto row = possible.relation->row(i).span();
      auto it = expected.find(row[0].AsInt());
      ok = it != expected.end() &&
           std::equal(row.begin(), row.end(), it->second.begin(),
                      it->second.end());
    }
    report.Check(ok, std::string("final possible/certain state on ") + b);
  };

  if (measure) {
    // The backends take turns, kTurns of them in a run, each running for
    // its share of a turn, so that a slow phase of the host falls on all of
    // them alike; every client's script resumes where its last turn
    // stopped. Before the first turn every backend runs an untimed, checked
    // warm-up phase of 0.1 s.
    constexpr int kTurns = 10;
    std::vector<std::vector<Client>> clients(kBackends.size(), initial);
    std::vector<Latencies> lats(kBackends.size());
    for (size_t bi = 0; bi < kBackends.size(); ++bi) {
      phase(kBackends[bi], clients[bi], 0.1, false);
      for (Client& cl : clients[bi]) cl.cycle_s.clear();
    }
    for (int turn = 0; turn < kTurns; ++turn) {
      for (size_t bi = 0; bi < kBackends.size(); ++bi) {
        Latencies l = phase(kBackends[bi], clients[bi],
                            opt.seconds * kShare[bi] / kTurns, false);
        lats[bi].ms.insert(lats[bi].ms.end(), l.ms.begin(), l.ms.end());
      }
    }
    for (size_t bi = 0; bi < kBackends.size(); ++bi) {
      // Throughput: the clients times 20 requests over the median time a
      // client spent inside the requests of one of its cycles of 20 (a
      // fixed mix). Requests over wall time moved with where the turns cut
      // the cycles, and so with how many of wsd's half-second `certain`s a
      // run completed.
      std::vector<double> cycles;
      for (const Client& cl : clients[bi]) {
        cycles.insert(cycles.end(), cl.cycle_s.begin(), cl.cycle_s.end());
      }
      double ops_per_s =
          cycles.empty() ? 0.0 : kClients * 20.0 / Median(cycles);
      report.AddEndToEnd(kBackends[bi], lats[bi], ops_per_s, 95);
      check_final(kBackends[bi], clients[bi]);
    }
    return;
  }

  // The per-layer passes, one backend after another.
  std::vector<double> overheads;
  for (size_t bi = 0; bi < kBackends.size(); ++bi) {
    const char* b = kBackends[bi];
    const double share = opt.seconds * kShare[bi];
    const std::string sid = std::string("s_") + b;
    std::vector<Client> clients = initial;
    auto stats_of = [&] {
      return ParseStats(
          server->Execute(*maywsd::server::ParseRequest("stats " + sid)).text);
    };

    Latencies untraced;
    if (!compact) untraced = phase(b, clients, share / 2, false);
    auto s0 = stats_of();
    Counters store0 = StoreCounters();
    maywsd::server::ServerStats server0 = server->Stats();
    Latencies traced = phase(b, clients, share / 2, true);
    maywsd::server::ServerStats server1 = server->Stats();
    Counters store = StoreCounters() - store0;
    auto s1 = stats_of();
    const std::string p = std::string("serve_mixed.") + b + ".";
    report.counters[p + "server_requests"] =
        server1.requests - server0.requests;
    report.counters[p + "server_errors"] = server1.errors - server0.errors;
    report.counters[p + "snapshot_reads"] =
        server1.snapshot_reads - server0.snapshot_reads;
    if (!compact) {
      overheads.push_back((traced.wall_s / double(traced.ms.size())) /
                              (untraced.wall_s / double(untraced.ms.size())) -
                          1.0);
      report.Set(std::string("core.forced_evals.") + b,
                 double(store.forced_evals), "count");
      report.Set(std::string("core.cow_breaks.") + b,
                 double(store.cow_breaks), "count");
    }
    double hits = double(s1["answer_cache_hits"] - s0["answer_cache_hits"]);
    double misses =
        double(s1["answer_cache_misses"] - s0["answer_cache_misses"]);
    report.Set(std::string("api.answer_cache_hit_ratio.") + b,
               hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
    report.Set(std::string("api.reader_blocked_waits.") + b,
               double(s1["reader_blocked_waits"] -
                      s0["reader_blocked_waits"]),
               "count");

    // Probe: Snapshot() pin + release on a session holding the same
    // rows, then the apply kinds through Session for the round trips the
    // stats verb does not print.
    Session probe = Session::Open(*maywsd::api::ParseBackendKind(b));
    report.Check(probe.Register(rows).ok(), "probe register");
    Tracer::SetEnabled(true);
    for (int i = 0; i < 200; ++i) {
      Tracer::Span span("api.Session::Snapshot", b);
      maywsd::api::Snapshot snap = probe.Snapshot();
      (void)snap;
    }
    Tracer::SetEnabled(false);
    int applies = 0;
    for (const Line& l : clients[0].script) {
      if (l.kind != Kind::kApply || ++applies > 8) continue;
      auto req = maywsd::server::ParseRequest(Splice(l.text, "p"));
      report.Check(req.ok() && req->update.has_value() &&
                       probe.Apply(*req->update).ok(),
                   "probe apply");
    }
    if (!compact && (std::string(b) == "uniform" || std::string(b) == "urel")) {
      report.Set(std::string("engine.round_trips.") + b,
                 double(probe.Stats().round_trips), "count");
    }
    check_final(b, clients);
  }

  std::vector<SpanRecord> spans = Tracer::Drain();
  auto sum = Summarize(spans);
  auto mean_ms = [&](const char* n, const std::string& tag) {
    auto it = sum.find({n, tag});
    return it == sum.end() || it->second.count == 0
               ? 0.0
               : it->second.total_s * 1e3 / double(it->second.count);
  };
  double parse_s = 0;
  uint64_t parse_n = 0;
  for (const char* kind : kKindNames) {
    auto it = sum.find({"server.ParseRequest", kind});
    if (it != sum.end()) {
      parse_s += it->second.total_s;
      parse_n += it->second.count;
    }
    report.Set(std::string("server.format_us.") + kind,
               mean_ms("server.FormatResponse", kind) * 1e3, "us");
    for (const char* b : kBackends) {
      report.Set(std::string("server.execute_ms.") + kind + "." + b,
                 mean_ms("server.WorldServer::Execute",
                         std::string(kind) + "." + b),
                 "ms");
    }
  }
  report.Set("server.parse_us", parse_n ? parse_s * 1e6 / double(parse_n) : 0.0,
             "us");
  for (const char* b : kBackends) {
    auto it = sum.find({"api.Session::Snapshot", b});
    report.Set(std::string("api.snapshot_pin_us.") + b,
               it == sum.end() ? 0.0 : Median(it->second.ms) * 1e3, "us");
  }
  if (!compact) {
    double mean = 0;
    for (double o : overheads) mean += o / double(overheads.size());
    report.Set("trace.overhead_frac", mean, "ratio");
  }
  trace.insert(trace.end(), spans.begin(), spans.end());
}

}  // namespace perfbench
