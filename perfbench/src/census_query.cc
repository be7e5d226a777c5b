// census_query: the Figure 30 analyst.
//
// One client, closed loop, sessions at threads=2. A request runs one of
// Q1–Q6 through Session::Run, reads PossibleTuplesWithConfidence of the
// result and Drops it; a round is Q1–Q6 plus a second Q1, in a seeded
// order, over one store. Seven requests per round keep the reported
// percentiles (p50 and the tail) off the boundaries between the queries'
// latency groups, where one sample more or less would swap the group they
// read.
// Stores are noisy census relations (0.1% or-set density) chased with the
// 12 Figure 25 dependencies: one 100 000-row store serves wsdt and urel,
// uniform rotates over 4 stores of 8 000 rows and wsd over 8 stores of 32
// rows (the largest sizes fig30 runs each backend at; small stores rotate
// so one seed's data does not decide a backend's figures). Every answer is
// compared with an untimed wsdt session over the same store.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "census/dependencies.h"
#include "census/ipums.h"
#include "census/noise.h"
#include "census/queries.h"
#include "common/rng.h"
#include "core/engine/plan_driver.h"
#include "core/wsdt_chase.h"
#include "rel/database.h"
#include "rel/eval.h"

namespace perfbench {
namespace {

using maywsd::Rng;
using maywsd::Status;
using maywsd::api::BackendKind;
using maywsd::api::Session;
using maywsd::rel::Relation;
using maywsd::rel::Value;

constexpr double kDensity = 0.001;
constexpr int kQueries = 6;
constexpr int kThreads = 2;

struct BackendSpec {
  const char* name;
  size_t rows;
  int stores;
  double share;  ///< of the run's seconds; sized for >= 12 rounds each
  /// The tail percentile, inside one query's latency group: on wsd p90
  /// lies among the Q5s (1/7 of requests, 150-210 ms against at most
  /// 35 ms for the rest); elsewhere p80 lies among Q4 and Q6 (wsdt), the
  /// upper Q3 and Q6 (uniform), or Q5 and Q6 (urel).
  double tail;
};
constexpr BackendSpec kSpecs[] = {{"wsd", 32, 8, 0.2, 90},
                                  {"wsdt", 100000, 1, 0.35, 80},
                                  {"uniform", 8000, 4, 0.25, 80},
                                  {"urel", 100000, 1, 0.2, 80}};

uint64_t Mix(uint64_t a, uint64_t b, uint64_t c) {
  return Rng(a * 0x9E3779B97F4A7C15ULL ^ (b << 20) ^ c).Next();
}

/// possibleᵖ(R) in canonical form: rows sorted, conf split off.
struct Answer {
  std::vector<std::pair<std::vector<Value>, double>> rows;

  static Answer Of(const Relation& r) {
    Answer a;
    size_t n = r.arity();
    for (size_t i = 0; i < r.NumRows(); ++i) {
      auto row = r.row(i).span();
      a.rows.emplace_back(std::vector<Value>(row.begin(), row.end() - 1),
                          row[n - 1].AsDouble());
    }
    std::sort(a.rows.begin(), a.rows.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    return a;
  }

  bool Matches(const Answer& ref) const {
    if (rows.size() != ref.rows.size()) return false;
    for (size_t i = 0; i < rows.size(); ++i) {
      if (rows[i].first != ref.rows[i].first) return false;
      if (std::fabs(rows[i].second - ref.rows[i].second) > 1e-9) return false;
    }
    return true;
  }
};

struct Store {
  Relation base;
  maywsd::core::Wsdt wsdt;
};

struct Backend {
  const BackendSpec* spec;
  BackendKind kind;
  std::vector<Session> sessions;  // one per store
};

struct Setup {
  std::map<size_t, std::vector<Store>> stores;  // by row count
  std::vector<Backend> backends;
};

maywsd::api::SessionOptions SessionOpts() {
  maywsd::api::SessionOptions o;
  o.threads = kThreads;
  return o;
}

/// Generates, noises and chases every store and opens every backend.
Setup BuildSetup(uint64_t seed) {
  const auto schema = maywsd::census::CensusSchema::Standard();
  Setup s;
  for (const BackendSpec& spec : kSpecs) {
    std::vector<Store>& stores = s.stores[spec.rows];
    if (!stores.empty()) continue;
    for (int i = 0; i < spec.stores; ++i) {
      Store st;
      {
        Tracer::Span span("census.GenerateCensus", "");
        st.base = maywsd::census::GenerateCensus(schema, spec.rows,
                                                 Mix(seed, spec.rows, 2 * i));
      }
      {
        Tracer::Span span("census.MakeNoisyWsdt", "");
        auto w = maywsd::census::MakeNoisyWsdt(
            st.base, schema, kDensity, Mix(seed, spec.rows, 2 * i + 1));
        if (!w.ok()) {
          std::fprintf(stderr, "noise: %s\n", w.status().ToString().c_str());
          std::exit(3);
        }
        st.wsdt = std::move(w).value();
      }
      {
        Tracer::Span span("core.WsdtChase", "");
        Status c = maywsd::core::WsdtChase(
            st.wsdt, maywsd::census::CensusDependencies("R"));
        if (!c.ok()) {
          std::fprintf(stderr, "chase: %s\n", c.ToString().c_str());
          std::exit(3);
        }
      }
      stores.push_back(std::move(st));
    }
  }
  for (const BackendSpec& spec : kSpecs) {
    Backend b{&spec, *maywsd::api::ParseBackendKind(spec.name), {}};
    for (const Store& st : s.stores[spec.rows]) {
      Tracer::Span span("core.Open", spec.name);
      auto session = Session::Open(b.kind, st.wsdt, SessionOpts());
      if (!session.ok()) {
        std::fprintf(stderr, "open: %s\n",
                     session.status().ToString().c_str());
        std::exit(3);
      }
      b.sessions.push_back(std::move(session).value());
    }
    s.backends.push_back(std::move(b));
  }
  return s;
}

/// Reference answers: an untimed single-threaded wsdt session per store.
std::map<size_t, std::vector<std::vector<Answer>>> ReferenceAnswers(
    const Setup& s) {
  std::map<size_t, std::vector<std::vector<Answer>>> ref;
  for (const auto& [rows, stores] : s.stores) {
    for (const Store& st : stores) {
      Session session = Session::Open(st.wsdt);
      std::vector<Answer> answers;
      for (int q = 1; q <= kQueries; ++q) {
        Status run = session.Run(maywsd::census::CensusQuery(q, "R"), "OUT");
        auto out = session.PossibleTuplesWithConfidence("OUT");
        if (!run.ok() || !out.ok() || !session.Drop("OUT").ok()) {
          std::fprintf(stderr, "reference Q%d failed\n", q);
          std::exit(3);
        }
        answers.push_back(Answer::Of(*out));
      }
      ref[rows].push_back(std::move(answers));
    }
  }
  return ref;
}

/// The query order of round `round`: a seeded permutation of Q1, Q1–Q6.
std::vector<int> RoundOrder(uint64_t seed, int round) {
  std::vector<int> order = {1, 1, 2, 3, 4, 5, 6};
  Rng rng(Mix(seed, 0xC0DE, static_cast<uint64_t>(round)));
  for (size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[rng.Uniform(i + 1)]);
  }
  return order;
}

/// One request: Run, answer, Drop. Returns latency ms; checks the answer.
double Request(Session& session, const char* backend, int q,
               const Answer& ref, bool corrupt, Report& report) {
  std::string tag = std::string(backend) + ".q" + std::to_string(q);
  Tracer::BeginRequest();
  double t0 = NowSeconds();
  maywsd::Result<Relation> out = Relation();
  Status run, drop;
  {
    Tracer::Span req("request", tag);
    {
      Counters before;
      if (Tracer::enabled()) before = Counters::Of(session.Stats());
      Tracer::Span span("api.Session::Run", tag);
      run = session.Run(maywsd::census::CensusQuery(q, "R"), "OUT");
      span.End();
      if (Tracer::enabled()) {
        span.SetDelta(Counters::Of(session.Stats()) - before);
      }
    }
    {
      Tracer::Span span("api.PossibleTuplesWithConfidence", backend);
      out = session.PossibleTuplesWithConfidence("OUT");
    }
    {
      Tracer::Span span("api.Session::Drop", backend);
      drop = session.Drop("OUT");
    }
  }
  double ms = (NowSeconds() - t0) * 1e3;
  bool ok = run.ok() && out.ok() && drop.ok();
  if (ok) {
    Answer got = Answer::Of(*out);
    if (corrupt && !got.rows.empty()) got.rows[0].second += 0.25;
    if (corrupt && got.rows.empty()) got.rows.push_back({{}, 1.0});
    ok = got.Matches(ref);
  }
  report.Check(ok, tag + " answer differs from the wsdt reference");
  return ms;
}

}  // namespace

void RunCensusQuery(const Options& opt, Report& report,
                    std::vector<SpanRecord>& trace) {
  const bool measure = opt.mode == Mode::kMeasure;
  const bool compact = opt.mode == Mode::kCompact;

  // Set-up: repeated three times when measuring, the median reported.
  std::vector<double> setup_times;
  Setup setup;
  Tracer::SetEnabled(!measure);
  for (int rep = 0; rep < (measure ? 3 : 1); ++rep) {
    setup = Setup();
    double t0 = NowSeconds();
    setup = BuildSetup(opt.seed);
    setup_times.push_back(NowSeconds() - t0);
  }
  Tracer::SetEnabled(false);
  std::vector<SpanRecord> spans = Tracer::Drain();
  if (measure) report.Set("setup_s", Median(setup_times), "s");

  auto reference = ReferenceAnswers(setup);
  bool corrupt = opt.corrupt;

  if (measure) {
    // The backends take turns, kTurns of them in a run, so that a slow
    // phase of the host falls on all of them alike. A backend plays whole
    // rounds in a turn until its time in the run reaches its share of the
    // turns so far (none, when one slow round already took it past), and
    // the last turn completes its cycle over its stores, so every store
    // weighs the same in every run (stores differ in cost by up to half).
    // Before the first turn every backend plays one untimed, checked round
    // to warm up.
    constexpr int kTurns = 10;
    const size_t n = setup.backends.size();
    std::vector<Latencies> lats(n);
    std::vector<int> rounds(n, 0);
    std::vector<double> spent(n, 0);
    auto play = [&](size_t bi, int round, Latencies& lat) {
      Backend& b = setup.backends[bi];
      int store = round % b.spec->stores;
      Session& session = b.sessions[static_cast<size_t>(store)];
      for (int q : RoundOrder(opt.seed, round)) {
        lat.Add(Request(session, b.spec->name, q,
                        reference[b.spec->rows][static_cast<size_t>(store)]
                                 [static_cast<size_t>(q - 1)],
                        corrupt, report));
        corrupt = false;
      }
      lat.EndRound();
    };
    for (size_t bi = 0; bi < n; ++bi) {
      Latencies warmup;
      play(bi, 0, warmup);
    }
    for (int turn = 0; turn < kTurns; ++turn) {
      for (size_t bi = 0; bi < n; ++bi) {
        const BackendSpec& spec = *setup.backends[bi].spec;
        const double quota = opt.seconds * spec.share * (turn + 1) / kTurns;
        const bool last = turn == kTurns - 1;
        while (spent[bi] < quota ||
               (last && (rounds[bi] == 0 || rounds[bi] % spec.stores != 0))) {
          double t0 = NowSeconds();
          play(bi, rounds[bi]++, lats[bi]);
          spent[bi] += NowSeconds() - t0;
        }
      }
    }
    for (size_t bi = 0; bi < n; ++bi) {
      const BackendSpec& spec = *setup.backends[bi].spec;
      report.AddEndToEnd(spec.name, lats[bi], BlockRate(lats[bi], 1),
                         spec.tail);
    }
    return;
  }

  // The per-layer passes: per-backend closed loops, one backend after
  // another.
  std::vector<double> overheads;
  for (Backend& b : setup.backends) {
    const std::string name = b.spec->name;
    // Whole cycles over the backend's stores, so every store weighs the
    // same in every run (stores differ in cost by up to half).
    const int stores = b.spec->stores;
    Budget budget{opt.seconds * b.spec->share, 2 * stores,
                  compact ? 2 * stores : 0};
    Latencies untraced, traced;
    double start = NowSeconds();
    for (int round = 0; budget.Continue(round, NowSeconds() - start) ||
                        round % stores != 0;
         ++round) {
      // Every other cycle is traced, so the traced and untraced halves see
      // the same stores and conditions; the first traced round is the fixed
      // round the structural counters are taken over.
      const bool trace_round = (round / stores) % 2 == 1;
      const bool counter_round = round == stores;
      Latencies& lat = trace_round ? traced : untraced;
      int store = round % stores;
      Session& session = b.sessions[static_cast<size_t>(store)];
      Counters before = Counters::Of(session.Stats());
      Tracer::SetEnabled(trace_round);
      for (int q : RoundOrder(opt.seed, round)) {
        lat.Add(Request(session, b.spec->name, q,
                        reference[b.spec->rows][static_cast<size_t>(store)]
                                 [static_cast<size_t>(q - 1)],
                        corrupt, report));
        corrupt = false;
      }
      lat.EndRound();
      Tracer::SetEnabled(false);
      if (counter_round) {
        Counters d = Counters::Of(session.Stats()) - before;
        report.counters["census_query." + name + ".round_trips"] =
            d.round_trips;
        report.counters["census_query." + name + ".sharded_runs"] =
            d.sharded_runs;
        report.counters["census_query." + name + ".fallback_runs"] =
            d.fallback_runs;
        report.counters["census_query." + name + ".forced_evals"] =
            d.forced_evals;
        report.counters["census_query." + name + ".cow_breaks"] = d.cow_breaks;
        if (opt.mode == Mode::kTrace) {
          report.Set("core.forced_evals." + name, double(d.forced_evals),
                     "count");
          report.Set("core.cow_breaks." + name, double(d.cow_breaks), "count");
          if (name == "uniform" || name == "urel") {
            report.Set("engine.round_trips." + name, double(d.round_trips),
                       "count");
          }
        }
      }
    }
    overheads.push_back(traced.Mean() / untraced.Mean() - 1.0);

    // Layer probes: engine::Evaluate on a Fork's ops(), rel::Evaluate on
    // the one-world base relation.
    const int reps = std::max(3, stores);
    Tracer::SetEnabled(true);
    for (int q = 1; q <= kQueries; ++q) {
      std::string tag = name + ".q" + std::to_string(q);
      for (int rep = 0; rep < reps; ++rep) {
        Session fork = b.sessions[static_cast<size_t>(rep % stores)].Fork();
        Tracer::Span span("engine.Evaluate", tag);
        Status st = maywsd::core::engine::Evaluate(
            fork.ops(), maywsd::census::CensusQuery(q, "R"), "OUT");
        report.Check(st.ok(), tag + " engine::Evaluate failed");
      }
      const std::vector<Store>& bases = setup.stores[b.spec->rows];
      for (int rep = 0; rep < reps; ++rep) {
        maywsd::rel::Database db;
        db.PutRelation(bases[static_cast<size_t>(rep) % bases.size()].base);
        Tracer::Span span("rel.Evaluate", std::to_string(b.spec->rows) + ".q" +
                                              std::to_string(q));
        auto out = maywsd::rel::Evaluate(maywsd::census::CensusQuery(q, "R"),
                                         db);
        report.Check(out.ok(), tag + " rel::Evaluate failed");
      }
    }
    Tracer::SetEnabled(false);
    std::vector<SpanRecord> more = Tracer::Drain();
    spans.insert(spans.end(), more.begin(), more.end());
  }

  // -- Per-layer metrics from the spans --------------------------------------
  auto sum = Summarize(spans);
  auto total = [&](const char* n, const std::string& tag) {
    auto it = sum.find({n, tag});
    return it == sum.end() ? 0.0 : it->second.total_s;
  };
  auto median_ms = [&](const char* n, const std::string& tag) {
    auto it = sum.find({n, tag});
    return it == sum.end() ? 0.0 : Median(it->second.ms);
  };
  report.Set("census.generate_s", total("census.GenerateCensus", ""), "s");
  report.Set("census.noise_s", total("census.MakeNoisyWsdt", ""), "s");
  report.Set("core.chase_s", total("core.WsdtChase", ""), "s");
  for (const BackendSpec& spec : kSpecs) {
    const std::string name = spec.name;
    report.Set("core.open_s." + name, total("core.Open", name), "s");
    double run_sum = 0, eval_sum = 0, oneworld_sum = 0;
    Counters run_delta;
    for (int q = 1; q <= kQueries; ++q) {
      std::string tag = name + ".q" + std::to_string(q);
      double eval = median_ms("engine.Evaluate", tag);
      double run = median_ms("api.Session::Run", tag);
      report.Set("engine.eval_ms." + tag, eval, "ms");
      run_sum += run;
      eval_sum += eval;
      oneworld_sum += median_ms(
          "rel.Evaluate", std::to_string(spec.rows) + ".q" + std::to_string(q));
      auto it = sum.find({"api.Session::Run", tag});
      if (it != sum.end()) run_delta += it->second.delta;
    }
    report.Set("engine.fanout_ratio." + name,
               run_delta.runs ? double(run_delta.sharded_runs) /
                                    double(run_delta.runs)
                              : 0.0,
               "ratio");
    report.Set("api.run_overhead_ms." + name, (run_sum - eval_sum) / kQueries,
               "ms");
    auto ans = sum.find({"api.PossibleTuplesWithConfidence", name});
    report.Set("api.answer_ms." + name,
               ans == sum.end() ? 0.0
                                : ans->second.total_s * 1e3 /
                                      double(ans->second.count),
               "ms");
    report.Set("rel.vs_oneworld_x." + name,
               oneworld_sum > 0 ? run_sum / oneworld_sum : 0.0, "ratio");
  }
  for (int q = 1; q <= kQueries; ++q) {
    report.Set("rel.oneworld_ms.q" + std::to_string(q),
               median_ms("rel.Evaluate", "100000.q" + std::to_string(q)), "ms");
  }
  if (!compact) {
    double mean = 0;
    for (double o : overheads) mean += o / double(overheads.size());
    report.Set("trace.overhead_frac", mean, "ratio");
  }
  trace.insert(trace.end(), spans.begin(), spans.end());
}

}  // namespace perfbench
