// The serving subsystem: WorldServer request dispatch, the serve_worlds
// line protocol, and the MVCC snapshot-isolation oracle.
//
// The oracle is the load-bearing test (and the one the TSan CI job runs):
// reader threads take Session::Snapshot()s while a writer thread applies
// a known update sequence. Every snapshot records its pinned version of
// the target relation plus the answer it saw; afterwards the same update
// sequence replays serially on a fresh session, building the
// version → relation truth table. Snapshot isolation holds iff every
// concurrent observation equals the serial state at its pinned version —
// no torn reads, no observations of a version that never existed.

#include "server/world_server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "server/protocol.h"
#include "tests/test_util.h"

namespace maywsd::server {
namespace {

using rel::CmpOp;
using rel::Plan;
using rel::Predicate;
using rel::Value;
using testutil::I;

rel::Relation BaseRelation() {
  rel::Relation r(rel::Schema::FromNames({"A"}), "R");
  r.AppendRow({I(1)});
  r.AppendRow({I(2)});
  r.AppendRow({I(3)});
  return r;
}

/// The writer's script: an alternating insert/delete sequence whose every
/// step changes possible(R), so distinct versions have distinct answers.
std::vector<rel::UpdateOp> WriterScript(int steps) {
  std::vector<rel::UpdateOp> ops;
  for (int k = 0; k < steps; ++k) {
    if (k % 2 == 0) {
      rel::Relation rows(rel::Schema::FromNames({"A"}), "R");
      rows.AppendRow({I(100 + k)});
      ops.push_back(rel::UpdateOp::InsertTuples("R", std::move(rows)));
    } else {
      ops.push_back(rel::UpdateOp::DeleteWhere(
          "R", Predicate::Cmp("A", CmpOp::kEq, I(100 + k - 1))));
    }
  }
  return ops;
}

TEST(SnapshotIsolationOracle, ConcurrentSnapshotsEqualSerialReplay) {
  constexpr int kWriterSteps = 24;
  constexpr int kReaders = 4;
  const std::vector<rel::UpdateOp> script = WriterScript(kWriterSteps);

  for (api::BackendKind kind : testutil::AllBackendKinds()) {
    api::Session session = api::Session::Open(kind);
    ASSERT_TRUE(session.Register(BaseRelation()).ok());

    struct Observation {
      uint64_t version;
      rel::Relation rows;
    };
    std::vector<std::vector<Observation>> observed(kReaders);
    std::atomic<bool> writer_done{false};

    std::vector<std::thread> readers;
    readers.reserve(kReaders);
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back([&session, &observed, &writer_done, r] {
        do {
          api::Snapshot snapshot = session.Snapshot();
          uint64_t version = snapshot.RelationVersion("R");
          auto rows = snapshot.PossibleTuples("R");
          ASSERT_TRUE(rows.ok());
          // A snapshot's own reads never wait behind the writer.
          EXPECT_EQ(snapshot.Stats().reader_blocked_waits, 0u);
          observed[r].push_back({version, std::move(rows.value())});
        } while (!writer_done.load(std::memory_order_acquire));
      });
    }
    std::thread writer([&session, &script, &writer_done] {
      for (const rel::UpdateOp& op : script) {
        ASSERT_TRUE(session.Apply(op).ok());
      }
      writer_done.store(true, std::memory_order_release);
    });
    writer.join();
    for (std::thread& t : readers) t.join();

    // Serial replay: the truth table version → possible(R).
    api::Session replay = api::Session::Open(kind);
    ASSERT_TRUE(replay.Register(BaseRelation()).ok());
    std::unordered_map<uint64_t, rel::Relation> truth;
    auto record = [&truth, &replay] {
      auto rows = replay.PossibleTuples("R");
      ASSERT_TRUE(rows.ok());
      truth.emplace(replay.RelationVersion("R"), std::move(rows.value()));
    };
    record();
    for (const rel::UpdateOp& op : script) {
      ASSERT_TRUE(replay.Apply(op).ok());
      record();
    }

    size_t total = 0;
    for (int r = 0; r < kReaders; ++r) {
      total += observed[r].size();
      for (const Observation& obs : observed[r]) {
        auto it = truth.find(obs.version);
        ASSERT_NE(it, truth.end())
            << api::BackendKindName(kind) << ": snapshot pinned version "
            << obs.version << ", which no serial state ever had";
        EXPECT_TRUE(obs.rows.EqualsAsSet(it->second))
            << api::BackendKindName(kind) << " at version " << obs.version;
      }
    }
    EXPECT_GT(total, 0u);
    EXPECT_GE(session.Stats().snapshots, total);
  }
}

TEST(WorldServerTest, SessionLifecycleAndErrors) {
  WorldServer server;

  Request open;
  open.kind = Request::Kind::kOpenSession;
  open.session = "s1";
  open.backend = api::BackendKind::kWsdt;
  EXPECT_TRUE(server.Execute(open).status.ok());
  EXPECT_EQ(server.Execute(open).status.code(), StatusCode::kAlreadyExists);

  Request missing;
  missing.kind = Request::Kind::kPossible;
  missing.session = "nope";
  missing.target = "R";
  EXPECT_EQ(server.Execute(missing).status.code(), StatusCode::kNotFound);

  EXPECT_EQ(server.SessionIds(), std::vector<std::string>{"s1"});

  Request close;
  close.kind = Request::Kind::kCloseSession;
  close.session = "s1";
  EXPECT_TRUE(server.Execute(close).status.ok());
  EXPECT_EQ(server.Execute(close).status.code(), StatusCode::kNotFound);
  EXPECT_TRUE(server.SessionIds().empty());

  ServerStats stats = server.Stats();
  EXPECT_EQ(stats.requests, 5u);
  EXPECT_EQ(stats.errors, 3u);
  EXPECT_EQ(stats.sessions_opened, 1u);
}

TEST(WorldServerTest, RegisterRunAnswerRoundTrip) {
  WorldServer server;
  Request open;
  open.kind = Request::Kind::kOpenSession;
  open.session = "s";
  open.backend = api::BackendKind::kUrel;
  ASSERT_TRUE(server.Execute(open).status.ok());

  Request reg;
  reg.kind = Request::Kind::kRegister;
  reg.session = "s";
  reg.relation = BaseRelation();
  ASSERT_TRUE(server.Execute(reg).status.ok());

  Request run;
  run.kind = Request::Kind::kRun;
  run.session = "s";
  run.target = "Q";
  run.plan = Plan::Select(Predicate::Cmp("A", CmpOp::kGe, I(2)),
                          Plan::Scan("R"));
  ASSERT_TRUE(server.Execute(run).status.ok());

  Request possible;
  possible.kind = Request::Kind::kPossible;
  possible.session = "s";
  possible.target = "Q";
  Response got = server.Execute(possible);
  ASSERT_TRUE(got.status.ok());
  ASSERT_TRUE(got.relation.has_value());
  EXPECT_EQ(got.relation->NumRows(), 2u);

  Request snap_read = possible;
  snap_read.kind = Request::Kind::kSnapshotRead;
  Response via_snapshot = server.Execute(snap_read);
  ASSERT_TRUE(via_snapshot.status.ok());
  EXPECT_TRUE(via_snapshot.relation->EqualsAsSet(*got.relation));
  EXPECT_EQ(server.Stats().snapshot_reads, 1u);
}

TEST(WorldServerTest, ExecuteAllServesMixedTrafficConcurrently) {
  // Many sessions, mixed reads/updates in one batch over the shared pool:
  // responses land in request order, every request against an open
  // session succeeds.
  WorldServer server;
  constexpr int kSessions = 6;
  for (int s = 0; s < kSessions; ++s) {
    Request open;
    open.kind = Request::Kind::kOpenSession;
    open.session = "s" + std::to_string(s);
    open.backend =
        testutil::AllBackendKinds()[s % testutil::AllBackendKinds().size()];
    ASSERT_TRUE(server.Execute(open).status.ok());
    Request reg;
    reg.kind = Request::Kind::kRegister;
    reg.session = open.session;
    reg.relation = BaseRelation();
    ASSERT_TRUE(server.Execute(reg).status.ok());
  }

  std::vector<Request> batch;
  for (int i = 0; i < 48; ++i) {
    Request req;
    req.session = "s" + std::to_string(i % kSessions);
    req.target = "R";
    switch (i % 3) {
      case 0:
        req.kind = Request::Kind::kSnapshotRead;
        break;
      case 1:
        req.kind = Request::Kind::kApply;
        req.update = rel::UpdateOp::DeleteWhere(
            "R", Predicate::Cmp("A", CmpOp::kLt, I(0)));  // no-op delete
        break;
      default:
        req.kind = Request::Kind::kPossible;
        break;
    }
    batch.push_back(std::move(req));
  }
  std::vector<Response> responses = server.ExecuteAll(batch);
  ASSERT_EQ(responses.size(), batch.size());
  for (size_t i = 0; i < responses.size(); ++i) {
    EXPECT_TRUE(responses[i].status.ok()) << "request " << i;
    if (batch[i].kind != Request::Kind::kApply) {
      ASSERT_TRUE(responses[i].relation.has_value()) << "request " << i;
      EXPECT_EQ(responses[i].relation->NumRows(), 3u) << "request " << i;
    }
  }
  EXPECT_EQ(server.Stats().errors, 0u);
}

TEST(ProtocolTest, ParsesEveryVerb) {
  auto open = ParseRequest("open s wsd");
  ASSERT_TRUE(open.ok());
  EXPECT_EQ(open->kind, Request::Kind::kOpenSession);
  EXPECT_EQ(open->session, "s");
  EXPECT_EQ(open->backend, api::BackendKind::kWsd);

  auto reg = ParseRequest("register s R a,b 1,2 3,x");
  ASSERT_TRUE(reg.ok());
  EXPECT_EQ(reg->kind, Request::Kind::kRegister);
  ASSERT_TRUE(reg->relation.has_value());
  EXPECT_EQ(reg->relation->name(), "R");
  EXPECT_EQ(reg->relation->NumRows(), 2u);
  EXPECT_TRUE(reg->relation->row(1).span()[1].is_string());

  auto run = ParseRequest("run s Q select R a >= 2");
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->kind, Request::Kind::kRun);
  EXPECT_EQ(run->target, "Q");
  ASSERT_TRUE(run->plan.has_value());
  EXPECT_EQ(run->plan->kind(), Plan::Kind::kSelect);

  auto insert = ParseRequest("apply s insert R a,b 7,8");
  ASSERT_TRUE(insert.ok());
  EXPECT_EQ(insert->update->kind(), rel::UpdateOp::Kind::kInsert);

  auto del = ParseRequest("apply s delete R a = 1");
  ASSERT_TRUE(del.ok());
  EXPECT_EQ(del->update->kind(), rel::UpdateOp::Kind::kDelete);

  auto modify = ParseRequest("apply s modify R a = 1 set b=9,a=0");
  ASSERT_TRUE(modify.ok());
  EXPECT_EQ(modify->update->kind(), rel::UpdateOp::Kind::kModify);
  EXPECT_EQ(modify->update->assignments().size(), 2u);

  EXPECT_EQ(ParseRequest("possible s R")->kind, Request::Kind::kPossible);
  EXPECT_EQ(ParseRequest("certain s R")->kind, Request::Kind::kCertain);
  EXPECT_EQ(ParseRequest("read s R")->kind, Request::Kind::kSnapshotRead);
  EXPECT_EQ(ParseRequest("stats s")->kind, Request::Kind::kStats);
  EXPECT_EQ(ParseRequest("sessions")->kind, Request::Kind::kListSessions);

  auto conf = ParseRequest("conf s R 1,2");
  ASSERT_TRUE(conf.ok());
  EXPECT_EQ(conf->kind, Request::Kind::kConfidence);
  ASSERT_EQ(conf->tuple.size(), 2u);
  EXPECT_EQ(conf->tuple[0], I(1));
}

TEST(ProtocolTest, RejectsMalformedRequests) {
  for (const char* bad :
       {"", "frobnicate s", "open s cassandra", "open s", "run s Q",
        "run s Q select R a ~ 2", "apply s insert R", "apply s modify R a = 1",
        "register s R", "conf s R",
        // Truncated/doubled commas: the grammar cannot spell an empty
        // value or attribute, so these are rejected, not parsed as "".
        "register s R a,b 1,", "register s R a, 1,2", "conf s R 1,",
        "conf s R ,1", "run s Q project R a,",
        "apply s modify R a = 1 set b=", "apply s insert R a,b 1,,2"}) {
    auto req = ParseRequest(bad);
    EXPECT_FALSE(req.ok()) << "\"" << bad << "\" parsed";
  }
}

// FormatRequest is the canonical inverse of ParseRequest:
// Format(Parse(line)) == line for every canonical line, and
// Parse(Format(request)) reproduces the request. The corpus spans every
// verb and every expressible plan/update shape.
TEST(ProtocolTest, FormatParseRoundTripIsIdentityOnCanonicalLines) {
  const char* canonical[] = {
      "open s wsd",
      "open s2 urel",
      "close s",
      "sessions",
      "register s R a,b 1,2 3,x",
      "register s Empty a,b",
      "run s Q scan R",
      "run s Q select R a >= 2",
      "run s Q select R name != bob",
      "run s Q project R b,a",
      "apply s insert R a,b 7,8 9,zed",
      "apply s delete R a = 1",
      "apply s modify R a <= 1 set b=9,a=0",
      "possible s R",
      "certain s Q",
      "conf s R 1,2",
      "read s R",
      "stats s",
  };
  for (const char* line : canonical) {
    SCOPED_TRACE(line);
    auto request = ParseRequest(line);
    ASSERT_TRUE(request.ok()) << request.status().message();
    auto formatted = FormatRequest(*request);
    ASSERT_TRUE(formatted.ok()) << formatted.status().message();
    EXPECT_EQ(*formatted, line);
    // And a second trip through the parser lands on the same text.
    auto reparsed = ParseRequest(*formatted);
    ASSERT_TRUE(reparsed.ok());
    auto reformatted = FormatRequest(*reparsed);
    ASSERT_TRUE(reformatted.ok());
    EXPECT_EQ(*reformatted, *formatted);
  }
}

// Generated property sweep: random (but canonical) requests survive
// Format → Parse → Format untouched, across every verb, operator and
// value shape the grammar can express.
TEST(ProtocolTest, GeneratedRequestsRoundTrip) {
  testutil::SeededRng rng(424242);
  MAYWSD_SEED_TRACE(rng);
  const char* ops[] = {"=", "!=", "<>", "<", "<=", ">", ">="};
  const char* names[] = {"R", "S", "T2", "rel_x"};
  auto value = [&]() -> std::string {
    if (rng.Bernoulli(0.5)) {
      return std::to_string(static_cast<int64_t>(rng.Uniform(200)) - 100);
    }
    const char* words[] = {"alice", "bob", "x", "zed-9"};
    return words[rng.Uniform(4)];
  };
  for (int i = 0; i < 200; ++i) {
    std::string line;
    const char* rel = names[rng.Uniform(4)];
    switch (rng.Uniform(6)) {
      case 0:
        line = std::string("run s Q select ") + rel + " a " +
               ops[rng.Uniform(7)] + " " + value();
        break;
      case 1:
        line = std::string("run s Q scan ") + rel;
        break;
      case 2:
        line = std::string("apply s delete ") + rel + " b " +
               ops[rng.Uniform(7)] + " " + value();
        break;
      case 3:
        line = std::string("apply s insert ") + rel + " a,b " + value() +
               "," + value();
        break;
      case 4:
        line = std::string("apply s modify ") + rel + " a " +
               ops[rng.Uniform(7)] + " " + value() + " set b=" + value();
        break;
      default:
        line = std::string("conf s ") + rel + " " + value() + "," + value();
        break;
    }
    // "<>" parses but canonicalizes to "!=": normalize the expectation.
    std::string expected = line;
    if (size_t pos = expected.find("<>"); pos != std::string::npos) {
      expected.replace(pos, 2, "!=");
    }
    SCOPED_TRACE(line);
    auto request = ParseRequest(line);
    ASSERT_TRUE(request.ok()) << request.status().message();
    auto formatted = FormatRequest(*request);
    ASSERT_TRUE(formatted.ok()) << formatted.status().message();
    EXPECT_EQ(*formatted, expected);
  }
}

// Truncations of valid lines and malformed mutants must be rejected with
// an error status — never a crash, never a silent partial parse of a
// *shorter-arity* verb... unless the truncation happens to be a complete
// valid request itself (e.g. "conf s R 1,2" → "conf s R" is invalid, but
// "apply s insert R a,b 7,8 9,9" → "... 7,8" is valid). Accepting those
// is correct; everything else must fail.
TEST(ProtocolTest, TruncatedLinesRejectOrStayValid) {
  const char* lines[] = {
      "open s wsd",
      "register s R a,b 1,2",
      "run s Q select R a >= 2",
      "apply s modify R a = 1 set b=9",
      "conf s R 1,2",
  };
  for (const char* line : lines) {
    std::string full(line);
    for (size_t cut = 0; cut < full.size(); ++cut) {
      std::string prefix = full.substr(0, cut);
      auto request = ParseRequest(prefix);
      if (!request.ok()) continue;  // rejected: fine
      // Anything accepted must round-trip as a genuinely valid request.
      auto formatted = FormatRequest(*request);
      ASSERT_TRUE(formatted.ok()) << "\"" << prefix << "\"";
      auto reparsed = ParseRequest(*formatted);
      ASSERT_TRUE(reparsed.ok()) << "\"" << prefix << "\"";
      EXPECT_EQ(reparsed->kind, request->kind) << "\"" << prefix << "\"";
    }
  }
}

TEST(ProtocolTest, FormatsResponses) {
  Response err;
  err.status = Status::NotFound("session x");
  EXPECT_EQ(FormatResponse(err).rfind("ERR ", 0), 0u);

  Response rows;
  rows.relation = BaseRelation();
  EXPECT_EQ(FormatResponse(rows), "OK 3 rows\n1\n2\n3");

  Response number;
  number.number = 0.5;
  EXPECT_EQ(FormatResponse(number), "OK 0.5");

  Response ack;
  ack.text = "opened s";
  EXPECT_EQ(FormatResponse(ack), "OK opened s");

  EXPECT_EQ(FormatResponse(Response{}), "OK");

  // Every value spelling an answer can carry, row by row.
  rel::Relation mixed(rel::Schema::FromNames({"a", "b", "c"}), "M");
  mixed.AppendRow({I(std::numeric_limits<int64_t>::min()),
                   I(std::numeric_limits<int64_t>::max()), I(-42)});
  mixed.AppendRow({Value::String("it's, x"), Value::Bottom(),
                   Value::Question()});
  mixed.AppendRow({Value::Double(0.1), Value::Double(1e-05),
                   Value::Double(1e+21)});
  mixed.AppendRow({Value::Double(-2.5), I(0), Value::String("")});
  Response all;
  all.relation = mixed;
  EXPECT_EQ(FormatResponse(all),
            "OK 4 rows\n"
            "-9223372036854775808,9223372036854775807,-42\n"
            "'it's, x',\xe2\x8a\xa5,?\n"
            "0.1,1e-05,1e+21\n"
            "-2.5,0,''");

  Response none;
  none.relation = rel::Relation(rel::Schema::FromNames({"a", "b"}), "E");
  EXPECT_EQ(FormatResponse(none), "OK 0 rows");

  number.number = 1.0 / 3;
  EXPECT_EQ(FormatResponse(number), "OK 0.333333");
  number.number = 1e-05;
  EXPECT_EQ(FormatResponse(number), "OK 1e-05");
  number.number = 1.0;
  EXPECT_EQ(FormatResponse(number), "OK 1");
}

/// A cell as the stream-based formatter spelled it: std::to_string for
/// ints, default `std::ostream << double` for doubles, quoted strings.
std::string StreamCell(const Value& v) {
  switch (v.kind()) {
    case rel::ValueKind::kBottom:
      return "\xe2\x8a\xa5";
    case rel::ValueKind::kQuestion:
      return "?";
    case rel::ValueKind::kInt:
      return std::to_string(v.AsInt());
    case rel::ValueKind::kDouble: {
      std::ostringstream os;
      os << v.AsDouble();
      return os.str();
    }
    case rel::ValueKind::kString:
      return "'" + std::string(v.AsStringView()) + "'";
  }
  return "<invalid>";
}

/// The stream-based response formatter, kept as the reference text.
std::string StreamFormat(const rel::Relation& r) {
  std::ostringstream os;
  os << "OK";
  os << " " << r.NumRows() << " rows";
  for (size_t i = 0; i < r.NumRows(); ++i) {
    os << "\n";
    const auto row = r.row(i).span();
    for (size_t c = 0; c < row.size(); ++c) {
      os << (c == 0 ? "" : ",") << StreamCell(row[c]);
    }
  }
  return os.str();
}

Value RandomCell(testutil::SeededRng& rng) {
  switch (rng.Uniform(6)) {
    case 0:
      return I(rng.UniformInt(-1000, 100000));
    case 1:
      return I(static_cast<int64_t>(rng.Next()));
    case 2: {
      const char* words[] = {"", "x", "it's", "a,b", "zed-9", "\xe2\x8a\xa5",
                             "two words"};
      return Value::String(words[rng.Uniform(std::size(words))]);
    }
    case 3:
      return rng.Bernoulli(0.5) ? Value::Bottom() : Value::Question();
    default: {
      // Mantissas over thirty decades, plus the values %.6g rounds across
      // a power of ten, integral doubles, signed zeros and infinities.
      const double specials[] = {0.0,     -0.0,     1.0,     -3.0,
                                 999999.5, 9999995., 0.0001,  0.00001,
                                 1e+21,   -2.5,     1.0 / 3, 123456789.0,
                                 std::numeric_limits<double>::infinity(),
                                 -std::numeric_limits<double>::infinity()};
      if (rng.Bernoulli(0.3)) {
        return Value::Double(specials[rng.Uniform(std::size(specials))]);
      }
      const double sign = rng.Bernoulli(0.5) ? 1.0 : -1.0;
      const double exponent = static_cast<double>(rng.UniformInt(-12, 18));
      return Value::Double(sign * rng.NextDouble() * std::pow(10.0, exponent));
    }
  }
}

// FormatResponse writes the same bytes the stream formatter did, over
// random relations of every value kind.
TEST(ProtocolTest, FormatResponseMatchesStreamFormatting) {
  testutil::SeededRng rng(19190);
  MAYWSD_SEED_TRACE(rng);
  for (int i = 0; i < 200; ++i) {
    const size_t arity = 1 + rng.Uniform(6);
    std::vector<std::string> names;
    for (size_t a = 0; a < arity; ++a) names.push_back("c" + std::to_string(a));
    rel::Relation r(rel::Schema::FromNames(names), "R");
    const size_t rows = rng.Uniform(25);
    std::vector<Value> row(arity);
    for (size_t k = 0; k < rows; ++k) {
      for (Value& v : row) v = RandomCell(rng);
      r.AppendRow(row);
    }
    SCOPED_TRACE(i);
    Response response;
    response.relation = r;
    EXPECT_EQ(FormatResponse(response), StreamFormat(r));
  }
}

// Any mix of the whitespace characters `operator>>` skips separates
// tokens, leading and trailing runs included.
TEST(ProtocolTest, ParsesMixedWhitespaceSeparators) {
  const std::pair<const char*, const char*> cases[] = {
      {"run\ts\vQ\fselect  R\r a >=\t\v2", "run s Q select R a >= 2"},
      {" \f register\vs\tR a,b\f1,2\v3,x\r\n", "register s R a,b 1,2 3,x"},
      {"\tapply s\v\fdelete R a = 1\r", "apply s delete R a = 1"},
      {"conf\f\fs\vR\t1,2", "conf s R 1,2"},
  };
  for (const auto& [line, canonical] : cases) {
    SCOPED_TRACE(canonical);
    auto request = ParseRequest(line);
    ASSERT_TRUE(request.ok()) << request.status().message();
    auto formatted = FormatRequest(*request);
    ASSERT_TRUE(formatted.ok()) << formatted.status().message();
    EXPECT_EQ(*formatted, canonical);
  }
  EXPECT_FALSE(ParseRequest(" \t\v\f\r\n").ok());
}

// Integer tokens follow strtoll's decimal grammar: an optional sign, then
// digits, clamped to the int64 range; everything else is a string.
TEST(ProtocolTest, ParsesIntegerTokensLikeStrtoll) {
  auto conf = ParseRequest(
      "conf s R +5,-0,007,99999999999999999999,-99999999999999999999,+-5,-,"
      "+,1x,0x10");
  ASSERT_TRUE(conf.ok()) << conf.status().message();
  const std::vector<Value> want = {
      I(5),
      I(0),
      I(7),
      I(std::numeric_limits<int64_t>::max()),
      I(std::numeric_limits<int64_t>::min()),
      Value::String("+-5"),
      Value::String("-"),
      Value::String("+"),
      Value::String("1x"),
      Value::String("0x10")};
  ASSERT_EQ(conf->tuple.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(conf->tuple[i], want[i]) << i;
    EXPECT_EQ(conf->tuple[i].kind(), want[i].kind()) << i;
  }

  // A string that would re-tokenize or re-parse as an integer has no
  // wire spelling.
  for (const char* bad : {"a\vb", "a\fb", "a,b", "+5", "-12"}) {
    Request request;
    request.kind = Request::Kind::kConfidence;
    request.session = "s";
    request.target = "R";
    request.tuple = {Value::String(bad)};
    EXPECT_FALSE(FormatRequest(request).ok()) << bad;
  }
}

}  // namespace
}  // namespace maywsd::server
