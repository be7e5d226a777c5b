// The fork/teardown concurrency layer: O(1) copy-on-write session pins
// (Session::Snapshot and Session::Fork) racing writers and dying on
// arbitrary threads, on all four backends.
//
// The load-bearing test is the stress oracle (the TSan CI job runs it
// repeatedly): reader threads pin, read and drop snapshots and forks at
// high rate while a writer applies guarded ApplyAll batches. Every
// observed (version, rows) pair must equal the serial replay's state at
// that version — otherwise a torn pin, a COW break racing a read, or a
// teardown release reordered past a mutate-in-place probe has corrupted
// the view. Store node/cell leak-equality after every teardown closes the
// other failure mode: a dead fork must not retain arena growth.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/session.h"
#include "core/component_store.h"
#include "tests/test_util.h"

namespace maywsd::api {
namespace {

using rel::CmpOp;
using rel::Plan;
using rel::Predicate;
using rel::UpdateOp;
using testutil::I;

rel::Relation BaseRelation() {
  rel::Relation r(rel::Schema::FromNames({"A"}), "R");
  r.AppendRow({I(1)});
  r.AppendRow({I(2)});
  r.AppendRow({I(3)});
  return r;
}

/// A world condition that holds in every world (rows 1..3 never leave R).
Plan AlwaysGuard() {
  return Plan::Select(Predicate::Cmp("A", CmpOp::kLe, I(3)), Plan::Scan("R"));
}

/// A world condition that holds in no world.
Plan NeverGuard() {
  return Plan::Select(Predicate::Cmp("A", CmpOp::kLt, I(0)), Plan::Scan("R"));
}

/// The writer's batches: guarded inserts and deletes of sentinel rows.
/// Every third op is guarded by a never-true condition, so guard
/// evaluation runs without an effect; the rest alternate insert/delete so
/// distinct states have distinct possible(R).
std::vector<std::vector<UpdateOp>> GuardedScript(int batches,
                                                 int batch_size) {
  std::vector<std::vector<UpdateOp>> script;
  int k = 0;
  for (int b = 0; b < batches; ++b) {
    std::vector<UpdateOp> batch;
    for (int i = 0; i < batch_size; ++i, ++k) {
      if (k % 3 == 2) {
        rel::Relation rows(rel::Schema::FromNames({"A"}), "R");
        rows.AppendRow({I(900)});
        batch.push_back(UpdateOp::InsertTuples("R", std::move(rows))
                            .When(NeverGuard()));
      } else if (k % 2 == 0) {
        rel::Relation rows(rel::Schema::FromNames({"A"}), "R");
        rows.AppendRow({I(100 + k)});
        batch.push_back(UpdateOp::InsertTuples("R", std::move(rows))
                            .When(AlwaysGuard()));
      } else {
        batch.push_back(
            UpdateOp::DeleteWhere(
                "R", Predicate::Cmp("A", CmpOp::kEq, I(100 + k - 1)))
                .When(AlwaysGuard()));
      }
    }
    script.push_back(std::move(batch));
  }
  return script;
}

/// The stress oracle. ApplyAll holds the session's writer lock for the
/// whole batch, so the only versions a pin can ever observe are the
/// pre-batch and post-batch ones — the serial replay records exactly
/// those. Readers alternate Snapshot() and Fork() so both pin paths and
/// both teardown paths race the writer.
TEST(ForkStressOracle, PinReadDropRacesGuardedApplyAllBatches) {
  constexpr int kBatches = 8;
  constexpr int kBatchSize = 3;
  constexpr int kReaders = 4;
  const std::vector<std::vector<UpdateOp>> script =
      GuardedScript(kBatches, kBatchSize);

  for (BackendKind kind : testutil::AllBackendKinds()) {
    SCOPED_TRACE(BackendKindName(kind));
    core::store::StoreStats family_before = core::store::GetStoreStats();
    {
      Session session = Session::Open(kind);
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
          size_t pin = 0;
          do {
            uint64_t version = 0;
            rel::Relation rows;
            if ((static_cast<size_t>(r) + pin++) % 2 == 0) {
              Snapshot snapshot = session.Snapshot();
              version = snapshot.RelationVersion("R");
              auto result = snapshot.PossibleTuples("R");
              ASSERT_TRUE(result.ok());
              rows = std::move(result.value());
            } else {
              Session fork = session.Fork();
              version = fork.RelationVersion("R");
              auto result = fork.PossibleTuples("R");
              ASSERT_TRUE(result.ok());
              rows = std::move(result.value());
            }
            observed[r].push_back({version, std::move(rows)});
          } while (!writer_done.load(std::memory_order_acquire));
        });
      }
      std::thread writer([&session, &script, &writer_done] {
        for (const std::vector<UpdateOp>& batch : script) {
          ASSERT_TRUE(session.ApplyAll(batch).ok());
        }
        writer_done.store(true, std::memory_order_release);
      });
      writer.join();
      for (std::thread& t : readers) t.join();

      // Serial replay, batch by batch: version → possible(R) at every
      // state a pin could have observed.
      std::unordered_map<uint64_t, rel::Relation> truth;
      {
        Session replay = Session::Open(kind);
        ASSERT_TRUE(replay.Register(BaseRelation()).ok());
        auto record = [&truth, &replay] {
          auto rows = replay.PossibleTuples("R");
          ASSERT_TRUE(rows.ok());
          truth.emplace(replay.RelationVersion("R"),
                        std::move(rows.value()));
        };
        record();
        for (const std::vector<UpdateOp>& batch : script) {
          ASSERT_TRUE(replay.ApplyAll(batch).ok());
          record();
        }
      }

      size_t total = 0;
      for (int r = 0; r < kReaders; ++r) {
        total += observed[r].size();
        for (const Observation& obs : observed[r]) {
          auto it = truth.find(obs.version);
          ASSERT_NE(it, truth.end())
              << "pinned version " << obs.version
              << ", which no serial state ever had";
          EXPECT_TRUE(obs.rows.EqualsAsSet(it->second))
              << "at version " << obs.version;
        }
      }
      EXPECT_GT(total, 0u);
      SessionStats stats = session.Stats();
      EXPECT_GE(stats.snapshots + stats.forks, total);
    }
    // The whole family (session, replay, every snapshot and fork) is dead:
    // the store must be back to the pre-family node/cell counts exactly.
    core::store::StoreStats family_after = core::store::GetStoreStats();
    EXPECT_EQ(family_after.live_nodes, family_before.live_nodes)
        << "dead session family leaked payload nodes";
    EXPECT_EQ(family_after.live_cells, family_before.live_cells)
        << "dead session family leaked value cells";
  }
}

/// Pin/read/drop with no writer: after one warm-up pin (whose reads may
/// force shared lazy nodes, memoizing cells into payloads that outlive the
/// pin), every further snapshot and fork teardown must release the store
/// to *exactly* the warmed-up baseline — a dead pin retains nothing.
TEST(ForkLeakCheck, EveryTeardownReleasesStoreExactly) {
  for (BackendKind kind : testutil::AllBackendKinds()) {
    SCOPED_TRACE(BackendKindName(kind));
    Session session = Session::Open(kind);
    ASSERT_TRUE(session.Register(BaseRelation()).ok());

    {
      Snapshot warm = session.Snapshot();
      ASSERT_TRUE(warm.PossibleTuples("R").ok());
      ASSERT_TRUE(warm.CertainTuples("R").ok());
      Session warm_fork = session.Fork();
      ASSERT_TRUE(warm_fork.PossibleTuples("R").ok());
      ASSERT_TRUE(warm_fork.CertainTuples("R").ok());
    }
    core::store::StoreStats baseline = core::store::GetStoreStats();

    for (int i = 0; i < 8; ++i) {
      {
        Snapshot snapshot = session.Snapshot();
        ASSERT_TRUE(snapshot.PossibleTuples("R").ok());
      }
      {
        Session fork = session.Fork();
        ASSERT_TRUE(fork.PossibleTuples("R").ok());
      }
      core::store::StoreStats now = core::store::GetStoreStats();
      EXPECT_EQ(now.live_nodes, baseline.live_nodes)
          << "teardown " << i << " leaked payload nodes";
      EXPECT_EQ(now.live_cells, baseline.live_cells)
          << "teardown " << i << " leaked value cells";
    }
  }
}

/// A forked session is fully independent: writes on either side are
/// invisible to the other, versions advance independently, and the pin
/// carries the parent's versions at fork time.
TEST(ForkSemantics, ForkDivergesFromParentOnWrite) {
  for (BackendKind kind : testutil::AllBackendKinds()) {
    SCOPED_TRACE(BackendKindName(kind));
    Session session = Session::Open(kind);
    ASSERT_TRUE(session.Register(BaseRelation()).ok());
    uint64_t v0 = session.RelationVersion("R");

    Session fork = session.Fork();
    EXPECT_EQ(session.Stats().forks, 1u);
    EXPECT_EQ(fork.RelationVersion("R"), v0);

    // Write on the fork: parent must not see it.
    rel::Relation add(rel::Schema::FromNames({"A"}), "R");
    add.AppendRow({I(42)});
    ASSERT_TRUE(fork.Apply(UpdateOp::InsertTuples("R", add)).ok());
    EXPECT_GT(fork.RelationVersion("R"), v0);
    EXPECT_EQ(session.RelationVersion("R"), v0);
    auto fork_rows = fork.PossibleTuples("R");
    auto parent_rows = session.PossibleTuples("R");
    ASSERT_TRUE(fork_rows.ok());
    ASSERT_TRUE(parent_rows.ok());
    EXPECT_TRUE(fork_rows->ContainsRow(std::vector<rel::Value>{I(42)}));
    EXPECT_FALSE(parent_rows->ContainsRow(std::vector<rel::Value>{I(42)}));

    // Write on the parent: fork must not see it either.
    rel::Relation add2(rel::Schema::FromNames({"A"}), "R");
    add2.AppendRow({I(43)});
    ASSERT_TRUE(session.Apply(UpdateOp::InsertTuples("R", add2)).ok());
    auto fork_rows2 = fork.PossibleTuples("R");
    ASSERT_TRUE(fork_rows2.ok());
    EXPECT_FALSE(fork_rows2->ContainsRow(std::vector<rel::Value>{I(43)}));
  }
}

/// The pin really is copy-on-write, not a copy: right after Fork() the
/// urel backend still shares its symbol table with the parent, and the
/// first divergent write (interning a new value) breaks the share.
TEST(ForkSemantics, UrelForkSharesSymbolsUntilDivergentWrite) {
  Session session = Session::Open(BackendKind::kUrel);
  ASSERT_TRUE(session.Register(BaseRelation()).ok());

  Session fork = session.Fork();
  const core::Urel* parent_u = std::as_const(session).urel();
  const core::Urel* fork_u = std::as_const(fork).urel();
  ASSERT_NE(parent_u, nullptr);
  ASSERT_NE(fork_u, nullptr);
  EXPECT_TRUE(parent_u->SharesSymbolsWith(*fork_u));

  rel::Relation add(rel::Schema::FromNames({"A"}), "R");
  add.AppendRow({I(777)});  // 777 is not in the shared dictionary yet
  ASSERT_TRUE(fork.Apply(UpdateOp::InsertTuples("R", add)).ok());
  EXPECT_FALSE(parent_u->SharesSymbolsWith(*std::as_const(fork).urel()));
}

/// A guarded update on a urel fork is a native descriptor rewriting, not a
/// store rebuild: the fork keeps sharing the parent's symbol table and
/// every relation it did not write, and the parent's answers stay put.
TEST(ForkSemantics, UrelGuardedUpdateOnForkKeepsSharing) {
  // Two worlds: S = {(5)} with probability 0.25, S = {} otherwise; R and T
  // are certain.
  std::vector<core::PossibleWorld> worlds(2);
  rel::Relation s(rel::Schema::FromNames({"C"}), "S");
  s.AppendRow({I(5)});
  rel::Relation t(rel::Schema::FromNames({"D"}), "T");
  t.AppendRow({I(9)});
  for (core::PossibleWorld& w : worlds) {
    w.db.PutRelation(BaseRelation());
    w.db.PutRelation(t);
  }
  worlds[0].db.PutRelation(s);
  worlds[0].prob = 0.25;
  worlds[1].db.PutRelation(rel::Relation(s.schema(), "S"));
  worlds[1].prob = 0.75;
  auto session_or = testutil::OpenSessionOver(
      BackendKind::kUrel, core::WsdFromWorlds(worlds).value());
  ASSERT_TRUE(session_or.ok());
  Session session = std::move(session_or).value();
  auto answers = [](const Session& s) {
    std::vector<double> confs;
    for (int64_t a : {1, 2, 3}) {
      std::vector<rel::Value> tuple = {I(a)};
      confs.push_back(s.TupleConfidence("R", tuple).value());
    }
    return confs;
  };
  const std::vector<double> parent_before = answers(session);

  Session fork = session.Fork();
  Plan guard = Plan::Scan("S");
  ASSERT_TRUE(fork.Apply(UpdateOp::DeleteWhere(
                             "R", Predicate::Cmp("A", CmpOp::kEq, I(1)))
                             .When(guard))
                  .ok());
  ASSERT_TRUE(fork.Apply(UpdateOp::ModifyWhere(
                             "R", Predicate::Cmp("A", CmpOp::kEq, I(2)),
                             {{"A", I(3)}})
                             .When(guard))
                  .ok());
  rel::Relation add(rel::Schema::FromNames({"A"}), "R");
  add.AppendRow({I(2)});  // already in the shared dictionary
  ASSERT_TRUE(fork.Apply(UpdateOp::InsertTuples("R", add).When(guard)).ok());
  EXPECT_EQ(fork.Stats().round_trips, 0u);

  const core::Urel* parent_u = std::as_const(session).urel();
  const core::Urel* fork_u = std::as_const(fork).urel();
  ASSERT_NE(parent_u, nullptr);
  ASSERT_NE(fork_u, nullptr);
  EXPECT_TRUE(parent_u->SharesSymbolsWith(*fork_u));
  // Only the written relation stopped sharing its payload.
  EXPECT_EQ(parent_u->Get("T").value(), fork_u->Get("T").value());
  EXPECT_EQ(parent_u->Get("S").value(), fork_u->Get("S").value());
  EXPECT_NE(parent_u->Get("R").value(), fork_u->Get("R").value());
  ASSERT_TRUE(core::ValidateUrel(*fork_u).ok());

  EXPECT_EQ(answers(session), parent_before);
  const std::vector<double> forked = answers(fork);
  EXPECT_NEAR(forked[0], 0.75, 1e-9);  // deleted where S is non-empty
  EXPECT_NEAR(forked[1], 1.0, 1e-9);   // re-inserted exactly there
  EXPECT_NEAR(forked[2], 1.0, 1e-9);
}

/// Forks survive their parent: the store's refcount discipline lets a pin
/// outlive the session it came from and die on another thread.
TEST(ForkSemantics, ForkAndSnapshotOutliveParent) {
  for (BackendKind kind : testutil::AllBackendKinds()) {
    SCOPED_TRACE(BackendKindName(kind));
    core::store::StoreStats before = core::store::GetStoreStats();
    {
      std::optional<Session> parent(Session::Open(kind));
      ASSERT_TRUE(parent->Register(BaseRelation()).ok());
      Session fork = parent->Fork();
      Snapshot snapshot = parent->Snapshot();
      parent.reset();  // parent dies first

      auto rows = fork.PossibleTuples("R");
      ASSERT_TRUE(rows.ok());
      EXPECT_EQ(rows->NumRows(), 3u);
      auto pinned = snapshot.PossibleTuples("R");
      ASSERT_TRUE(pinned.ok());
      EXPECT_TRUE(pinned->EqualsAsSet(*rows));

      // Teardown on a different thread than the one that pinned.
      Snapshot moved = std::move(snapshot);
      std::thread reaper([&fork, moved = std::move(moved)]() mutable {
        ASSERT_TRUE(moved.CertainTuples("R").ok());
        Session dying = std::move(fork);
      });
      reaper.join();
    }
    core::store::StoreStats after = core::store::GetStoreStats();
    EXPECT_EQ(after.live_nodes, before.live_nodes);
    EXPECT_EQ(after.live_cells, before.live_cells);
  }
}

}  // namespace
}  // namespace maywsd::api
