// Shared helpers for the MayWSD test suite: tiny-world-set generators and
// the oracle-equivalence assertion used by the randomized property tests.

#ifndef MAYWSD_TESTS_TEST_UTIL_H_
#define MAYWSD_TESTS_TEST_UTIL_H_

#include <string>
#include <utility>
#include <vector>

#include "api/session.h"
#include "common/rng.h"
#include "core/normalize.h"
#include "core/uniform.h"
#include "core/urel.h"
#include "core/wsd.h"
#include "core/wsdt.h"
#include "core/worldset.h"
#include "rel/relation.h"

namespace maywsd::testutil {

inline rel::Value I(int64_t v) { return rel::Value::Int(v); }
inline rel::Value S(const char* s) { return rel::Value::String(s); }
inline rel::Value Bot() { return rel::Value::Bottom(); }
inline rel::Value Q() { return rel::Value::Question(); }

/// An Rng that remembers the seed it was built from, so oracle failures
/// are replayable: construct one per test body from an explicit seed and
/// announce it with MAYWSD_SEED_TRACE — every assertion failure in scope
/// then names the seed to rerun.
class SeededRng : public Rng {
 public:
  explicit SeededRng(uint64_t seed) : Rng(seed), seed_(seed) {}
  uint64_t seed() const { return seed_; }

 private:
  uint64_t seed_;
};

/// Prefixes every assertion failure in the current scope with the
/// generator seed (gtest SCOPED_TRACE).
#define MAYWSD_SEED_TRACE(seeded_rng)                                     \
  SCOPED_TRACE(::testing::Message()                                       \
               << "replay with world-set generator seed "                 \
               << (seeded_rng).seed())

/// Spec of one relation for the random world-set generator.
struct RelSpec {
  std::string name;
  std::vector<std::string> attrs;
  size_t max_rows = 2;   ///< rows per world drawn in [0, max_rows]
  int64_t domain = 3;    ///< values drawn in [0, domain)
};

/// Draws `num_worlds` random worlds over the given relations with random
/// normalized probabilities. Deterministic in `rng`.
inline std::vector<core::PossibleWorld> RandomWorlds(
    Rng& rng, const std::vector<RelSpec>& specs, size_t num_worlds) {
  std::vector<core::PossibleWorld> worlds;
  double total = 0;
  for (size_t w = 0; w < num_worlds; ++w) {
    core::PossibleWorld world;
    world.prob = 1.0 + static_cast<double>(rng.Uniform(8));
    total += world.prob;
    for (const RelSpec& spec : specs) {
      rel::Relation r(rel::Schema::FromNames(spec.attrs), spec.name);
      size_t rows = rng.Uniform(spec.max_rows + 1);
      std::vector<rel::Value> row(spec.attrs.size());
      for (size_t i = 0; i < rows; ++i) {
        for (size_t a = 0; a < spec.attrs.size(); ++a) {
          row[a] = rel::Value::Int(static_cast<int64_t>(
              rng.Uniform(static_cast<uint64_t>(spec.domain))));
        }
        r.AppendRow(row);
      }
      r.SortDedup();
      world.db.PutRelation(std::move(r));
    }
    worlds.push_back(std::move(world));
  }
  for (core::PossibleWorld& w : worlds) w.prob /= total;
  return worlds;
}

/// Builds a WSD from random worlds and (optionally) decomposes it so the
/// tests exercise genuinely multi-component decompositions.
inline core::Wsd RandomWsd(Rng& rng, const std::vector<RelSpec>& specs,
                           size_t num_worlds, bool decompose = true) {
  std::vector<core::PossibleWorld> worlds =
      RandomWorlds(rng, specs, num_worlds);
  auto wsd_or = core::WsdFromWorlds(worlds);
  core::Wsd wsd = std::move(wsd_or).value();
  if (decompose) {
    Status st = core::NormalizeWsd(wsd);
    (void)st;
  }
  return wsd;
}

// -- Backend enrollment ------------------------------------------------------
//
// The cross-backend equivalence oracles iterate this list instead of a
// hardcoded trio: adding a backend here enrolls it in every oracle
// (random_plan_test, update_test, parallel_session_test) at once.

/// Every Session backend, in a stable order.
inline std::vector<api::BackendKind> AllBackendKinds() {
  return {api::BackendKind::kWsd, api::BackendKind::kWsdt,
          api::BackendKind::kUniform, api::BackendKind::kUrel};
}

/// Opens a Session of the requested backend kind over (a copy of) `wsd`.
inline Result<api::Session> OpenSessionOver(api::BackendKind kind,
                                            const core::Wsd& wsd,
                                            api::SessionOptions options = {}) {
  if (kind == api::BackendKind::kWsd) {
    return api::Session::Open(wsd, options);
  }
  MAYWSD_ASSIGN_OR_RETURN(core::Wsdt wsdt, core::Wsdt::FromWsd(wsd));
  return api::Session::Open(kind, wsdt, options);
}

/// Evaluates `plan` into relation `out` through a kWsd Session over (a
/// copy of) `wsd` and returns the resulting decomposition: how tests of
/// the Section 4 tooling (confidence, normalization) build queried inputs.
inline Result<core::Wsd> WsdWithQuery(const core::Wsd& wsd,
                                      const rel::Plan& plan,
                                      const std::string& out) {
  MAYWSD_ASSIGN_OR_RETURN(api::Session session, api::Session::Open(wsd));
  MAYWSD_RETURN_IF_ERROR(session.Run(plan, out));
  return session.wsdt()->ToWsd();
}

/// Enumerates the session's world set (restricted to `rels` when non-empty)
/// regardless of the backing representation, for oracle comparisons.
inline Result<std::vector<core::PossibleWorld>> SessionWorlds(
    const api::Session& session, size_t cap,
    const std::vector<std::string>& rels = {}) {
  switch (session.kind()) {
    case api::BackendKind::kWsd:
    case api::BackendKind::kWsdt: {
      MAYWSD_ASSIGN_OR_RETURN(core::Wsd w, session.wsdt()->ToWsd());
      return w.EnumerateWorlds(cap, rels);
    }
    case api::BackendKind::kUniform: {
      MAYWSD_ASSIGN_OR_RETURN(core::Wsdt wsdt,
                              core::ImportUniform(*session.uniform()));
      MAYWSD_ASSIGN_OR_RETURN(core::Wsd w, wsdt.ToWsd());
      return w.EnumerateWorlds(cap, rels);
    }
    case api::BackendKind::kUrel: {
      MAYWSD_ASSIGN_OR_RETURN(core::Wsdt wsdt,
                              core::ImportUrel(*session.urel()));
      MAYWSD_ASSIGN_OR_RETURN(core::Wsd w, wsdt.ToWsd());
      return w.EnumerateWorlds(cap, rels);
    }
  }
  return Status::Internal("unknown backend kind");
}

/// Representation-specific integrity check of the session's store.
inline Status ValidateSession(const api::Session& session) {
  switch (session.kind()) {
    case api::BackendKind::kWsd:
    case api::BackendKind::kWsdt:
      return session.wsdt()->Validate();
    case api::BackendKind::kUniform:
      return core::ValidateUniform(*session.uniform());
    case api::BackendKind::kUrel:
      return core::ValidateUrel(*session.urel());
  }
  return Status::Internal("unknown backend kind");
}

}  // namespace maywsd::testutil

#endif  // MAYWSD_TESTS_TEST_UTIL_H_
