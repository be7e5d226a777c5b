// WorldSetOps: the backend contract of the world-set engine.
//
// The paper evaluates one relational algebra (Figure 9) over two
// representations — WSDs (Section 4) and their template-relation
// refinement, WSDTs/UWSDTs (Section 5). Both expose the same operator
// set; only the data structures behind the operators differ. This
// interface captures that operator set so a single plan driver
// (engine/plan_driver.h) can lower rel::Plan trees once and run them over
// any representation.
//
// Contract (mirrors Figure 9): every operator *extends* the world set with
// a new result relation named `out`; inputs are preserved so subquery
// results stay correlated with their inputs. `out` must not exist yet.
// Deleted tuples are represented with ⊥ inside the backend; schemas are
// the certain part the driver reasons about.
//
// The mandatory operators are the Figure 9 core plus the Section 6 answer
// surface (possible/certain tuples, tuple confidence) that api::Session
// exposes. Backends may additionally advertise capabilities (an
// arbitrary-predicate selection evaluated in one pass, a fused σ(×) hash
// join — the Section 5 optimizations); the driver uses them when present
// and otherwise falls back to the generic lowering.
//
// The driver calls the operators one at a time on the caller's thread; a
// backend is never asked to partition its state. Figure 30's claim is that
// a WSDT query costs about one world evaluated sequentially.

#ifndef MAYWSD_CORE_ENGINE_WORLD_SET_OPS_H_
#define MAYWSD_CORE_ENGINE_WORLD_SET_OPS_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "rel/algebra.h"
#include "rel/predicate.h"
#include "rel/relation.h"
#include "rel/schema.h"
#include "rel/update.h"

namespace maywsd::core::engine {

/// Shared guard for AddCertainRelation implementations: a fully certain
/// instance may contain neither ⊥ (deleted-tuple marker) nor '?'
/// (template placeholder) cells.
inline Status CheckCertainRelation(const rel::Relation& relation) {
  for (size_t r = 0; r < relation.NumRows(); ++r) {
    for (size_t a = 0; a < relation.arity(); ++a) {
      if (relation.row(r)[a].is_bottom()) {
        return Status::InvalidArgument("certain relation " + relation.name() +
                                       " contains ⊥");
      }
      if (relation.row(r)[a].is_question()) {
        return Status::InvalidArgument("certain relation " + relation.name() +
                                       " contains a '?' placeholder");
      }
    }
  }
  return Status::Ok();
}

/// Backend-agnostic operator set over a world-set representation.
class WorldSetOps {
 public:
  virtual ~WorldSetOps() = default;

  /// Human-readable backend tag ("wsdt", "uniform", "urel"); used in error
  /// messages.
  virtual std::string_view BackendName() const = 0;

  // -- Catalog --------------------------------------------------------------

  virtual bool HasRelation(const std::string& name) const = 0;
  virtual std::vector<std::string> RelationNames() const = 0;
  /// Schema of a relation; NotFound when absent.
  virtual Result<rel::Schema> RelationSchema(const std::string& name) const = 0;

  /// Registers `relation` (a one-world, fully certain instance) under its
  /// name as a relation that is equal in every world. This is how base data
  /// enters a world set through the engine contract; uncertainty is then
  /// introduced by representation-level tooling (or-sets, noise, chase).
  virtual Status AddCertainRelation(const rel::Relation& relation) = 0;

  // -- Figure 9 operator core ----------------------------------------------

  /// out := src (fresh relation equal to src in every world).
  virtual Status Copy(const std::string& src, const std::string& out) = 0;

  /// out := σ_{attr θ constant}(src).
  virtual Status SelectConst(const std::string& src, const std::string& out,
                             const std::string& attr, rel::CmpOp op,
                             const rel::Value& constant) = 0;

  /// out := σ_{attr_a θ attr_b}(src).
  virtual Status SelectAttrAttr(const std::string& src, const std::string& out,
                                const std::string& attr_a, rel::CmpOp op,
                                const std::string& attr_b) = 0;

  /// out := left × right (attribute sets must be disjoint).
  virtual Status Product(const std::string& left, const std::string& right,
                         const std::string& out) = 0;

  /// out := left ∪ right (schemas must match).
  virtual Status Union(const std::string& left, const std::string& right,
                       const std::string& out) = 0;

  /// out := π_attrs(src).
  virtual Status Project(const std::string& src, const std::string& out,
                         const std::vector<std::string>& attrs) = 0;

  /// out := δ_{from→to}(src) for every pair in `renames`.
  virtual Status Rename(
      const std::string& src, const std::string& out,
      const std::vector<std::pair<std::string, std::string>>& renames) = 0;

  /// out := left − right (schemas must match).
  virtual Status Difference(const std::string& left, const std::string& right,
                            const std::string& out) = 0;

  /// Removes a relation (used for the driver's scratch relations).
  virtual Status Drop(const std::string& name) = 0;

  /// Housekeeping after dropping scratch relations (e.g. component
  /// compaction); default no-op.
  virtual void Compact() {}

  // -- Answer extraction (Section 6) ----------------------------------------
  //
  // The questions a caller asks about a result relation once a plan has
  // run: which tuples are possible, which are certain, and with what
  // confidence. Every backend must answer them — this is what makes a
  // representation-agnostic facade (api::Session) honest instead of a
  // switch over concrete types.

  /// possible(R): tuples appearing in at least one world (Figure 18).
  virtual Result<rel::Relation> PossibleTuples(
      const std::string& relation) const = 0;

  /// possibleᵖ(R): possible tuples with a trailing "conf" column
  /// (Figure 19).
  virtual Result<rel::Relation> PossibleTuplesWithConfidence(
      const std::string& relation) const = 0;

  /// certain(R): tuples occurring in every world — the consistent answers
  /// of Section 10.
  virtual Result<rel::Relation> CertainTuples(
      const std::string& relation) const = 0;

  /// conf(t): probability that `tuple` ∈ R in a random world (Figure 17).
  virtual Result<double> TupleConfidence(
      const std::string& relation,
      std::span<const rel::Value> tuple) const = 0;

  /// certain(t): true iff conf(t) = 1.
  virtual Result<bool> TupleCertain(
      const std::string& relation,
      std::span<const rel::Value> tuple) const = 0;

  // -- Update surface (engine/update_plan.h) ---------------------------------
  //
  // Mutations applied per world, in place: inserts, deletes and conditional
  // modifies, optionally restricted to the worlds where a guard relation is
  // non-empty. The driver validates `op` against the catalog and — for
  // world-conditional updates — materializes the condition plan into a
  // snapshot relation first; backends never see the condition plan itself.

  /// Applies `op`'s mutation to `op.relation()`, restricted to the worlds
  /// where relation `guard` is non-empty (empty string = all worlds). The
  /// backend may ignore op.world_condition() — the driver already lowered
  /// it into `guard`.
  virtual Status ApplyUpdate(const rel::UpdateOp& /*op*/,
                             const std::string& /*guard*/) {
    return Status::Unsupported(std::string(BackendName()) +
                               " backend has no update support");
  }

  // -- Introspection ---------------------------------------------------------

  /// Number of completed import → template-semantics → export round trips
  /// this backend has paid for operators it could not run natively — the
  /// structural tax the fig30 bench tracks. Backends that never leave
  /// their representation report 0.
  virtual uint64_t RoundTrips() const { return 0; }

  // -- Optional capabilities (Section 5 optimizations) ----------------------

  /// True when SelectPredicate() evaluates an arbitrary predicate tree in
  /// one pass; the driver then skips the generic ∧/∨/¬ lowering.
  virtual bool SupportsPredicateSelect() const { return false; }

  /// out := σ_pred(src) for an arbitrary predicate tree.
  virtual Status SelectPredicate(const std::string& /*src*/,
                                 const std::string& /*out*/,
                                 const rel::Predicate& /*pred*/) {
    return Status::Unsupported(std::string(BackendName()) +
                               " backend has no native predicate selection");
  }

  /// True when HashJoin() implements the fused σ(×) equi-join; the driver
  /// then splits join predicates into an equality pair plus residual.
  virtual bool SupportsHashJoin() const { return false; }

  /// out := left ⋈_{left_attr = right_attr} right.
  virtual Status HashJoin(const std::string& /*left*/,
                          const std::string& /*right*/,
                          const std::string& /*out*/,
                          const std::string& /*left_attr*/,
                          const std::string& /*right_attr*/) {
    return Status::Unsupported(std::string(BackendName()) +
                               " backend has no native hash join");
  }
};

}  // namespace maywsd::core::engine

#endif  // MAYWSD_CORE_ENGINE_WORLD_SET_OPS_H_
