// UrelBackend: WorldSetOps over the columnar U-relations store
// (core/urel.h — the authors' follow-up representation, see PAPERS.md).
//
// The whole positive fragment — copy, selections (arbitrary predicate
// trees in one vectorized pass), product, the fused σ(×) hash join,
// union, projection, rename — plus difference, the update fragment
// (world-conditional updates included) and the Section 6 answer surface
// run natively against the columnar store: zero import/export round
// trips, the property the uniform C/F/W encoding pays for whenever it
// leaves the purely relational fragment. Only an assignment expansion
// past the internal cap — in a difference or under a guarded update's
// world condition — leaves the representation; it takes the established
// one-round-trip template-semantics fallback (ImportUrel → WSDT →
// ExportUrel), counted by RoundTrips().

#ifndef MAYWSD_CORE_ENGINE_UREL_BACKEND_H_
#define MAYWSD_CORE_ENGINE_UREL_BACKEND_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/engine/world_set_ops.h"
#include "core/urel.h"
#include "core/wsdt.h"

namespace maywsd::core::engine {

/// Adapts a Urel store to the engine contract. Non-owning; the store must
/// outlive the backend.
class UrelBackend : public WorldSetOps {
 public:
  explicit UrelBackend(Urel& urel) : urel_(&urel) {}

  /// The adapted representation.
  Urel& urel() { return *urel_; }
  const Urel& urel() const { return *urel_; }

  std::string_view BackendName() const override { return "urel"; }

  bool HasRelation(const std::string& name) const override;
  std::vector<std::string> RelationNames() const override;
  Result<rel::Schema> RelationSchema(const std::string& name) const override;
  Status AddCertainRelation(const rel::Relation& relation) override;

  Status Copy(const std::string& src, const std::string& out) override;
  Status SelectConst(const std::string& src, const std::string& out,
                     const std::string& attr, rel::CmpOp op,
                     const rel::Value& constant) override;
  Status SelectAttrAttr(const std::string& src, const std::string& out,
                        const std::string& attr_a, rel::CmpOp op,
                        const std::string& attr_b) override;
  Status Product(const std::string& left, const std::string& right,
                 const std::string& out) override;
  Status Union(const std::string& left, const std::string& right,
               const std::string& out) override;
  Status Project(const std::string& src, const std::string& out,
                 const std::vector<std::string>& attrs) override;
  Status Rename(const std::string& src, const std::string& out,
                const std::vector<std::pair<std::string, std::string>>&
                    renames) override;
  /// Native while the assignment expansion stays under the cap; past it,
  /// one template-semantics round trip.
  Status Difference(const std::string& left, const std::string& right,
                    const std::string& out) override;
  Status Drop(const std::string& name) override;

  Result<rel::Relation> PossibleTuples(
      const std::string& relation) const override;
  Result<rel::Relation> PossibleTuplesWithConfidence(
      const std::string& relation) const override;
  Result<rel::Relation> CertainTuples(
      const std::string& relation) const override;
  Result<double> TupleConfidence(
      const std::string& relation,
      std::span<const rel::Value> tuple) const override;
  Result<bool> TupleCertain(const std::string& relation,
                            std::span<const rel::Value> tuple) const override;

  /// Inserts/deletes/modifies are pure row rewritings (a U-relation has no
  /// '?' cells, so every predicate decides natively); a world condition
  /// conjoins the guard's descriptors, or their complement, onto the
  /// affected rows (UrelApplyUpdate). Only an expansion past the cap takes
  /// one import → WSDT update → export round trip.
  Status ApplyUpdate(const rel::UpdateOp& op,
                     const std::string& guard) override;

  bool SupportsPredicateSelect() const override { return true; }
  Status SelectPredicate(const std::string& src, const std::string& out,
                         const rel::Predicate& pred) override;

  bool SupportsHashJoin() const override { return true; }
  Status HashJoin(const std::string& left, const std::string& right,
                  const std::string& out, const std::string& left_attr,
                  const std::string& right_attr) override;

  uint64_t RoundTrips() const override { return round_trips_; }

 private:
  /// Runs `op` on the imported WSDT, its components compressed, and
  /// re-exports the store — the template-semantics escape hatch, counted
  /// as one round trip.
  Status Fallback(const std::function<Status(Wsdt&)>& op);

  Urel* urel_;
  uint64_t round_trips_ = 0;
};

}  // namespace maywsd::core::engine

#endif  // MAYWSD_CORE_ENGINE_UREL_BACKEND_H_
