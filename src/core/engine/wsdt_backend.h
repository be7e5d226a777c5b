// WsdtBackend: WorldSetOps over the Section 5 WSDT/UWSDT operators.
//
// A thin adapter — the operator implementations stay in core/wsdt_algebra.
// The WSDT path advertises both optional capabilities: WsdtSelect
// evaluates arbitrary predicate trees with three-valued logic in one
// template pass, and WsdtJoin is the fused σ(×) hash join over certain and
// possible key values, so the driver skips the generic ∧/∨/¬ lowering and
// lowers joins to hash-join-plus-residual instead of product-plus-
// selections.

#ifndef MAYWSD_CORE_ENGINE_WSDT_BACKEND_H_
#define MAYWSD_CORE_ENGINE_WSDT_BACKEND_H_

#include <string>
#include <utility>
#include <vector>

#include "core/engine/world_set_ops.h"
#include "core/wsdt.h"

namespace maywsd::core::engine {

/// Adapts a Wsdt to the engine contract. Non-owning; the Wsdt must
/// outlive the backend.
class WsdtBackend : public WorldSetOps {
 public:
  explicit WsdtBackend(Wsdt& wsdt) : wsdt_(&wsdt) {}

  /// The adapted representation.
  Wsdt& wsdt() { return *wsdt_; }
  const Wsdt& wsdt() const { return *wsdt_; }

  std::string_view BackendName() const override { return "wsdt"; }

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
  Status Difference(const std::string& left, const std::string& right,
                    const std::string& out) override;
  Status Drop(const std::string& name) override;
  void Compact() override;

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

  /// Updates run representation-natively (core/wsdt_update.h).
  Status ApplyUpdate(const rel::UpdateOp& op,
                     const std::string& guard) override;

  bool SupportsPredicateSelect() const override { return true; }
  Status SelectPredicate(const std::string& src, const std::string& out,
                         const rel::Predicate& pred) override;

  bool SupportsHashJoin() const override { return true; }
  Status HashJoin(const std::string& left, const std::string& right,
                  const std::string& out, const std::string& left_attr,
                  const std::string& right_attr) override;

 private:
  Wsdt* wsdt_;
};

}  // namespace maywsd::core::engine

#endif  // MAYWSD_CORE_ENGINE_WSDT_BACKEND_H_
