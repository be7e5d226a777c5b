// UniformBackend: WorldSetOps over the C/F/W uniform relational encoding
// (Section 3, Figure 8) — the representation the paper's PostgreSQL
// prototype stored, processed with the Figure 16 SQL-style rewritings.
//
// The backend owns no data; it operates on a rel::Database holding the
// template relations (leading __TID column) plus the three system
// relations C, F and W (see core/uniform.h). The Figure 9 operators that
// are pure row rewritings — copy, select[Aθc], product, union, rename,
// projection of ⊥-free columns, drop — run directly against those
// relations through core/uniform. The operators that need component
// composition (select[AθB], difference, ⊥-carrying projection) fall back
// to the template semantics: the store is imported as a WSDT, the
// operator runs there, and the result is re-exported — exactly the escape
// hatch the prototype used for the operations outside the purely
// relational fragment. System relations are hidden from the catalog.

#ifndef MAYWSD_CORE_ENGINE_UNIFORM_BACKEND_H_
#define MAYWSD_CORE_ENGINE_UNIFORM_BACKEND_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/engine/world_set_ops.h"
#include "core/wsdt.h"
#include "rel/database.h"

namespace maywsd::core::engine {

/// Adapts a uniform C/F/W database to the engine contract. Non-owning;
/// the database must outlive the backend.
class UniformBackend : public WorldSetOps {
 public:
  explicit UniformBackend(rel::Database& db) : db_(&db) {}

  std::string_view BackendName() const override { return "uniform"; }

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

  /// Updates run inside the C/F/W store where they are pure row
  /// rewritings (unconditional inserts; deletes and modifies whose
  /// predicate decides on certain template cells), and fall back to one
  /// import → WSDT update → export round trip for everything touching
  /// components — world-conditional updates and '?'-cell modifies —
  /// mirroring the query fallback.
  Status ApplyUpdate(const rel::UpdateOp& op,
                     const std::string& guard) override;

  Result<bool> RelationCertain(const std::string& name) const override;
  Result<std::unique_ptr<ShardPlan>> PlanShards(
      const ShardRequest& req) override;

  uint64_t RoundTrips() const override { return round_trips_; }

 private:
  /// Imports the whole store as a WSDT (templates stripped of __TID).
  Result<Wsdt> Import() const;

  /// Runs `op` on the imported WSDT and re-exports the store — the
  /// template-semantics fallback for non-relational operators.
  Status Fallback(const std::function<Status(Wsdt&)>& op);

  rel::Database* db_;
  uint64_t round_trips_ = 0;
};

}  // namespace maywsd::core::engine

#endif  // MAYWSD_CORE_ENGINE_UNIFORM_BACKEND_H_
