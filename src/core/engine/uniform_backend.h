// UniformBackend: WorldSetOps over the C/F/W uniform relational encoding
// (Section 3, Figure 8) — the representation the paper's PostgreSQL
// prototype stored, processed with the Figure 16 SQL-style rewritings.
//
// The backend owns no data; it operates on a rel::Database holding the
// template relations (leading __TID column) plus the three system
// relations C, F and W (see core/uniform.h). Every Figure 9 operator and
// every update — select[AθB], ⊥-carrying projection, difference and
// world-conditional updates included — runs directly against those
// relations through core/uniform; the store is never rebuilt from a WSDT,
// so RoundTrips() stays 0. Answers import one relation's slice of the
// store (its template, F and C rows, and the W rows of the components
// they reference) and run the Section 6 confidence functions on it —
// the only import left on this backend. System relations are hidden
// from the catalog.

#ifndef MAYWSD_CORE_ENGINE_UNIFORM_BACKEND_H_
#define MAYWSD_CORE_ENGINE_UNIFORM_BACKEND_H_

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

  /// Updates run inside the C/F/W store (UniformApplyUpdate): guarded
  /// inserts, deletes and modifies, and '?'-cell predicates and
  /// assignments, are row rewritings of the template and of C/F/W.
  Status ApplyUpdate(const rel::UpdateOp& op,
                     const std::string& guard) override;

 private:
  /// The WSDT of `relation` alone: its template, F and C rows, and the W
  /// rows of the components they reference — each component marginalized
  /// onto the relation's fields, which is exact for its answers.
  Result<Wsdt> Slice(const std::string& relation) const;

  rel::Database* db_;
};

}  // namespace maywsd::core::engine

#endif  // MAYWSD_CORE_ENGINE_UNIFORM_BACKEND_H_
