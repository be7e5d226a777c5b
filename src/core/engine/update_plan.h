// The shared update driver of the world-set engine.
//
// Exactly one lowering of rel::UpdateOp onto the backend update surface
// lives here: the op is validated against the backend's catalog, and a
// world condition — a rel::Plan whose non-empty answer selects the worlds
// the mutation applies in — is evaluated through the same plan driver the
// queries use, into a scratch relation that snapshots the pre-update
// answer. (A bare-scan condition is explicitly copied, so updating the
// scanned relation cannot feed back into its own guard.) The backend then
// executes the mutation representation-natively against that guard
// relation; the scratch lifecycle drops the guard on every path.

#ifndef MAYWSD_CORE_ENGINE_UPDATE_PLAN_H_
#define MAYWSD_CORE_ENGINE_UPDATE_PLAN_H_

#include <span>
#include <string>

#include "common/status.h"
#include "rel/update.h"
#include "core/engine/world_set_ops.h"

namespace maywsd::core::engine {

/// Validates `op` against the backend catalog: the target relation exists;
/// inserted tuples are fully certain and match the schema's attributes;
/// predicate and assignment attributes resolve; assignment values are
/// proper constants; no attribute is assigned twice.
Status ValidateUpdate(WorldSetOps& ops, const rel::UpdateOp& op);

/// Applies one update through the backend: validates, lowers the world
/// condition (if any) into a materialized guard relation, and calls
/// WorldSetOps::ApplyUpdate. Scratch relations are dropped on every path.
Status ApplyUpdate(WorldSetOps& ops, const rel::UpdateOp& op);

/// Batch accounting for ApplyUpdates: how many world conditions were
/// actually evaluated versus served from the batch's guard cache.
struct UpdateBatchStats {
  uint64_t guard_materializations = 0;  ///< conditions evaluated + copied
  uint64_t guard_shares = 0;            ///< updates reusing a cached guard
};

/// Applies a workload of updates in order, one at a time, stopping at the
/// first error (already-applied updates remain applied — updates are
/// in-place and not transactional). Updates with structurally equal world
/// conditions (the rel::PlanHash/PlanEqual notion UpdateOpHash builds on)
/// share one guard materialization; a cached guard is discarded as soon as
/// an applied update mutates a relation its condition reads, so later
/// updates in the batch still see post-update guards, exactly as
/// sequential Apply calls would.
Status ApplyUpdates(WorldSetOps& ops, std::span<const rel::UpdateOp> ops_list,
                    UpdateBatchStats* stats = nullptr);

}  // namespace maywsd::core::engine

#endif  // MAYWSD_CORE_ENGINE_UPDATE_PLAN_H_
