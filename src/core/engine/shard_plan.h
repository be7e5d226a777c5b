// Shard planners: partitioning a backend's state by component/tuple ranges.
//
// A world-set relation partitions into independent tuple-slot groups when
// no component links slots across group boundaries (components are the
// only carriers of correlation — Definition 1). PartitionSlots computes
// those groups with a union-find over component links and packs whole
// groups into size-balanced shards, keeping group order by minimum slot id
// so concatenating shard results reproduces the sequential slot order.
//
// MakeWsdtShardPlan builds the ShardPlan (see world_set_ops.h for the
// lifecycle) of the WSDT backend, which the WSD and WSDT sessions share:
// template-row slices, with components projected to the sliced relation's
// columns (exact marginalization — a component row keeps the joint
// distribution of its remaining columns). The U-relations store slices
// through its own plan (urel_backend.cc) on top of PartitionSlots.

#ifndef MAYWSD_CORE_ENGINE_SHARD_PLAN_H_
#define MAYWSD_CORE_ENGINE_SHARD_PLAN_H_

#include <memory>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/engine/world_set_ops.h"
#include "core/field.h"
#include "core/wsdt.h"
#include "rel/relation.h"

namespace maywsd::core::engine {

/// Groups tuple ids [0, num_slots) transitively by `links` (each entry
/// couples two ids that must share a shard), then packs whole groups —
/// ordered by minimum id — into at most `max_shards` size-balanced shards
/// of ascending ids. When groups interleave (a component linking
/// non-adjacent slots), shard id ranges overlap and concatenating shard
/// results permutes the sequential slot order — only world-set equality
/// is guaranteed, not row order. Returns an empty vector when fewer than
/// two shards result (nothing to parallelize).
std::vector<std::vector<TupleId>> PartitionSlots(
    TupleId num_slots, const std::vector<std::pair<TupleId, TupleId>>& links,
    size_t max_shards);

/// True when a WSDT template is certain, i.e. carries no '?' placeholder
/// ('?' is the only uncertainty carrier in a template — conditional
/// presence needs a '?' column). Shared by WsdtBackend::RelationCertain
/// and the shard builder's auxiliary re-verification.
bool TemplateIsCertain(const rel::Relation& tmpl);

/// Shard plan over a WSDT. `parent` is sliced (read-only during
/// BuildShard) and shard results merge back into it.
Result<std::unique_ptr<ShardPlan>> MakeWsdtShardPlan(Wsdt& parent,
                                                     const ShardRequest& req);

}  // namespace maywsd::core::engine

#endif  // MAYWSD_CORE_ENGINE_SHARD_PLAN_H_
