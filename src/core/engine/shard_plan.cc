#include "core/engine/shard_plan.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <string>
#include <unordered_map>

#include "core/engine/wsdt_backend.h"

namespace maywsd::core::engine {

namespace {

/// Plain union-find over dense tuple ids.
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }

  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  void Union(size_t a, size_t b) {
    a = Find(a);
    b = Find(b);
    if (a != b) parent_[std::max(a, b)] = std::min(a, b);
  }

 private:
  std::vector<size_t> parent_;
};

/// Ascending, duplicate-free tuple ids of `relation`'s columns in `comp`.
std::vector<TupleId> OwnTuples(const Component& comp, Symbol relation) {
  std::vector<TupleId> tids;
  for (const FieldKey& f : comp.fields()) {
    if (f.rel == relation) tids.push_back(f.tuple);
  }
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  return tids;
}

/// Projects `comp` to the columns of `relation` whose tuple id passes
/// `in_slice`, renaming each kept column via `remap`. Returns a component
/// with zero fields when nothing is kept. Dropping the other columns is
/// exact marginalization: each local-world row keeps the joint
/// distribution of the remaining columns.
template <typename InSlice, typename Remap>
Component SliceComponent(const Component& comp, Symbol relation,
                         Symbol out_relation, const InSlice& in_slice,
                         const Remap& remap) {
  std::vector<size_t> keep;
  for (size_t c = 0; c < comp.NumFields(); ++c) {
    const FieldKey& f = comp.field(c);
    if (f.rel == relation && in_slice(f.tuple)) keep.push_back(c);
  }
  if (keep.empty()) return Component();
  if (keep.size() == comp.NumFields()) {
    // Self-contained component: every column survives, so the slice can
    // share the payload copy-on-write under the remapped field names —
    // no copy, no compress (a full keep creates no duplicate rows).
    std::vector<FieldKey> renamed;
    renamed.reserve(keep.size());
    for (const FieldKey& f : comp.fields()) {
      renamed.emplace_back(out_relation, remap(f.tuple), f.attr);
    }
    return comp.WithFields(std::move(renamed));
  }
  Component proj = comp.ProjectColumns(keep);
  proj.Compress();
  for (size_t c = 0; c < proj.NumFields(); ++c) {
    const FieldKey& f = proj.field(c);
    proj.RenameField(c, FieldKey(out_relation, remap(f.tuple), f.attr));
  }
  return proj;
}

/// Appends relation `src` of `from` to `into`'s relation `dst`: template
/// rows are concatenated (slot offset = current row count of `dst`) and
/// the components covering `src` columns are copied, projected to those
/// columns and re-keyed. Creates `dst` on first use.
Status AppendWsdtRelation(Wsdt& into, const Wsdt& from, const std::string& src,
                          const std::string& dst) {
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* stmpl, from.Template(src));
  if (!into.HasRelation(dst)) {
    MAYWSD_RETURN_IF_ERROR(
        into.AddTemplateRelation(rel::Relation(stmpl->schema(), dst)));
  }
  MAYWSD_ASSIGN_OR_RETURN(rel::Relation * dtmpl, into.MutableTemplate(dst));
  if (dtmpl->schema() != stmpl->schema()) {
    return Status::Internal("shard result schema mismatch for " + dst + ": " +
                            dtmpl->schema().ToString() + " vs " +
                            stmpl->schema().ToString());
  }
  TupleId offset = static_cast<TupleId>(dtmpl->NumRows());
  dtmpl->Reserve(dtmpl->NumRows() + stmpl->NumRows());
  for (size_t r = 0; r < stmpl->NumRows(); ++r) {
    dtmpl->AppendRow(stmpl->row(r).span());
  }
  Symbol src_sym = InternString(src);
  Symbol dst_sym = InternString(dst);
  for (size_t i : from.LiveComponents()) {
    Component proj = SliceComponent(
        from.component(i), src_sym, dst_sym, [](TupleId) { return true; },
        [offset](TupleId t) { return t + offset; });
    if (proj.NumFields() == 0) continue;
    MAYWSD_RETURN_IF_ERROR(into.AddComponent(std::move(proj)));
  }
  return Status::Ok();
}

// -- WSDT ---------------------------------------------------------------

class WsdtShardPlan final : public ShardPlan {
 public:
  WsdtShardPlan(Wsdt* parent, std::string relation,
                std::vector<std::string> aux,
                std::vector<std::vector<TupleId>> shards,
                std::vector<std::vector<size_t>> comps)
      : parent_(parent),
        relation_(std::move(relation)),
        aux_(std::move(aux)),
        shards_(std::move(shards)),
        comps_(std::move(comps)) {}

  size_t NumShards() const override { return shards_.size(); }

  Result<std::unique_ptr<WorldSetOps>> BuildShard(size_t i) const override {
    const std::vector<TupleId>& tids = shards_[i];
    MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* tmpl,
                            parent_->Template(relation_));
    Symbol sym = InternString(relation_);

    Wsdt slice;
    rel::Relation part(tmpl->schema(), relation_);
    part.Reserve(tids.size());
    std::unordered_map<TupleId, TupleId> remap;
    remap.reserve(tids.size());
    for (TupleId t : tids) {
      remap[t] = static_cast<TupleId>(part.NumRows());
      part.AppendRow(tmpl->row(static_cast<size_t>(t)).span());
    }
    MAYWSD_RETURN_IF_ERROR(slice.AddTemplateRelation(std::move(part)));

    // Only this shard's components (precomputed at plan time): their own
    // tuples all live in this slice, so the full-keep COW share of
    // SliceComponent is the common path for relation-pure components.
    for (size_t c : comps_[i]) {
      Component proj = SliceComponent(
          parent_->component(c), sym, sym,
          [&remap](TupleId t) { return remap.count(t) > 0; },
          [&remap](TupleId t) { return remap.at(t); });
      if (proj.NumFields() == 0) continue;
      MAYWSD_RETURN_IF_ERROR(slice.AddComponent(std::move(proj)));
    }

    for (const std::string& name : aux_) {
      MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* aux_tmpl,
                              parent_->Template(name));
      if (!TemplateIsCertain(*aux_tmpl)) {
        return Status::Internal("shard auxiliary " + name + " is not certain");
      }
      MAYWSD_RETURN_IF_ERROR(slice.AddTemplateRelation(*aux_tmpl));
    }
    return std::unique_ptr<WorldSetOps>(
        std::make_unique<WsdtBackend>(std::move(slice)));
  }

  Status Absorb(WorldSetOps& shard, const std::string& src,
                const std::string& dst) override {
    auto& backend = static_cast<WsdtBackend&>(shard);
    return AppendWsdtRelation(*parent_, backend.wsdt(), src, dst);
  }

 private:
  Wsdt* parent_;
  std::string relation_;
  std::vector<std::string> aux_;
  std::vector<std::vector<TupleId>> shards_;
  std::vector<std::vector<size_t>> comps_;  ///< per-shard component indices
};

/// Planning core: group `relation`'s slots by component links and cut
/// balanced shards. `num_slots` is the slot count of the relation.
std::vector<std::vector<TupleId>> PlanSlices(const Wsdt& parent,
                                             TupleId num_slots,
                                             Symbol relation,
                                             size_t max_shards) {
  std::vector<std::pair<TupleId, TupleId>> links;
  for (size_t i : parent.LiveComponents()) {
    std::vector<TupleId> tids = OwnTuples(parent.component(i), relation);
    for (size_t j = 1; j < tids.size(); ++j) {
      links.emplace_back(tids[0], tids[j]);
    }
  }
  return PartitionSlots(num_slots, links, max_shards);
}

/// Assigns each live component touching `relation` to the one shard
/// holding its tuple slots (component links keep them together, so the
/// first own tuple decides). BuildShard then scans only its own
/// components instead of every live one per shard — the planning pass
/// that made WSDT slices O(shards × components). With `require_pure`
/// (update fan-outs), returns nullopt when a component touching the
/// relation also covers another relation's columns: replacing the
/// relation with re-absorbed slices would marginalize that component and
/// lose the cross-relation correlation.
std::optional<std::vector<std::vector<size_t>>> AssignComponents(
    const Wsdt& parent, const std::vector<std::vector<TupleId>>& shards,
    TupleId num_slots, Symbol relation, bool require_pure) {
  std::vector<uint32_t> shard_of_tid(static_cast<size_t>(num_slots), 0);
  for (size_t s = 0; s < shards.size(); ++s) {
    for (TupleId t : shards[s]) {
      shard_of_tid[static_cast<size_t>(t)] = static_cast<uint32_t>(s);
    }
  }
  std::vector<std::vector<size_t>> comps(shards.size());
  for (size_t i : parent.LiveComponents()) {
    const Component& comp = parent.component(i);
    std::vector<TupleId> tids = OwnTuples(comp, relation);
    if (tids.empty()) continue;
    if (require_pure) {
      for (const FieldKey& f : comp.fields()) {
        if (f.rel != relation) return std::nullopt;
      }
    }
    comps[shard_of_tid[static_cast<size_t>(tids[0])]].push_back(i);
  }
  return comps;
}

}  // namespace

bool TemplateIsCertain(const rel::Relation& tmpl) {
  for (size_t r = 0; r < tmpl.NumRows(); ++r) {
    for (size_t a = 0; a < tmpl.arity(); ++a) {
      if (tmpl.row(r)[a].is_question()) return false;
    }
  }
  return true;
}

std::vector<std::vector<TupleId>> PartitionSlots(
    TupleId num_slots, const std::vector<std::pair<TupleId, TupleId>>& links,
    size_t max_shards) {
  if (num_slots < 2 || max_shards < 2) return {};
  size_t n = static_cast<size_t>(num_slots);
  UnionFind uf(n);
  for (const auto& [a, b] : links) {
    uf.Union(static_cast<size_t>(a), static_cast<size_t>(b));
  }
  // Flat group ids in minimum-member order (roots are group minima by
  // construction of UnionFind::Union, so an ascending slot scan visits
  // each group at its root first). The common independent-tuple case is
  // n singleton groups; per-group vectors would pay one heap allocation
  // per slot here, which dominated shard planning at census sizes.
  std::vector<uint32_t> group_of_slot(n);
  std::vector<size_t> group_size;
  for (size_t t = 0; t < n; ++t) {
    size_t root = uf.Find(t);
    if (root == t) {
      group_of_slot[t] = static_cast<uint32_t>(group_size.size());
      group_size.push_back(0);
    } else {
      group_of_slot[t] = group_of_slot[root];
    }
    ++group_size[group_of_slot[t]];
  }
  size_t num_groups = group_size.size();
  if (num_groups < 2) return {};

  // Pack whole groups into contiguous shards, balancing slot counts.
  size_t num_shards = std::min(max_shards, num_groups);
  std::vector<uint32_t> shard_of_group(num_groups);
  size_t remaining_slots = n;
  size_t remaining_shards = num_shards;
  size_t current = 0;
  uint32_t shard = 0;
  for (size_t g = 0; g < num_groups; ++g) {
    size_t target = (remaining_slots + remaining_shards - 1) / remaining_shards;
    shard_of_group[g] = shard;
    current += group_size[g];
    // Close the shard once it reached its share, keeping one group per
    // remaining shard available.
    size_t groups_left = num_groups - g - 1;
    if ((current >= target || groups_left < remaining_shards) &&
        remaining_shards > 1) {
      remaining_slots -= current;
      --remaining_shards;
      ++shard;
      current = 0;
    }
  }
  size_t shards_used = static_cast<size_t>(shard) + (current > 0 ? 1 : 0);
  if (shards_used < 2) return {};
  // Scatter slots in ascending order: each shard's tid list comes out
  // sorted without a separate sort pass.
  std::vector<size_t> shard_count(shards_used, 0);
  for (size_t t = 0; t < n; ++t) {
    ++shard_count[shard_of_group[group_of_slot[t]]];
  }
  std::vector<std::vector<TupleId>> shards(shards_used);
  for (size_t s = 0; s < shards_used; ++s) shards[s].reserve(shard_count[s]);
  for (size_t t = 0; t < n; ++t) {
    shards[shard_of_group[group_of_slot[t]]].push_back(
        static_cast<TupleId>(t));
  }
  return shards;
}

Result<std::unique_ptr<ShardPlan>> MakeWsdtShardPlan(Wsdt& parent,
                                                     const ShardRequest& req) {
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* tmpl,
                          parent.Template(req.relation));
  Symbol sym = InternString(req.relation);
  TupleId num_slots = static_cast<TupleId>(tmpl->NumRows());
  std::vector<std::vector<TupleId>> shards =
      PlanSlices(parent, num_slots, sym, req.max_shards);
  if (shards.empty()) return std::unique_ptr<ShardPlan>();
  std::optional<std::vector<std::vector<size_t>>> comps = AssignComponents(
      parent, shards, num_slots, sym, /*require_pure=*/req.for_update);
  if (!comps) return std::unique_ptr<ShardPlan>();
  return std::unique_ptr<ShardPlan>(std::make_unique<WsdtShardPlan>(
      &parent, req.relation, req.aux_relations, std::move(shards),
      std::move(*comps)));
}

}  // namespace maywsd::core::engine
