// The shared plan compiler/driver of the world-set engine.
//
// Exactly one lowering of rel::Plan onto Figure 9 world-set operators
// lives here and serves every backend:
//   - conjunctive selections become operator chains,
//   - disjunctions become unions of selections,
//   - negations are pushed to the comparison leaves (NegatePredicate),
//   - joins are lowered to product-plus-selections, or to the backend's
//     fused hash join plus a residual selection when it has one,
//   - backends with a native arbitrary-predicate selection skip the
//     ∧/∨/¬ lowering entirely.
//
// Intermediate results live in scratch relations whose names are unique
// among live scopes, tracked by a ScratchScope that drops them when the
// scope exits — including on error paths — so evaluation cannot leak
// intermediates into the decomposition. Dropped names go back to a
// process-wide pool for reuse, so repeated evaluations do not grow the
// (append-only) string interner.

#ifndef MAYWSD_CORE_ENGINE_PLAN_DRIVER_H_
#define MAYWSD_CORE_ENGINE_PLAN_DRIVER_H_

#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "rel/algebra.h"
#include "rel/plan_hash.h"
#include "core/engine/world_set_ops.h"

namespace maywsd::core::engine {

/// Tracks the scratch relations of one evaluation. Fresh() hands out names
/// no other live scope or kept temp holds (so overlapping, concurrent or
/// kept evaluations never collide), reusing names earlier scopes dropped;
/// the destructor best-effort-drops whatever is still tracked.
class ScratchScope {
 public:
  explicit ScratchScope(WorldSetOps& ops) : ops_(&ops) {}
  ~ScratchScope();

  ScratchScope(const ScratchScope&) = delete;
  ScratchScope& operator=(const ScratchScope&) = delete;

  /// Returns a fresh scratch-relation name and tracks it for cleanup.
  std::string Fresh();

  /// Drops every tracked scratch relation and compacts the backend;
  /// the first error wins. The scope forgets its temps either way; the
  /// names of those the backend no longer holds return to the pool.
  Status DropAll();

  /// Releases ownership without dropping (keep_temps evaluation); kept
  /// names are never reused.
  void Keep() { temps_.clear(); }

  const std::vector<std::string>& temps() const { return temps_; }

 private:
  WorldSetOps* ops_;
  std::vector<std::string> temps_;
};

/// Rewrites ¬p by pushing the negation to comparison leaves (¬(A<c) ≡ A≥c,
/// De Morgan on ∧/∨). Needed because the Figure 9 selections have no
/// native negation.
rel::Predicate NegatePredicate(const rel::Predicate& pred);

/// Applies `pred` as a selection src → out on any backend: natively when
/// the backend supports predicate selection, otherwise via the generic
/// chain/union/negation lowering. Scratch intermediates go to `scope`.
Status ApplySelect(WorldSetOps& ops, ScratchScope& scope,
                   const std::string& src, const std::string& out,
                   const rel::Predicate& pred);

/// Memo of already-materialized subplans, keyed structurally
/// (rel::PlanHash/PlanEqual): a batched workload evaluates each distinct
/// subtree once and reuses its scratch relation for every later
/// occurrence. Valid for the lifetime of one ScratchScope — operators only
/// extend the world set, so a materialized subtree stays correct for the
/// whole batch.
struct SubplanCache {
  std::unordered_map<rel::Plan, std::string, rel::PlanHasher, rel::PlanEq>
      memo;
  size_t hits = 0;
  size_t misses = 0;
};

/// Evaluates `plan` bottom-up over the backend and returns the name of the
/// relation holding the result (an input relation for bare scans, else a
/// scratch relation tracked by `scope`). With `cache`, operator subtrees
/// are memoized and reused (bare scans are never counted or cached).
Result<std::string> EvalPlan(WorldSetOps& ops, ScratchScope& scope,
                             const rel::Plan& plan,
                             SubplanCache* cache = nullptr);

/// Evaluates an arbitrary relational algebra plan over the backend, adding
/// the result under `out`. Leaf scans refer to relations already in the
/// world set. Intermediates are dropped unless `keep_temps`.
Status Evaluate(WorldSetOps& ops, const rel::Plan& plan,
                const std::string& out, bool keep_temps = false);

/// Runs the Section 5 logical optimizations first (merge selections, fuse
/// σ(×) into joins, distribute over unions — see rel::Optimize) against
/// the backend's schemas, then evaluates the rewritten plan.
Status EvaluateOptimized(WorldSetOps& ops, const rel::Plan& plan,
                         const std::string& out);

/// Rewrites `plan` with the Section 5 logical optimizations against the
/// backend's catalog (the optimizer only needs schemas).
Result<rel::Plan> OptimizeForBackend(WorldSetOps& ops, const rel::Plan& plan);

/// Per-batch telemetry of EvaluateBatch.
struct BatchStats {
  size_t cache_hits = 0;
  size_t cache_misses = 0;
};

/// Evaluates a workload of plans sharing one scratch lifecycle: plans run
/// in order, `plans[i]` materializing under `outs[i]`, with common
/// subplans evaluated once across the whole batch (disable with
/// `cache_subplans = false`). Later plans may scan earlier outputs. On
/// error, outputs already materialized remain; scratch relations are
/// dropped on every path.
Status EvaluateBatch(WorldSetOps& ops, std::span<const rel::Plan> plans,
                     std::span<const std::string> outs,
                     bool cache_subplans = true, BatchStats* stats = nullptr);

}  // namespace maywsd::core::engine

#endif  // MAYWSD_CORE_ENGINE_PLAN_DRIVER_H_
