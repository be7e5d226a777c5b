// Parallel plan evaluation: shard fan-out over a bounded worker pool.
//
// The facade-level entry point for queries is EvaluateParallel: it
// decides whether a plan can run sharded on the backend (one scan of the
// partitioned relation, reached through operators that distribute over a
// union of tuple slices; every other scanned relation certain, and at
// least one other — the fan-out cost rule, stated once in parallel.cc for
// every backend), asks the backend for a ShardPlan, evaluates the whole
// plan once per independent slice on the worker pool, and merges the
// shard results with an ordered streaming merge: shard i is absorbed on
// the coordinating thread as soon as shards 0..i finished, while slower
// shards are still executing — shard-index order keeps the merge
// deterministic regardless of completion order, without a
// wait-for-slowest barrier. Anything that does not fit falls back to the
// sequential Evaluate with identical semantics.
//
// ApplyUpdatesSharded is the update-side twin: a RUN of consecutive
// unconditional deletes/modifies on one relation fans out over shard
// slices of that relation, every slice applies the whole run
// independently, and the parent relation is replaced by the streamed-back
// slices. Slicing once per run — not once per update — is what makes the
// fan-out profitable: the slice copy and the merge-back amortize over the
// run's length, so a batch of k one-pass updates costs ~2 passes of copy
// plus k/N passes of mutation instead of k sequential passes. Backends
// decline (via ShardRequest::for_update) when slicing is unsound for
// their component layout or cannot beat their native one-pass update.
//
// Sharded evaluation preserves the result relation's world-set exactly
// (the test suite holds threads=1 and threads=N to identical world sets);
// the correlation between the result and the input relations is weakened,
// since shard results attach to slice copies of the input components.

#ifndef MAYWSD_CORE_ENGINE_PARALLEL_H_
#define MAYWSD_CORE_ENGINE_PARALLEL_H_

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/engine/world_set_ops.h"
#include "rel/algebra.h"

namespace maywsd::core::engine {

/// A bounded pool of worker threads with a run-and-wait batch interface.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least one).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return num_threads_; }

  /// Runs every task on the pool and waits for all of them; statuses come
  /// back in task order. Calls from inside a pool worker run the tasks
  /// inline (no nested scheduling, no deadlock).
  std::vector<Status> RunAll(std::vector<std::function<Status()>> tasks);

  /// Enqueues one task without waiting — the building block of the
  /// streaming merges. From inside a pool worker the task runs inline
  /// before returning (same no-nested-scheduling rule as RunAll).
  void Submit(std::function<void()> task);

  /// Process-wide pool sized to the hardware concurrency. Workers are
  /// started on first use and joined at process exit.
  static ThreadPool& Shared();

 private:
  struct Impl;
  Impl* impl_;
  size_t num_threads_;
};

/// Per-run telemetry of EvaluateParallel.
struct ParallelStats {
  bool sharded = false;   ///< true when the run fanned out
  size_t shards = 0;      ///< number of shards executed
};

/// Evaluates `plan` into `out`, fanning out across at most `threads`
/// workers when the plan and backend allow it; otherwise equivalent to
/// Evaluate(ops, plan, out). threads <= 1 always runs sequentially.
Status EvaluateParallel(WorldSetOps& ops, const rel::Plan& plan,
                        const std::string& out, size_t threads,
                        ParallelStats* stats = nullptr);

/// Applies a run of ALREADY-VALIDATED updates (see engine/update_plan.h) —
/// all unconditional deletes/modifies of the SAME relation — fanning the
/// whole run out over shard slices of that relation: slices build in
/// parallel, the parent relation is dropped, every slice applies the full
/// run on the pool, and finished slices stream back in shard-index order
/// while slower ones still run. Runs containing an insert or a
/// world-conditional update are rejected by the caller's grouping, and
/// threads <= 1, single-shard plans or backends that decline the
/// for_update shard request fall back to applying the run sequentially
/// through WorldSetOps::ApplyUpdate. Like a failed sequential update, a
/// failed fan-out can leave the target relation partially merged —
/// updates are in-place and not transactional.
Status ApplyUpdatesSharded(WorldSetOps& ops,
                           std::span<const rel::UpdateOp> run, size_t threads,
                           ParallelStats* stats = nullptr);

}  // namespace maywsd::core::engine

#endif  // MAYWSD_CORE_ENGINE_PARALLEL_H_
