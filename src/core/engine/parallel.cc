#include "core/engine/parallel.h"

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#include "core/engine/plan_driver.h"

namespace maywsd::core::engine {

// -- ThreadPool ---------------------------------------------------------

namespace {

/// Set while a pool worker is executing tasks, so nested RunAll calls run
/// inline instead of deadlocking on a saturated queue.
thread_local bool t_on_pool_worker = false;

}  // namespace

struct ThreadPool::Impl {
  std::mutex mu;
  std::condition_variable work_cv;
  std::deque<std::function<void()>> queue;
  bool shutting_down = false;
  std::vector<std::thread> workers;

  void WorkerLoop() {
    t_on_pool_worker = true;
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu);
        work_cv.wait(lock, [this] { return shutting_down || !queue.empty(); });
        if (queue.empty()) return;  // shutting down
        task = std::move(queue.front());
        queue.pop_front();
      }
      task();
    }
  }
};

ThreadPool::ThreadPool(size_t num_threads)
    : impl_(new Impl), num_threads_(num_threads == 0 ? 1 : num_threads) {
  impl_->workers.reserve(num_threads_);
  for (size_t i = 0; i < num_threads_; ++i) {
    impl_->workers.emplace_back([impl = impl_] { impl->WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->shutting_down = true;
  }
  impl_->work_cv.notify_all();
  for (std::thread& t : impl_->workers) t.join();
  delete impl_;
}

std::vector<Status> ThreadPool::RunAll(
    std::vector<std::function<Status()>> tasks) {
  std::vector<Status> results(tasks.size(), Status::Ok());
  if (tasks.empty()) return results;
  if (t_on_pool_worker) {
    // Nested use from a worker: run inline to avoid queue deadlock.
    for (size_t i = 0; i < tasks.size(); ++i) results[i] = tasks[i]();
    return results;
  }
  struct Batch {
    std::mutex mu;
    std::condition_variable done_cv;
    size_t pending;
  };
  auto batch = std::make_shared<Batch>();
  batch->pending = tasks.size();
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    for (size_t i = 0; i < tasks.size(); ++i) {
      impl_->queue.push_back(
          [task = std::move(tasks[i]), result = &results[i], batch] {
            *result = task();
            std::lock_guard<std::mutex> lock(batch->mu);
            if (--batch->pending == 0) batch->done_cv.notify_all();
          });
    }
  }
  impl_->work_cv.notify_all();
  std::unique_lock<std::mutex> lock(batch->mu);
  batch->done_cv.wait(lock, [&batch] { return batch->pending == 0; });
  return results;
}

void ThreadPool::Submit(std::function<void()> task) {
  if (t_on_pool_worker) {
    // Nested use from a worker: run inline to avoid queue deadlock.
    task();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->queue.push_back(std::move(task));
  }
  impl_->work_cv.notify_one();
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool pool(std::thread::hardware_concurrency() == 0
                             ? 4
                             : std::thread::hardware_concurrency());
  return pool;
}

// -- Shard candidate analysis -------------------------------------------

namespace {

struct LeafInfo {
  size_t occurrences = 0;
  /// True when at least one occurrence sits on a distributive root path.
  bool distributive = false;
};

/// Walks the plan, collecting per-leaf occurrence counts and whether each
/// leaf is reachable from the root through operators that distribute over
/// a union of slices of that leaf: σ/π/δ (unary), × and ⋈ (either side),
/// − (left side only). Union does not distribute slice-wise (the other
/// branch would be replicated per slice), nor does the right side of a
/// difference.
void AnalyzePlan(const rel::Plan& plan, bool distributive,
                 std::unordered_map<std::string, LeafInfo>* leaves,
                 std::vector<std::string>* leaf_order) {
  using K = rel::Plan::Kind;
  if (plan.kind() == K::kScan) {
    auto [it, fresh] = leaves->try_emplace(plan.relation());
    if (fresh) leaf_order->push_back(plan.relation());
    it->second.occurrences++;
    it->second.distributive |= distributive;
    return;
  }
  switch (plan.kind()) {
    case K::kSelect:
    case K::kProject:
    case K::kRename:
      AnalyzePlan(plan.child(), distributive, leaves, leaf_order);
      return;
    case K::kProduct:
    case K::kJoin:
      AnalyzePlan(plan.left(), distributive, leaves, leaf_order);
      AnalyzePlan(plan.right(), distributive, leaves, leaf_order);
      return;
    case K::kDifference:
      AnalyzePlan(plan.left(), distributive, leaves, leaf_order);
      AnalyzePlan(plan.right(), false, leaves, leaf_order);
      return;
    case K::kUnion:
      AnalyzePlan(plan.left(), false, leaves, leaf_order);
      AnalyzePlan(plan.right(), false, leaves, leaf_order);
      return;
    case K::kScan:
      return;
  }
}

/// Picks the relation to partition: the first leaf (in scan preorder) that
/// occurs exactly once on a distributive path while every other scanned
/// relation is certain. Returns a null request when no leaf qualifies.
///
/// The fan-out cost rule lives here, for every backend: a query plan whose
/// only scanned relation is the partitioned one never fans out. Such a
/// plan is a unary σ/π/δ chain — one bandwidth-bound pass over the
/// relation — and building the shard slices copies every row of it first,
/// which costs as much as the pass it would parallelize. A plan with a
/// second (certain) leaf does superlinear per-row work (products, joins)
/// that amortizes the slice. Update fan-outs are not queries: the backend
/// alone accepts or declines them (ShardRequest::for_update).
Result<std::unique_ptr<ShardRequest>> FindShardCandidate(
    const WorldSetOps& ops, const rel::Plan& plan, size_t max_shards) {
  std::unordered_map<std::string, LeafInfo> leaves;
  std::vector<std::string> leaf_order;
  AnalyzePlan(plan, /*distributive=*/true, &leaves, &leaf_order);
  if (leaf_order.size() < 2) return std::unique_ptr<ShardRequest>();
  for (const std::string& name : leaf_order) {
    if (!ops.HasRelation(name)) return std::unique_ptr<ShardRequest>();
  }
  for (const std::string& name : leaf_order) {
    const LeafInfo& info = leaves.at(name);
    if (info.occurrences != 1 || !info.distributive) continue;
    auto req = std::make_unique<ShardRequest>();
    req->relation = name;
    req->max_shards = max_shards;
    for (const std::string& other : leaf_order) {
      if (other == name) continue;
      MAYWSD_ASSIGN_OR_RETURN(bool certain, ops.RelationCertain(other));
      if (!certain) {
        req.reset();
        break;
      }
      req->aux_relations.push_back(other);
    }
    if (req != nullptr) return req;
  }
  return std::unique_ptr<ShardRequest>();
}

/// Name of the per-shard result relation (each shard backend is its own
/// namespace, so a fixed name cannot collide).
constexpr const char* kShardOut = "__eng_shard_out";

/// The ordered streaming merge: runs `work(i)` for every shard on the
/// shared pool and calls `absorb(i)` on THIS thread as soon as shards
/// 0..i have completed — slower shards keep executing while earlier ones
/// merge, so there is no wait-for-slowest barrier, and shard-index order
/// keeps the merged result deterministic. After the first failure no
/// further absorbs run, but the coordinator still drains every in-flight
/// worker before returning (the tasks reference this frame). From inside
/// a pool worker the whole fan-out degrades to a sequential
/// work-then-absorb loop.
Status RunStreamingOrdered(size_t num_shards,
                           const std::function<Status(size_t)>& work,
                           const std::function<Status(size_t)>& absorb) {
  if (t_on_pool_worker) {
    for (size_t i = 0; i < num_shards; ++i) {
      MAYWSD_RETURN_IF_ERROR(work(i));
      MAYWSD_RETURN_IF_ERROR(absorb(i));
    }
    return Status::Ok();
  }
  struct State {
    std::mutex mu;
    std::condition_variable done_cv;
    std::vector<Status> results;
    std::vector<char> done;
  } state;
  state.results.assign(num_shards, Status::Ok());
  state.done.assign(num_shards, 0);
  for (size_t i = 0; i < num_shards; ++i) {
    ThreadPool::Shared().Submit([&state, &work, i] {
      Status st = work(i);
      std::lock_guard<std::mutex> lock(state.mu);
      state.results[i] = std::move(st);
      state.done[i] = 1;
      state.done_cv.notify_all();
    });
  }
  Status first_error = Status::Ok();
  for (size_t i = 0; i < num_shards; ++i) {
    Status st;
    {
      std::unique_lock<std::mutex> lock(state.mu);
      state.done_cv.wait(lock, [&state, i] { return state.done[i] != 0; });
      st = state.results[i];
    }
    if (first_error.ok() && !st.ok()) first_error = st;
    if (first_error.ok()) {
      if (Status ast = absorb(i); !ast.ok()) first_error = ast;
    }
  }
  return first_error;
}

/// The fan-out shared by queries and updates. Builds every slice of
/// `shard_plan` on the pool, with a barrier: BuildShard only READS the
/// parent, and everything after it mutates the parent. Then drops the
/// parent's `dst` when it exists (an update fan-out replaces its relation
/// by the mutated slices; a query's fresh `out` does not exist yet), runs
/// `work` on every slice on the pool and streams each slice's `src` back
/// into `dst` in shard-index order while slower slices still run. Fills
/// `stats` on success.
Status FanOut(WorldSetOps& ops, ShardPlan& shard_plan,
              const std::function<Status(WorldSetOps&)>& work,
              const std::string& src, const std::string& dst,
              ParallelStats* stats) {
  size_t num_shards = shard_plan.NumShards();
  std::vector<std::unique_ptr<WorldSetOps>> shards(num_shards);
  std::vector<std::function<Status()>> builds;
  builds.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    builds.push_back([&shard_plan, &shards, i]() -> Status {
      MAYWSD_ASSIGN_OR_RETURN(shards[i], shard_plan.BuildShard(i));
      return Status::Ok();
    });
  }
  for (Status& st : ThreadPool::Shared().RunAll(std::move(builds))) {
    MAYWSD_RETURN_IF_ERROR(st);
  }
  if (ops.HasRelation(dst)) MAYWSD_RETURN_IF_ERROR(ops.Drop(dst));
  MAYWSD_RETURN_IF_ERROR(RunStreamingOrdered(
      num_shards, [&shards, &work](size_t i) { return work(*shards[i]); },
      [&shard_plan, &shards, &src, &dst](size_t i) {
        return shard_plan.Absorb(*shards[i], src, dst);
      }));
  if (stats != nullptr) {
    stats->sharded = true;
    stats->shards = num_shards;
  }
  return Status::Ok();
}

}  // namespace

// -- EvaluateParallel ---------------------------------------------------

Status EvaluateParallel(WorldSetOps& ops, const rel::Plan& plan,
                        const std::string& out, size_t threads,
                        ParallelStats* stats) {
  if (stats != nullptr) *stats = ParallelStats{};
  if (threads <= 1) return Evaluate(ops, plan, out);
  if (ops.HasRelation(out)) {
    return Status::AlreadyExists("relation " + out);
  }
  MAYWSD_ASSIGN_OR_RETURN(std::unique_ptr<ShardRequest> req,
                          FindShardCandidate(ops, plan, threads));
  if (req == nullptr) return Evaluate(ops, plan, out);
  MAYWSD_ASSIGN_OR_RETURN(std::unique_ptr<ShardPlan> shard_plan,
                          ops.PlanShards(*req));
  if (shard_plan == nullptr) return Evaluate(ops, plan, out);

  // Evaluate the whole plan per slice. On any failure, drop the
  // partially-merged result so callers never observe a truncated `out`.
  Status st = FanOut(
      ops, *shard_plan,
      [&plan](WorldSetOps& shard) { return Evaluate(shard, plan, kShardOut); },
      kShardOut, out, stats);
  if (!st.ok() && ops.HasRelation(out)) (void)ops.Drop(out);
  return st;
}

// -- ApplyUpdatesSharded ------------------------------------------------

Status ApplyUpdatesSharded(WorldSetOps& ops,
                           std::span<const rel::UpdateOp> run, size_t threads,
                           ParallelStats* stats) {
  if (stats != nullptr) *stats = ParallelStats{};
  if (run.empty()) return Status::Ok();
  auto sequential = [&ops, run]() -> Status {
    for (const rel::UpdateOp& op : run) {
      MAYWSD_RETURN_IF_ERROR(ops.ApplyUpdate(op, std::string()));
    }
    return Status::Ok();
  };
  // Only unconditional deletes/modifies distribute over tuple slices (an
  // insert has nothing to slice, and a world-conditional update's guard
  // correlates every slice with the guard relation's components); the
  // caller groups runs so one check on the head covers all of them.
  if (threads <= 1 || run.front().kind() == rel::UpdateOp::Kind::kInsert ||
      run.front().has_world_condition()) {
    return sequential();
  }
  ShardRequest req;
  req.relation = run.front().relation();
  req.max_shards = threads;
  req.for_update = true;
  MAYWSD_ASSIGN_OR_RETURN(std::unique_ptr<ShardPlan> shard_plan,
                          ops.PlanShards(req));
  if (shard_plan == nullptr) return sequential();

  // Replace-by-slices: every slice applies the whole update run (this is
  // where the fan-out earns its copy: one slicing serves every update in
  // the run), and the mutated slices stream back under the original name.
  const std::string& name = run.front().relation();
  return FanOut(
      ops, *shard_plan,
      [run](WorldSetOps& shard) -> Status {
        for (const rel::UpdateOp& op : run) {
          MAYWSD_RETURN_IF_ERROR(shard.ApplyUpdate(op, std::string()));
        }
        return Status::Ok();
      },
      name, name, stats);
}

}  // namespace maywsd::core::engine
