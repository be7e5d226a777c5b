// Composition cost of the interned component store: product chains,
// difference chains, and guarded update batches, through api::Session.
//
// The paper's 10^10^6-worlds headline rests on never materializing
// composed world sets. This harness measures what a workload actually
// forces, via the SessionStats snapshot of the store counters:
//   - product-chain: Q_k = R_1 × … × R_k over uncertain relations. Every
//     field copy is an O(1) ext-dup handle share, so the per-step store
//     cost (forced evaluations, materialized cells) must stay constant in
//     k — the harness EXITS NON-ZERO if it grows, making bench-smoke a
//     regression gate for the lazy-composition invariant.
//   - difference-chain: P −= S_i over uncertain attributes. Each step
//     records compose nodes and forces only the worlds the ⊥-rewrite
//     touches; reported so the growth curve is visible in CI artifacts.
//   - difference-isolation: L − S on one-tuple, two-world relations next
//     to N unrelated 256-way factors. The difference runs on the
//     templates and components of L and S only, so its store cost must
//     not depend on N — the harness EXITS NON-ZERO if forced evaluations,
//     compose nodes or live cells differ across N, or peak cells grow.
//   - guarded-batch: Session::ApplyAll of N updates sharing one
//     structurally equal world condition — asserts the batch materializes
//     the guard once and serves the other N−1 from the cache, and compares
//     wall clock against N sequential Apply calls.
//
// Usage: fig_compose [--json PATH] — also writes the measurements as a
// flat JSON document (consumed by CI as BENCH_fig_compose.json).

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "api/session.h"
#include "bench/bench_util.h"
#include "core/wsd.h"
#include "core/wsdt.h"
#include "rel/update.h"

namespace {

using namespace maywsd;
using rel::CmpOp;
using rel::Plan;
using rel::Predicate;
using rel::UpdateOp;

struct Sample {
  std::string workload;
  size_t steps = 0;
  double seconds = 0.0;
  // Store-counter deltas across the workload (process-global counters,
  // snapshotted through SessionStats before/after).
  uint64_t compose_nodes = 0;
  uint64_t forced_evals = 0;
  int64_t cells = 0;  // live-cell delta; can be negative after drops
  uint64_t peak_cells = 0;
  // Guard sharing (guarded-batch only).
  uint64_t guard_materializations = 0;
  uint64_t guard_shares = 0;
};

void WriteJson(const char* path, const std::vector<Sample>& samples) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"figure\": \"fig_compose\",\n  \"samples\": [\n");
  for (size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    std::fprintf(
        f,
        "    {\"workload\": \"%s\", \"steps\": %zu, \"seconds\": %.6f, "
        "\"compose_nodes\": %llu, \"forced_evals\": %llu, \"cells\": %lld, "
        "\"peak_cells\": %llu, \"guard_materializations\": %llu, "
        "\"guard_shares\": %llu}%s\n",
        s.workload.c_str(), s.steps, s.seconds,
        static_cast<unsigned long long>(s.compose_nodes),
        static_cast<unsigned long long>(s.forced_evals),
        static_cast<long long>(s.cells),
        static_cast<unsigned long long>(s.peak_cells),
        static_cast<unsigned long long>(s.guard_materializations),
        static_cast<unsigned long long>(s.guard_shares),
        i + 1 < samples.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

/// One attribute of a factor: a `worlds`-way uniform component.
core::Component FactorColumn(const std::string& name, const std::string& attr,
                             size_t worlds) {
  core::Component c({core::FieldKey(name, 0, attr)});
  for (size_t w = 0; w < worlds; ++w) {
    c.AddWorld({rel::Value::Int(static_cast<int64_t>(w))},
               1.0 / static_cast<double>(worlds));
  }
  return c;
}

/// An uncertain single-tuple relation `name`(a, b), each attribute an
/// independent `worlds`-way component. Components above the store's
/// eager-materialization threshold (64 cells) stay lazy handles;
/// two-world components are deliberately eager, so the chains pick their
/// factor size to measure the regime they care about.
Status AddFactor(core::Wsd& wsd, const std::string& name,
                 const std::string& a, const std::string& b, size_t worlds) {
  MAYWSD_RETURN_IF_ERROR(
      wsd.AddRelation(name, rel::Schema::FromNames({a, b}), 1));
  for (const std::string& attr : {a, b}) {
    MAYWSD_RETURN_IF_ERROR(wsd.AddComponent(FactorColumn(name, attr, worlds)));
  }
  return Status::Ok();
}

/// The same factor built directly as a WSDT template row of two '?'
/// cells. Building it grows the store's live cells with no transient
/// copy, so the process-wide peak counter ends at the live count — unlike
/// adopting a Wsd, whose conversion briefly holds both copies.
Status AddFactor(core::Wsdt& wsdt, const std::string& name,
                 const std::string& a, const std::string& b, size_t worlds) {
  rel::Relation tmpl(rel::Schema::FromNames({a, b}), name);
  tmpl.AppendRow({rel::Value::Question(), rel::Value::Question()});
  MAYWSD_RETURN_IF_ERROR(wsdt.AddTemplateRelation(std::move(tmpl)));
  for (const std::string& attr : {a, b}) {
    MAYWSD_RETURN_IF_ERROR(
        wsdt.AddComponent(FactorColumn(name, attr, worlds)));
  }
  return Status::Ok();
}

/// Factor i: relation R<i> with attributes A<i>, B<i>.
template <typename Store>
Status AddFactor(Store& store, size_t i, size_t worlds) {
  std::string n = std::to_string(i);
  return AddFactor(store, "R" + n, "A" + n, "B" + n, worlds);
}

struct Delta {
  api::SessionStats before;
  void Start(const api::Session& s) { before = s.Stats(); }
  void Finish(const api::Session& s, Sample& out) {
    api::SessionStats after = s.Stats();
    out.compose_nodes = after.store_compose_nodes - before.store_compose_nodes;
    out.forced_evals = after.store_forced_evals - before.store_forced_evals;
    out.cells = static_cast<int64_t>(after.store_live_cells) -
                static_cast<int64_t>(before.store_live_cells);
    out.peak_cells = after.store_peak_cells - before.store_peak_cells;
    out.guard_materializations =
        after.guard_materializations - before.guard_materializations;
    out.guard_shares = after.guard_shares - before.guard_shares;
  }
};

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  std::vector<Sample> samples;
  auto report = [&](Sample s) {
    std::printf("%-20s %6zu %10.6f %10llu %10llu %10lld %10llu\n",
                s.workload.c_str(), s.steps, s.seconds,
                static_cast<unsigned long long>(s.compose_nodes),
                static_cast<unsigned long long>(s.forced_evals),
                static_cast<long long>(s.cells),
                static_cast<unsigned long long>(s.peak_cells));
    samples.push_back(std::move(s));
  };
  std::printf("%-20s %6s %10s %10s %10s %10s %10s\n", "workload", "steps",
              "seconds", "compose", "forced", "cells", "peak");

  // -- Difference isolation: cost independent of unrelated components. ----
  //
  // L and S are one-tuple relations over two-world attributes; N unrelated
  // 256-way factors sit beside them. The difference composes L's and S's
  // components only, so every store delta must be the same for every N.
  // It runs first, before the chains raise the process-wide peak counter.
  const size_t kChainWorlds = 256;
  std::vector<Sample> isolation;
  for (size_t n : {0, 64, 512, 4096}) {
    core::Wsdt wsdt;
    if (!AddFactor(wsdt, "L", "A", "B", 2).ok()) return 1;
    if (!AddFactor(wsdt, "S", "A", "B", 2).ok()) return 1;
    for (size_t i = 0; i < n; ++i) {
      if (!AddFactor(wsdt, i, kChainWorlds).ok()) return 1;
    }
    api::Session session = api::Session::Open(std::move(wsdt));
    Sample s;
    s.workload = "difference-isolation";
    s.steps = n;  // unrelated factors beside L and S
    Delta d;
    d.Start(session);
    // The peak counter never falls: its delta measures this difference
    // only while it starts at the live count, which holds because each N
    // builds more cells than any earlier step held.
    if (d.before.store_peak_cells != d.before.store_live_cells) {
      std::fprintf(stderr, "FAIL: peak cells above live cells before the "
                           "isolated difference; its peak delta is inexact\n");
      return 1;
    }
    Timer t;
    if (!session.Run(Plan::Difference(Plan::Scan("L"), Plan::Scan("S")), "Q")
             .ok()) {
      std::fprintf(stderr, "difference isolation n=%zu failed\n", n);
      return 1;
    }
    s.seconds = t.Seconds();
    d.Finish(session, s);
    isolation.push_back(s);
    report(std::move(s));
  }
  for (const Sample& s : isolation) {
    const Sample& base = isolation.front();
    if (s.forced_evals != base.forced_evals ||
        s.compose_nodes != base.compose_nodes || s.cells != base.cells ||
        s.peak_cells > base.peak_cells) {
      std::fprintf(stderr,
                   "FAIL: difference next to %zu unrelated factors cost "
                   "forced=%llu compose=%llu cells=%lld peak=%llu, alone "
                   "forced=%llu compose=%llu cells=%lld peak=%llu; the "
                   "difference reaches past its operands\n",
                   s.steps, static_cast<unsigned long long>(s.forced_evals),
                   static_cast<unsigned long long>(s.compose_nodes),
                   static_cast<long long>(s.cells),
                   static_cast<unsigned long long>(s.peak_cells),
                   static_cast<unsigned long long>(base.forced_evals),
                   static_cast<unsigned long long>(base.compose_nodes),
                   static_cast<long long>(base.cells),
                   static_cast<unsigned long long>(base.peak_cells));
      return 1;
    }
  }

  // -- Product chain: representation cost must be O(1) per step. -----------
  //
  // Each factor's attribute is a 256-way component (above the store's
  // eager threshold), so Q_16 represents 256^32 ≈ 10^77 worlds. The build
  // itself is pure ext-dup handle shares; the only forcing is scratch
  // cleanup, which materializes each touched component once (2 per step,
  // independent of chain length), and the cells that survive per step are
  // the factor's own payload — flat in k. An eager store copies every
  // factor's payload once per downstream product instead, so its per-step
  // cell cost grows linearly with chain length and this gate trips.
  std::vector<uint64_t> forced_per_chain;
  std::vector<int64_t> cells_per_step;
  for (size_t k : {4, 8, 16}) {
    core::Wsd wsd;
    for (size_t i = 0; i < k; ++i) {
      if (!AddFactor(wsd, i, kChainWorlds).ok()) return 1;
    }
    auto session_or = api::Session::Open(wsd);
    if (!session_or.ok()) return 1;
    api::Session session = std::move(session_or).value();
    Plan plan = Plan::Scan("R0");
    for (size_t i = 1; i < k; ++i) {
      plan = Plan::Product(std::move(plan),
                           Plan::Scan("R" + std::to_string(i)));
    }
    Sample s;
    s.workload = "product-chain";
    s.steps = k - 1;
    Delta d;
    d.Start(session);
    Timer t;
    if (!session.Run(plan, "Q").ok()) {
      std::fprintf(stderr, "product chain k=%zu failed\n", k);
      return 1;
    }
    s.seconds = t.Seconds();
    d.Finish(session, s);
    forced_per_chain.push_back(s.forced_evals);
    cells_per_step.push_back(s.cells / static_cast<int64_t>(s.steps));
    report(std::move(s));
  }
  // The gate: per-step forced evaluations and per-step surviving cells
  // must not grow with chain length. (Lazy: 2 forced per step — one per
  // copied attribute at scratch cleanup — and a flat ~2·worlds cells per
  // step. Eager: cells per step grow linearly in k and the 2× slack
  // trips by k=16.)
  {
    uint64_t forced_ps = forced_per_chain.back() / 15;  // longest chain
    if (forced_ps > 4) {
      std::fprintf(stderr,
                   "FAIL: product chain forced %llu evaluations per step; "
                   "compose cost is no longer O(1) per step\n",
                   static_cast<unsigned long long>(forced_ps));
      return 1;
    }
    if (cells_per_step.back() >
        2 * std::max<int64_t>(cells_per_step.front(), 8)) {
      std::fprintf(stderr,
                   "FAIL: product-chain cells per step grew %lld -> %lld; "
                   "compose cost is no longer O(1) per step\n",
                   static_cast<long long>(cells_per_step.front()),
                   static_cast<long long>(cells_per_step.back()));
      return 1;
    }
  }

  // -- Difference chain: compose nodes recorded, forcing stays local. ------
  //
  // P loses worlds to each uncertain subtrahend; the ⊥-rewrite forces the
  // composed component it mutates, so forced work tracks the worlds the
  // query actually distinguishes — reported for the CI artifact curve.
  for (size_t k : {2, 4, 6}) {
    core::Wsd wsd;
    for (size_t i = 0; i < k + 1; ++i) {
      // Two-world factors: the composed component the ⊥-rewrite forces
      // stays at 2^(k+1) local worlds, small enough to materialize.
      if (!AddFactor(wsd, i, 2).ok()) return 1;
    }
    auto session_or = api::Session::Open(wsd);
    if (!session_or.ok()) return 1;
    api::Session session = std::move(session_or).value();
    // Align every factor onto P's schema so difference is well-typed.
    Plan plan = Plan::Scan("R0");
    for (size_t i = 1; i <= k; ++i) {
      Plan s_i = Plan::Rename({{"A" + std::to_string(i), "A0"},
                               {"B" + std::to_string(i), "B0"}},
                              Plan::Scan("R" + std::to_string(i)));
      plan = Plan::Difference(std::move(plan), std::move(s_i));
    }
    Sample s;
    s.workload = "difference-chain";
    s.steps = k;
    Delta d;
    d.Start(session);
    Timer t;
    if (!session.Run(plan, "Q").ok()) {
      std::fprintf(stderr, "difference chain k=%zu failed\n", k);
      return 1;
    }
    s.seconds = t.Seconds();
    d.Finish(session, s);
    report(std::move(s));
  }

  // -- Guarded update batch: one materialization, N−1 shares. --------------
  {
    const size_t kOps = 16;
    census::CensusSchema schema = census::CensusSchema::Standard();
    rel::Relation base =
        census::GenerateCensus(schema, 2000, /*seed=*/0xC0FFEE);
    rel::Relation guard = base;
    guard.set_name("G");

    UpdateOp op_template = UpdateOp::ModifyWhere(
        "R", Predicate::Cmp("SEX", CmpOp::kEq, rel::Value::Int(1)),
        {{"MARITAL", rel::Value::Int(0)}});
    Plan condition = Plan::Select(
        Predicate::Cmp("AGE", CmpOp::kGe, rel::Value::Int(90)),
        Plan::Scan("G"));

    auto run = [&](bool batched, Sample& s) -> bool {
      api::Session session = api::Session::Open(api::BackendKind::kWsdt);
      if (!session.Register(base).ok()) return false;
      if (!session.Register(guard).ok()) return false;
      std::vector<UpdateOp> ops;
      for (size_t i = 0; i < kOps; ++i) {
        ops.push_back(UpdateOp::ModifyWhere(
                          "R",
                          Predicate::Cmp("SEX", CmpOp::kEq, rel::Value::Int(1)),
                          {{"MARITAL", rel::Value::Int(static_cast<int64_t>(
                                           i % 3))}})
                          .When(condition));
      }
      Delta d;
      d.Start(session);
      Timer t;
      if (batched) {
        if (!session.ApplyAll(ops).ok()) return false;
      } else {
        for (const UpdateOp& op : ops) {
          if (!session.Apply(op).ok()) return false;
        }
      }
      s.seconds = t.Seconds();
      d.Finish(session, s);
      return true;
    };

    Sample seq;
    seq.workload = "guarded-seq";
    seq.steps = kOps;
    if (!run(false, seq)) return 1;
    report(std::move(seq));

    Sample batch;
    batch.workload = "guarded-batch";
    batch.steps = kOps;
    if (!run(true, batch)) return 1;
    bool shared = batch.guard_materializations == 1 &&
                  batch.guard_shares == kOps - 1;
    std::printf("%-20s guard: %llu materialized, %llu shared\n",
                batch.workload.c_str(),
                static_cast<unsigned long long>(batch.guard_materializations),
                static_cast<unsigned long long>(batch.guard_shares));
    report(std::move(batch));
    if (!shared) {
      std::fprintf(stderr,
                   "FAIL: guarded batch expected 1 materialization and %zu "
                   "shares\n",
                   kOps - 1);
      return 1;
    }
  }

  if (json_path != nullptr) {
    WriteJson(json_path, samples);
    std::printf("\nwrote %s\n", json_path);
  }
  return 0;
}
