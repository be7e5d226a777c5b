// Relational algebra on WSDTs/UWSDTs — Section 5.
//
// These are the scale-path operators the paper's experiments run: they scan
// template relations once, touch components only for placeholder fields,
// and implement the Section 5 optimizations — selections and projections on
// the same relation are merged into one pass (WsdtSelect evaluates an
// arbitrary predicate tree with three-valued logic over '?'), and σ(×) is
// fused into a hash join over certain-and-possible values instead of a
// materialized product.
//
// Semantics are those of the Figure 9 WSD operators (the test suite checks
// WsdtEvaluate ≡ per-world evaluation on random world-sets), and these are
// the operators every WSD-family api::Session runs — `kWsd` included;
// conditional tuple membership is encoded by ⊥ values inside components,
// exactly as "a placeholder with different amounts of values in different
// worlds".

#ifndef MAYWSD_CORE_WSDT_ALGEBRA_H_
#define MAYWSD_CORE_WSDT_ALGEBRA_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "rel/algebra.h"
#include "core/wsdt.h"

namespace maywsd::core {

/// P := R (identity copy; fresh template rows and component columns).
Status WsdtCopy(Wsdt& wsdt, const std::string& src, const std::string& out);

/// P := σ_pred(R) for an arbitrary predicate tree in one template pass.
/// Rows that certainly fail are dropped; rows that possibly fail get ⊥
/// markers in the (composed) components of the referenced placeholders.
Status WsdtSelect(Wsdt& wsdt, const std::string& src, const std::string& out,
                  const rel::Predicate& pred);

/// P := π_attrs(R). Fully-certain duplicate rows are merged; placeholders
/// with ⊥ in dropped columns are composed into kept columns (or into a
/// presence-helper placeholder when the projection keeps only certain
/// fields) so deleted tuples are not resurrected.
Status WsdtProject(Wsdt& wsdt, const std::string& src, const std::string& out,
                   const std::vector<std::string>& attrs);

/// T := R ∪ S (schemas must match; duplicate certain rows merged).
Status WsdtUnion(Wsdt& wsdt, const std::string& left, const std::string& right,
                 const std::string& out);

/// T := R × S (attribute sets must be disjoint).
Status WsdtProduct(Wsdt& wsdt, const std::string& left,
                   const std::string& right, const std::string& out);

/// T := R ⋈_{A=B} S — hash join on certain and possible key values; pairs
/// involving placeholders get their components composed and non-matching
/// local worlds ⊥-marked (the Section 5 "merge product and join selection"
/// optimization).
Status WsdtJoin(Wsdt& wsdt, const std::string& left, const std::string& right,
                const std::string& out, const std::string& left_attr,
                const std::string& right_attr);

/// P := δ(R) for several renames at once.
Status WsdtRename(Wsdt& wsdt, const std::string& src, const std::string& out,
                  const std::vector<std::pair<std::string, std::string>>&
                      renames);

/// P := R − S on the templates and components. A left row equal to a
/// fully certain right row is dropped; one no right row can equal (certain
/// cells differ, or a certain cell faces a '?' that never takes its value)
/// is copied as is. Any other row's components are composed with those of
/// its candidate right rows, and the copy is ⊥ in the local worlds where a
/// present candidate equals it — a certain row's first cell becomes the
/// '?' that carries this. Relations outside R and S are not touched.
Status WsdtDifference(Wsdt& wsdt, const std::string& left,
                      const std::string& right, const std::string& out);

/// Evaluates a full rel::Plan over the WSDT through the shared engine
/// driver (core/engine/plan_driver.h); the WSDT backend advertises native
/// predicate selection and the fused σ(×) hash join, so the driver uses
/// them instead of the generic lowering. The result is added under `out`;
/// temporaries are dropped unless `keep_temps`.
///
/// Compatibility shim: new code should open an api::Session over the Wsdt
/// (Session::Open) and call Run(); this entry point remains for
/// callers that already hold a bare Wsdt.
Status WsdtEvaluate(Wsdt& wsdt, const rel::Plan& plan, const std::string& out,
                    bool keep_temps = false);

/// Runs the Section 5 logical optimizations first (merge selections, fuse
/// σ(×) into joins, distribute over unions — see rel::Optimize) against the
/// template schemas, then evaluates the rewritten plan.
Status WsdtEvaluateOptimized(Wsdt& wsdt, const rel::Plan& plan,
                             const std::string& out);

}  // namespace maywsd::core

#endif  // MAYWSD_CORE_WSDT_ALGEBRA_H_
