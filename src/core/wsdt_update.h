// Representation-native updates on WSDTs.
//
// Each operator applies the one-world semantics of rel::ApplyUpdate in
// every represented world at once, in place:
//   - inserts append template rows (certain, or conditionally present),
//   - deletes ⊥-mark the affected local worlds (rows whose predicate is
//     certain are settled on the template; unknown rows compose the
//     referenced placeholder components, exactly like WsdtSelect),
//   - modifies overwrite template cells or component values per world.
//
// A world condition ("apply only in worlds where relation G is non-empty")
// is carried by a WsdtUpdateGuard analyzed from G: the components carrying
// G's conditional-presence ⊥s are composed into one, and affected rows are
// correlated with that component — components are split (composed) only
// where the world condition forces it. G must be a snapshot of the
// condition's answer (the engine driver materializes it; see
// engine/update_plan.h), so mutating the target relation cannot feed back
// into the guard.

#ifndef MAYWSD_CORE_WSDT_UPDATE_H_
#define MAYWSD_CORE_WSDT_UPDATE_H_

#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "rel/predicate.h"
#include "rel/relation.h"
#include "rel/update.h"
#include "core/wsdt.h"

namespace maywsd::core {

/// How a world condition restricts an update on a WSDT. A ⊥ in a
/// component column marks conditional presence; only a template row's '?'
/// placeholders can carry one (certain template cells exist in every
/// world).
class WsdtUpdateGuard {
 public:
  enum class Mode {
    kAlways,       ///< unconditional, or the guard is non-empty in every world
    kNever,        ///< the guard is empty in every world: the update is a no-op
    kConditional,  ///< non-emptiness varies; `comp()` correlates it
  };

  /// The unconditional guard.
  static WsdtUpdateGuard Always() { return WsdtUpdateGuard(Mode::kAlways); }

  /// Analyzes relation `guard_rel`: kAlways when some row exists in every
  /// world, kNever when it has no rows, otherwise kConditional with all of
  /// the relation's presence-carrying components composed into one.
  static Result<WsdtUpdateGuard> Analyze(Wsdt& wsdt,
                                         const std::string& guard_rel);

  Mode mode() const { return mode_; }

  /// The component the guard's world selection lives in (kConditional).
  size_t comp() const { return comp_; }

  /// Recomputes the per-local-world selection bitmap of comp() — one entry
  /// per local world, true where the guard relation is non-empty. Call
  /// after composing further components into comp() (composition changes
  /// the local-world count).
  Result<std::vector<bool>> Selected(const Wsdt& wsdt) const;

 private:
  explicit WsdtUpdateGuard(Mode mode) : mode_(mode) {}

  Mode mode_;
  size_t comp_ = 0;
  /// Per guard row: the fields whose component column carried ⊥ at
  /// analysis time (all of them live in comp()).
  std::vector<std::vector<FieldKey>> slot_presence_fields_;
};

/// insert `tuples` into `rel` in the worlds selected by `guard`.
Status WsdtInsertTuples(Wsdt& wsdt, const std::string& rel,
                        const rel::Relation& tuples,
                        const WsdtUpdateGuard& guard);

/// delete from `rel` where `pred`, in the worlds selected by `guard`.
Status WsdtDeleteWhere(Wsdt& wsdt, const std::string& rel,
                       const rel::Predicate& pred,
                       const WsdtUpdateGuard& guard);

/// update `rel` set `assignments` where `pred`, in the worlds selected by
/// `guard`.
Status WsdtModifyWhere(Wsdt& wsdt, const std::string& rel,
                       const rel::Predicate& pred,
                       std::span<const rel::Assignment> assignments,
                       const WsdtUpdateGuard& guard);

/// Dispatches `op` (already validated by the engine driver) to the three
/// operators above. `guard_rel` names the materialized world-condition
/// answer; empty = unconditional.
Status WsdtApplyUpdate(Wsdt& wsdt, const rel::UpdateOp& op,
                       const std::string& guard_rel);

}  // namespace maywsd::core

#endif  // MAYWSD_CORE_WSDT_UPDATE_H_
