// Confidence computation and possible-tuple queries — Section 6,
// Figures 17, 18, 19.
//
// conf(t) = probability that tuple t appears in relation R, i.e. the sum of
// the probabilities of the worlds containing t. The algorithm prunes each
// component to the columns of candidate tuple slots, normalizes to tuple
// level (composing the components a slot spans — the potentially
// exponential step; deciding certainty is NP-hard [9]), sums local-world
// probabilities per component group, and combines the independent groups as
// c = 1 − Π(1 − conf_C).
//
// These free functions answer over a bare Wsd — the Section 4 oracle.
// Sessions, kWsd included, answer through the WSDT backend
// (core/wsdt_confidence.h); callers that do not already hold a bare Wsd
// should go through api::Session.

#ifndef MAYWSD_CORE_CONFIDENCE_H_
#define MAYWSD_CORE_CONFIDENCE_H_

#include <span>
#include <string>

#include "common/status.h"
#include "rel/relation.h"
#include "core/wsd.h"

namespace maywsd::core {

/// Guard for the tuple-level normalization blow-up.
inline constexpr uint64_t kMaxTupleLevelWorlds = 1u << 22;

/// conf(t): probability that `tuple` ∈ R in a random world (Figure 17).
Result<double> TupleConfidence(const Wsd& wsd, const std::string& relation,
                               std::span<const rel::Value> tuple);

/// possible(R): tuples appearing in at least one world (Figure 18).
Result<rel::Relation> PossibleTuples(const Wsd& wsd,
                                     const std::string& relation);

/// possibleᵖ(R): possible tuples with their confidences (Figure 19); the
/// result relation carries R's attributes plus a trailing "conf" column.
Result<rel::Relation> PossibleTuplesWithConfidence(const Wsd& wsd,
                                                   const std::string& relation);

/// certain(t): true iff conf(t) = 1 (t occurs in every world).
Result<bool> TupleCertain(const Wsd& wsd, const std::string& relation,
                          std::span<const rel::Value> tuple);

/// certain(R): the tuples occurring in every world — the "consistent
/// answers" of the inconsistent-database application (Section 10).
Result<rel::Relation> CertainTuples(const Wsd& wsd,
                                    const std::string& relation);

}  // namespace maywsd::core

#endif  // MAYWSD_CORE_CONFIDENCE_H_
