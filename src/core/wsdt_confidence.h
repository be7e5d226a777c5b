// Confidence computation and possible-tuple queries on WSDTs/UWSDTs —
// the Section 6 operators on the template-based representation, without
// expanding certain fields into singleton components.
//
// Fully-certain template rows short-circuit (confidence 1 / always
// possible); only rows with placeholders touch components, so these run at
// census scale where Wsd-level confidence would first materialize millions
// of singleton components.
//
// These free functions are the WSDT implementation behind the engine's
// answer surface (WorldSetOps::PossibleTuples/CertainTuples/…) — the
// uniform backend delegates here too, on one relation's slice of its
// store; callers that do not already hold a bare Wsdt should go through
// api::Session.

#ifndef MAYWSD_CORE_WSDT_CONFIDENCE_H_
#define MAYWSD_CORE_WSDT_CONFIDENCE_H_

#include <span>
#include <string>

#include "common/status.h"
#include "rel/relation.h"
#include "core/wsdt.h"

namespace maywsd::core {

/// conf(t) on a WSDT: probability that `tuple` ∈ `relation`.
Result<double> WsdtTupleConfidence(const Wsdt& wsdt,
                                   const std::string& relation,
                                   std::span<const rel::Value> tuple);

/// possible(R) on a WSDT.
Result<rel::Relation> WsdtPossibleTuples(const Wsdt& wsdt,
                                         const std::string& relation);

/// possibleᵖ(R) on a WSDT: possible tuples with a trailing "conf" column.
/// One pass over the template: the rows' instantiations are grouped by
/// tuple and each tuple is scored from the rows producing it, not by a
/// WsdtTupleConfidence probe (a full template scan) per answer.
Result<rel::Relation> WsdtPossibleTuplesWithConfidence(
    const Wsdt& wsdt, const std::string& relation);

/// certain(t) on a WSDT: true iff conf(t) = 1 (t occurs in every world).
Result<bool> WsdtTupleCertain(const Wsdt& wsdt, const std::string& relation,
                              std::span<const rel::Value> tuple);

/// certain(R) on a WSDT: the tuples occurring in every world — the
/// consistent answers of Section 10, without expanding certain fields.
/// Scored in the same grouped pass as WsdtPossibleTuplesWithConfidence.
Result<rel::Relation> WsdtCertainTuples(const Wsdt& wsdt,
                                        const std::string& relation);

}  // namespace maywsd::core

#endif  // MAYWSD_CORE_WSDT_CONFIDENCE_H_
