// Section 4 / Figure 9 operators kept on world-set decompositions.
//
// Queries on every WSD-family session run on the WSDT algebra
// (core/wsdt_algebra.h); a `kWsd` api::Session adopts its Wsd as a Wsdt at
// the edge. What remains here is the one Figure 9 operator the WSDT algebra
// still delegates to — difference, which composes components per tuple pair
// — plus the copy it builds on.
//
// Every operation extends the input WSD with a new result relation; the
// input relations are preserved so that subquery results stay correlated
// with their inputs. Deleted tuples are marked with ⊥ and propagated within
// components (Figure 12).

#ifndef MAYWSD_CORE_WSD_ALGEBRA_H_
#define MAYWSD_CORE_WSD_ALGEBRA_H_

#include <string>

#include "common/status.h"
#include "core/wsd.h"

namespace maywsd::core {

/// copy(R, P): P becomes a fresh relation that equals R in every world.
Status WsdCopy(Wsd& wsd, const std::string& src, const std::string& out);

/// P := R − S — difference of Figure 9 (composes components per tuple
/// pair; exponential in the worst case, as the paper notes).
Status WsdDifference(Wsd& wsd, const std::string& left,
                     const std::string& right, const std::string& out);

}  // namespace maywsd::core

#endif  // MAYWSD_CORE_WSD_ALGEBRA_H_
