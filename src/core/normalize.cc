#include "core/normalize.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/hash.h"

namespace maywsd::core {

namespace {

/// Hashable key for a sub-row of a component (the values of the columns in
/// `cols` for local world `w`).
std::string SubRowKey(const Component& c, size_t w,
                      const std::vector<size_t>& cols) {
  std::string key;
  key.reserve(cols.size() * 8);
  for (size_t col : cols) {
    const rel::Value& v = c.at(w, col);
    key += v.ToString();
    key += '\x1f';
  }
  return key;
}

/// Marginal distribution of the projection of `c` onto `cols`:
/// distinct sub-rows with summed probabilities.
std::unordered_map<std::string, double> Marginal(
    const Component& c, const std::vector<size_t>& cols) {
  std::unordered_map<std::string, double> out;
  for (size_t w = 0; w < c.NumWorlds(); ++w) {
    out[SubRowKey(c, w, cols)] += c.prob(w);
  }
  return out;
}

/// True if splitting `c` into (cols_s, cols_rest) is a valid product
/// decomposition: the distinct-row counts multiply out AND every row's
/// probability is the product of its marginals.
bool IsSeparator(const Component& c, const std::vector<size_t>& cols_s,
                 const std::vector<size_t>& cols_rest) {
  auto ms = Marginal(c, cols_s);
  auto mr = Marginal(c, cols_rest);
  // `c` is compressed (distinct rows), so the set-size test is exact.
  if (ms.size() * mr.size() != c.NumWorlds()) return false;
  for (size_t w = 0; w < c.NumWorlds(); ++w) {
    double p = c.prob(w);
    double expected = ms[SubRowKey(c, w, cols_s)] * mr[SubRowKey(c, w, cols_rest)];
    if (std::abs(p - expected) > 1e-6 * std::max(1.0, std::abs(expected))) {
      return false;
    }
  }
  return true;
}

/// Builds the projected factor component for `cols` (compressed marginal).
Component MakeFactor(const Component& c, const std::vector<size_t>& cols) {
  Component out = c.ProjectColumns(cols);
  out.Compress();
  return out;
}

/// Enumerates subsets of {1..k-1} joined with column 0, by increasing size,
/// looking for the minimal separator containing column 0. k ≤
/// kMaxExactFactorColumns so the 2^(k-1) enumeration is bounded.
bool FindMinimalSeparator(const Component& c, std::vector<size_t>* sep,
                          std::vector<size_t>* rest) {
  size_t k = c.NumFields();
  // Candidate masks over columns 1..k-1 (column 0 always in the separator),
  // ordered by popcount so the first hit is minimal.
  std::vector<uint32_t> masks;
  uint32_t limit = 1u << (k - 1);
  for (uint32_t m = 0; m + 1 < limit; ++m) masks.push_back(m);
  std::sort(masks.begin(), masks.end(), [](uint32_t a, uint32_t b) {
    int pa = __builtin_popcount(a);
    int pb = __builtin_popcount(b);
    return pa != pb ? pa < pb : a < b;
  });
  for (uint32_t m : masks) {
    std::vector<size_t> s{0};
    std::vector<size_t> r;
    for (size_t i = 1; i < k; ++i) {
      if (m & (1u << (i - 1))) {
        s.push_back(i);
      } else {
        r.push_back(i);
      }
    }
    if (IsSeparator(c, s, r)) {
      *sep = std::move(s);
      *rest = std::move(r);
      return true;
    }
  }
  return false;
}

/// Splits off columns that are individually independent of the rest —
/// linear number of separator tests; used above kMaxExactFactorColumns.
void FactorFallback(const Component& c, std::vector<Component>* out) {
  size_t k = c.NumFields();
  std::vector<size_t> remaining(k);
  for (size_t i = 0; i < k; ++i) remaining[i] = i;
  Component cur = c;
  bool progress = true;
  while (progress && cur.NumFields() > 1) {
    progress = false;
    for (size_t col = 0; col < cur.NumFields(); ++col) {
      std::vector<size_t> s{col};
      std::vector<size_t> r;
      for (size_t i = 0; i < cur.NumFields(); ++i) {
        if (i != col) r.push_back(i);
      }
      if (IsSeparator(cur, s, r)) {
        out->push_back(MakeFactor(cur, s));
        cur = MakeFactor(cur, r);
        progress = true;
        break;
      }
    }
  }
  out->push_back(std::move(cur));
}

void FactorRecursive(Component c, std::vector<Component>* out) {
  c.Compress();
  if (c.NumFields() <= 1) {
    out->push_back(std::move(c));
    return;
  }
  if (c.NumFields() > kMaxExactFactorColumns) {
    FactorFallback(c, out);
    return;
  }
  std::vector<size_t> sep, rest;
  if (!FindMinimalSeparator(c, &sep, &rest)) {
    out->push_back(std::move(c));  // prime
    return;
  }
  // The minimal separator containing column 0 is a prime block; recurse on
  // the complement only.
  out->push_back(MakeFactor(c, sep));
  FactorRecursive(MakeFactor(c, rest), out);
}

}  // namespace

std::vector<Component> FactorComponent(const Component& component) {
  std::vector<Component> out;
  FactorRecursive(component, &out);
  return out;
}

Status RemoveInvalidTuples(Wsd& wsd) {
  for (const std::string& name : wsd.RelationNames()) {
    MAYWSD_ASSIGN_OR_RETURN(const WsdRelation* rel, wsd.FindRelation(name));
    Symbol sym = rel->name_sym;
    rel::Schema schema = rel->schema;
    TupleId max_tuples = rel->max_tuples;
    for (TupleId t = 0; t < max_tuples; ++t) {
      bool invalid = false;
      for (size_t a = 0; a < schema.arity() && !invalid; ++a) {
        FieldKey f(sym, t, schema.attr(a).name);
        auto loc_or = wsd.Locate(f);
        if (!loc_or.ok()) break;  // slot already removed
        FieldLoc loc = loc_or.value();
        if (wsd.component(loc.comp).ColumnAllBottom(
                static_cast<size_t>(loc.col))) {
          invalid = true;
        }
      }
      if (!invalid) continue;
      for (size_t a = 0; a < schema.arity(); ++a) {
        FieldKey f(sym, t, schema.attr(a).name);
        if (wsd.HasField(f)) {
          MAYWSD_RETURN_IF_ERROR(wsd.DropField(f));
        }
      }
    }
  }
  return Status::Ok();
}

Status DecomposeComponents(Wsd& wsd) {
  // Components appended by ReplaceComponent are already prime; remember the
  // current live set before we start.
  std::vector<size_t> live = wsd.LiveComponents();
  for (size_t idx : live) {
    if (!wsd.IsLiveComponent(idx)) continue;
    if (wsd.component(idx).NumFields() <= 1) {
      // Still compress singleton components.
      wsd.mutable_component(idx).Compress();
      continue;
    }
    std::vector<Component> parts = FactorComponent(wsd.component(idx));
    if (parts.size() == 1) {
      wsd.mutable_component(idx) = std::move(parts[0]);
      continue;
    }
    MAYWSD_RETURN_IF_ERROR(wsd.ReplaceComponent(idx, std::move(parts)));
  }
  return Status::Ok();
}

Status CompressComponents(Wsd& wsd) {
  for (size_t idx : wsd.LiveComponents()) {
    wsd.mutable_component(idx).Compress();
  }
  return Status::Ok();
}

Status DropZeroProbabilityWorlds(Wsd& wsd, double threshold) {
  for (size_t idx : wsd.LiveComponents()) {
    Component& comp = wsd.mutable_component(idx);
    for (size_t w = comp.NumWorlds(); w-- > 0;) {
      if (comp.prob(w) <= threshold) comp.RemoveWorld(w);
    }
    if (comp.empty()) {
      return Status::Inconsistent("component lost all probability mass");
    }
    MAYWSD_RETURN_IF_ERROR(comp.NormalizeProbs());
  }
  return Status::Ok();
}

Status NormalizeWsd(Wsd& wsd) {
  MAYWSD_RETURN_IF_ERROR(CompressComponents(wsd));
  MAYWSD_RETURN_IF_ERROR(RemoveInvalidTuples(wsd));
  MAYWSD_RETURN_IF_ERROR(DecomposeComponents(wsd));
  wsd.CompactComponents();
  return Status::Ok();
}

}  // namespace maywsd::core
