#include "core/wsdt_confidence.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <unordered_map>

namespace maywsd::core {

namespace {

/// Guard against tuple-level normalization blow-ups (same bound as the
/// Wsd-level algorithms).
constexpr uint64_t kMaxComposedWorlds = 1u << 22;

/// conf(t) at least 1 − this counts as certain.
constexpr double kCertainTolerance = 1e-9;

/// The placeholder columns of template row r: (attr index, field location).
Result<std::vector<std::pair<size_t, FieldLoc>>> PlaceholderCols(
    const Wsdt& wsdt, const rel::Relation& tmpl, Symbol rel_sym, size_t r) {
  std::vector<std::pair<size_t, FieldLoc>> out;
  rel::TupleRef row = tmpl.row(r);
  for (size_t a = 0; a < tmpl.arity(); ++a) {
    if (!row[a].is_question()) continue;
    FieldKey f(rel_sym, static_cast<TupleId>(r), tmpl.schema().attr(a).name);
    MAYWSD_ASSIGN_OR_RETURN(FieldLoc loc, wsdt.Locate(f));
    out.emplace_back(a, loc);
  }
  return out;
}

/// Composes the projections of the components in `comps` onto `cols`,
/// compressing intermediates.
Result<Component> ComposeProjected(
    const Wsdt& wsdt, const std::vector<int32_t>& comps,
    const std::map<int32_t, std::set<size_t>>& cols) {
  Component acc;
  bool first = true;
  for (int32_t ci : comps) {
    const Component& comp = wsdt.component(static_cast<size_t>(ci));
    std::vector<size_t> keep(cols.at(ci).begin(), cols.at(ci).end());
    Component proj = comp.ProjectColumns(keep);
    proj.Compress();
    if (first) {
      acc = std::move(proj);
      first = false;
    } else {
      if (static_cast<uint64_t>(acc.NumWorlds()) * proj.NumWorlds() >
          kMaxComposedWorlds) {
        return Status::ResourceExhausted(
            "tuple-level normalization exceeds the blow-up guard");
      }
      acc = Component::Compose(acc, proj);
      acc.Compress();
    }
  }
  return acc;
}

/// A template row that may produce a probed tuple, with its placeholder
/// columns: (attr index, field location).
struct Candidate {
  size_t row;
  std::vector<std::pair<size_t, FieldLoc>> holes;
};

/// conf(tuple) from its candidate rows, none of them fully certain:
/// candidates sharing a component are grouped (transitively), each
/// group's projected components are composed once and scored by the mass
/// of the local worlds where some candidate equals the tuple, and the
/// independent groups combine as 1 − Π(1 − conf_g).
Result<double> CandidatesConfidence(const Wsdt& wsdt,
                                    const rel::Relation& tmpl,
                                    Symbol rel_sym,
                                    std::span<const Candidate> candidates,
                                    std::span<const rel::Value> tuple) {
  // Group candidates by connected components.
  std::map<int32_t, int32_t> parent;
  std::function<int32_t(int32_t)> find = [&](int32_t x) {
    auto it = parent.find(x);
    if (it == parent.end()) {
      parent[x] = x;
      return x;
    }
    int32_t root = x;
    while (parent[root] != root) root = parent[root];
    while (parent[x] != root) {
      int32_t nxt = parent[x];
      parent[x] = root;
      x = nxt;
    }
    return root;
  };
  for (const Candidate& cand : candidates) {
    for (size_t i = 1; i < cand.holes.size(); ++i) {
      parent[find(cand.holes[0].second.comp)] =
          find(cand.holes[i].second.comp);
    }
    find(cand.holes[0].second.comp);
  }
  // Merge groups that share candidates... (two candidates sharing a comp
  // land in the same group via find()).
  std::map<int32_t, std::vector<const Candidate*>> group_cands;
  std::map<int32_t, std::vector<int32_t>> group_comps;
  std::map<int32_t, std::map<int32_t, std::set<size_t>>> group_cols;
  for (const Candidate& cand : candidates) {
    int32_t g = find(cand.holes[0].second.comp);
    group_cands[g].push_back(&cand);
    for (const auto& [attr, loc] : cand.holes) {
      auto& comps = group_comps[g];
      if (std::find(comps.begin(), comps.end(), loc.comp) == comps.end()) {
        comps.push_back(loc.comp);
      }
      group_cols[g][loc.comp].insert(static_cast<size_t>(loc.col));
    }
  }

  double not_conf = 1.0;
  for (const auto& [g, cands] : group_cands) {
    MAYWSD_ASSIGN_OR_RETURN(
        Component combined,
        ComposeProjected(wsdt, group_comps.at(g), group_cols.at(g)));
    // Each candidate's holes as (attr, column of the combined component).
    std::vector<std::vector<std::pair<size_t, int>>> cand_cols;
    for (const Candidate* cand : cands) {
      auto& cols = cand_cols.emplace_back();
      for (const auto& [attr, loc] : cand->holes) {
        FieldKey f(rel_sym, static_cast<TupleId>(cand->row),
                   tmpl.schema().attr(attr).name);
        cols.emplace_back(attr, combined.FindField(f));
      }
    }
    double conf_c = 0.0;
    for (size_t w = 0; w < combined.NumWorlds(); ++w) {
      bool any = false;
      for (const auto& cols : cand_cols) {
        bool match = true;
        for (const auto& [attr, col] : cols) {
          if (col < 0 ||
              !(combined.at(w, static_cast<size_t>(col)) == tuple[attr])) {
            match = false;
            break;
          }
        }
        if (match) {
          any = true;
          break;
        }
      }
      if (any) conf_c += combined.prob(w);
    }
    not_conf *= (1.0 - conf_c);
  }
  return 1.0 - not_conf;
}

}  // namespace

Result<double> WsdtTupleConfidence(const Wsdt& wsdt,
                                   const std::string& relation,
                                   std::span<const rel::Value> tuple) {
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* tmpl_ptr,
                          wsdt.Template(relation));
  const rel::Relation& tmpl = *tmpl_ptr;
  if (tuple.size() != tmpl.arity()) {
    return Status::InvalidArgument("tuple arity mismatch for " + relation);
  }
  Symbol rel_sym = InternString(relation);

  // Candidate rows: certain attributes equal; placeholder attributes have
  // the probe value among their possible values.
  std::vector<Candidate> candidates;
  for (size_t r = 0; r < tmpl.NumRows(); ++r) {
    rel::TupleRef row = tmpl.row(r);
    bool possible = true;
    Candidate cand;
    cand.row = r;
    for (size_t a = 0; a < tmpl.arity() && possible; ++a) {
      if (row[a].is_question()) {
        FieldKey f(rel_sym, static_cast<TupleId>(r),
                   tmpl.schema().attr(a).name);
        MAYWSD_ASSIGN_OR_RETURN(FieldLoc loc, wsdt.Locate(f));
        const Component& comp = wsdt.component(loc.comp);
        size_t col = static_cast<size_t>(loc.col);
        bool found = false;
        for (size_t w = 0; w < comp.NumWorlds() && !found; ++w) {
          if (comp.at(w, col) == tuple[a]) found = true;
        }
        possible = found;
        cand.holes.emplace_back(a, loc);
      } else if (!(row[a] == tuple[a])) {
        possible = false;
      }
    }
    if (!possible) continue;
    if (cand.holes.empty()) return 1.0;  // certain tuple equal to the probe
    candidates.push_back(std::move(cand));
  }
  if (candidates.empty()) return 0.0;
  return CandidatesConfidence(wsdt, tmpl, rel_sym, candidates, tuple);
}

namespace {

/// Enumerates every template row's instantiations in template order: a
/// fully certain row once (no holes, probability 1), any other row once
/// per positive-probability local world of its composed projected
/// components in which it is present. `visit(row, holes, tuple, prob)`
/// may not keep the `tuple` view.
template <typename Visit>
Status ForEachInstantiation(const Wsdt& wsdt, const rel::Relation& tmpl,
                            Symbol rel_sym, Visit&& visit) {
  std::vector<rel::Value> buf(tmpl.arity());
  for (size_t r = 0; r < tmpl.NumRows(); ++r) {
    rel::TupleRef row = tmpl.row(r);
    MAYWSD_ASSIGN_OR_RETURN(auto holes,
                            PlaceholderCols(wsdt, tmpl, rel_sym, r));
    if (holes.empty()) {
      visit(r, holes, row, 1.0);
      continue;
    }
    std::vector<int32_t> comps;
    std::map<int32_t, std::set<size_t>> cols;
    for (const auto& [attr, loc] : holes) {
      if (std::find(comps.begin(), comps.end(), loc.comp) == comps.end()) {
        comps.push_back(loc.comp);
      }
      cols[loc.comp].insert(static_cast<size_t>(loc.col));
    }
    MAYWSD_ASSIGN_OR_RETURN(Component combined,
                            ComposeProjected(wsdt, comps, cols));
    // Column of each hole in the combined component.
    std::vector<std::pair<size_t, int>> hole_cols;
    for (const auto& [attr, loc] : holes) {
      FieldKey f(rel_sym, static_cast<TupleId>(r),
                 tmpl.schema().attr(attr).name);
      hole_cols.emplace_back(attr, combined.FindField(f));
    }
    for (size_t a = 0; a < tmpl.arity(); ++a) buf[a] = row[a];
    for (size_t w = 0; w < combined.NumWorlds(); ++w) {
      if (combined.prob(w) <= 0.0) continue;
      bool absent = false;
      for (const auto& [attr, col] : hole_cols) {
        const rel::Value& v = combined.at(w, static_cast<size_t>(col));
        if (v.is_bottom()) {
          absent = true;
          break;
        }
        buf[attr] = v;
      }
      if (!absent) {
        visit(r, holes, rel::TupleRef(buf.data(), buf.size()),
              combined.prob(w));
      }
    }
  }
  return Status::Ok();
}

/// possible(R) in set order with each tuple's confidence.
struct ScoredTuples {
  rel::Relation tuples;
  std::vector<double> conf;
};

/// One pass over the template: every row's instantiations are enumerated
/// once and grouped by tuple. A tuple some certain row produces has
/// confidence 1; one a single row produces, the mass of that row's local
/// worlds producing it (what CandidatesConfidence computes for it); any
/// other is scored by CandidatesConfidence over its own source rows only.
Result<ScoredTuples> ScorePossibleTuples(const Wsdt& wsdt,
                                         const std::string& relation) {
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* tmpl_ptr,
                          wsdt.Template(relation));
  const rel::Relation& tmpl = *tmpl_ptr;
  Symbol rel_sym = InternString(relation);

  struct Sources {
    bool certain = false;
    std::vector<size_t> rows;  // distinct uncertain rows producing it
    double mass = 0.0;         // their local worlds' probability
  };
  rel::Relation distinct(tmpl.schema());
  std::vector<Sources> sources;
  std::unordered_multimap<size_t, size_t> by_hash;  // tuple hash → index
  MAYWSD_RETURN_IF_ERROR(ForEachInstantiation(
      wsdt, tmpl, rel_sym,
      [&](size_t r, const auto& holes, rel::TupleRef tuple, double prob) {
        size_t h = tuple.Hash();
        size_t i = sources.size();
        auto [lo, hi] = by_hash.equal_range(h);
        for (auto it = lo; it != hi; ++it) {
          if (distinct.row(it->second) == tuple) {
            i = it->second;
            break;
          }
        }
        if (i == sources.size()) {
          distinct.AppendRow(tuple.span());
          sources.emplace_back();
          by_hash.emplace(h, i);
        }
        Sources& src = sources[i];
        if (holes.empty()) {
          src.certain = true;
          return;
        }
        if (src.rows.empty() || src.rows.back() != r) src.rows.push_back(r);
        src.mass += prob;
      }));

  std::vector<double> conf(sources.size());
  for (size_t i = 0; i < sources.size(); ++i) {
    const Sources& src = sources[i];
    if (src.certain) {
      conf[i] = 1.0;
      continue;
    }
    if (src.rows.size() == 1) {
      conf[i] = src.mass;
      continue;
    }
    std::vector<Candidate> candidates;
    for (size_t r : src.rows) {
      MAYWSD_ASSIGN_OR_RETURN(auto holes,
                              PlaceholderCols(wsdt, tmpl, rel_sym, r));
      candidates.push_back(Candidate{r, std::move(holes)});
    }
    MAYWSD_ASSIGN_OR_RETURN(conf[i],
                            CandidatesConfidence(wsdt, tmpl, rel_sym,
                                                 candidates,
                                                 distinct.row(i).span()));
  }

  // Set order, as possible(R) lists them.
  std::vector<size_t> order(sources.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return distinct.row(a).Compare(distinct.row(b)) < 0;
  });
  ScoredTuples out{rel::Relation(tmpl.schema()), {}};
  out.tuples.Reserve(order.size());
  out.conf.reserve(order.size());
  for (size_t i : order) {
    out.tuples.AppendRow(distinct.row(i).span());
    out.conf.push_back(conf[i]);
  }
  return out;
}

}  // namespace

Result<rel::Relation> WsdtPossibleTuples(const Wsdt& wsdt,
                                         const std::string& relation) {
  MAYWSD_ASSIGN_OR_RETURN(const rel::Relation* tmpl_ptr,
                          wsdt.Template(relation));
  const rel::Relation& tmpl = *tmpl_ptr;
  rel::Relation out(tmpl.schema(), "possible_" + relation);
  MAYWSD_RETURN_IF_ERROR(ForEachInstantiation(
      wsdt, tmpl, InternString(relation),
      [&](size_t, const auto&, rel::TupleRef tuple, double) {
        out.AppendRow(tuple.span());
      }));
  out.SortDedup();
  return out;
}

Result<rel::Relation> WsdtPossibleTuplesWithConfidence(
    const Wsdt& wsdt, const std::string& relation) {
  MAYWSD_ASSIGN_OR_RETURN(ScoredTuples scored,
                          ScorePossibleTuples(wsdt, relation));
  rel::Schema out_schema = scored.tuples.schema();
  MAYWSD_RETURN_IF_ERROR(
      out_schema.AddAttribute(rel::Attribute("conf", rel::AttrType::kDouble)));
  rel::Relation out(out_schema, "possible_p_" + relation);
  out.Reserve(scored.tuples.NumRows());
  std::vector<rel::Value> row(out_schema.arity());
  for (size_t i = 0; i < scored.tuples.NumRows(); ++i) {
    rel::TupleRef t = scored.tuples.row(i);
    for (size_t a = 0; a < t.arity(); ++a) row[a] = t[a];
    row[t.arity()] = rel::Value::Double(scored.conf[i]);
    out.AppendRow(row);
  }
  return out;
}

Result<bool> WsdtTupleCertain(const Wsdt& wsdt, const std::string& relation,
                              std::span<const rel::Value> tuple) {
  MAYWSD_ASSIGN_OR_RETURN(double conf,
                          WsdtTupleConfidence(wsdt, relation, tuple));
  return conf >= 1.0 - kCertainTolerance;
}

Result<rel::Relation> WsdtCertainTuples(const Wsdt& wsdt,
                                        const std::string& relation) {
  MAYWSD_ASSIGN_OR_RETURN(ScoredTuples scored,
                          ScorePossibleTuples(wsdt, relation));
  rel::Relation out(scored.tuples.schema(), "certain_" + relation);
  for (size_t i = 0; i < scored.tuples.NumRows(); ++i) {
    if (scored.conf[i] >= 1.0 - kCertainTolerance) {
      out.AppendRow(scored.tuples.row(i).span());
    }
  }
  return out;
}

}  // namespace maywsd::core
