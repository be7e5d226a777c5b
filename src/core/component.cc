#include "core/component.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>
#include <sstream>
#include <unordered_map>

namespace maywsd::core {

Component Component::Certain(const FieldKey& field, const rel::Value& value) {
  Component out({field});
  out.node_ = store::CertainLeaf(value);
  return out;
}

void Component::PrivatizePayload() {
  if (node_ == nullptr) {
    node_ = store::NewLeaf(fields_.size());
    return;
  }
  node_ = store::MutableLeaf(std::move(node_));
}

int Component::FindField(const FieldKey& field) const {
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i] == field) return static_cast<int>(i);
  }
  return -1;
}

void Component::AddWorld(std::span<const rel::Value> values, double prob) {
  assert(values.size() == fields_.size());
  EnsureMutable();
  assert(node_->width == fields_.size());
  node_->values.insert(node_->values.end(), values.begin(), values.end());
  node_->probs.push_back(prob);
  ++node_->worlds;
  store::Account(*node_);
}

void Component::AddWorld(std::initializer_list<rel::Value> values,
                         double prob) {
  AddWorld(std::span<const rel::Value>(values.begin(), values.size()), prob);
}

Status Component::NormalizeProbs() {
  double sum = ProbSum();
  if (sum <= 0) {
    return Status::Inconsistent("component has zero probability mass");
  }
  if (std::abs(sum - 1.0) < kProbEpsilon * kProbEpsilon) return Status::Ok();
  EnsureMutable();
  for (double& p : node_->probs) p /= sum;
  return Status::Ok();
}

void Component::ExtDuplicateColumn(size_t src_col, const FieldKey& new_field) {
  fields_.push_back(new_field);
  if (node_ == nullptr) return;  // no local worlds: the column is virtual
  if (node_->worlds == 0) {
    EnsureMutable();
    ++node_->width;
    return;
  }
  node_ = store::ExtDup(node_, src_col);
}

void Component::ExtConstantColumn(const FieldKey& new_field,
                                  const rel::Value& value) {
  fields_.push_back(new_field);
  if (node_ == nullptr) return;
  if (node_->worlds == 0) {
    EnsureMutable();
    ++node_->width;
    return;
  }
  node_ = store::ExtConst(node_, value);
}

void Component::ExtColumn(const FieldKey& new_field,
                          std::span<const rel::Value> values) {
  assert(values.size() == NumWorlds());
  EnsureMutable();
  size_t old_width = node_->width;
  size_t n = node_->worlds;
  std::vector<rel::Value> out;
  out.reserve(n * (old_width + 1));
  for (size_t w = 0; w < n; ++w) {
    const rel::Value* row = node_->values.data() + w * old_width;
    out.insert(out.end(), row, row + old_width);
    out.push_back(values[w]);
  }
  node_->values = std::move(out);
  ++node_->width;
  fields_.push_back(new_field);
  store::Account(*node_);
}

Component Component::Compose(const Component& a, const Component& b) {
  std::vector<FieldKey> fields = a.fields_;
  fields.insert(fields.end(), b.fields_.begin(), b.fields_.end());
  Component out(std::move(fields));
  out.node_ = store::Compose(a.node_, b.node_);
  return out;
}

void Component::DropColumns(const std::vector<size_t>& cols) {
  if (cols.empty()) return;
  std::vector<bool> drop(fields_.size(), false);
  for (size_t c : cols) drop[c] = true;
  std::vector<size_t> keep;
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (!drop[i]) keep.push_back(i);
  }
  *this = ProjectColumns(keep);
}

Component Component::ProjectColumns(const std::vector<size_t>& cols) const {
  std::vector<FieldKey> fields;
  fields.reserve(cols.size());
  for (size_t c : cols) fields.push_back(fields_[c]);
  Component out(std::move(fields));
  if (node_ == nullptr) return out;
  const store::Node& n = store::ForcedRef(node_);
  out.node_ = store::NewLeaf(cols.size());
  out.node_->worlds = n.worlds;
  out.node_->probs = n.probs;
  out.node_->values.reserve(n.worlds * cols.size());
  for (size_t w = 0; w < n.worlds; ++w) {
    const rel::Value* row = n.values.data() + w * n.width;
    for (size_t c : cols) out.node_->values.push_back(row[c]);
  }
  store::Account(*out.node_);
  return out;
}

void Component::RemoveWorld(size_t world) {
  EnsureMutable();
  size_t n = node_->worlds;
  size_t k = node_->width;
  assert(world < n);
  if (world != n - 1) {
    if (k > 0) {
      std::copy(node_->values.begin() + (n - 1) * k,
                node_->values.begin() + n * k,
                node_->values.begin() + world * k);
    }
    node_->probs[world] = node_->probs[n - 1];
  }
  node_->values.resize((n - 1) * k);
  node_->probs.resize(n - 1);
  --node_->worlds;
  store::Account(*node_);
}

void Component::Compress() {
  if (NumWorlds() <= 1) return;
  EnsureMutable();
  size_t n = node_->worlds;
  size_t k = node_->width;
  const std::vector<rel::Value>& vals = node_->values;
  const std::vector<double>& probs = node_->probs;
  // Hash rows; merge duplicates by summing probabilities.
  std::unordered_map<size_t, std::vector<size_t>> buckets;
  std::vector<rel::Value> out_vals;
  std::vector<double> out_probs;
  auto row_hash = [&](size_t w) {
    size_t seed = 0x165667b1u;
    for (size_t c = 0; c < k; ++c) HashCombine(seed, vals[w * k + c].Hash());
    return seed;
  };
  auto rows_equal_out = [&](size_t out_row, size_t w) {
    for (size_t c = 0; c < k; ++c) {
      if (!(out_vals[out_row * k + c] == vals[w * k + c])) return false;
    }
    return true;
  };
  for (size_t w = 0; w < n; ++w) {
    size_t h = row_hash(w);
    auto& bucket = buckets[h];
    bool merged = false;
    for (size_t out_row : bucket) {
      if (rows_equal_out(out_row, w)) {
        out_probs[out_row] += probs[w];
        merged = true;
        break;
      }
    }
    if (!merged) {
      size_t out_row = out_probs.size();
      for (size_t c = 0; c < k; ++c) out_vals.push_back(vals[w * k + c]);
      out_probs.push_back(probs[w]);
      bucket.push_back(out_row);
    }
  }
  node_->worlds = out_probs.size();
  node_->values = std::move(out_vals);
  node_->probs = std::move(out_probs);
  store::Account(*node_);
}

void Component::PropagateBottom() {
  size_t k = fields_.size();
  if (k == 0 || node_ == nullptr || node_->worlds == 0) return;
  // Columns grouped by (relation, tuple-id): ⊥ spreads within a group.
  std::vector<int> group(k, 0);
  int num_groups = 0;
  bool multi_column_group = false;
  {
    std::map<std::pair<Symbol, TupleId>, int> ids;
    for (size_t c = 0; c < k; ++c) {
      auto [it, inserted] = ids.emplace(
          std::make_pair(fields_[c].rel, fields_[c].tuple), num_groups);
      if (inserted) {
        ++num_groups;
      } else {
        multi_column_group = true;
      }
      group[c] = it->second;
    }
  }
  // Propagation is a no-op unless some multi-column tuple group exists and
  // some column carries a ⊥ — both probed without forcing.
  if (!multi_column_group) return;
  bool any_bottom = false;
  for (size_t c = 0; c < k && !any_bottom; ++c) {
    any_bottom = store::ColumnHasBottom(node_.get(), c);
  }
  if (!any_bottom) return;

  EnsureMutable();
  size_t n = node_->worlds;
  std::vector<rel::Value>& vals = node_->values;
  std::vector<char> group_bottom(static_cast<size_t>(num_groups));
  for (size_t w = 0; w < n; ++w) {
    std::fill(group_bottom.begin(), group_bottom.end(), 0);
    rel::Value* row = vals.data() + w * k;
    bool any = false;
    for (size_t c = 0; c < k; ++c) {
      if (row[c].is_bottom()) {
        group_bottom[static_cast<size_t>(group[c])] = 1;
        any = true;
      }
    }
    if (!any) continue;
    for (size_t c = 0; c < k; ++c) {
      if (group_bottom[static_cast<size_t>(group[c])] != 0) {
        row[c] = rel::Value::Bottom();
      }
    }
  }
}

void Component::RenameField(size_t col, const FieldKey& new_field) {
  fields_[col] = new_field;
}

std::string Component::ToString() const {
  std::ostringstream os;
  os << "[";
  for (size_t c = 0; c < fields_.size(); ++c) {
    if (c > 0) os << " ";
    os << fields_[c].ToString();
  }
  os << " | P]\n";
  for (size_t w = 0; w < NumWorlds(); ++w) {
    os << "  ";
    for (size_t c = 0; c < fields_.size(); ++c) {
      os << at(w, c) << " ";
    }
    os << "| " << prob(w) << "\n";
  }
  return os.str();
}

}  // namespace maywsd::core
