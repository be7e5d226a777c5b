// Relation: an in-memory table with flat row-major Value storage.
//
// The engine uses set semantics (the paper's relational algebra is the
// classical set algebra); Relation itself stores rows in insertion order and
// offers SortDedup()/IsSetNormalized() so operators can normalize when an
// operation may introduce duplicates.
//
// Row storage is copy-on-write (common::Cow): copying a Relation shares the
// flat value vector in O(1) and the first mutation on either copy
// privatizes it. This is what makes rel::Database copies — and with them
// Session::Snapshot()/Fork() on the uniform and WSDT template stores —
// O(relations) instead of O(rows), with TID columns staying stable across
// the share because the rows themselves never move.

#ifndef MAYWSD_REL_RELATION_H_
#define MAYWSD_REL_RELATION_H_

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "common/cow.h"
#include "common/status.h"
#include "rel/schema.h"
#include "rel/value.h"

namespace maywsd::rel {

/// A borrowed view of one row; valid while the relation is not mutated.
class TupleRef {
 public:
  TupleRef(const Value* data, size_t arity) : data_(data), arity_(arity) {}

  size_t arity() const { return arity_; }
  const Value& operator[](size_t i) const { return data_[i]; }
  const Value* data() const { return data_; }
  std::span<const Value> span() const { return {data_, arity_}; }

  /// Materializes the row.
  std::vector<Value> ToRow() const { return {data_, data_ + arity_}; }

  bool operator==(const TupleRef& o) const;
  /// Lexicographic order by Value::Compare.
  int Compare(const TupleRef& o) const;
  size_t Hash() const;

  /// True iff any field is ⊥ — i.e. this is a t⊥ padding tuple (Section 3).
  bool HasBottom() const;

  std::string ToString() const;

 private:
  const Value* data_;
  size_t arity_;
};

/// An in-memory relation instance.
class Relation {
 public:
  Relation() = default;
  explicit Relation(Schema schema, std::string name = "")
      : name_(std::move(name)), schema_(std::move(schema)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }
  const Schema& schema() const { return schema_; }
  size_t arity() const { return schema_.arity(); }
  size_t NumRows() const { return arity() == 0 ? 0 : data().size() / arity(); }
  bool empty() const { return data().empty(); }

  /// Row accessor (no bounds check in release builds).
  TupleRef row(size_t i) const {
    return TupleRef(data().data() + i * arity(), arity());
  }

  /// Appends a row; arity mismatch is a programming error (asserted).
  void AppendRow(std::span<const Value> values);
  void AppendRow(std::initializer_list<Value> values);

  /// Appends a row that is checked against the declared attribute types.
  Status AppendRowChecked(std::span<const Value> values);

  /// Overwrites one cell in place.
  void SetCell(size_t row, size_t col, const Value& v) {
    MutableData()[row * arity() + col] = v;
  }

  /// Removes all rows, keeping the schema.
  void Clear() {
    if (!data().empty()) data_.Reset({});
  }

  /// Keeps exactly the rows for which `keep(TupleRef)` returns true,
  /// compacting the storage in place (survivors keep their order). `keep`
  /// sees every row exactly once, in order, so it may record what it
  /// drops. Shared storage is privatized only when some row is actually
  /// removed. Returns the number of removed rows.
  template <typename Keep>
  size_t RetainRows(Keep&& keep);

  /// Sorts rows and removes duplicates (set-semantics normal form).
  void SortDedup();

  /// True if rows are sorted and duplicate-free.
  bool IsSetNormalized() const;

  /// Linear-scan membership test (use HashIndex for repeated probes).
  bool ContainsRow(std::span<const Value> values) const;

  /// Set equality irrespective of row order (copies + normalizes).
  bool EqualsAsSet(const Relation& other) const;

  /// Reserves storage for `rows` rows.
  void Reserve(size_t rows) { MutableData().reserve(rows * arity()); }

  /// Raw storage (row-major); used by storage-aware operators.
  const std::vector<Value>& data() const { return data_.get(); }

  /// True iff both relations share the same row storage (O(1) identity).
  bool SharesDataWith(const Relation& other) const {
    return data_.SharesWith(other.data_);
  }

  /// ASCII table rendering (for examples and debugging); caps at max_rows.
  std::string ToString(size_t max_rows = 50) const;

 private:
  /// Writable row storage; privatizes shared storage first.
  std::vector<Value>& MutableData() { return data_.Mutable(); }

  std::string name_;
  Schema schema_;
  Cow<std::vector<Value>> data_;
};

template <typename Keep>
size_t Relation::RetainRows(Keep&& keep) {
  const size_t n = NumRows();
  const size_t k = arity();
  size_t first = 0;
  while (first < n && keep(row(first))) ++first;
  if (first == n) return 0;
  std::vector<Value>& rows = MutableData();
  size_t out = first;
  for (size_t r = first + 1; r < n; ++r) {
    if (!keep(TupleRef(rows.data() + r * k, k))) continue;
    std::move(rows.begin() + r * k, rows.begin() + (r + 1) * k,
              rows.begin() + out * k);
    ++out;
  }
  rows.resize(out * k);
  return n - out;
}

}  // namespace maywsd::rel

#endif  // MAYWSD_REL_RELATION_H_
