// Selection predicates: boolean trees over attribute/constant comparisons.
//
// Predicate is an immutable value type (shared subtrees) referencing
// attributes by name; Bind() resolves names against a schema once, yielding
// a BoundPredicate that evaluates per row without lookups — two-valued on
// plain rows, or three-valued on template rows whose '?' cells are unknown.

#ifndef MAYWSD_REL_PREDICATE_H_
#define MAYWSD_REL_PREDICATE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "rel/relation.h"
#include "rel/schema.h"
#include "rel/value.h"

namespace maywsd::rel {

/// Boolean predicate tree.
class Predicate {
 public:
  enum class Kind : uint8_t { kTrue, kCmpConst, kCmpAttr, kAnd, kOr, kNot };

  /// Always-true predicate (σ_true = identity).
  static Predicate True();
  /// Attribute-θ-constant comparison: `attr θ constant`.
  static Predicate Cmp(std::string attr, CmpOp op, Value constant);
  /// Attribute-θ-attribute comparison: `lhs θ rhs` (join-style condition).
  static Predicate CmpAttr(std::string lhs, CmpOp op, std::string rhs);
  static Predicate And(Predicate a, Predicate b);
  static Predicate Or(Predicate a, Predicate b);
  static Predicate Not(Predicate a);

  /// Conjunction of a list (True when empty).
  static Predicate AndAll(std::vector<Predicate> preds);

  Kind kind() const { return node_->kind; }
  bool is_true() const { return kind() == Kind::kTrue; }

  /// Accessors for leaf comparisons (valid per kind).
  const std::string& lhs_attr() const { return node_->lhs; }
  const std::string& rhs_attr() const { return node_->rhs; }
  CmpOp op() const { return node_->op; }
  const Value& constant() const { return node_->constant; }

  /// Children for kAnd/kOr/kNot.
  const Predicate& left() const { return *node_->left; }
  const Predicate& right() const { return *node_->right; }

  /// Names of all attributes referenced by the predicate.
  std::vector<std::string> ReferencedAttributes() const;

  /// Splits a conjunction into its flat list of conjuncts.
  std::vector<Predicate> Conjuncts() const;

  /// True when both values wrap the same underlying node; identity fast
  /// path for PredicateEqual.
  bool SharesNodeWith(const Predicate& o) const { return node_ == o.node_; }

  std::string ToString() const;

 private:
  struct Node {
    Kind kind = Kind::kTrue;
    std::string lhs;
    std::string rhs;
    CmpOp op = CmpOp::kEq;
    Value constant;
    std::shared_ptr<const Predicate> left;
    std::shared_ptr<const Predicate> right;
  };

  explicit Predicate(std::shared_ptr<const Node> node)
      : node_(std::move(node)) {}

  std::shared_ptr<const Node> node_;
};

/// Kleene three-valued truth over template rows: '?' cells are unknown.
enum class Tri : uint8_t { kFalse, kTrue, kUnknown };

/// A predicate with attribute references resolved to column indexes.
class BoundPredicate {
 public:
  /// Resolves `pred` against `schema`; fails on unknown attributes
  /// (NotFound).
  static Result<BoundPredicate> Bind(const Predicate& pred,
                                     const Schema& schema);

  /// Evaluates the predicate on one row.
  bool Eval(TupleRef row) const;

  /// Evaluates the predicate on a template row in Kleene logic: a
  /// comparison with a '?' operand is unknown; ∧, ∨ and ¬ combine as
  /// false ∧ x = false, true ∨ x = true, ¬unknown = unknown.
  Tri EvalTri(TupleRef row) const;

  /// The columns the predicate reads, ascending and deduplicated.
  const std::vector<size_t>& columns() const { return columns_; }

 private:
  struct Op {
    Predicate::Kind kind;
    CmpOp cmp = CmpOp::kEq;
    size_t lhs_col = 0;
    size_t rhs_col = 0;
    Value constant;
    // Children are indexes into the flattened ops_ array.
    int left = -1;
    int right = -1;
  };

  bool EvalNode(int node, TupleRef row) const;
  Tri EvalTriNode(int node, TupleRef row) const;

  std::vector<Op> ops_;
  std::vector<size_t> columns_;
  int root_ = -1;
};

}  // namespace maywsd::rel

#endif  // MAYWSD_REL_PREDICATE_H_
