#include "rel/predicate.h"

#include <algorithm>
#include <functional>
#include <sstream>

namespace maywsd::rel {

Predicate Predicate::True() {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kTrue;
  return Predicate(std::move(node));
}

Predicate Predicate::Cmp(std::string attr, CmpOp op, Value constant) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kCmpConst;
  node->lhs = std::move(attr);
  node->op = op;
  node->constant = constant;
  return Predicate(std::move(node));
}

Predicate Predicate::CmpAttr(std::string lhs, CmpOp op, std::string rhs) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kCmpAttr;
  node->lhs = std::move(lhs);
  node->rhs = std::move(rhs);
  node->op = op;
  return Predicate(std::move(node));
}

Predicate Predicate::And(Predicate a, Predicate b) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kAnd;
  node->left = std::make_shared<Predicate>(std::move(a));
  node->right = std::make_shared<Predicate>(std::move(b));
  return Predicate(std::move(node));
}

Predicate Predicate::Or(Predicate a, Predicate b) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kOr;
  node->left = std::make_shared<Predicate>(std::move(a));
  node->right = std::make_shared<Predicate>(std::move(b));
  return Predicate(std::move(node));
}

Predicate Predicate::Not(Predicate a) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kNot;
  node->left = std::make_shared<Predicate>(std::move(a));
  return Predicate(std::move(node));
}

Predicate Predicate::AndAll(std::vector<Predicate> preds) {
  if (preds.empty()) return True();
  Predicate acc = std::move(preds[0]);
  for (size_t i = 1; i < preds.size(); ++i) {
    acc = And(std::move(acc), std::move(preds[i]));
  }
  return acc;
}

namespace {

void CollectAttributes(const Predicate& p, std::vector<std::string>* out) {
  switch (p.kind()) {
    case Predicate::Kind::kTrue:
      return;
    case Predicate::Kind::kCmpConst:
      out->push_back(p.lhs_attr());
      return;
    case Predicate::Kind::kCmpAttr:
      out->push_back(p.lhs_attr());
      out->push_back(p.rhs_attr());
      return;
    case Predicate::Kind::kAnd:
    case Predicate::Kind::kOr:
      CollectAttributes(p.left(), out);
      CollectAttributes(p.right(), out);
      return;
    case Predicate::Kind::kNot:
      CollectAttributes(p.left(), out);
      return;
  }
}

void CollectConjuncts(const Predicate& p, std::vector<Predicate>* out) {
  if (p.kind() == Predicate::Kind::kAnd) {
    CollectConjuncts(p.left(), out);
    CollectConjuncts(p.right(), out);
  } else if (!p.is_true()) {
    out->push_back(p);
  }
}

}  // namespace

std::vector<std::string> Predicate::ReferencedAttributes() const {
  std::vector<std::string> out;
  CollectAttributes(*this, &out);
  return out;
}

std::vector<Predicate> Predicate::Conjuncts() const {
  std::vector<Predicate> out;
  CollectConjuncts(*this, &out);
  return out;
}

std::string Predicate::ToString() const {
  std::ostringstream os;
  switch (kind()) {
    case Kind::kTrue:
      os << "true";
      break;
    case Kind::kCmpConst:
      os << lhs_attr() << CmpOpName(op()) << constant();
      break;
    case Kind::kCmpAttr:
      os << lhs_attr() << CmpOpName(op()) << rhs_attr();
      break;
    case Kind::kAnd:
      os << "(" << left().ToString() << " AND " << right().ToString() << ")";
      break;
    case Kind::kOr:
      os << "(" << left().ToString() << " OR " << right().ToString() << ")";
      break;
    case Kind::kNot:
      os << "NOT (" << left().ToString() << ")";
      break;
  }
  return os.str();
}

Result<BoundPredicate> BoundPredicate::Bind(const Predicate& pred,
                                            const Schema& schema) {
  BoundPredicate bound;
  // Recursive flattening into ops_; returns node index or -1 on error.
  Status error = Status::Ok();
  auto resolve = [&](const std::string& name) -> int {
    auto idx = schema.IndexOf(name);
    if (!idx) {
      if (error.ok()) {
        error = Status::NotFound("predicate references unknown attribute " +
                                 name + " in " + schema.ToString());
      }
      return -1;
    }
    return static_cast<int>(*idx);
  };
  // Explicit stack-free recursion via std::function for clarity; predicate
  // trees are tiny.
  std::function<int(const Predicate&)> build =
      [&](const Predicate& p) -> int {
    Op op;
    op.kind = p.kind();
    switch (p.kind()) {
      case Predicate::Kind::kTrue:
        break;
      case Predicate::Kind::kCmpConst: {
        int col = resolve(p.lhs_attr());
        if (col < 0) return -1;
        op.lhs_col = static_cast<size_t>(col);
        op.cmp = p.op();
        op.constant = p.constant();
        break;
      }
      case Predicate::Kind::kCmpAttr: {
        int l = resolve(p.lhs_attr());
        int r = resolve(p.rhs_attr());
        if (l < 0 || r < 0) return -1;
        op.lhs_col = static_cast<size_t>(l);
        op.rhs_col = static_cast<size_t>(r);
        op.cmp = p.op();
        break;
      }
      case Predicate::Kind::kAnd:
      case Predicate::Kind::kOr: {
        op.left = build(p.left());
        op.right = build(p.right());
        if (op.left < 0 || op.right < 0) return -1;
        break;
      }
      case Predicate::Kind::kNot: {
        op.left = build(p.left());
        if (op.left < 0) return -1;
        break;
      }
    }
    bound.ops_.push_back(std::move(op));
    return static_cast<int>(bound.ops_.size() - 1);
  };
  bound.root_ = build(pred);
  if (bound.root_ < 0) return error;
  for (const Op& op : bound.ops_) {
    if (op.kind == Predicate::Kind::kCmpConst) {
      bound.columns_.push_back(op.lhs_col);
    } else if (op.kind == Predicate::Kind::kCmpAttr) {
      bound.columns_.push_back(op.lhs_col);
      bound.columns_.push_back(op.rhs_col);
    }
  }
  std::sort(bound.columns_.begin(), bound.columns_.end());
  bound.columns_.erase(
      std::unique(bound.columns_.begin(), bound.columns_.end()),
      bound.columns_.end());
  return bound;
}

bool BoundPredicate::EvalNode(int node, TupleRef row) const {
  const Op& op = ops_[node];
  switch (op.kind) {
    case Predicate::Kind::kTrue:
      return true;
    case Predicate::Kind::kCmpConst:
      return row[op.lhs_col].Satisfies(op.cmp, op.constant);
    case Predicate::Kind::kCmpAttr:
      return row[op.lhs_col].Satisfies(op.cmp, row[op.rhs_col]);
    case Predicate::Kind::kAnd:
      return EvalNode(op.left, row) && EvalNode(op.right, row);
    case Predicate::Kind::kOr:
      return EvalNode(op.left, row) || EvalNode(op.right, row);
    case Predicate::Kind::kNot:
      return !EvalNode(op.left, row);
  }
  return false;
}

bool BoundPredicate::Eval(TupleRef row) const {
  return root_ >= 0 && EvalNode(root_, row);
}

Tri BoundPredicate::EvalTriNode(int node, TupleRef row) const {
  const Op& op = ops_[node];
  auto decided = [](bool b) { return b ? Tri::kTrue : Tri::kFalse; };
  switch (op.kind) {
    case Predicate::Kind::kTrue:
      return Tri::kTrue;
    case Predicate::Kind::kCmpConst: {
      const Value& v = row[op.lhs_col];
      if (v.is_question()) return Tri::kUnknown;
      return decided(v.Satisfies(op.cmp, op.constant));
    }
    case Predicate::Kind::kCmpAttr: {
      const Value& l = row[op.lhs_col];
      const Value& r = row[op.rhs_col];
      if (l.is_question() || r.is_question()) return Tri::kUnknown;
      return decided(l.Satisfies(op.cmp, r));
    }
    case Predicate::Kind::kAnd: {
      Tri l = EvalTriNode(op.left, row);
      if (l == Tri::kFalse) return Tri::kFalse;
      Tri r = EvalTriNode(op.right, row);
      if (r == Tri::kFalse) return Tri::kFalse;
      return l == Tri::kTrue && r == Tri::kTrue ? Tri::kTrue : Tri::kUnknown;
    }
    case Predicate::Kind::kOr: {
      Tri l = EvalTriNode(op.left, row);
      if (l == Tri::kTrue) return Tri::kTrue;
      Tri r = EvalTriNode(op.right, row);
      if (r == Tri::kTrue) return Tri::kTrue;
      return l == Tri::kFalse && r == Tri::kFalse ? Tri::kFalse
                                                  : Tri::kUnknown;
    }
    case Predicate::Kind::kNot: {
      Tri l = EvalTriNode(op.left, row);
      if (l == Tri::kUnknown) return Tri::kUnknown;
      return l == Tri::kTrue ? Tri::kFalse : Tri::kTrue;
    }
  }
  return Tri::kUnknown;
}

Tri BoundPredicate::EvalTri(TupleRef row) const {
  return root_ >= 0 ? EvalTriNode(root_, row) : Tri::kFalse;
}

}  // namespace maywsd::rel
