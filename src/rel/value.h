// Value: the scalar domain of the engine.
//
// Besides ordinary constants (64-bit integers, doubles, interned strings)
// the paper's model needs two special markers:
//   ⊥ ("bottom")   — marks the field of a tuple deleted from some worlds
//                    (Section 3: any tuple containing ⊥ is a padding tuple
//                    and is dropped by inline⁻¹).
//   ? ("question") — placeholder in WSDT/UWSDT template relations for fields
//                    whose value differs across worlds (Section 3).
//
// Values are 16 bytes and trivially copyable; strings are interned symbols.

#ifndef MAYWSD_REL_VALUE_H_
#define MAYWSD_REL_VALUE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "common/hash.h"
#include "common/interner.h"

namespace maywsd::rel {

/// Runtime tag of a Value.
enum class ValueKind : uint8_t {
  kBottom = 0,  ///< ⊥ — deleted-tuple marker
  kInt = 1,
  kDouble = 2,
  kString = 3,
  kQuestion = 4,  ///< ? — template placeholder
};

/// Comparison operators of the selection predicates (σ_{AθB}, σ_{Aθc}).
enum class CmpOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

/// Returns the textual form of a comparison operator ("=", "<>", ...).
std::string_view CmpOpName(CmpOp op);

/// Immutable tagged scalar. 16 bytes, trivially copyable.
class Value {
 public:
  /// Default-constructs ⊥.
  Value() : kind_(ValueKind::kBottom), int_(0) {}

  static Value Bottom() { return Value(); }
  static Value Question() {
    Value v;
    v.kind_ = ValueKind::kQuestion;
    return v;
  }
  static Value Int(int64_t i) {
    Value v;
    v.kind_ = ValueKind::kInt;
    v.int_ = i;
    return v;
  }
  static Value Double(double d) {
    Value v;
    v.kind_ = ValueKind::kDouble;
    v.double_ = d;
    return v;
  }
  static Value String(std::string_view s) {
    Value v;
    v.kind_ = ValueKind::kString;
    v.sym_ = InternString(s);
    return v;
  }
  /// Wraps an already-interned symbol without a pool lookup.
  static Value StringSymbol(Symbol sym) {
    Value v;
    v.kind_ = ValueKind::kString;
    v.sym_ = sym;
    return v;
  }

  ValueKind kind() const { return kind_; }
  bool is_bottom() const { return kind_ == ValueKind::kBottom; }
  bool is_question() const { return kind_ == ValueKind::kQuestion; }
  bool is_int() const { return kind_ == ValueKind::kInt; }
  bool is_double() const { return kind_ == ValueKind::kDouble; }
  bool is_string() const { return kind_ == ValueKind::kString; }
  bool is_numeric() const { return is_int() || is_double(); }

  /// Numeric payload accessors; only valid for the matching kind.
  int64_t AsInt() const { return int_; }
  double AsDouble() const {
    return kind_ == ValueKind::kDouble ? double_
                                       : static_cast<double>(int_);
  }
  Symbol AsSymbol() const { return sym_; }
  std::string_view AsStringView() const { return SymbolName(sym_); }

  /// Structural equality. Int and double compare numerically (1 == 1.0);
  /// ⊥ equals only ⊥ and ? equals only ?.
  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }

  /// Total order used for sorting and set semantics:
  /// ⊥ < numerics (by numeric value) < strings (lexicographic) < ?.
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// Three-way comparison consistent with operator== and operator<.
  int Compare(const Value& other) const;

  /// Evaluates `this θ other` with the paper's semantics: ⊥ and ? satisfy
  /// only (in)equality against themselves; strings and numbers are
  /// incomparable (every θ except ≠ is false).
  bool Satisfies(CmpOp op, const Value& other) const;

  /// Hash consistent with operator==.
  size_t Hash() const;

  /// Appends the value's text to `out`: ints in decimal, strings
  /// single-quoted ('abc'), ⊥ and ? as themselves, doubles as printf's
  /// "%.6g" (3.5, 1e-05). The one value-to-text routine: ToString,
  /// operator<< and the server's response formatter all go through it.
  void AppendTo(std::string& out) const;

  /// Rendering for debugging and table output: ⊥, ?, 42, 3.5, 'abc'.
  std::string ToString() const {
    std::string out;
    AppendTo(out);
    return out;
  }

 private:
  ValueKind kind_;
  union {
    int64_t int_;
    double double_;
    Symbol sym_;
  };
};

std::ostream& operator<<(std::ostream& os, const Value& v);

}  // namespace maywsd::rel

namespace std {
template <>
struct hash<maywsd::rel::Value> {
  size_t operator()(const maywsd::rel::Value& v) const { return v.Hash(); }
};
}  // namespace std

#endif  // MAYWSD_REL_VALUE_H_
