#include "rel/value.h"

#include <charconv>
#include <cmath>
#include <ostream>

namespace maywsd::rel {

std::string_view CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "=";
    case CmpOp::kNe:
      return "<>";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
  }
  return "?";
}

bool Value::operator==(const Value& other) const {
  if (is_numeric() && other.is_numeric()) {
    if (is_int() && other.is_int()) return int_ == other.int_;
    return AsDouble() == other.AsDouble();
  }
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case ValueKind::kBottom:
    case ValueKind::kQuestion:
      return true;
    case ValueKind::kString:
      return sym_ == other.sym_;
    default:
      return false;  // unreachable: numerics handled above
  }
}

namespace {

/// Sort rank of a kind; numerics share a rank so they interleave by value.
int KindRank(ValueKind k) {
  switch (k) {
    case ValueKind::kBottom:
      return 0;
    case ValueKind::kInt:
    case ValueKind::kDouble:
      return 1;
    case ValueKind::kString:
      return 2;
    case ValueKind::kQuestion:
      return 3;
  }
  return 4;
}

}  // namespace

int Value::Compare(const Value& other) const {
  int lr = KindRank(kind_);
  int rr = KindRank(other.kind_);
  if (lr != rr) return lr < rr ? -1 : 1;
  switch (kind_) {
    case ValueKind::kBottom:
    case ValueKind::kQuestion:
      return 0;
    case ValueKind::kInt:
      if (other.is_int()) {
        if (int_ != other.int_) return int_ < other.int_ ? -1 : 1;
        return 0;
      }
      [[fallthrough]];
    case ValueKind::kDouble: {
      double a = AsDouble();
      double b = other.AsDouble();
      if (a != b) return a < b ? -1 : 1;
      return 0;
    }
    case ValueKind::kString: {
      std::string_view a = AsStringView();
      std::string_view b = other.AsStringView();
      int c = a.compare(b);
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
  }
  return 0;
}

bool Value::Satisfies(CmpOp op, const Value& other) const {
  // ⊥ and ? are equal only to themselves and support only (in)equality.
  bool special = is_bottom() || is_question() || other.is_bottom() ||
                 other.is_question();
  // Strings and numbers are incomparable except via <> (which holds).
  bool mixed = (is_string() && other.is_numeric()) ||
               (is_numeric() && other.is_string());
  if (special || mixed) {
    bool eq = (*this == other);
    switch (op) {
      case CmpOp::kEq:
        return eq;
      case CmpOp::kNe:
        return !eq;
      default:
        return false;
    }
  }
  int c = Compare(other);
  switch (op) {
    case CmpOp::kEq:
      return c == 0;
    case CmpOp::kNe:
      return c != 0;
    case CmpOp::kLt:
      return c < 0;
    case CmpOp::kLe:
      return c <= 0;
    case CmpOp::kGt:
      return c > 0;
    case CmpOp::kGe:
      return c >= 0;
  }
  return false;
}

size_t Value::Hash() const {
  size_t seed = 0;
  switch (kind_) {
    case ValueKind::kBottom:
      return 0x6275a5c1u;
    case ValueKind::kQuestion:
      return 0x9d2e8f37u;
    case ValueKind::kInt:
      HashCombine(seed, std::hash<int64_t>{}(int_));
      return seed;
    case ValueKind::kDouble: {
      // Keep hash consistent with int==double equality: integral doubles
      // hash like the corresponding int.
      double d = double_;
      if (d == static_cast<double>(static_cast<int64_t>(d))) {
        HashCombine(seed, std::hash<int64_t>{}(static_cast<int64_t>(d)));
      } else {
        HashCombine(seed, std::hash<double>{}(d));
      }
      return seed;
    }
    case ValueKind::kString:
      HashCombine(seed, 0x51ed270bu);
      HashCombine(seed, std::hash<Symbol>{}(sym_));
      return seed;
  }
  return seed;
}

namespace {

/// "00" through "99", the two digits of every value below 100.
constexpr char kDigitPairs[] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536"
    "37383940414243444546474849505152535455565758596061626364656667686970717273"
    "7475767778798081828384858687888990919293949596979899";

}  // namespace

void Value::AppendTo(std::string& out) const {
  switch (kind_) {
    case ValueKind::kBottom:
      out += "\xe2\x8a\xa5";  // ⊥
      return;
    case ValueKind::kQuestion:
      out += '?';
      return;
    case ValueKind::kInt: {
      // Answers are mostly small codes: a value below 100 is its digit
      // pair, without to_chars' length loop.
      if (static_cast<uint64_t>(int_) < 100) {
        const char* pair = kDigitPairs + 2 * int_;
        if (int_ >= 10) out += pair[0];
        out += pair[1];
        return;
      }
      char buf[20];  // "-9223372036854775808"
      const char* end = std::to_chars(buf, buf + sizeof(buf), int_).ptr;
      out.append(buf, static_cast<size_t>(end - buf));
      return;
    }
    case ValueKind::kDouble: {
      // General format at precision 6 is printf's "%.6g" in the C locale,
      // the text `std::ostream << double` prints with default flags.
      char buf[32];  // "-1.79769e+308" is the longest finite spelling
      const char* end = std::to_chars(buf, buf + sizeof(buf), double_,
                                      std::chars_format::general, 6)
                            .ptr;
      out.append(buf, static_cast<size_t>(end - buf));
      return;
    }
    case ValueKind::kString:
      out += '\'';
      out += AsStringView();
      out += '\'';
      return;
  }
  out += "<invalid>";
}

std::ostream& operator<<(std::ostream& os, const Value& v) {
  return os << v.ToString();
}

}  // namespace maywsd::rel
