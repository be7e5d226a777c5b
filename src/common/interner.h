// Process-wide string interning.
//
// Values, attribute names and relation names are stored as 32-bit symbols
// pointing into a global pool. This keeps Value at 16 bytes (which matters:
// the census benches materialize tens of millions of fields) and makes
// string equality O(1). Interned strings live for the process lifetime,
// mirroring how a DBMS catalog pins dictionary-encoded strings.

#ifndef MAYWSD_COMMON_INTERNER_H_
#define MAYWSD_COMMON_INTERNER_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

namespace maywsd {

/// Symbol handle returned by the interner; 0 is the empty string.
using Symbol = uint32_t;

/// Thread-safe append-only string pool.
class StringInterner {
 public:
  /// Returns the process-wide interner.
  static StringInterner& Global();

  /// Interns `s`, returning a stable symbol. Idempotent.
  Symbol Intern(std::string_view s);

  /// The symbol of `s` if it is interned; never inserts (probe strings
  /// stay out of the pool).
  std::optional<Symbol> Find(std::string_view s) const;

  /// Resolves a symbol; the view is valid for the process lifetime.
  std::string_view Lookup(Symbol sym) const;

  /// Number of distinct strings interned so far.
  size_t size() const;

 private:
  StringInterner();

  mutable std::mutex mu_;
  // deque: stable addresses under growth, so Lookup() views never dangle.
  std::deque<std::string> strings_;
  std::unordered_map<std::string_view, Symbol> index_;
};

/// Convenience wrappers around the global interner.
inline Symbol InternString(std::string_view s) {
  return StringInterner::Global().Intern(s);
}
inline std::string_view SymbolName(Symbol sym) {
  return StringInterner::Global().Lookup(sym);
}

}  // namespace maywsd

#endif  // MAYWSD_COMMON_INTERNER_H_
