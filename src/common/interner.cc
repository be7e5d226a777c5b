#include "common/interner.h"

#include <cassert>

namespace maywsd {

StringInterner& StringInterner::Global() {
  static StringInterner* interner = new StringInterner();
  return *interner;
}

StringInterner::StringInterner() {
  // Symbol 0 is reserved for the empty string so that a default-constructed
  // symbol is always valid.
  strings_.emplace_back("");
  index_.emplace(strings_.back(), 0);
}

Symbol StringInterner::Intern(std::string_view s) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(s);
  if (it != index_.end()) return it->second;
  strings_.emplace_back(s);
  Symbol sym = static_cast<Symbol>(strings_.size() - 1);
  index_.emplace(strings_.back(), sym);
  return sym;
}

std::optional<Symbol> StringInterner::Find(std::string_view s) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(s);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

std::string_view StringInterner::Lookup(Symbol sym) const {
  std::lock_guard<std::mutex> lock(mu_);
  assert(sym < strings_.size());
  return strings_[sym];
}

size_t StringInterner::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return strings_.size();
}

}  // namespace maywsd
