#include "rel/schema.h"

#include <sstream>

namespace maywsd::rel {

namespace {

std::string_view TypeName(AttrType t) {
  switch (t) {
    case AttrType::kAny:
      return "any";
    case AttrType::kInt:
      return "int";
    case AttrType::kDouble:
      return "double";
    case AttrType::kString:
      return "string";
  }
  return "?";
}

}  // namespace

Schema Schema::FromNames(const std::vector<std::string>& names) {
  std::vector<Attribute> attrs;
  attrs.reserve(names.size());
  for (const auto& n : names) attrs.emplace_back(n);
  return Schema(std::move(attrs));
}

std::optional<size_t> Schema::IndexOf(std::string_view name) const {
  // One non-inserting probe (probe strings are never interned), then
  // symbol comparisons: a name nobody interned names no attribute.
  std::optional<Symbol> sym = StringInterner::Global().Find(name);
  if (!sym) return std::nullopt;
  return IndexOf(*sym);
}

std::optional<size_t> Schema::IndexOf(Symbol name) const {
  for (size_t i = 0; i < attrs_.size(); ++i) {
    if (attrs_[i].name == name) return i;
  }
  return std::nullopt;
}

Status Schema::AddAttribute(Attribute attr) {
  if (IndexOf(attr.name)) {
    return Status::AlreadyExists("duplicate attribute " +
                                 std::string(attr.name_view()));
  }
  attrs_.push_back(attr);
  return Status::Ok();
}

Result<Schema> Schema::Project(const std::vector<std::string>& names) const {
  std::vector<Attribute> out;
  out.reserve(names.size());
  for (const auto& n : names) {
    auto idx = IndexOf(n);
    if (!idx) return Status::NotFound("no attribute " + n + " in " + ToString());
    out.push_back(attrs_[*idx]);
  }
  return Schema(std::move(out));
}

Result<Schema> Schema::Rename(std::string_view from, std::string_view to) const {
  auto idx = IndexOf(from);
  if (!idx) {
    return Status::NotFound("no attribute " + std::string(from) + " in " +
                            ToString());
  }
  if (Contains(to) && to != from) {
    return Status::AlreadyExists("attribute " + std::string(to) +
                                 " already exists in " + ToString());
  }
  Schema out = *this;
  out.attrs_[*idx].name = InternString(to);
  return out;
}

Result<Schema> Schema::Concat(const Schema& other) const {
  Schema out = *this;
  for (const auto& a : other.attrs_) {
    MAYWSD_RETURN_IF_ERROR(out.AddAttribute(a));
  }
  return out;
}

std::string Schema::ToString() const {
  std::ostringstream os;
  os << "(";
  for (size_t i = 0; i < attrs_.size(); ++i) {
    if (i > 0) os << ", ";
    os << attrs_[i].name_view() << ":" << TypeName(attrs_[i].type);
  }
  os << ")";
  return os.str();
}

}  // namespace maywsd::rel
