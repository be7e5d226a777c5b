#include "server/protocol.h"

#include <charconv>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "rel/predicate.h"
#include "rel/schema.h"
#include "rel/value.h"

namespace maywsd::server {

namespace {

/// The characters `operator>>` skips in the C locale (std::isspace).
bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

/// Whitespace-separated tokens, viewing `line`.
std::vector<std::string_view> Tokenize(std::string_view line) {
  std::vector<std::string_view> tokens;
  size_t i = 0;
  while (true) {
    while (i < line.size() && IsSpace(line[i])) ++i;
    if (i == line.size()) return tokens;
    const size_t start = i;
    while (i < line.size() && !IsSpace(line[i])) ++i;
    tokens.push_back(line.substr(start, i - start));
  }
}

/// Comma-separated items, viewing `s`; "a,,b" and "a," keep their empty
/// items so the callers can reject them.
std::vector<std::string_view> SplitComma(std::string_view s) {
  std::vector<std::string_view> parts;
  while (true) {
    const size_t comma = s.find(',');
    parts.push_back(s.substr(0, comma));
    if (comma == std::string_view::npos) return parts;
    s.remove_prefix(comma + 1);
  }
}

/// The integer a token spells in strtoll's decimal grammar — an optional
/// sign, then digits only; out-of-range values clamp to the int64 limits.
std::optional<int64_t> ParseInt(std::string_view token) {
  const char* first = token.data();
  const char* last = first + token.size();
  if (first != last && *first == '+') {
    ++first;
    if (first != last && *first == '-') return std::nullopt;
  }
  int64_t v = 0;
  const auto [end, ec] = std::from_chars(first, last, v);
  if (first == last || end != last) return std::nullopt;
  if (ec == std::errc::result_out_of_range) {
    return token[0] == '-' ? std::numeric_limits<int64_t>::min()
                           : std::numeric_limits<int64_t>::max();
  }
  return v;
}

/// An integer token is an integer value; anything else is a string.
rel::Value ParseValue(std::string_view token) {
  if (std::optional<int64_t> v = ParseInt(token)) return rel::Value::Int(*v);
  return rel::Value::String(token);
}

Result<rel::CmpOp> ParseCmpOp(std::string_view token) {
  if (token == "=") return rel::CmpOp::kEq;
  if (token == "!=" || token == "<>") return rel::CmpOp::kNe;
  if (token == "<") return rel::CmpOp::kLt;
  if (token == "<=") return rel::CmpOp::kLe;
  if (token == ">") return rel::CmpOp::kGt;
  if (token == ">=") return rel::CmpOp::kGe;
  return Status::InvalidArgument("bad comparison operator: " +
                                 std::string(token));
}

using Tokens = std::span<const std::string_view>;

Result<rel::Relation> ParseRows(std::string_view name,
                                std::string_view attrs_token,
                                Tokens row_tokens) {
  std::vector<rel::Attribute> attrs;
  for (std::string_view a : SplitComma(attrs_token)) {
    if (a.empty()) {
      return Status::InvalidArgument("empty attribute in " +
                                     std::string(attrs_token));
    }
    attrs.emplace_back(a);
  }
  rel::Relation out(rel::Schema(std::move(attrs)), std::string(name));
  std::vector<rel::Value> row;
  for (std::string_view row_token : row_tokens) {
    row.clear();
    for (std::string_view v : SplitComma(row_token)) {
      // The grammar cannot spell an empty string value; an empty item is a
      // truncated or doubled comma, not data.
      if (v.empty()) {
        return Status::InvalidArgument("empty value in row " +
                                       std::string(row_token));
      }
      row.push_back(ParseValue(v));
    }
    if (row.size() != out.arity()) {
      return Status::InvalidArgument(
          "row " + std::string(row_token) + " has " +
          std::to_string(row.size()) + " values, schema wants " +
          std::to_string(out.arity()));
    }
    out.AppendRow(row);
  }
  return out;
}

/// <attr> <op> <value> of a simple comparison predicate.
Result<rel::Predicate> ParseCmpPredicate(std::string_view attr,
                                         std::string_view op,
                                         std::string_view value) {
  MAYWSD_ASSIGN_OR_RETURN(rel::CmpOp cmp, ParseCmpOp(op));
  return rel::Predicate::Cmp(std::string(attr), cmp, ParseValue(value));
}

/// run <sid> <out> <scan|select|project> ... — tokens[3:] here.
Result<rel::Plan> ParsePlan(Tokens t) {
  if (t.empty()) return Status::InvalidArgument("run: missing plan");
  const std::string_view op = t[0];
  if (op == "scan") {
    if (t.size() != 2) return Status::InvalidArgument("run: scan <rel>");
    return rel::Plan::Scan(std::string(t[1]));
  }
  if (op == "select") {
    if (t.size() != 5) {
      return Status::InvalidArgument("run: select <rel> <attr> <op> <value>");
    }
    MAYWSD_ASSIGN_OR_RETURN(rel::Predicate pred,
                            ParseCmpPredicate(t[2], t[3], t[4]));
    return rel::Plan::Select(std::move(pred),
                             rel::Plan::Scan(std::string(t[1])));
  }
  if (op == "project") {
    if (t.size() != 3) {
      return Status::InvalidArgument("run: project <rel> <attr,attr,...>");
    }
    std::vector<std::string> attrs;
    for (std::string_view a : SplitComma(t[2])) {
      if (a.empty()) {
        return Status::InvalidArgument("empty attribute in " +
                                       std::string(t[2]));
      }
      attrs.emplace_back(a);
    }
    return rel::Plan::Project(std::move(attrs),
                              rel::Plan::Scan(std::string(t[1])));
  }
  return Status::InvalidArgument("run: unknown plan operator " +
                                 std::string(op));
}

/// apply <sid> <insert|delete|modify> ... — tokens[2:] here.
Result<rel::UpdateOp> ParseUpdate(Tokens t) {
  if (t.size() < 2) return Status::InvalidArgument("apply: missing update");
  const std::string_view op = t[0];
  std::string relation(t[1]);
  if (op == "insert") {
    // Session::Apply validates inserted attribute names against the
    // target, so the wire carries them (same shape register uses).
    if (t.size() < 4) {
      return Status::InvalidArgument(
          "apply: insert <rel> <attr,attr,...> <v,v,...> ...");
    }
    MAYWSD_ASSIGN_OR_RETURN(rel::Relation rows,
                            ParseRows(relation, t[2], t.subspan(3)));
    return rel::UpdateOp::InsertTuples(std::move(relation), std::move(rows));
  }
  if (op == "delete") {
    if (t.size() != 5) {
      return Status::InvalidArgument("apply: delete <rel> <attr> <op> <value>");
    }
    MAYWSD_ASSIGN_OR_RETURN(rel::Predicate pred,
                            ParseCmpPredicate(t[2], t[3], t[4]));
    return rel::UpdateOp::DeleteWhere(std::move(relation), std::move(pred));
  }
  if (op == "modify") {
    if (t.size() != 7 || t[5] != "set") {
      return Status::InvalidArgument(
          "apply: modify <rel> <attr> <op> <value> set <attr>=<value>[,...]");
    }
    MAYWSD_ASSIGN_OR_RETURN(rel::Predicate pred,
                            ParseCmpPredicate(t[2], t[3], t[4]));
    std::vector<rel::Assignment> assignments;
    for (std::string_view a : SplitComma(t[6])) {
      const size_t eq = a.find('=');
      if (eq == std::string_view::npos || eq == 0 || eq + 1 == a.size()) {
        return Status::InvalidArgument("bad assignment: " + std::string(a));
      }
      assignments.push_back(
          {std::string(a.substr(0, eq)), ParseValue(a.substr(eq + 1))});
    }
    return rel::UpdateOp::ModifyWhere(std::move(relation), std::move(pred),
                                      std::move(assignments));
  }
  return Status::InvalidArgument("apply: unknown update kind " +
                                 std::string(op));
}

}  // namespace

Result<Request> ParseRequest(const std::string& line) {
  const std::vector<std::string_view> tokens = Tokenize(line);
  const Tokens t(tokens);
  if (t.empty()) return Status::InvalidArgument("empty request");
  const std::string_view verb = t[0];
  Request req;

  if (verb == "sessions") {
    req.kind = Request::Kind::kListSessions;
    return req;
  }
  if (t.size() < 2) {
    return Status::InvalidArgument(std::string(verb) + ": missing session id");
  }
  req.session = t[1];

  if (verb == "open") {
    if (t.size() != 3) {
      return Status::InvalidArgument("open <sid> <wsd|wsdt|uniform|urel>");
    }
    req.kind = Request::Kind::kOpenSession;
    MAYWSD_ASSIGN_OR_RETURN(req.backend, api::ParseBackendKind(t[2]));
    return req;
  }
  if (verb == "close") {
    req.kind = Request::Kind::kCloseSession;
    return req;
  }
  if (verb == "register") {
    if (t.size() < 4) {
      return Status::InvalidArgument(
          "register <sid> <rel> <attr,attr,...> [<v,v,...> ...]");
    }
    req.kind = Request::Kind::kRegister;
    MAYWSD_ASSIGN_OR_RETURN(rel::Relation relation,
                            ParseRows(t[2], t[3], t.subspan(4)));
    req.relation = std::move(relation);
    return req;
  }
  if (verb == "run") {
    if (t.size() < 4) return Status::InvalidArgument("run <sid> <out> <plan>");
    req.kind = Request::Kind::kRun;
    req.target = t[2];
    MAYWSD_ASSIGN_OR_RETURN(rel::Plan plan, ParsePlan(t.subspan(3)));
    req.plan = std::move(plan);
    return req;
  }
  if (verb == "apply") {
    req.kind = Request::Kind::kApply;
    MAYWSD_ASSIGN_OR_RETURN(rel::UpdateOp update, ParseUpdate(t.subspan(2)));
    req.update = std::move(update);
    return req;
  }
  if (verb == "possible" || verb == "certain" || verb == "read" ||
      verb == "conf") {
    if (t.size() < 3) {
      return Status::InvalidArgument(std::string(verb) + " <sid> <rel>");
    }
    req.target = t[2];
    if (verb == "possible") {
      req.kind = Request::Kind::kPossible;
    } else if (verb == "certain") {
      req.kind = Request::Kind::kCertain;
    } else if (verb == "read") {
      req.kind = Request::Kind::kSnapshotRead;
    } else {
      if (t.size() != 4) {
        return Status::InvalidArgument("conf <sid> <rel> <v,v,...>");
      }
      req.kind = Request::Kind::kConfidence;
      for (std::string_view v : SplitComma(t[3])) {
        if (v.empty()) {
          return Status::InvalidArgument("empty value in tuple " +
                                         std::string(t[3]));
        }
        req.tuple.push_back(ParseValue(v));
      }
    }
    return req;
  }
  if (verb == "stats") {
    req.kind = Request::Kind::kStats;
    return req;
  }
  return Status::InvalidArgument("unknown verb: " + std::string(verb));
}

namespace {

/// Canonical operator spellings (kNe formats as "!="; "<>" parses only).
std::string_view FormatCmpOp(rel::CmpOp op) {
  switch (op) {
    case rel::CmpOp::kEq:
      return "=";
    case rel::CmpOp::kNe:
      return "!=";
    case rel::CmpOp::kLt:
      return "<";
    case rel::CmpOp::kLe:
      return "<=";
    case rel::CmpOp::kGt:
      return ">";
    case rel::CmpOp::kGe:
      return ">=";
  }
  return "=";
}

/// Appends each part (strings, views, literals, chars) to `out` in order.
template <typename... Parts>
void Append(std::string& out, const Parts&... parts) {
  ((out += parts), ...);
}

/// Appends a value as a wire token; fails when the token would not survive
/// re-tokenization (whitespace/comma split, or a string that re-parses as
/// an integer).
Status AppendWireValue(const rel::Value& v, std::string& out) {
  if (v.is_int()) {
    v.AppendTo(out);
    return Status::Ok();
  }
  if (!v.is_string()) {
    return Status::InvalidArgument("value not expressible on the wire: " +
                                   v.ToString());
  }
  const std::string_view s = v.AsStringView();
  if (s.empty()) return Status::InvalidArgument("empty string value");
  for (char c : s) {
    if (c == ',' || IsSpace(c)) {
      return Status::InvalidArgument("string value would not re-tokenize: " +
                                     std::string(s));
    }
  }
  if (ParseInt(s).has_value()) {
    return Status::InvalidArgument("string value re-parses as integer: " +
                                   std::string(s));
  }
  out += s;
  return Status::Ok();
}

/// <v,v,...> of a tuple.
Status AppendWireTuple(std::span<const rel::Value> tuple, std::string& out) {
  for (size_t i = 0; i < tuple.size(); ++i) {
    if (i != 0) out += ',';
    MAYWSD_RETURN_IF_ERROR(AppendWireValue(tuple[i], out));
  }
  return Status::Ok();
}

/// <rel> <attr,attr,...> [<v,v,...> ...] — the register/insert shape.
Status FormatRelation(const rel::Relation& r, std::string& out) {
  out += r.name();
  if (r.arity() == 0) {
    return Status::InvalidArgument("relation without attributes: " + r.name());
  }
  for (size_t a = 0; a < r.arity(); ++a) {
    Append(out, a == 0 ? ' ' : ',', r.schema().attr(a).name_view());
  }
  for (size_t i = 0; i < r.NumRows(); ++i) {
    out += ' ';
    MAYWSD_RETURN_IF_ERROR(AppendWireTuple(r.row(i).span(), out));
  }
  return Status::Ok();
}

/// <attr> <op> <value> of a simple comparison predicate.
Status FormatCmpPredicate(const rel::Predicate& p, std::string& out) {
  if (p.kind() != rel::Predicate::Kind::kCmpConst) {
    return Status::InvalidArgument("predicate beyond the wire grammar");
  }
  Append(out, p.lhs_attr(), ' ', FormatCmpOp(p.op()), ' ');
  return AppendWireValue(p.constant(), out);
}

/// scan/select/project over a scan — the single-operator plan fragment.
Status FormatPlan(const rel::Plan& plan, std::string& out) {
  switch (plan.kind()) {
    case rel::Plan::Kind::kScan:
      Append(out, "scan ", plan.relation());
      return Status::Ok();
    case rel::Plan::Kind::kSelect: {
      if (plan.child().kind() != rel::Plan::Kind::kScan) break;
      Append(out, "select ", plan.child().relation(), ' ');
      return FormatCmpPredicate(plan.predicate(), out);
    }
    case rel::Plan::Kind::kProject: {
      if (plan.child().kind() != rel::Plan::Kind::kScan) break;
      Append(out, "project ", plan.child().relation());
      const std::vector<std::string>& attrs = plan.attributes();
      for (size_t a = 0; a < attrs.size(); ++a) {
        Append(out, a == 0 ? ' ' : ',', attrs[a]);
      }
      return Status::Ok();
    }
    default:
      break;
  }
  return Status::InvalidArgument("plan beyond the wire grammar");
}

Status FormatUpdate(const rel::UpdateOp& update, std::string& out) {
  if (update.has_world_condition()) {
    return Status::InvalidArgument("world conditions have no wire syntax");
  }
  switch (update.kind()) {
    case rel::UpdateOp::Kind::kInsert: {
      out += "insert ";
      const rel::Relation& rows = update.tuples();
      if (rows.empty()) {
        return Status::InvalidArgument("insert without rows: " +
                                       update.relation());
      }
      return FormatRelation(rows, out);
    }
    case rel::UpdateOp::Kind::kDelete:
      Append(out, "delete ", update.relation(), ' ');
      return FormatCmpPredicate(update.predicate(), out);
    case rel::UpdateOp::Kind::kModify: {
      Append(out, "modify ", update.relation(), ' ');
      MAYWSD_RETURN_IF_ERROR(FormatCmpPredicate(update.predicate(), out));
      out += " set ";
      const std::vector<rel::Assignment>& as = update.assignments();
      if (as.empty()) {
        return Status::InvalidArgument("modify without assignments");
      }
      for (size_t i = 0; i < as.size(); ++i) {
        if (i != 0) out += ',';
        Append(out, as[i].attr, '=');
        MAYWSD_RETURN_IF_ERROR(AppendWireValue(as[i].value, out));
      }
      return Status::Ok();
    }
  }
  return Status::InvalidArgument("unknown update kind");
}

}  // namespace

Result<std::string> FormatRequest(const Request& request) {
  std::string out;
  switch (request.kind) {
    case Request::Kind::kListSessions:
      return std::string("sessions");
    case Request::Kind::kOpenSession:
      Append(out, "open ", request.session, ' ',
             api::BackendKindName(request.backend));
      return out;
    case Request::Kind::kCloseSession:
      Append(out, "close ", request.session);
      return out;
    case Request::Kind::kRegister: {
      if (!request.relation.has_value()) {
        return Status::InvalidArgument("register without relation");
      }
      Append(out, "register ", request.session, ' ');
      MAYWSD_RETURN_IF_ERROR(FormatRelation(*request.relation, out));
      return out;
    }
    case Request::Kind::kRun: {
      if (!request.plan.has_value()) {
        return Status::InvalidArgument("run without plan");
      }
      Append(out, "run ", request.session, ' ', request.target, ' ');
      MAYWSD_RETURN_IF_ERROR(FormatPlan(*request.plan, out));
      return out;
    }
    case Request::Kind::kApply: {
      if (!request.update.has_value()) {
        return Status::InvalidArgument("apply without update");
      }
      Append(out, "apply ", request.session, ' ');
      MAYWSD_RETURN_IF_ERROR(FormatUpdate(*request.update, out));
      return out;
    }
    case Request::Kind::kPossible:
      Append(out, "possible ", request.session, ' ', request.target);
      return out;
    case Request::Kind::kCertain:
      Append(out, "certain ", request.session, ' ', request.target);
      return out;
    case Request::Kind::kSnapshotRead:
      Append(out, "read ", request.session, ' ', request.target);
      return out;
    case Request::Kind::kConfidence: {
      if (request.tuple.empty()) {
        return Status::InvalidArgument("conf without tuple");
      }
      Append(out, "conf ", request.session, ' ', request.target, ' ');
      MAYWSD_RETURN_IF_ERROR(AppendWireTuple(request.tuple, out));
      return out;
    }
    case Request::Kind::kStats:
      Append(out, "stats ", request.session);
      return out;
  }
  return Status::InvalidArgument("unknown request kind");
}

/// Expected text of one answer cell plus its comma: census answers are
/// mostly one- and two-digit codes (2.2 chars a cell on serve_mixed's
/// rows). Wider answers outgrow the reservation a few times, each growth
/// doubling the buffer.
constexpr size_t kCellCharsEstimate = 3;

std::string FormatResponse(const Response& response) {
  if (!response.status.ok()) return "ERR " + response.status.ToString();
  std::string out = "OK";
  if (response.relation.has_value()) {
    const rel::Relation& r = *response.relation;
    const size_t rows = r.NumRows();
    const size_t arity = r.arity();
    out.reserve(16 + rows * (1 + arity * kCellCharsEstimate));
    Append(out, ' ', std::to_string(rows), " rows");
    const rel::Value* cell = r.data().data();
    for (size_t i = 0; i < rows; ++i) {
      out += '\n';
      for (size_t c = 0; c < arity; ++c, ++cell) {
        if (c != 0) out += ',';
        cell->AppendTo(out);
      }
    }
  } else if (response.number.has_value()) {
    out += ' ';
    rel::Value::Double(*response.number).AppendTo(out);
  } else if (!response.text.empty()) {
    Append(out, ' ', response.text);
  }
  return out;
}

}  // namespace maywsd::server
