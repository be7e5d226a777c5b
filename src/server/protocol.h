// The serve_worlds line protocol: one request per line, space-separated
// tokens, comma-separated tuples. Values parse as integers when the whole
// token is one, as strings otherwise. Comparison operators spell as
// = != <> < <= > >=.
//
// Grammar (sid = session id, rel = relation name):
//   open <sid> <wsd|wsdt|uniform|urel>
//   close <sid>
//   sessions
//   register <sid> <rel> <attr,attr,...> [<v,v,...> ...]
//   run <sid> <out> scan <rel>
//   run <sid> <out> select <rel> <attr> <op> <value>
//   run <sid> <out> project <rel> <attr,attr,...>
//   apply <sid> insert <rel> <attr,attr,...> <v,v,...> [<v,v,...> ...]
//   apply <sid> delete <rel> <attr> <op> <value>
//   apply <sid> modify <rel> <attr> <op> <value> set <attr>=<value>[,...]
//   possible <sid> <rel>
//   certain <sid> <rel>
//   conf <sid> <rel> <v,v,...>
//   read <sid> <rel>           (snapshot read: answers from a pinned view)
//   stats <sid>
//
// The grammar covers the single-operator plans a REPL needs; programs
// drive WorldServer::Execute directly with arbitrary rel::Plans.
//
// Tokens split on runs of the whitespace `operator>>` skips in the C
// locale (space, \t, \n, \v, \f, \r). Request values are unquoted: a
// string value cannot contain whitespace or commas, cannot be empty, and
// cannot spell an integer (strtoll's grammar: optional sign, digits).
//
// Responses (FormatResponse):
//   OK [<text>]                  acknowledgments, lists, stats
//   OK <number>                  conf: a double as printf's "%.6g"
//   OK <n> rows                  a relation, then one line per row:
//   <v>,<v>,...                    cells comma-joined, no trailing newline
//   ERR <code>: <message>        any failure
// Answer cells spell as Value::AppendTo writes them: ints in decimal,
// strings single-quoted ('x'), ⊥ as U+22A5 (UTF-8), ? as itself, doubles
// as "%.6g" (0.1, 1e-05, 1e+21).

#ifndef MAYWSD_SERVER_PROTOCOL_H_
#define MAYWSD_SERVER_PROTOCOL_H_

#include <string>

#include "common/status.h"
#include "server/world_server.h"

namespace maywsd::server {

/// Parses one line into a Request; InvalidArgument names the offending
/// token. Blank lines and `#` comments are the caller's job to skip.
Result<Request> ParseRequest(const std::string& line);

/// Renders a Request back to its canonical protocol line — the inverse of
/// ParseRequest over its canonical output: Parse(Format(r)) reproduces r,
/// and Format(Parse(line)) == line whenever `line` uses canonical operator
/// spellings (`!=` for kNe) and single spacing. InvalidArgument when the
/// request cannot be expressed in the grammar (plans beyond
/// scan/select/project, values whose text would not re-tokenize — embedded
/// whitespace or commas).
Result<std::string> FormatRequest(const Request& request);

/// Renders a Response for the wire: "OK" / "OK <payload>" on one or more
/// lines (relations print one row per line), "ERR <code>: <message>" on
/// failure. The whole answer is written into one string, reserved from
/// the relation's row count and arity.
std::string FormatResponse(const Response& response);

}  // namespace maywsd::server

#endif  // MAYWSD_SERVER_PROTOCOL_H_
