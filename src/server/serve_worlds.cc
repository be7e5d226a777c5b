// serve_worlds: a line-protocol front end over WorldServer.
//
// Reads one request per line from stdin, writes one response per request
// to stdout (see protocol.h for the grammar). Blank lines and lines
// starting with '#' are skipped; "quit" / "exit" ends the loop.
//
//   $ serve_worlds
//   open s wsdt
//   register s R a,b 1,2 3,4
//   read s R
//
// With --script <file> the requests are read from the file instead and the
// process exits after the last one — non-zero as soon as a request fails
// to parse or execute, so examples and CI can drive the server
// non-interactively and assert on the outcome.
//
// Requests stream sequentially here — concurrent serving is exercised by
// WorldServer::ExecuteAll in bench/fig_serving.cc.

#include <fstream>
#include <iostream>
#include <istream>
#include <string>

#include "server/protocol.h"
#include "server/world_server.h"

namespace {

void PrintUsage() {
  std::cout << "usage: serve_worlds [--script FILE]\n"
               "  --script FILE  execute the requests in FILE and exit;\n"
               "                 non-zero on the first parse or request "
               "error\n";
}

/// Streams requests from `in` into `server`. With `fail_fast` (script
/// mode), the first parse error or non-OK response stops the stream with
/// exit code 1; interactively, errors are printed and the loop continues.
int RunStream(std::istream& in, maywsd::server::WorldServer& server,
              bool fail_fast) {
  std::string line;
  while (std::getline(in, line)) {
    size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    line = line.substr(first);
    if (line[0] == '#') continue;
    if (line == "quit" || line == "exit") break;
    auto request = maywsd::server::ParseRequest(line);
    if (!request.ok()) {
      std::cout << "ERR " << request.status().ToString() << "\n" << std::flush;
      if (fail_fast) {
        std::cerr << "script error at: " << line << "\n";
        return 1;
      }
      continue;
    }
    maywsd::server::Response response = server.Execute(request.value());
    std::cout << maywsd::server::FormatResponse(response) << "\n" << std::flush;
    if (fail_fast && !response.status.ok()) {
      std::cerr << "script error at: " << line << "\n";
      return 1;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string script;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--script=", 0) == 0) {
      script = arg.substr(9);
    } else if (arg == "--script" && i + 1 < argc) {
      script = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage();
      return 0;
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      PrintUsage();
      return 2;
    }
  }

  maywsd::server::WorldServer server;
  if (!script.empty()) {
    std::ifstream file(script);
    if (!file) {
      std::cerr << "cannot open script: " << script << "\n";
      return 2;
    }
    return RunStream(file, server, /*fail_fast=*/true);
  }
  return RunStream(std::cin, server, /*fail_fast=*/false);
}
