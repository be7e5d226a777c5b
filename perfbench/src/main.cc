// perfbench: the repository benchmark's binary.
//
//   perfbench --workload census_query|serve_mixed|belief_game --seed N
//             --seconds S --trace 0|1 --out RESULT.json [--spans SPANS.tsv]
//             [--corrupt]
//
// --trace 0 runs the workload's closed loops untraced and reports the
// end-to-end metrics. --trace 1 runs it with alternating untraced and
// traced rounds and reports the per-layer metrics; the layers the named
// workload does not exercise are measured by one compact traced round per
// backend of the workload that does. The result file holds the metrics,
// the structural counters, the checks, the environment and the self-time
// table; perfbench/run.py turns it into the benchmark's result line.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

using Runner = void (*)(const Options&, Report&, std::vector<SpanRecord>&);

struct Workload {
  const char* name;
  Runner run;
  /// Per-layer metric prefixes this workload is the home of: measured here
  /// even when another workload is the one traced.
  std::vector<std::string> home;
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> w = {
      {"census_query", RunCensusQuery,
       {"census.", "core.chase_s", "core.open_s.", "engine.eval_ms.",
        "engine.fanout_ratio.", "api.run_overhead_ms.", "api.answer_ms.",
        "rel."}},
      {"serve_mixed", RunServeMixed,
       {"api.snapshot_pin_us.", "api.answer_cache_hit_ratio.",
        "api.reader_blocked_waits.", "server."}},
      {"belief_game", RunBeliefGame,
       {"engine.guard_share_ratio.", "belief."}},
  };
  return w;
}

bool HasPrefix(const std::string& s, const std::vector<std::string>& ps) {
  for (const std::string& p : ps) {
    if (s.rfind(p, 0) == 0) return true;
  }
  return false;
}

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

void WriteSpans(const std::string& path, const std::vector<SpanRecord>& spans) {
  std::ofstream f(path);
  f.setf(std::ios::fixed);
  f.precision(9);
  f << "name\ttag\trequest\tparent\tstart_s\tend_s\tself_s\n";
  for (const SpanRecord& s : spans) {
    f << s.name << '\t' << s.tag << '\t' << s.request << '\t' << s.parent
      << '\t' << s.start << '\t' << s.end << '\t' << s.SelfSeconds() << '\n';
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload census_query|serve_mixed|"
               "belief_game --seed N --seconds S --trace 0|1 --out PATH "
               "[--spans PATH] [--corrupt]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
  std::fprintf(stderr,
               "perfbench: refusing to report numbers from a build without "
               "optimisation (build type %s)\n",
               PERFBENCH_BUILD_TYPE);
  return 2;
#endif
  std::string workload, out_path, spans_path;
  Options opt;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (a == "--workload") {
      workload = value();
    } else if (a == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::atof(value().c_str());
    } else if (a == "--trace") {
      trace = value() == "1";
    } else if (a == "--out") {
      out_path = value();
    } else if (a == "--spans") {
      spans_path = value();
    } else if (a == "--corrupt") {
      opt.corrupt = true;
    } else {
      return Usage();
    }
  }
  const Workload* named = nullptr;
  for (const Workload& w : Workloads()) {
    if (workload == w.name) named = &w;
  }
  if (named == nullptr || out_path.empty() || !(opt.seconds > 0)) {
    return Usage();
  }

  Report report;
  std::vector<SpanRecord> spans;
  std::string tables;
  opt.mode = trace ? Mode::kTrace : Mode::kMeasure;
  named->run(opt, report, spans);
  if (trace) {
    tables = SelfTimeTable(named->name, spans);
    for (const Workload& w : Workloads()) {
      if (&w == named) continue;
      Options compact = opt;
      compact.mode = Mode::kCompact;
      compact.corrupt = false;
      Report other;
      std::vector<SpanRecord> other_spans;
      w.run(compact, other, other_spans);
      for (const auto& [name, m] : other.metrics) {
        if (HasPrefix(name, w.home)) report.metrics[name] = m;
      }
      report.counters.insert(other.counters.begin(), other.counters.end());
      report.attempted += other.attempted;
      report.failed += other.failed;
      report.notes.insert(report.notes.end(), other.notes.begin(),
                          other.notes.end());
      tables += ", " + SelfTimeTable(std::string(w.name) + " (compact)",
                                     other_spans);
      report.notes.push_back(std::string("home metrics of ") + w.name +
                             " measured by one compact traced round per "
                             "backend");
    }
    if (!spans_path.empty()) WriteSpans(spans_path, spans);
  } else {
    // The largest peak of this process and any it forked.
    long peak_kb = std::max(PeakRssKb(), report.peak_rss_kb);
    report.Set("peak_rss_mb", double(peak_kb) / 1024.0, "MB");
  }

  std::ofstream f(out_path);
  f.precision(10);
  f << "{\"workload\": \"" << named->name << "\", \"seed\": " << opt.seed
    << ", \"seconds\": " << opt.seconds << ", \"trace\": " << (trace ? 1 : 0)
    << ",\n \"env\": {\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
    << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
    << ", \"compiler\": \"" << Escape(PERFBENCH_COMPILER)
    << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
    << "\", \"optimized\": true},\n \"attempted\": " << report.attempted
    << ", \"failed\": " << report.failed << ",\n \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : report.metrics) {
    // A non-finite value is written as null, which run.py rejects.
    f << (first ? "" : ", ") << "\n  \"" << name << "\": {\"value\": ";
    if (std::isfinite(m.value)) {
      f << m.value;
    } else {
      f << "null";
    }
    f << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  f << "},\n \"counters\": {";
  first = true;
  for (const auto& [name, v] : report.counters) {
    f << (first ? "" : ", ") << "\"" << name << "\": " << v;
    first = false;
  }
  f << "},\n \"notes\": [";
  first = true;
  for (const std::string& n : report.notes) {
    f << (first ? "" : ", ") << "\n  \"" << Escape(n) << "\"";
    first = false;
  }
  f << "],\n \"self_time\": [" << tables << "]}\n";
  f.close();
  return report.failed == 0 ? 0 : 1;
}
