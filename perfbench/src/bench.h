// Shared machinery of the perfbench workloads: run options, latency
// summaries, the metric report, output checks and the span tracer.
//
// Every number the benchmark reports is measured from outside the system,
// by timing calls into the public functions of one layer (census, core,
// rel, core/engine, api::Session, server, belief). Nothing here reaches
// into src/.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/session.h"

namespace perfbench {

/// The four backends, in the order every workload runs them.
inline constexpr std::array<const char*, 4> kBackends = {"wsd", "wsdt",
                                                         "uniform", "urel"};

/// How a workload pass spends its time.
enum class Mode {
  kMeasure,  ///< untraced closed loop: the end-to-end metrics
  kTrace,    ///< untraced half + traced half + layer probes: per-layer metrics
  kCompact,  ///< one traced round per backend + probes: per-layer metrics
             ///< of a layer the named workload does not exercise
};

struct Options {
  uint64_t seed = 1;
  double seconds = 10;
  Mode mode = Mode::kMeasure;
  /// Deliberately corrupt one answer before it is checked (self-test of
  /// the output checks; must make the run fail).
  bool corrupt = false;
};

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Closed-loop budget of one backend: whole rounds until the time share is
/// spent, and at least `min_rounds`; a compact pass runs exactly
/// `max_rounds`.
struct Budget {
  double seconds = 0;
  int min_rounds = 1;
  int max_rounds = 0;  ///< 0 = time-bounded

  bool Continue(int rounds_done, double elapsed) const {
    if (rounds_done < min_rounds) return true;
    if (max_rounds > 0) return rounds_done < max_rounds;
    return elapsed < seconds;
  }
};

/// Per-request latencies of one backend pass.
struct Latencies {
  std::vector<double> ms;
  double busy_s = 0;  ///< time spent inside requests (checks excluded)
  double wall_s = 0;  ///< wall time of the loop (multi-client workloads)
  std::vector<double> round_s;  ///< time inside requests, per round
  double round_start_s = 0;

  void Add(double millis) {
    ms.push_back(millis);
    busy_s += millis / 1e3;
  }
  /// Closes a round of a single-client loop (rounds have a fixed mix).
  void EndRound() {
    round_s.push_back(busy_s - round_start_s);
    round_start_s = busy_s;
  }
  double Mean() const;
};

/// Peak resident set size (VmHWM) of this process, in kB.
long PeakRssKb();

/// Linear-interpolated percentile (p in [0, 100]) of unsorted samples.
double Percentile(std::vector<double> v, double p);

/// Requests per second of a one-client loop whose rounds have a fixed mix:
/// the requests of a block of `rounds_per_block` consecutive rounds over
/// the mean time a block spent inside requests, taken over the middle half
/// of the blocks. A block is the smallest run of rounds with the
/// workload's full mix. The middle half, not the median block: on
/// belief_game's urel a block's time ranges over a factor of two and the
/// median of its nine blocks moved by about 12% from run to run; not all
/// blocks: one census uniform round slowed by the host cut a run's figure
/// by a third.
double BlockRate(const Latencies& lat, size_t rounds_per_block);

/// The tail percentile a backend reports: `preferred` when at least 10
/// samples lie beyond it, otherwise the highest of 50/75/90/95/99 that
/// has 10 beyond (50 when none has).
double TailPercentile(size_t samples, double preferred);

/// Metrics, checks and notes one run accumulates.
struct Report {
  struct Metric {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  /// Structural counters over fixed work (round 0 of each backend pass):
  /// they must repeat exactly across two runs at one seed.
  std::map<std::string, uint64_t> counters;
  std::vector<std::string> notes;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Largest peak RSS, in kB, of the processes the workload forked (0 when
  /// it forked none).
  long peak_rss_kb = 0;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Records one checked operation; `ok` false counts it as failed and
  /// keeps the first few explanations.
  void Check(bool ok, const std::string& what);
  /// Adds the end-to-end triple of one backend: `ops_per_s`, and the
  /// median and tail latency of `lat`.
  void AddEndToEnd(const std::string& backend, const Latencies& lat,
                   double ops_per_s, double preferred_tail);
};

/// Counters read at span and round boundaries (the SessionStats and
/// BeliefStats fields the per-layer metrics use; serve_mixed reads its
/// session counters through the protocol's `stats` verb).
struct Counters {
  uint64_t runs = 0, sharded_runs = 0, fallback_runs = 0, round_trips = 0;
  uint64_t forced_evals = 0, cow_breaks = 0;
  uint64_t forks = 0, successor_hits = 0, successor_misses = 0;
  uint64_t guard_materializations = 0, guard_shares = 0;

  static Counters Of(const maywsd::api::SessionStats& s);
  Counters operator-(const Counters& o) const;
  Counters& operator+=(const Counters& o);
};

/// Process-wide component-store counters (shared by every session).
Counters StoreCounters();

/// One traced span: a call into a layer's public function.
struct SpanRecord {
  const char* name = "";
  std::string tag;         ///< backend / query / request-kind label
  uint64_t request = 0;    ///< request id shared by a request's spans
  int64_t parent = -1;     ///< index of the enclosing span (same thread)
  double start = 0, end = 0;
  double child_s = 0;      ///< time covered by child spans
  bool has_delta = false;
  Counters delta;          ///< counter delta taken at the span boundaries

  double Seconds() const { return end - start; }
  double SelfSeconds() const { return end - start - child_s; }
};

/// In-memory span recorder. Disabled, a Span costs one relaxed load.
/// Spans live in per-thread buffers and are merged when the pass ends.
class Tracer {
 public:
  static void SetEnabled(bool on);
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }

  /// Starts a new request on the calling thread; later spans carry its id.
  static void BeginRequest();

  /// Merges and clears every thread's buffer.
  static std::vector<SpanRecord> Drain();

  /// RAII span around one call.
  class Span {
   public:
    Span(const char* name, std::string tag);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// Ends the span before scope exit (counters read after it do not
    /// count toward its time).
    void End();
    /// Attaches the counter delta of this call (also after End()).
    void SetDelta(const Counters& delta);

   private:
    int64_t index_ = -1;
    bool open_ = false;
  };

 private:
  static std::atomic<bool> enabled_;
};

/// Self and total time per (span name, tag), aggregated from spans.
struct SpanSummary {
  uint64_t count = 0;
  double total_s = 0;
  double self_s = 0;
  Counters delta;
  std::vector<double> ms;  ///< per-span durations
};
std::map<std::pair<std::string, std::string>, SpanSummary> Summarize(
    const std::vector<SpanRecord>& spans);

/// Prints the self-time table of a traced pass (one line per span name and
/// tag) to stdout and returns it as JSON for the trace file.
std::string SelfTimeTable(const std::string& workload,
                          const std::vector<SpanRecord>& spans);

/// Median of a small sample (0 for none).
double Median(std::vector<double> v);

/// Workload entry points. Each runs its backends one after another and
/// fills `report`; in kTrace/kCompact it also appends its spans to `trace`.
void RunCensusQuery(const Options& opt, Report& report,
                    std::vector<SpanRecord>& trace);
void RunServeMixed(const Options& opt, Report& report,
                   std::vector<SpanRecord>& trace);
void RunBeliefGame(const Options& opt, Report& report,
                   std::vector<SpanRecord>& trace);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
