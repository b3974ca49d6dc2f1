#pragma once
// Shared plumbing of the repo benchmark (perfbench/README.md): run
// arguments, sample statistics, the span tracer, host probes, the
// fingerprint oracle and the result table that ends in the one-line
// JSON result.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "graph/dataset.hpp"
#include "model/model.hpp"
#include "service/inference_service.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double ms_since(Clock::time_point a) { return ms_between(a, Clock::now()); }

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string out_dir = ".";  // result and trace files go here
};

// ---- statistics -------------------------------------------------------------

/// Linear-interpolated percentile (p in [0, 100]); 0 for an empty sample.
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);

// ---- tracing ----------------------------------------------------------------

/// In-memory span recorder. Spans are kept until the run ends and then
/// written as Chrome Trace Event JSON (Perfetto opens it). It starts
/// disabled; a disabled tracer records nothing and begin() returns -1.
/// Toggle it only while no other thread records.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = -1.0;
    int parent = -1;
    std::uint64_t request = 0;
    std::uint64_t thread = 0;
    bool async = false;  // not call-scoped (a request's lifetime)
  };

  void set_enabled(bool on) { enabled_ = on; }

  int begin(const std::string& name, int parent = -1, std::uint64_t request = 0,
            bool async = false);
  /// A span with known endpoints (e.g. a request timed from its
  /// scheduled send time).
  int record(const std::string& name, Clock::time_point start, Clock::time_point end,
             int parent = -1, std::uint64_t request = 0, bool async = false);
  void end(int id);

  /// Span duration minus the part of its interval that child spans cover.
  std::vector<double> self_times_ms(const std::string& name) const;
  double self_time_ms(int id) const;
  double duration_ms(int id) const;
  std::size_t size() const;

  /// Write every finished span as Chrome Trace Event JSON.
  void write_chrome_json(const std::string& path) const;

 private:
  double now_us() const;
  double self_time_locked(std::size_t id) const;

  bool enabled_ = false;
  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<std::vector<int>> children_;
};

/// RAII span around one call.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const std::string& name, int parent = -1,
             std::uint64_t request = 0)
      : t_(t), id_(t.begin(name, parent, request)) {}
  ~ScopedSpan() { t_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& t_;
  int id_;
};

// ---- host -------------------------------------------------------------------

/// CPU time of this process (user + system), ms.
double process_cpu_ms();
/// Peak resident set (VmHWM), MiB.
double peak_rss_mb();

/// /proc/stat aggregate CPU counters; steal share between two snapshots.
struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuTicks read_cpu_ticks();
double steal_share(const CpuTicks& a, const CpuTicks& b);

int host_nproc();
bool lock_check_compiled();
bool ndebug_set();

// ---- oracle -----------------------------------------------------------------

/// The reference fingerprint: a plain compile + run_compiled with no
/// service, cache or pool in between (dataset tag stamped as the
/// service does).
std::uint64_t oracle_fingerprint(const dynasparse::GnnModel& model,
                                 const dynasparse::Dataset& ds,
                                 const dynasparse::EngineOptions& options = {});

/// "<DS>-<model>", e.g. "FL-sage".
std::string pair_name(const std::string& dataset_tag, dynasparse::GnnModelKind kind);

/// The eleven dataset/model pairs the three workloads send; per-pair
/// layer metrics exist for each.
const std::vector<std::string>& all_pairs();

// ---- accounting and results ----------------------------------------------

/// Requests of one phase: sent, answered correctly, failed (error or
/// refusal), unanswered, wrong fingerprint.
struct PhaseTally {
  std::string name;
  double rate_rps = 0.0;  // offered rate (open loop) or 0
  std::int64_t sent = 0;
  std::int64_t ok = 0;
  std::int64_t failed = 0;
  std::int64_t unanswered = 0;
  std::int64_t mismatched = 0;
  std::int64_t errors() const { return failed + unanswered + mismatched; }
};

/// Everything a run reports: the phase accounting, the metric table and
/// notes.
class Result {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  bool has(const std::string& name) const { return index_.count(name) != 0; }
  double get(const std::string& name) const;
  void note(const std::string& line) { notes_.push_back(line); }
  void phase(const PhaseTally& t) { phases_.push_back(t); }

  std::int64_t attempted() const;
  std::int64_t failed() const;
  bool correct() const { return failed() == 0 && incorrect_.empty(); }
  void mark_incorrect(const std::string& why) { incorrect_.push_back(why); }

  /// Print the phase accounting and the metric table (stdout).
  void print() const;
  /// Write every row, phase and note as JSON to `path`; run.py turns it
  /// into the one-line result with the names BENCHMARK.json lists.
  void write_json(const std::string& path, const Args& args) const;

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Row> rows_;
  std::map<std::string, std::size_t> index_;
  std::vector<PhaseTally> phases_;
  std::vector<std::string> notes_;
  std::vector<std::string> incorrect_;
};

/// Counter deltas of one service over a phase.
struct ServiceCounters {
  dynasparse::CacheStats cache;
  dynasparse::TilePoolStats pool;
  dynasparse::RobustnessStats robust;
  dynasparse::AdmissionStats admission;
  dynasparse::MemoryBudgetStats budget;
  std::int64_t pool_jobs = 0, pool_chunks = 0, pool_stolen = 0;
};
ServiceCounters read_counters(const dynasparse::InferenceService& svc);
/// Report every service/matrix/util counter of `after - before` as layer
/// metrics, each ratio next to its numerator and denominator.
void report_counters(Result& r, const ServiceCounters& before,
                     const ServiceCounters& after);

/// Host descriptor and noise flags for one run: nproc, lock-order
/// checker, NDEBUG, CPU-steal share over the run and generator lateness.
void report_host(Result& r, const CpuTicks& start, const CpuTicks& end,
                 double gen_lag_p99_ms);

}  // namespace perfbench
