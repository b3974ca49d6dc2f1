#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>

#include "util/parallel.hpp"

namespace perfbench {

using namespace dynasparse;

// ---- statistics -------------------------------------------------------------

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

// ---- tracing ----------------------------------------------------------------

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
}

int Tracer::begin(const std::string& name, int parent, std::uint64_t request,
                  bool async) {
  if (!enabled_) return -1;
  const double t = now_us();
  Span s;
  s.name = name;
  s.start_us = t;
  s.parent = parent;
  s.request = request;
  s.thread = std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000;
  s.async = async;
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(std::move(s));
  children_.emplace_back();
  const int id = static_cast<int>(spans_.size() - 1);
  if (parent >= 0) children_[static_cast<std::size_t>(parent)].push_back(id);
  return id;
}

int Tracer::record(const std::string& name, Clock::time_point start,
                   Clock::time_point end_tp, int parent, std::uint64_t request,
                   bool async) {
  if (!enabled_) return -1;
  const int id = begin(name, parent, request, async);
  std::lock_guard<std::mutex> lk(mu_);
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.start_us = std::chrono::duration<double, std::micro>(start - origin_).count();
  s.end_us = std::chrono::duration<double, std::micro>(end_tp - origin_).count();
  return id;
}

void Tracer::end(int id) {
  if (id < 0) return;
  const double t = now_us();
  std::lock_guard<std::mutex> lk(mu_);
  spans_[static_cast<std::size_t>(id)].end_us = t;
}

double Tracer::self_time_locked(std::size_t id) const {
  const Span& s = spans_[id];
  if (s.end_us < s.start_us) return 0.0;
  // Union of the children's intervals, clipped to the parent's.
  std::vector<std::pair<double, double>> iv;
  for (int c : children_[id]) {
    const Span& k = spans_[static_cast<std::size_t>(c)];
    if (k.end_us < k.start_us) continue;
    const double a = std::max(k.start_us, s.start_us);
    const double b = std::min(k.end_us, s.end_us);
    if (b > a) iv.emplace_back(a, b);
  }
  std::sort(iv.begin(), iv.end());
  double covered = 0.0, cur_a = 0.0, cur_b = -1.0;
  for (const auto& [a, b] : iv) {
    if (a > cur_b) {
      if (cur_b > cur_a) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
    } else {
      cur_b = std::max(cur_b, b);
    }
  }
  if (cur_b > cur_a) covered += cur_b - cur_a;
  return (s.end_us - s.start_us - covered) / 1000.0;
}

double Tracer::self_time_ms(int id) const {
  if (id < 0) return 0.0;
  std::lock_guard<std::mutex> lk(mu_);
  return self_time_locked(static_cast<std::size_t>(id));
}

double Tracer::duration_ms(int id) const {
  if (id < 0) return 0.0;
  std::lock_guard<std::mutex> lk(mu_);
  const Span& s = spans_[static_cast<std::size_t>(id)];
  return s.end_us < s.start_us ? 0.0 : (s.end_us - s.start_us) / 1000.0;
}

std::vector<double> Tracer::self_times_ms(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].name == name && spans_[i].end_us >= spans_[i].start_us)
      out.push_back(self_time_locked(i));
  return out;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_.size();
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Tracer::write_chrome_json(const std::string& path) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::ofstream f(path);
  f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  auto sep = [&] {
    if (!first) f << ",\n";
    first = false;
  };
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_us < s.start_us) continue;
    std::ostringstream args;
    args << "{\"span\":" << i << ",\"parent\":" << s.parent
         << ",\"request\":" << s.request << ",\"self_ms\":"
         << json_number(self_time_locked(i)) << "}";
    if (s.async) {
      // Request lifetimes overlap on one thread; async events keep them
      // apart in the viewer.
      sep();
      f << "{\"name\":\"" << json_escape(s.name) << "\",\"cat\":\"request\",\"ph\":\"b\""
        << ",\"id\":" << i << ",\"pid\":1,\"tid\":" << s.thread
        << ",\"ts\":" << json_number(s.start_us) << ",\"args\":" << args.str() << "}";
      sep();
      f << "{\"name\":\"" << json_escape(s.name) << "\",\"cat\":\"request\",\"ph\":\"e\""
        << ",\"id\":" << i << ",\"pid\":1,\"tid\":" << s.thread
        << ",\"ts\":" << json_number(s.end_us) << "}";
    } else {
      sep();
      f << "{\"name\":\"" << json_escape(s.name) << "\",\"cat\":\"layer\",\"ph\":\"X\""
        << ",\"pid\":1,\"tid\":" << s.thread << ",\"ts\":" << json_number(s.start_us)
        << ",\"dur\":" << json_number(s.end_us - s.start_us)
        << ",\"args\":" << args.str() << "}";
    }
  }
  f << "\n]}\n";
}

// ---- host -------------------------------------------------------------------

double process_cpu_ms() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 + static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kb = 0.0;
      is >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

CpuTicks read_cpu_ticks() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  f >> cpu;
  CpuTicks t;
  std::uint64_t v = 0;
  for (int i = 0; i < 8 && (f >> v); ++i) {  // user..steal
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double steal_share(const CpuTicks& a, const CpuTicks& b) {
  if (b.total <= a.total) return 0.0;
  return static_cast<double>(b.steal - a.steal) / static_cast<double>(b.total - a.total);
}

int host_nproc() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

bool lock_check_compiled() {
#ifdef DYNASPARSE_LOCK_CHECK
  return true;
#else
  return false;
#endif
}

bool ndebug_set() {
#ifdef NDEBUG
  return true;
#else
  return false;
#endif
}

// ---- oracle -----------------------------------------------------------------

std::uint64_t oracle_fingerprint(const GnnModel& model, const Dataset& ds,
                                 const EngineOptions& options) {
  const CompiledProgram prog = compile(model, ds, options.config);
  InferenceReport rep = run_compiled(prog, options.runtime);
  rep.dataset_tag = ds.spec.tag;
  return rep.deterministic_fingerprint();
}

std::string pair_name(const std::string& dataset_tag, GnnModelKind kind) {
  switch (kind) {
    case GnnModelKind::kGcn: return dataset_tag + "-gcn";
    case GnnModelKind::kSage: return dataset_tag + "-sage";
    case GnnModelKind::kGin: return dataset_tag + "-gin";
    case GnnModelKind::kSgc: return dataset_tag + "-sgc";
  }
  return dataset_tag + "-" + model_kind_name(kind);
}

const std::vector<std::string>& all_pairs() {
  static const std::vector<std::string> pairs = {
      "CI-gcn", "CO-gcn", "PU-gcn", "CI-sage", "CO-sage", "FL-gcn",
      "FL-sage", "RE-gcn", "NE-sage", "PU-sage", "RE-sage"};
  return pairs;
}

// ---- results ----------------------------------------------------------------

void Result::set(const std::string& name, double value, const std::string& unit) {
  auto it = index_.find(name);
  if (it != index_.end()) {
    rows_[it->second] = {name, value, unit};
    return;
  }
  index_[name] = rows_.size();
  rows_.push_back({name, value, unit});
}

double Result::get(const std::string& name) const {
  auto it = index_.find(name);
  return it == index_.end() ? 0.0 : rows_[it->second].value;
}

std::int64_t Result::attempted() const {
  std::int64_t n = 0;
  for (const PhaseTally& t : phases_) n += t.sent;
  return n;
}

std::int64_t Result::failed() const {
  std::int64_t n = 0;
  for (const PhaseTally& t : phases_) n += t.errors();
  return n;
}

void Result::print() const {
  std::printf("%-34s %9s %7s %7s %7s %10s %10s\n", "phase", "rate/s", "sent", "ok",
              "failed", "unanswered", "mismatched");
  for (const PhaseTally& t : phases_)
    std::printf("%-34s %9.1f %7lld %7lld %7lld %10lld %10lld\n", t.name.c_str(),
                t.rate_rps, static_cast<long long>(t.sent), static_cast<long long>(t.ok),
                static_cast<long long>(t.failed), static_cast<long long>(t.unanswered),
                static_cast<long long>(t.mismatched));
  for (const Row& r : rows_)
    std::printf("%-44s %16.6g %s\n", r.name.c_str(), r.value, r.unit.c_str());
  for (const std::string& n : notes_) std::printf("note: %s\n", n.c_str());
  for (const std::string& n : incorrect_) std::printf("INCORRECT: %s\n", n.c_str());
  std::fflush(stdout);
}

void Result::write_json(const std::string& path, const Args& args) const {
  std::ofstream f(path);
  f << "{\"workload\":\"" << json_escape(args.workload) << "\",\"seed\":" << args.seed
    << ",\"seconds\":" << json_number(args.seconds)
    << ",\"trace\":" << (args.trace ? "true" : "false")
    << ",\"correct\":" << (correct() ? "true" : "false")
    << ",\"attempted\":" << attempted() << ",\"failed\":" << failed() << ",\"metrics\":{";
  for (std::size_t i = 0; i < rows_.size(); ++i)
    f << (i ? "," : "") << "\"" << json_escape(rows_[i].name)
      << "\":{\"value\":" << json_number(rows_[i].value) << ",\"unit\":\""
      << json_escape(rows_[i].unit) << "\"}";
  f << "},\"phases\":[";
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    const PhaseTally& t = phases_[i];
    f << (i ? "," : "") << "{\"name\":\"" << json_escape(t.name)
      << "\",\"rate_rps\":" << json_number(t.rate_rps) << ",\"sent\":" << t.sent
      << ",\"ok\":" << t.ok << ",\"failed\":" << t.failed
      << ",\"unanswered\":" << t.unanswered << ",\"mismatched\":" << t.mismatched << "}";
  }
  f << "],\"notes\":[";
  for (std::size_t i = 0; i < notes_.size(); ++i)
    f << (i ? "," : "") << "\"" << json_escape(notes_[i]) << "\"";
  f << "],\"incorrect\":[";
  for (std::size_t i = 0; i < incorrect_.size(); ++i)
    f << (i ? "," : "") << "\"" << json_escape(incorrect_[i]) << "\"";
  f << "]}\n";
}

// ---- counters ---------------------------------------------------------------

ServiceCounters read_counters(const InferenceService& svc) {
  ServiceCounters c;
  c.cache = svc.cache_stats();
  c.pool = svc.tile_pool_stats();
  c.robust = svc.robustness_stats();
  c.admission = svc.admission_stats();
  c.budget = svc.memory_budget_stats();
  const PoolStats p = parallel_pool_stats();
  c.pool_jobs = p.jobs;
  c.pool_chunks = p.chunks;
  c.pool_stolen = p.chunks_stolen;
  return c;
}

namespace {

double ratio(std::int64_t num, std::int64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

}  // namespace

void report_counters(Result& r, const ServiceCounters& a, const ServiceCounters& b) {
  const auto d = [](std::int64_t before, std::int64_t after) {
    return static_cast<double>(after - before);
  };
  const std::int64_t ch = b.cache.hits - a.cache.hits;
  const std::int64_t cm = b.cache.misses - a.cache.misses;
  r.set("service.compile_cache.hit_ratio", ratio(ch, ch + cm), "ratio");
  r.set("service.compile_cache.hits", static_cast<double>(ch), "count");
  r.set("service.compile_cache.misses", static_cast<double>(cm), "count");
  r.set("service.compile_cache.evictions", d(a.cache.evictions, b.cache.evictions), "count");
  r.set("service.compile_cache.bytes", static_cast<double>(b.cache.bytes) / 1048576.0, "MiB");
  const std::int64_t failures =
      (b.robust.execution_failures - a.robust.execution_failures) +
      (b.robust.expired_in_queue - a.robust.expired_in_queue) +
      (b.robust.expired_running - a.robust.expired_running) +
      (b.robust.cancelled - a.robust.cancelled);
  r.set("service.failures", static_cast<double>(failures), "count");
  r.set("service.admission.rejected", d(a.admission.rejected, b.admission.rejected), "count");
  r.set("service.admission.shed", d(a.admission.shed, b.admission.shed), "count");

  const std::int64_t ph = b.pool.hits - a.pool.hits;
  const std::int64_t pm = b.pool.misses - a.pool.misses;
  r.set("matrix.tile_pool.hit_ratio", ratio(ph, ph + pm), "ratio");
  r.set("matrix.tile_pool.hits", static_cast<double>(ph), "count");
  r.set("matrix.tile_pool.misses", static_cast<double>(pm), "count");
  r.set("matrix.tile_pool.bytes", static_cast<double>(b.pool.bytes) / 1048576.0, "MiB");
  r.set("matrix.tile_pool.shared_refs", static_cast<double>(b.pool.shared_refs), "count");

  const std::int64_t chunks = b.pool_chunks - a.pool_chunks;
  const std::int64_t stolen = b.pool_stolen - a.pool_stolen;
  r.set("util.pool.steal_ratio", ratio(stolen, chunks), "ratio");
  r.set("util.pool.chunks_stolen", static_cast<double>(stolen), "count");
  r.set("util.pool.chunks", static_cast<double>(chunks), "count");
  r.set("util.pool.jobs", d(a.pool_jobs, b.pool_jobs), "count");
  r.set("util.memory_budget.high_water_mb",
        static_cast<double>(b.budget.high_water) / 1048576.0, "MiB");
}

void report_host(Result& r, const CpuTicks& start, const CpuTicks& end,
                 double gen_lag_p99_ms) {
  const double steal = steal_share(start, end);
  r.set("host.nproc", host_nproc(), "count");
  r.set("host.lock_check", lock_check_compiled() ? 1.0 : 0.0, "flag");
  r.set("host.ndebug", ndebug_set() ? 1.0 : 0.0, "flag");
  r.set("host.steal_share", steal, "ratio");
  // A run is suspect when another tenant took a noticeable share of the
  // CPUs, or the generator fell behind its own schedule.
  const bool suspect = steal > 0.05 || gen_lag_p99_ms > 10.0;
  r.set("host.suspect", suspect ? 1.0 : 0.0, "flag");
  if (suspect) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "run is suspect: CPU steal %.3f (limit 0.05), generator lag p99 "
                  "%.2f ms (limit 10)",
                  steal, gen_lag_p99_ms);
    r.note(buf);
  }
}

}  // namespace perfbench
