// Service throughput bench: replay request streams through the
// InferenceService and compare against the pre-service pattern — a
// sequential loop that compiles and executes every request from scratch.
// Scenarios:
//   1. 16-request mixed stream, warm compilation cache vs sequential
//      uncached (ISSUE 2 acceptance: >=2x, bit-identical reports).
//   2. Lone big request, serial-per-worker vs shared work-stealing pool
//      (ISSUE 3).
//   3. Repeat-heavy 32-request stream (75% repeats of 8 unique contents)
//      with result memoization on vs off (ISSUE 4 acceptance: >=2x, every
//      memoized report bit-identical to the cold-path report).
//   4. Admission-control saturation: a 16-request burst against a
//      2-worker service with queue depth 3 under each policy
//      (block/reject/shed) — every submit must resolve (report or
//      admission rejection), and accepted + refused must account for the
//      whole burst.
//   5. Deadline-heavy burst (ISSUE 6): a slow head request pins the lone
//      worker while 8 one-millisecond-deadline victims queue behind it
//      (queue.delay armed so expiry at dequeue is structural, not a timing
//      race). Gate: every victim resolves as DeadlineExceededError counted
//      in expired_in_queue, and the compile-miss count proves none of them
//      ever reached the compiler. Plus the unarmed fault-site overhead
//      gate: fault_point() on a disarmed injector, measured over 20M
//      calls, must cost <1% of mean per-request service latency even at
//      10k calls per request.
//
// The mixed stream is the synthetic serving mix of request_stream.hpp
// (GCN over CI/CO/PU/FL plus GraphSAGE over CI/CO, cycled). Every service
// report is checked bit-identical to its reference via
// InferenceReport::deterministic_fingerprint(). Results land in
// BENCH_pr2.json; the exit code asserts every scenario's acceptance.
//
//   service_throughput [--seed S] [--reps R] [--requests N] [--out PATH]

#include <cstring>
#include <mutex>
#include <fstream>
#include <vector>

#include "bench_common.hpp"
#include "service/request_stream.hpp"
#include "util/fault_injection.hpp"
#include "util/ordered_mutex.hpp"
#include "util/parallel.hpp"
#include "util/strict_parse.hpp"

using namespace dynasparse;
using bench::JsonWriter;

namespace {

struct RunResult {
  double wall_ms = 0.0;
  std::vector<InferenceReport> reports;
};

/// The baseline: what callers did before the service existed — compile
/// every request, run it, drop the program.
RunResult run_sequential_uncached(const std::vector<ServiceRequest>& pool) {
  RunResult r;
  Stopwatch sw;
  for (const ServiceRequest& req : pool) {
    CompiledProgram prog = compile(*req.model, *req.dataset, req.options.config);
    InferenceReport rep = run_compiled(prog, req.options.runtime);
    rep.dataset_tag = req.dataset->spec.tag;
    r.reports.push_back(std::move(rep));
  }
  r.wall_ms = sw.elapsed_ms();
  return r;
}

RunResult run_service_warm(const std::vector<ServiceRequest>& pool,
                           InferenceService& service) {
  // Warm the compilation cache: every unique request content compiles once
  // outside the timed region (the steady-state of a serving process).
  for (const ServiceRequest& req : pool)
    service.cache().get_or_compile(*req.model, *req.dataset, req.options.config);

  RunResult r;
  Stopwatch sw;
  std::vector<RequestId> ids;
  ids.reserve(pool.size());
  for (const ServiceRequest& req : pool) ids.push_back(service.submit(req));
  for (RequestId id : ids) r.reports.push_back(service.wait(id));
  r.wall_ms = sw.elapsed_ms();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 2023;
  int reps = 3, requests = 16;
  const char* out_path = "BENCH_pr2.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc)
      seed = strict_stoull(argv[++i]);
    else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc)
      reps = strict_stoi(argv[++i]);
    else if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc)
      requests = strict_stoi(argv[++i]);
    else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
      out_path = argv[++i];
  }

  std::vector<StreamRequestSpec> specs = synthetic_stream(requests, seed);
  std::vector<ServiceRequest> pool;
  pool.reserve(specs.size());
  for (const StreamRequestSpec& spec : specs) pool.push_back(materialize_request(spec));
  std::printf("stream: %zu requests over the synthetic serving mix\n", pool.size());

  // Best-of-reps for both sides; fingerprints checked on every rep.
  double seq_best = -1.0, svc_best = -1.0;
  std::vector<InferenceReport> seq_reports, svc_reports;
  CacheStats cache_stats;
  bool all_identical = true;
  for (int rep = 0; rep < reps; ++rep) {
    RunResult seq = run_sequential_uncached(pool);
    ServiceOptions opts;
    opts.cache_capacity = pool.size();
    InferenceService service(opts);
    RunResult svc = run_service_warm(pool, service);
    for (std::size_t i = 0; i < pool.size(); ++i)
      if (seq.reports[i].deterministic_fingerprint() !=
          svc.reports[i].deterministic_fingerprint())
        all_identical = false;
    if (seq_best < 0.0 || seq.wall_ms < seq_best) seq_best = seq.wall_ms;
    if (svc_best < 0.0 || svc.wall_ms < svc_best) svc_best = svc.wall_ms;
    if (rep == 0) {
      seq_reports = std::move(seq.reports);
      svc_reports = std::move(svc.reports);
      cache_stats = service.cache_stats();
    }
    std::printf("rep %d: sequential %.1f ms, service (warm cache) %.1f ms\n", rep,
                seq.wall_ms, svc.wall_ms);
  }

  // ---- Lone-big-request scenario (ISSUE 3): a single large request on an
  // otherwise idle service. Before the work-stealing pool this was pinned
  // to one worker thread; with intra_op_threads=0 its parallel loops fan
  // out across the shared pool. Fingerprints must agree either way.
  double lone_serial_ms = -1.0, lone_shared_ms = -1.0;
  bool lone_identical = true;
  {
    StreamRequestSpec big_spec;
    big_spec.dataset = "PU";
    big_spec.model = GnnModelKind::kGcn;
    big_spec.seed = seed;
    ServiceRequest big = materialize_request(big_spec);
    std::uint64_t lone_fp = 0;
    for (int intra : {1, 0}) {
      ServiceOptions opts;
      opts.workers = 4;
      opts.cache_capacity = 1;
      opts.intra_op_threads = intra;
      InferenceService service(opts);
      service.cache().get_or_compile(*big.model, *big.dataset, big.options.config);
      double best = -1.0;
      for (int rep = 0; rep < reps; ++rep) {
        Stopwatch sw;
        InferenceReport rep_out = service.wait(service.submit(big));
        double ms = sw.elapsed_ms();
        if (best < 0.0 || ms < best) best = ms;
        if (lone_fp == 0)
          lone_fp = rep_out.deterministic_fingerprint();
        else if (rep_out.deterministic_fingerprint() != lone_fp)
          lone_identical = false;
      }
      (intra == 1 ? lone_serial_ms : lone_shared_ms) = best;
    }
    std::printf(
        "lone big request (PU): intra_op=1 %.1f ms, shared pool %.1f ms "
        "(%.2fx), bit-identical: %s\n",
        lone_serial_ms, lone_shared_ms, lone_serial_ms / lone_shared_ms,
        lone_identical ? "yes" : "NO");
    if (!lone_identical) all_identical = false;
  }

  // ---- Repeat-heavy memoization scenario (ISSUE 4): 32 requests over 8
  // unique contents (75% repeats), round-robin order, compilation cache
  // warm on both sides so the delta isolates result memoization. The
  // memoized side executes each unique content once and answers the other
  // 24 requests from the ResultCache; every memoized report must be
  // bit-identical (deterministic_fingerprint) to the cold-path report.
  double memo_off_best = -1.0, memo_on_best = -1.0;
  bool memo_identical = true;
  std::int64_t memo_hits = 0, memo_misses = 0;
  std::size_t memo_requests = 0;
  {
    std::vector<StreamRequestSpec> uniq = synthetic_stream(8, seed + 1);
    std::vector<ServiceRequest> uniq_pool;
    for (const StreamRequestSpec& spec : uniq)
      uniq_pool.push_back(materialize_request(spec));
    std::vector<const ServiceRequest*> stream;
    for (int round = 0; round < 4; ++round)
      for (const ServiceRequest& req : uniq_pool) stream.push_back(&req);
    memo_requests = stream.size();

    struct MemoRun {
      double wall_ms = 0.0;
      std::vector<InferenceReport> reports;
      ResultCacheStats rcs;
    };
    auto run_stream = [&](std::size_t memo_capacity) {
      ServiceOptions opts;
      opts.workers = 4;
      opts.cache_capacity = uniq_pool.size();
      opts.result_cache_capacity = memo_capacity;
      InferenceService service(opts);
      for (const ServiceRequest& req : uniq_pool)
        service.cache().get_or_compile(*req.model, *req.dataset,
                                       req.options.config);
      MemoRun r;
      Stopwatch sw;
      std::vector<RequestId> ids;
      for (const ServiceRequest* req : stream) ids.push_back(service.submit(*req));
      for (RequestId id : ids) r.reports.push_back(service.wait(id));
      r.wall_ms = sw.elapsed_ms();
      r.rcs = service.result_cache_stats();
      return r;
    };

    for (int rep = 0; rep < reps; ++rep) {
      MemoRun off = run_stream(0);
      MemoRun on = run_stream(stream.size());
      for (std::size_t i = 0; i < stream.size(); ++i)
        if (off.reports[i].deterministic_fingerprint() !=
            on.reports[i].deterministic_fingerprint())
          memo_identical = false;
      if (memo_off_best < 0.0 || off.wall_ms < memo_off_best)
        memo_off_best = off.wall_ms;
      if (memo_on_best < 0.0 || on.wall_ms < memo_on_best)
        memo_on_best = on.wall_ms;
      if (rep == 0) {
        memo_hits = on.rcs.hits;
        memo_misses = on.rcs.misses;
      }
    }
    // The synthetic roster can repeat contents within the 8 specs, so the
    // true unique count is what the result cache missed on.
    std::printf(
        "repeat-heavy stream (%zu requests, %lld unique contents): memoize "
        "off %.1f ms, on %.1f ms (%.2fx), result cache %lld hits / %lld "
        "misses, bit-identical: %s\n",
        memo_requests, static_cast<long long>(memo_misses), memo_off_best,
        memo_on_best, memo_off_best / memo_on_best,
        static_cast<long long>(memo_hits), static_cast<long long>(memo_misses),
        memo_identical ? "yes" : "NO");
  }
  double memo_speedup = memo_off_best / memo_on_best;
  bool memo_ok = memo_identical && memo_speedup >= 2.0 && memo_hits > 0;
  if (!memo_identical) all_identical = false;

  // ---- Admission-control saturation scenario (ISSUE 4): burst-submit 16
  // cheap requests against 2 workers and queue depth 3 under each policy.
  // Every submit must resolve — a report, or a clean admission rejection —
  // and the counts must cover the whole burst.
  bool admission_ok = true;
  struct AdmissionRun {
    const char* policy;
    std::size_t completed = 0, refused = 0;
    std::int64_t shed = 0, rejected = 0;
  };
  std::vector<AdmissionRun> admission_runs;
  {
    StreamRequestSpec cheap_spec;
    cheap_spec.dataset = "CI";
    cheap_spec.seed = seed + 2;
    ServiceRequest cheap = materialize_request(cheap_spec);
    constexpr std::size_t kBurst = 16;
    for (AdmissionPolicy policy :
         {AdmissionPolicy::kBlock, AdmissionPolicy::kReject,
          AdmissionPolicy::kShedOldest}) {
      ServiceOptions opts;
      opts.workers = 2;
      opts.cache_capacity = 1;
      opts.max_queue_depth = 3;
      opts.admission = policy;
      InferenceService service(opts);
      service.cache().get_or_compile(*cheap.model, *cheap.dataset,
                                     cheap.options.config);
      AdmissionRun run;
      run.policy = admission_policy_name(policy);
      std::vector<RequestId> ids;
      for (std::size_t i = 0; i < kBurst; ++i) ids.push_back(service.submit(cheap));
      for (RequestId id : ids) {
        try {
          (void)service.wait(id);
          ++run.completed;
        } catch (const AdmissionRejectedError&) {
          ++run.refused;
        }
      }
      AdmissionStats as = service.admission_stats();
      run.shed = as.shed;
      run.rejected = as.rejected;
      if (run.completed + run.refused != kBurst) admission_ok = false;
      if (policy == AdmissionPolicy::kBlock &&
          (run.refused != 0 || run.completed != kBurst))
        admission_ok = false;
      std::printf(
          "admission policy %-6s: %zu completed, %zu refused "
          "(stats: %lld rejected, %lld shed)\n",
          run.policy, run.completed, run.refused,
          static_cast<long long>(run.rejected), static_cast<long long>(run.shed));
      admission_runs.push_back(run);
    }
  }

  // ---- Deadline-heavy burst (ISSUE 6): one worker, a slow PU head with a
  // generous deadline, and 8 cheap victims whose 1 ms deadlines are long
  // gone by the time the worker frees up. queue.delay:1 stalls every
  // dequeue 2 ms, so the victims' expiry at the dequeue recheck is
  // structural rather than a race on how fast PU compiles. The cache is
  // disabled, making compile misses a census of requests that actually
  // reached the compiler: it must be exactly 1 (the head) — expired work
  // never executes.
  bool deadline_ok = true;
  std::size_t deadline_expired = 0, deadline_completed = 0;
  std::int64_t deadline_expired_in_queue = 0, deadline_compiles = 0;
  {
    constexpr std::size_t kVictims = 8;
    StreamRequestSpec head_spec;
    head_spec.dataset = "PU";
    head_spec.model = GnnModelKind::kGcn;
    head_spec.seed = seed + 4;
    ServiceRequest head = materialize_request(head_spec);
    head.deadline_ms = 60000;
    StreamRequestSpec victim_spec;
    victim_spec.dataset = "CI";
    victim_spec.seed = seed + 5;
    ServiceRequest victim = materialize_request(victim_spec);
    victim.deadline_ms = 1;
    ServiceOptions opts;
    opts.workers = 1;
    opts.cache_capacity = 0;
    opts.fault_spec = "queue.delay:1";
    {
      InferenceService service(opts);
      std::vector<RequestId> ids;
      ids.push_back(service.submit(head));
      for (std::size_t i = 0; i < kVictims; ++i)
        ids.push_back(service.submit(victim));
      for (RequestId id : ids) {
        try {
          (void)service.wait(id);
          ++deadline_completed;
        } catch (const DeadlineExceededError&) {
          ++deadline_expired;
        }
      }
      RobustnessStats rs = service.robustness_stats();
      CacheStats cs = service.cache_stats();
      deadline_expired_in_queue = rs.expired_in_queue;
      deadline_compiles = cs.misses;
      deadline_ok = deadline_completed == 1 && deadline_expired == kVictims &&
                    rs.expired_in_queue == static_cast<std::int64_t>(kVictims) &&
                    rs.expired_running == 0 && cs.misses == 1 && cs.hits == 0;
    }
    FaultInjector::global().disarm();  // service ctor armed the global
    std::printf(
        "deadline-heavy burst: %zu completed, %zu expired (%lld in queue), "
        "%lld compiles (1 = no expired request executed): %s\n",
        deadline_completed, deadline_expired,
        static_cast<long long>(deadline_expired_in_queue),
        static_cast<long long>(deadline_compiles), deadline_ok ? "ok" : "FAIL");
  }

  // ---- Unarmed fault-site overhead: every kernel launch now passes a
  // fault_point(). Disarmed, that is one relaxed atomic load and a branch;
  // gate its measured cost so the chaos layer stays free to leave in
  // production builds. 10k calls/request is an order of magnitude above
  // any request in the mix (kernel count tops out in the hundreds).
  double unarmed_ns_per_call = 0.0, unarmed_pct_per_request = 0.0;
  bool overhead_ok = true;
  {
    constexpr std::int64_t kCalls = 20000000;
    std::int64_t fired = 0;  // keeps the loop observable; stays 0 disarmed
    Stopwatch sw;
    for (std::int64_t i = 0; i < kCalls; ++i)
      if (fault_point(kFaultRuntimeKernelFault)) ++fired;
    double ms = sw.elapsed_ms();
    unarmed_ns_per_call = ms * 1e6 / static_cast<double>(kCalls);
    const double per_request_ms =
        svc_best / static_cast<double>(pool.size());
    unarmed_pct_per_request =
        (10000.0 * unarmed_ns_per_call / 1e6) / per_request_ms * 100.0;
    overhead_ok = fired == 0 && unarmed_pct_per_request < 1.0;
    std::printf(
        "unarmed fault_point: %.2f ns/call (%lldM calls), 10k calls = %.3f%% "
        "of mean request latency (%.2f ms): %s\n",
        unarmed_ns_per_call, static_cast<long long>(kCalls / 1000000),
        unarmed_pct_per_request, per_request_ms, overhead_ok ? "ok" : "FAIL");
  }

  // ---- OrderedMutex overhead: every long-lived mutex in the system is
  // rank-annotated (util/ordered_mutex.hpp). With the checker compiled
  // out (NDEBUG without DYNASPARSE_LOCK_CHECK, the release/bench
  // configuration) lock()/unlock() must inline to the std::mutex they
  // wrap — gate the extra cost per acquisition at <1% of mean request
  // latency assuming an absurd 10k acquisitions/request, same framing as
  // the unarmed fault_point above. The default ctest build runs ARMED:
  // there each acquisition does real bookkeeping, so the cost is
  // reported but not gated.
  double ordered_extra_ns_per_lock = 0.0, ordered_pct_per_request = 0.0;
  bool ordered_mutex_ok = true;
  bool ordered_mutex_armed = DYNASPARSE_LOCK_CHECK_ACTIVE != 0;
  {
    constexpr std::int64_t kLocks = 5000000;
    std::mutex plain;
    OrderedMutex ordered(LockRank::kMemoryBudget);
    std::int64_t sink = 0;  // observable work under each lock
    Stopwatch sw_plain;
    for (std::int64_t i = 0; i < kLocks; ++i) {
      plain.lock();
      ++sink;
      plain.unlock();
    }
    const double plain_ms = sw_plain.elapsed_ms();
    Stopwatch sw_ordered;
    for (std::int64_t i = 0; i < kLocks; ++i) {
      ordered.lock();
      ++sink;
      ordered.unlock();
    }
    const double ordered_ms = sw_ordered.elapsed_ms();
    ordered_extra_ns_per_lock =
        (ordered_ms - plain_ms) * 1e6 / static_cast<double>(kLocks);
    if (ordered_extra_ns_per_lock < 0.0) ordered_extra_ns_per_lock = 0.0;
    const double per_request_ms = svc_best / static_cast<double>(pool.size());
    ordered_pct_per_request =
        (10000.0 * ordered_extra_ns_per_lock / 1e6) / per_request_ms * 100.0;
    if (!ordered_mutex_armed)
      ordered_mutex_ok = sink == 2 * kLocks && ordered_pct_per_request < 1.0;
    std::printf(
        "OrderedMutex (%s): +%.2f ns/lock over std::mutex, 10k locks = "
        "%.3f%% of mean request latency: %s\n",
        ordered_mutex_armed ? "armed, report-only" : "unarmed, gated",
        ordered_extra_ns_per_lock, ordered_pct_per_request,
        ordered_mutex_ok ? "ok" : "FAIL");
  }

  double speedup = seq_best / svc_best;
  double seq_thru = static_cast<double>(pool.size()) / (seq_best / 1e3);
  double svc_thru = static_cast<double>(pool.size()) / (svc_best / 1e3);
  std::printf("\nsequential: %.1f ms (%.2f req/s)\nservice:    %.1f ms (%.2f req/s)\n",
              seq_best, seq_thru, svc_best, svc_thru);
  std::printf("speedup %.2fx  reports bit-identical: %s\n", speedup,
              all_identical ? "yes" : "NO");
  std::printf("cache on timed run: %lld hits, %lld misses (warm-up)\n",
              static_cast<long long>(cache_stats.hits),
              static_cast<long long>(cache_stats.misses));

  JsonWriter w;
  w.begin_object();
  w.key("bench").value(std::string("service_throughput"));
  w.key("pr").value(2);
  w.key("config").begin_object();
  w.key("requests").value(static_cast<std::int64_t>(pool.size()));
  w.key("reps").value(reps);
  w.key("seed").value(static_cast<std::int64_t>(seed));
  w.key("hardware_concurrency").value(parallel_hardware_threads());
  w.end_object();
  w.key("notes").begin_array();
  w.value(std::string("sequential = per-request compile + execute (pre-service run_inference loop)"));
  w.value(std::string("service = warm compilation cache, async submit/wait on service workers"));
  w.value(std::string("bit-identity via InferenceReport::deterministic_fingerprint on every rep"));
  w.end_array();
  w.key("sequential_ms").value(seq_best);
  w.key("service_ms").value(svc_best);
  w.key("speedup").value(speedup);
  w.key("sequential_req_per_s").value(seq_thru);
  w.key("service_req_per_s").value(svc_thru);
  w.key("lone_big_request").begin_object();
  w.key("dataset").value(std::string("PU"));
  w.key("serial_intra_op_ms").value(lone_serial_ms);
  w.key("shared_pool_ms").value(lone_shared_ms);
  w.key("speedup").value(lone_serial_ms / lone_shared_ms);
  w.key("bit_identical").value(lone_identical);
  w.end_object();
  w.key("repeat_heavy_memoization").begin_object();
  w.key("requests").value(static_cast<std::int64_t>(memo_requests));
  w.key("unique_contents").value(memo_misses);  // = result-key misses
  w.key("memoize_off_ms").value(memo_off_best);
  w.key("memoize_on_ms").value(memo_on_best);
  w.key("speedup").value(memo_speedup);
  w.key("result_cache_hits").value(memo_hits);
  w.key("result_cache_misses").value(memo_misses);
  w.key("bit_identical").value(memo_identical);
  w.end_object();
  w.key("admission_saturation").begin_array();
  for (const AdmissionRun& run : admission_runs) {
    w.begin_object();
    w.key("policy").value(std::string(run.policy));
    w.key("burst").value(16);
    w.key("workers").value(2);
    w.key("max_queue_depth").value(3);
    w.key("completed").value(static_cast<std::int64_t>(run.completed));
    w.key("refused").value(static_cast<std::int64_t>(run.refused));
    w.key("stats_rejected").value(run.rejected);
    w.key("stats_shed").value(run.shed);
    w.end_object();
  }
  w.end_array();
  w.key("deadline_burst").begin_object();
  w.key("victims").value(8);
  w.key("completed").value(static_cast<std::int64_t>(deadline_completed));
  w.key("expired").value(static_cast<std::int64_t>(deadline_expired));
  w.key("expired_in_queue").value(deadline_expired_in_queue);
  w.key("compiles").value(deadline_compiles);
  w.key("ok").value(deadline_ok);
  w.end_object();
  w.key("unarmed_fault_point").begin_object();
  w.key("ns_per_call").value(unarmed_ns_per_call);
  w.key("pct_of_request_at_10k_calls").value(unarmed_pct_per_request);
  w.key("ok").value(overhead_ok);
  w.end_object();
  w.key("ordered_mutex").begin_object();
  w.key("armed").value(ordered_mutex_armed);
  w.key("extra_ns_per_lock").value(ordered_extra_ns_per_lock);
  w.key("pct_of_request_at_10k_locks").value(ordered_pct_per_request);
  w.key("ok").value(ordered_mutex_ok);
  w.end_object();
  w.key("reports_bit_identical").value(all_identical);
  w.key("cache_hits").value(cache_stats.hits);
  w.key("cache_misses").value(cache_stats.misses);
  w.key("requests_detail").begin_array();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    w.begin_object();
    w.key("spec").value(specs[i].to_line());
    w.key("sequential_compile_ms").value(seq_reports[i].compile.total_ms());
    w.key("simulated_latency_ms").value(svc_reports[i].latency_ms);
    w.key("fingerprint_hex").value([&] {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%016llx",
                    static_cast<unsigned long long>(
                        svc_reports[i].deterministic_fingerprint()));
      return std::string(buf);
    }());
    w.end_object();
  }
  w.end_array();
  w.end_object();

  std::ofstream f(out_path);
  f << w.str() << "\n";
  std::printf("wrote %s\n", out_path);

  if (!memo_ok)
    std::printf("FAIL: memoization scenario (speedup %.2fx, hits %lld, "
                "identical %s)\n",
                memo_speedup, static_cast<long long>(memo_hits),
                memo_identical ? "yes" : "no");
  if (!admission_ok) std::printf("FAIL: admission saturation scenario\n");
  if (!deadline_ok) std::printf("FAIL: deadline-heavy burst scenario\n");
  if (!overhead_ok)
    std::printf("FAIL: unarmed fault_point overhead (%.3f%% >= 1%%)\n",
                unarmed_pct_per_request);
  if (!ordered_mutex_ok)
    std::printf("FAIL: unarmed OrderedMutex overhead (%.3f%% >= 1%%)\n",
                ordered_pct_per_request);
  return all_identical && speedup >= 2.0 && memo_ok && admission_ok &&
                 deadline_ok && overhead_ok && ordered_mutex_ok
             ? 0
             : 1;
}
