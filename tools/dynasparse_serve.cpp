// dynasparse_serve — replay a request stream through the InferenceService
// and report serving metrics (throughput, latency percentiles, cache
// effectiveness).
//
//   dynasparse_serve --requests 16 --workers 4
//   dynasparse_serve --stream workload.txt --cache 32 --json serve.json
//   dynasparse_serve --listen 7411 --workers 4 --max-queue 64 --admission shed
//
// Flags:
//   --listen PORT     serve the wire protocol (src/net/wire.hpp) on this
//                     TCP port instead of replaying a file: accepts
//                     connections until SIGINT/SIGTERM, then prints (and
//                     with --json, writes) the serving counters. PORT 0
//                     binds an ephemeral port and prints the choice. All
//                     service knobs below (--workers, --max-queue,
//                     --admission, --deadline-ms, --fault, ...) apply to
//                     the networked service unchanged; --stream/--requests
//                     are ignored in this mode.
//   --host H          listen address (default 127.0.0.1)
//   --max-conns N     concurrent-connection cap (default 256); further
//                     accepts are refused with an immediate close
//   --frame-timeout D slow-loris bound: close a connection whose partial
//                     frame stalls this long (duration; default 2s, 0 off)
//   --stream PATH     request-stream file (see src/service/request_stream.hpp)
//   --requests N      synthetic mixed workload of N requests (default 16;
//                     ignored when --stream is given)
//   --workers W       service worker threads (0 = hardware, default 0)
//   --intra-op N      per-request intra-op thread cap: 0 = share the
//                     work-stealing pool freely (default), 1 = serial per
//                     worker, N = at most N pool threads per request
//   --cache N         compilation-cache capacity in programs (default 16)
//   --memoize N       result-cache capacity in reports (default 0 = off):
//                     repeat requests return the memoized report without
//                     executing — bit-identical deterministic fields
//   --memoize-mb M    approximate byte bound for memoized reports
//                     (default 256 MiB; only meaningful with --memoize)
//   --mem-budget SIZE process-wide memory budget across every cache tier
//                     (compiled programs + tile pool + reports).
//                     Accepts "512m" / "2g" style suffixes; bare numbers
//                     are bytes. Default 0 = per-tier ceilings only.
//   --tile-pool N     shared operand tile-pool capacity in entries
//                     (default 64; 0 = each program holds private tiles)
//   --max-queue N     bound the request queue to N queued requests
//                     (default 0 = unbounded)
//   --admission P     full-queue policy: block | reject | shed
//                     (default block; only meaningful with --max-queue)
//   --deadline-ms D   default per-request deadline (a duration: "250",
//                     "250ms", "1.5s"; default 0 = none). A stream line's
//                     own deadline_ms= wins over this.
//   --cancel-after D  cancel every still-outstanding request D after the
//                     submit burst (a duration; default off) — exercises
//                     the cooperative-cancellation path end to end
//   --fault SPEC      arm the fault injector (util/fault_injection.hpp
//                     grammar, e.g. "queue.delay:0.3,seed:7")
//   --warm            pre-compile every unique request before timing
//   --seed S          seed for the synthetic workload     (default 2023)
//   --baseline        also run the sequential uncached run_inference-style
//                     loop and report the speedup against it
//   --json PATH       write the metrics as JSON
//
// Requests are submitted asynchronously up front; per-request latency is
// submit->completion (includes queueing), the honest serving number.
// Under --admission reject/shed some requests resolve as admission
// rejections; under --deadline-ms / --cancel-after / --fault some resolve
// as deadline expiries, cancellations, or execution failures. Every
// non-completed outcome is counted by its type (the service's closed
// error taxonomy) and excluded from the latency percentiles; under block
// the submit loop itself is backpressured.

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "net/server.hpp"
#include "service/request_stream.hpp"
#include "util/fault_injection.hpp"
#include "util/stopwatch.hpp"
#include "util/strict_parse.hpp"

using namespace dynasparse;

namespace {

volatile std::sig_atomic_t g_stop_requested = 0;
void request_stop(int) { g_stop_requested = 1; }

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr, "error: %s\n(see header of tools/dynasparse_serve.cpp)\n",
               msg.c_str());
  std::exit(2);
}

/// Linear-interpolated percentile; `sorted_ms` must be sorted ascending.
double percentile(const std::vector<double>& sorted_ms, double p) {
  if (sorted_ms.empty()) return 0.0;
  double rank = p / 100.0 * static_cast<double>(sorted_ms.size() - 1);
  std::size_t lo = static_cast<std::size_t>(rank);
  std::size_t hi = std::min(lo + 1, sorted_ms.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return sorted_ms[lo] * (1.0 - frac) + sorted_ms[hi] * frac;
}

}  // namespace

int main(int argc, char** argv) {
  std::string stream_path, json_path, fault_spec;
  int requests = 16, workers = 0, intra_op = 0;
  std::size_t cache_capacity = 16, memoize = 0, memoize_mb = 256, max_queue = 0;
  std::size_t mem_budget = 0, tile_pool = 64;
  AdmissionPolicy admission = AdmissionPolicy::kBlock;
  std::uint64_t seed = 2023;
  std::int64_t deadline_ms = 0, cancel_after_ms = -1;  // -1 = no cancellation
  bool warm = false, baseline = false;
  int listen_port = -1;  // -1 = replay mode; 0 = ephemeral
  std::string listen_host = "127.0.0.1";
  std::size_t max_conns = 256;
  std::int64_t frame_timeout_ms = 2000;

  // Strict whole-token parsing (util/strict_parse.hpp): "--requests 16abc"
  // must be a usage error, not a silent 16, and "--requests foo" a clean
  // message, not an unhandled std::invalid_argument.
  std::string current_key;
  auto size_value = [&](const std::string& v) {
    std::int64_t n = strict_stoll(v);
    if (n < 0) throw std::invalid_argument("negative value " + v);
    return static_cast<std::size_t>(n);
  };
  try {
    for (int i = 1; i < argc; ++i) {
      std::string key = argv[i];
      current_key = key;
      auto need_value = [&]() -> std::string {
        if (i + 1 >= argc) usage("missing value for " + key);
        return argv[++i];
      };
      if (key == "--stream") stream_path = need_value();
      else if (key == "--requests") requests = strict_stoi(need_value());
      else if (key == "--workers") workers = strict_stoi(need_value());
      else if (key == "--intra-op") intra_op = strict_stoi(need_value());
      else if (key == "--cache") cache_capacity = size_value(need_value());
      else if (key == "--memoize") memoize = size_value(need_value());
      else if (key == "--memoize-mb") memoize_mb = size_value(need_value());
      else if (key == "--mem-budget") mem_budget = parse_size_bytes(need_value());
      else if (key == "--tile-pool") tile_pool = size_value(need_value());
      else if (key == "--max-queue") max_queue = size_value(need_value());
      else if (key == "--admission") admission = parse_admission_policy(need_value());
      else if (key == "--deadline-ms") deadline_ms = parse_duration_ms(need_value());
      else if (key == "--cancel-after") cancel_after_ms = parse_duration_ms(need_value());
      else if (key == "--fault") fault_spec = need_value();
      else if (key == "--seed") seed = strict_stoull(need_value());
      else if (key == "--json") json_path = need_value();
      else if (key == "--warm") warm = true;
      else if (key == "--baseline") baseline = true;
      else if (key == "--listen") {
        listen_port = strict_stoi(need_value());
        if (listen_port < 0 || listen_port > 65535)
          usage("--listen port must be in [0, 65535]");
      }
      else if (key == "--host") listen_host = need_value();
      else if (key == "--max-conns") max_conns = size_value(need_value());
      else if (key == "--frame-timeout") frame_timeout_ms = parse_duration_ms(need_value());
      else usage("unknown flag: " + key);
    }
  } catch (const std::exception& e) {
    usage("bad value for " + current_key + ": " + e.what());
  }
  if (memoize_mb > (std::numeric_limits<std::size_t>::max() >> 20))
    usage("--memoize-mb too large");  // << 20 below would overflow
  if (!fault_spec.empty()) {
    // Validate here so a typo is a usage error, not a service-constructor
    // throw after the workload has already been materialized.
    try {
      (void)parse_fault_spec(fault_spec);
    } catch (const std::exception& e) {
      usage(std::string("bad value for --fault: ") + e.what());
    }
  }

  // Parse and materialize outside the timed region: dataset/model
  // generation stands in for request decoding, which a real frontend does
  // off the hot path. Any workload error (bad stream line, unknown
  // dataset tag) reports through usage() instead of an uncaught throw.
  std::vector<ServiceRequest> pool;
  if (listen_port < 0) {
    try {
      std::vector<StreamRequestSpec> specs =
          stream_path.empty() ? synthetic_stream(requests, seed)
                              : expand_stream(read_request_stream_file(stream_path));
      if (specs.empty()) usage("empty request stream");
      std::printf("replaying %zu requests (%s)\n", specs.size(),
                  stream_path.empty() ? "synthetic mix" : stream_path.c_str());
      pool.reserve(specs.size());
      for (const StreamRequestSpec& spec : specs)
        pool.push_back(materialize_request(spec));
    } catch (const std::exception& e) {
      usage(e.what());
    }
  }

  ServiceOptions opts;
  opts.workers = workers;
  opts.cache_capacity = cache_capacity;
  opts.intra_op_threads = intra_op;
  opts.result_cache_capacity = memoize;
  opts.result_cache_bytes = memoize_mb << 20;
  opts.max_queue_depth = max_queue;
  opts.admission = admission;
  opts.memory_budget_bytes = mem_budget;
  opts.tile_pool_capacity = tile_pool;
  opts.default_deadline_ms = deadline_ms;
  opts.fault_spec = fault_spec;
  // Options are validated/resolved by the service; report the effective
  // worker count (no hidden cap).
  InferenceService service(opts);
  std::printf("service: %d workers, intra-op cap %d (0 = shared pool)\n",
              service.options().workers, service.options().intra_op_threads);
  if (memoize > 0)
    std::printf("memoization: up to %zu reports / %zu MiB\n", memoize, memoize_mb);
  if (max_queue > 0)
    std::printf("admission: queue depth %zu, policy %s\n", max_queue,
                admission_policy_name(admission));
  if (mem_budget > 0)
    std::printf("memory budget: %.1f MiB shared across cache tiers\n",
                static_cast<double>(mem_budget) / (1024.0 * 1024.0));
  if (tile_pool > 0)
    std::printf("tile pool: up to %zu shared operand entries\n", tile_pool);
  if (deadline_ms > 0)
    std::printf("deadline: %lld ms per request (default)\n",
                static_cast<long long>(deadline_ms));
  if (cancel_after_ms >= 0)
    std::printf("cancellation: cancelling outstanding requests %lld ms after submit\n",
                static_cast<long long>(cancel_after_ms));
  if (!fault_spec.empty())
    std::printf("fault injection: %s\n", fault_spec.c_str());

  if (listen_port >= 0) {
    NetServerOptions net;
    net.host = listen_host;
    net.port = static_cast<std::uint16_t>(listen_port);
    net.max_connections = max_conns;
    net.frame_timeout_ms = frame_timeout_ms;
    NetServer server(service, net);
    try {
      server.start();
    } catch (const std::exception& e) {
      usage(e.what());
    }
    std::printf("listening on %s:%u (max %zu connections, frame timeout %lld ms)\n",
                listen_host.c_str(), server.port(), max_conns,
                static_cast<long long>(frame_timeout_ms));
    std::fflush(stdout);
    std::signal(SIGINT, request_stop);
    std::signal(SIGTERM, request_stop);
    while (!g_stop_requested)
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    std::printf("stop requested, draining\n");
    server.stop();
    service.shutdown();

    NetServerStats ns = server.stats();
    CacheStats cs = service.cache_stats();
    RobustnessStats rs = service.robustness_stats();
    AdmissionStats as = service.admission_stats();
    MemoryBudgetStats ms = service.memory_budget_stats();
    TilePoolStats ps = service.tile_pool_stats();
    std::printf(
        "net: %lld accepted / %lld refused, %lld frames, %lld submits, "
        "%lld results, %lld errors, %lld protocol errors, %lld timeouts, "
        "%lld disconnect cancels\n",
        static_cast<long long>(ns.accepted), static_cast<long long>(ns.refused),
        static_cast<long long>(ns.frames), static_cast<long long>(ns.submits),
        static_cast<long long>(ns.results),
        static_cast<long long>(ns.errors_sent),
        static_cast<long long>(ns.protocol_errors),
        static_cast<long long>(ns.timeouts),
        static_cast<long long>(ns.disconnect_cancels));
    std::printf(
        "service: cache %lld hits / %lld misses; admission %lld accepted / "
        "%lld rejected / %lld shed; %lld cancelled, %lld+%lld expired, %lld "
        "failed\n",
        static_cast<long long>(cs.hits), static_cast<long long>(cs.misses),
        static_cast<long long>(as.accepted), static_cast<long long>(as.rejected),
        static_cast<long long>(as.shed), static_cast<long long>(rs.cancelled),
        static_cast<long long>(rs.expired_in_queue),
        static_cast<long long>(rs.expired_running),
        static_cast<long long>(rs.execution_failures));
    std::printf(
        "memory: %lld bytes resident (high water %lld, limit %zu); tile pool "
        "%lld entries / %lld bytes, %lld shared refs\n",
        static_cast<long long>(ms.bytes), static_cast<long long>(ms.high_water),
        ms.limit_bytes, static_cast<long long>(ps.entries),
        static_cast<long long>(ps.bytes), static_cast<long long>(ps.shared_refs));
    if (!json_path.empty()) {
      std::ofstream f(json_path);
      if (!f) usage("cannot write --json file");
      f << "{\n"
        << "  \"mode\": \"listen\",\n"
        << "  \"port\": " << server.port() << ",\n"
        << "  \"accepted\": " << ns.accepted << ",\n"
        << "  \"refused\": " << ns.refused << ",\n"
        << "  \"frames\": " << ns.frames << ",\n"
        << "  \"submits\": " << ns.submits << ",\n"
        << "  \"results\": " << ns.results << ",\n"
        << "  \"errors_sent\": " << ns.errors_sent << ",\n"
        << "  \"protocol_errors\": " << ns.protocol_errors << ",\n"
        << "  \"timeouts\": " << ns.timeouts << ",\n"
        << "  \"disconnect_cancels\": " << ns.disconnect_cancels << ",\n"
        << "  \"cache_hits\": " << cs.hits << ",\n"
        << "  \"cache_misses\": " << cs.misses << ",\n"
        << "  \"admission_accepted\": " << as.accepted << ",\n"
        << "  \"admission_rejected\": " << as.rejected << ",\n"
        << "  \"admission_shed\": " << as.shed << ",\n"
        << "  \"cancelled\": " << rs.cancelled << ",\n"
        << "  \"expired_in_queue\": " << rs.expired_in_queue << ",\n"
        << "  \"expired_running\": " << rs.expired_running << ",\n"
        << "  \"execution_failures\": " << rs.execution_failures << ",\n"
        << "  \"budget_limit\": " << ms.limit_bytes << ",\n"
        << "  \"budget_bytes\": " << ms.bytes << ",\n"
        << "  \"budget_high_water\": " << ms.high_water << ",\n"
        << "  \"pool_entries\": " << ps.entries << ",\n"
        << "  \"pool_bytes\": " << ps.bytes << ",\n"
        << "  \"pool_shared_refs\": " << ps.shared_refs << "\n"
        << "}\n";
      std::printf("wrote %s\n", json_path.c_str());
    }
    return 0;
  }

  if (warm) {
    for (const ServiceRequest& req : pool)
      service.cache().get_or_compile(*req.model, *req.dataset, req.options.config);
    std::printf("warmed cache: %lld programs compiled\n",
                static_cast<long long>(service.cache_stats().entries));
  }

  Stopwatch wall;
  std::vector<RequestId> ids;
  ids.reserve(pool.size());
  for (const ServiceRequest& req : pool) ids.push_back(service.submit(req));

  // --cancel-after: a client-side canceller racing the workers, the way a
  // frontend cancels on client disconnect. cancel() on an already-terminal
  // request returns false, which is the common case for a late canceller.
  std::thread canceller;
  if (cancel_after_ms >= 0) {
    canceller = std::thread([&service, &ids, cancel_after_ms] {
      std::this_thread::sleep_for(std::chrono::milliseconds(cancel_after_ms));
      for (RequestId id : ids) {
        try {
          service.cancel(id);
        } catch (const std::invalid_argument&) {
          // id unknown (e.g. slot consumed by a racing wait) — fine.
        }
      }
    });
  }

  std::vector<double> latencies_ms;
  latencies_ms.reserve(ids.size());
  double sim_latency_ms = 0.0;
  std::size_t completed = 0, admission_rejected = 0, cancelled = 0,
              deadline_expired = 0, execution_failed = 0;
  for (RequestId id : ids) {
    RequestTiming timing;
    // The service's closed error taxonomy: every non-completed outcome is
    // one of these four types, so an uncaught throw here is a bug.
    try {
      InferenceReport rep = service.wait(id, &timing);
      latencies_ms.push_back(timing.total_ms);
      sim_latency_ms += rep.latency_ms;
      ++completed;
    } catch (const AdmissionRejectedError&) {
      ++admission_rejected;  // refused under --max-queue reject/shed
    } catch (const DeadlineExceededError&) {
      ++deadline_expired;  // --deadline-ms / deadline_ms= expiry
    } catch (const CancelledError&) {
      ++cancelled;  // --cancel-after (or shutdown abort)
    } catch (const ExecutionError&) {
      ++execution_failed;  // compile/execute failure, incl. injected faults
    }
  }
  if (canceller.joinable()) canceller.join();
  double service_wall_ms = wall.elapsed_ms();

  CacheStats cs = service.cache_stats();
  ResultCacheStats rcs = service.result_cache_stats();
  double throughput = static_cast<double>(completed) / (service_wall_ms / 1e3);
  std::sort(latencies_ms.begin(), latencies_ms.end());
  double p50 = percentile(latencies_ms, 50.0), p99 = percentile(latencies_ms, 99.0);
  std::printf("wall %.1f ms  throughput %.2f req/s  p50 %.1f ms  p99 %.1f ms\n",
              service_wall_ms, throughput, p50, p99);
  if (max_queue > 0)
    std::printf("admission: %zu completed, %zu rejected (policy %s)\n", completed,
                admission_rejected, admission_policy_name(admission));
  RobustnessStats rs = service.robustness_stats();
  if (cancelled + deadline_expired + execution_failed > 0 ||
      deadline_ms > 0 || cancel_after_ms >= 0 || !fault_spec.empty())
    std::printf(
        "robustness: %zu cancelled, %zu deadline-expired (%lld in queue / %lld "
        "running), %zu failed\n",
        cancelled, deadline_expired, static_cast<long long>(rs.expired_in_queue),
        static_cast<long long>(rs.expired_running), execution_failed);
  if (!fault_spec.empty()) {
    for (const auto& [site, st] : FaultInjector::global().all_stats())
      if (st.evaluations > 0)
        std::printf("fault %s: injected %lld / %lld evaluations\n", site.c_str(),
                    static_cast<long long>(st.injected),
                    static_cast<long long>(st.evaluations));
  }
  std::printf("cache: %lld hits / %lld misses / %lld evictions (%lld in-flight joins)\n",
              static_cast<long long>(cs.hits), static_cast<long long>(cs.misses),
              static_cast<long long>(cs.evictions),
              static_cast<long long>(cs.inflight_joins));
  if (memoize > 0)
    std::printf(
        "result cache: %lld hits / %lld misses / %lld evictions, %lld reports "
        "resident (~%.1f MiB)\n",
        static_cast<long long>(rcs.hits), static_cast<long long>(rcs.misses),
        static_cast<long long>(rcs.evictions), static_cast<long long>(rcs.entries),
        static_cast<double>(rcs.bytes) / (1024.0 * 1024.0));
  MemoryBudgetStats ms = service.memory_budget_stats();
  TilePoolStats ps = service.tile_pool_stats();
  std::printf(
      "memory: %lld bytes resident (high water %lld, limit %zu); tile pool "
      "%lld entries / %lld bytes, %lld shared refs\n",
      static_cast<long long>(ms.bytes), static_cast<long long>(ms.high_water),
      ms.limit_bytes, static_cast<long long>(ps.entries),
      static_cast<long long>(ps.bytes), static_cast<long long>(ps.shared_refs));
  if (completed > 0)
    std::printf("mean simulated accelerator latency %.3f ms/request\n",
                sim_latency_ms / static_cast<double>(completed));

  double sequential_wall_ms = 0.0;
  if (baseline) {
    // The pre-service pattern: compile + execute per request, no cache,
    // no concurrency.
    Stopwatch sw;
    for (const ServiceRequest& req : pool) {
      CompiledProgram prog = compile(*req.model, *req.dataset, req.options.config);
      (void)run_compiled(prog, req.options.runtime);
    }
    sequential_wall_ms = sw.elapsed_ms();
    std::printf("sequential uncached loop: %.1f ms  -> service speedup %.2fx\n",
                sequential_wall_ms, sequential_wall_ms / service_wall_ms);
  }

  if (!json_path.empty()) {
    std::ofstream f(json_path);
    if (!f) usage("cannot write --json file");
    f << "{\n"
      << "  \"requests\": " << ids.size() << ",\n"
      << "  \"completed\": " << completed << ",\n"
      << "  \"admission_rejected\": " << admission_rejected << ",\n"
      << "  \"cancelled\": " << cancelled << ",\n"
      << "  \"deadline_expired\": " << deadline_expired << ",\n"
      << "  \"execution_failed\": " << execution_failed << ",\n"
      << "  \"expired_in_queue\": " << rs.expired_in_queue << ",\n"
      << "  \"expired_running\": " << rs.expired_running << ",\n"
      << "  \"deadline_ms\": " << deadline_ms << ",\n"
      << "  \"fault_spec\": \"" << fault_spec << "\",\n"
      << "  \"admission_policy\": \"" << admission_policy_name(admission) << "\",\n"
      << "  \"max_queue_depth\": " << max_queue << ",\n"
      << "  \"workers\": " << service.options().workers << ",\n"
      << "  \"intra_op_threads\": " << service.options().intra_op_threads << ",\n"
      << "  \"cache_capacity\": " << cache_capacity << ",\n"
      << "  \"result_cache_capacity\": " << memoize << ",\n"
      << "  \"wall_ms\": " << service_wall_ms << ",\n"
      << "  \"throughput_req_per_s\": " << throughput << ",\n"
      << "  \"latency_p50_ms\": " << p50 << ",\n"
      << "  \"latency_p99_ms\": " << p99 << ",\n"
      << "  \"cache_hits\": " << cs.hits << ",\n"
      << "  \"cache_misses\": " << cs.misses << ",\n"
      << "  \"cache_evictions\": " << cs.evictions << ",\n"
      << "  \"result_cache_hits\": " << rcs.hits << ",\n"
      << "  \"result_cache_misses\": " << rcs.misses << ",\n"
      << "  \"result_cache_evictions\": " << rcs.evictions << ",\n"
      << "  \"result_cache_bytes\": " << rcs.bytes << ",\n"
      << "  \"budget_limit\": " << ms.limit_bytes << ",\n"
      << "  \"budget_bytes\": " << ms.bytes << ",\n"
      << "  \"budget_high_water\": " << ms.high_water << ",\n"
      << "  \"pool_entries\": " << ps.entries << ",\n"
      << "  \"pool_bytes\": " << ps.bytes << ",\n"
      << "  \"pool_shared_refs\": " << ps.shared_refs << ",\n"
      << "  \"sequential_wall_ms\": " << sequential_wall_ms << "\n"
      << "}\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
