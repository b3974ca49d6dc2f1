// offline_large and prune_sweep: closed loops of in-process callers,
// each submitting a burst to the InferenceService and waiting for all of
// it before the next.
//
// offline_large sends the four large dense-weight shapes (FL/GCN,
// FL/SAGE, RE/GCN, NE/SAGE) with the compile cache warmed in set-up, so
// host functional math dominates. prune_sweep sends a distinct pruned
// model with every request over PU, FL and RE, so every request misses
// the compile cache while the tile pool hits.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <map>
#include <mutex>
#include <random>
#include <thread>

#include "workloads.hpp"

namespace perfbench {

using namespace dynasparse;

namespace {

constexpr int kPruneBurst = 4;                // plan-compatible requests per burst
constexpr int kPruneOracleSample = 12;        // 2 per pair, seeded
constexpr double kPruneLevels[] = {0.5, 0.6, 0.7, 0.8, 0.9};

int callers_for_host() { return std::max(1, std::min(4, host_nproc())); }

struct Job {
  ServiceRequest req;
  std::uint64_t expected = 0;  // oracle fingerprint; 0 = checked afterwards
  std::size_t tag = 0;         // caller's handle for the answer
};

/// Caller `c`'s `k`-th burst.
using NextBurst = std::function<std::vector<Job>(int c, std::int64_t k)>;

struct Answer {
  std::size_t tag = 0;
  std::uint64_t fingerprint = 0;
};

struct LoopOut {
  PhaseTally tally;
  std::vector<double> latency_ms;  // correct answers: submit -> report
  std::vector<RequestTiming> timings;
  std::vector<Answer> unchecked;   // answers whose oracle comes later
  double wall_s = 0.0;
};

/// `callers` threads, each: build a burst, submit it, wait for every
/// member; no new burst starts after `seconds`. Wall time runs until the
/// last answer.
LoopOut run_closed(InferenceService& svc, int callers, double seconds,
                   const NextBurst& next, Tracer& tracer) {
  LoopOut out;
  std::mutex mu;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < callers; ++c) {
    threads.emplace_back([&, c] {
      for (std::int64_t k = 0; Clock::now() < deadline; ++k) {
        std::vector<Job> burst = next(c, k);
        // Trace request id: caller, burst and member.
        auto rid = [&](std::size_t j) {
          return (static_cast<std::uint64_t>(c) << 40) |
                 (static_cast<std::uint64_t>(k) << 8) | j;
        };
        std::vector<std::pair<RequestId, Clock::time_point>> ids;
        for (std::size_t j = 0; j < burst.size(); ++j) {
          const Clock::time_point sent = Clock::now();
          ScopedSpan s(tracer, "service.submit", -1, rid(j));
          ids.emplace_back(svc.submit(burst[j].req), sent);
        }
        for (std::size_t j = 0; j < burst.size(); ++j) {
          RequestTiming t;
          std::uint64_t fp = 0;
          bool ok = false;
          try {
            ScopedSpan s(tracer, "service.wait", -1, rid(j));
            fp = svc.wait(ids[j].first, &t).deterministic_fingerprint();
            ok = true;
          } catch (const std::exception&) {
          }
          const double lat = ms_since(ids[j].second);
          std::lock_guard<std::mutex> lk(mu);
          ++out.tally.sent;
          if (!ok) {
            ++out.tally.failed;
          } else if (burst[j].expected != 0 && fp != burst[j].expected) {
            ++out.tally.mismatched;
          } else {
            ++out.tally.ok;
            out.latency_ms.push_back(lat);
            out.timings.push_back(t);
            if (burst[j].expected == 0) out.unchecked.push_back({burst[j].tag, fp});
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  out.wall_s = ms_since(start) / 1000.0;
  return out;
}

/// End-to-end metrics of an untraced closed-loop phase.
void report_loop(Result& r, const LoopOut& o) {
  r.set("throughput_rps", static_cast<double>(o.tally.ok) / o.wall_s, "req/s");
  r.set("latency_p50_ms", percentile(o.latency_ms, 50), "ms");
  r.set("latency_p90_ms", percentile(o.latency_ms, 90), "ms");
  r.set("latency_samples", static_cast<double>(o.latency_ms.size()), "count");
}

void report_timings(Result& r, const LoopOut& o) {
  std::vector<double> q, e;
  for (const RequestTiming& t : o.timings) {
    q.push_back(t.queue_ms);
    e.push_back(t.exec_ms);
  }
  r.set("service.queue_ms.p50", percentile(q, 50), "ms");
  r.set("service.queue_ms.p99", percentile(q, 99), "ms");
  r.set("service.exec_ms.p50", percentile(e, 50), "ms");
  r.set("service.exec_ms.p90", percentile(e, 90), "ms");
}

/// The timed phase (untraced), or in a traced run an untraced and a
/// traced phase of 40% of the time each; fills the phase accounting,
/// CPU per request and the throughput difference as tracing overhead.
/// Returns the phase whose answers still need their oracle.
std::vector<Answer> timed_phases(const Args& args, Result& r, Tracer& tracer,
                                 InferenceService& svc, const NextBurst& next,
                                 const std::string& label) {
  const int callers = callers_for_host();
  const CpuTicks ticks0 = read_cpu_ticks();
  const double cpu0 = process_cpu_ms();
  const ServiceCounters c0 = read_counters(svc);
  std::vector<Answer> unchecked;
  std::int64_t attempted = 0;
  auto phase = [&](const LoopOut& o, const std::string& name) {
    PhaseTally t = o.tally;
    t.name = name;
    r.phase(t);
    attempted += t.sent;
    unchecked.insert(unchecked.end(), o.unchecked.begin(), o.unchecked.end());
  };
  if (!args.trace) {
    const LoopOut o = run_closed(svc, callers, args.seconds, next, tracer);
    phase(o, label);
    report_loop(r, o);
  } else {
    const LoopOut plain = run_closed(svc, callers, 0.4 * args.seconds, next, tracer);
    phase(plain, label + " (untraced)");
    tracer.set_enabled(true);
    const LoopOut traced = run_closed(svc, callers, 0.4 * args.seconds, next, tracer);
    phase(traced, label + " (traced)");
    const double a = static_cast<double>(plain.tally.ok) / plain.wall_s;
    const double b = static_cast<double>(traced.tally.ok) / traced.wall_s;
    // Throughput lost to tracing, as a share of the untraced throughput.
    r.set("trace.overhead_pct", a > 0 ? (a - b) / a * 100.0 : 0.0, "%");
    report_timings(r, traced);
  }
  const double cpu_ms = process_cpu_ms() - cpu0;
  r.set("cpu_ms_per_req", attempted > 0 ? cpu_ms / static_cast<double>(attempted) : 0.0,
        "ms");
  report_counters(r, c0, read_counters(svc));
  report_host(r, ticks0, read_cpu_ticks(), 0.0);
  return unchecked;
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t x = a * 0x9e3779b97f4a7c15ull + b + 0x632be59bd9b4e019ull;
  x ^= x >> 31;
  x *= 0xbf58476d1ce4e5b9ull;
  return x ^ (x >> 29);
}

GnnModel make_model(GnnModelKind kind, const Dataset& ds, std::uint64_t weight_seed,
                    double sparsity) {
  Rng rng(weight_seed);
  GnnModel m = build_model(kind, ds.spec.feature_dim, ds.spec.hidden_dim,
                           ds.spec.num_classes, rng);
  if (sparsity > 0.0) prune_model(m, sparsity);
  return m;
}

struct PairSpec {
  const char* dataset;
  GnnModelKind kind;
};

using Datasets = std::map<std::string, std::shared_ptr<const Dataset>>;

/// Generate each distinct dataset of `pairs` once, at its default bench
/// scale; `gen_ms` receives each one's generation time.
template <std::size_t N>
Datasets generate_datasets(const PairSpec (&pairs)[N], std::uint64_t seed,
                           std::map<std::string, double>& gen_ms) {
  Datasets out;
  for (const PairSpec& p : pairs) {
    if (out.count(p.dataset)) continue;
    const Clock::time_point g = Clock::now();
    out[p.dataset] = std::make_shared<const Dataset>(
        generate_dataset(dataset_by_tag(p.dataset), 0, seed));
    gen_ms[p.dataset] = ms_since(g);
  }
  return out;
}

}  // namespace

// ---- offline_large ------------------------------------------------------------

void run_offline_large(const Args& args, Result& r, Tracer& tracer) {
  static const PairSpec kRoster[] = {{"FL", GnnModelKind::kGcn},
                                     {"FL", GnnModelKind::kSage},
                                     {"RE", GnnModelKind::kGcn},
                                     {"NE", GnnModelKind::kSage}};
  constexpr std::size_t kN = sizeof(kRoster) / sizeof(kRoster[0]);

  std::vector<ServiceRequest> reqs;
  std::vector<std::uint64_t> oracle;
  std::unique_ptr<InferenceService> svc;
  PhaseTally warm{"warmup", 0.0};
  const double setup_s = median_setup_s(kSetupRounds, [&](int round) {
    svc.reset();
    reqs.clear();
    const Clock::time_point t0 = Clock::now();
    std::map<std::string, double> gen_ms;
    Datasets datasets = generate_datasets(kRoster, args.seed, gen_ms);
    for (const PairSpec& p : kRoster) {
      const Clock::time_point g = Clock::now();
      ServiceRequest req;
      req.dataset = datasets[p.dataset];
      req.model = std::make_shared<const GnnModel>(
          make_model(p.kind, *req.dataset, args.seed + 1, 0.0));
      if (round == 0)
        r.set("graph.materialize_ms." + pair_name(p.dataset, p.kind),
              gen_ms[p.dataset] + ms_since(g), "ms");
      reqs.push_back(std::move(req));
    }
    double oracle_ms = 0.0;
    if (round == 0) {
      // The oracle is computed once, outside the set-up time.
      const Clock::time_point o = Clock::now();
      for (const ServiceRequest& req : reqs)
        oracle.push_back(oracle_fingerprint(*req.model, *req.dataset, req.options));
      oracle_ms = ms_since(o);
    }
    svc = std::make_unique<InferenceService>(ServiceOptions{});
    // Warm the compile cache: one request per content, concurrently.
    std::vector<RequestId> ids;
    for (const ServiceRequest& req : reqs) ids.push_back(svc->submit(req));
    for (std::size_t i = 0; i < ids.size(); ++i) {
      ++warm.sent;
      try {
        if (svc->wait(ids[i]).deterministic_fingerprint() == oracle[i]) ++warm.ok;
        else ++warm.mismatched;
      } catch (const std::exception&) {
        ++warm.failed;
      }
    }
    return (ms_since(t0) - oracle_ms) / 1000.0;
  });
  r.phase(warm);
  r.set("setup_s", setup_s, "s");

  const int callers = callers_for_host();
  const NextBurst next = [&](int c, std::int64_t k) {
    const std::size_t i = static_cast<std::size_t>(c + k) % kN;
    return std::vector<Job>{{reqs[i], oracle[i], i}};
  };
  r.set("callers", callers, "count");
  timed_phases(args, r, tracer, *svc, next, "closed loop");

  if (args.trace) {
    std::vector<Shape> shapes;
    for (std::size_t i = 0; i < kN; ++i)
      shapes.push_back({pair_name(kRoster[i].dataset, kRoster[i].kind), reqs[i].model,
                        reqs[i].dataset, reqs[i].options, true, nullptr});
    replay_shapes(shapes, oracle, tracer, r);
  }
  r.set("peak_rss_mb", peak_rss_mb(), "MiB");
}

// ---- prune_sweep --------------------------------------------------------------

void run_prune_sweep(const Args& args, Result& r, Tracer& tracer) {
  static const PairSpec kPairs[] = {
      {"PU", GnnModelKind::kGcn}, {"PU", GnnModelKind::kSage},
      {"FL", GnnModelKind::kGcn}, {"FL", GnnModelKind::kSage},
      {"RE", GnnModelKind::kGcn}, {"RE", GnnModelKind::kSage}};
  constexpr std::size_t kN = sizeof(kPairs) / sizeof(kPairs[0]);

  // Every request's model is derived from (seed, caller, burst, member),
  // so a sampled answer's oracle can be recomputed after the run.
  struct Desc {
    std::size_t pair = 0;
    std::uint64_t weight_seed = 0;
    double sparsity = 0.0;
  };
  auto describe = [&](int c, std::int64_t k, int j) {
    Desc d;
    d.pair = static_cast<std::size_t>(k * callers_for_host() + c) % kN;
    d.weight_seed = mix(mix(args.seed, static_cast<std::uint64_t>(c)),
                        (static_cast<std::uint64_t>(k) << 8) | static_cast<std::uint64_t>(j));
    d.sparsity = kPruneLevels[static_cast<std::size_t>(k + j) % 5];
    return d;
  };

  Datasets datasets;
  std::unique_ptr<InferenceService> svc;
  PhaseTally warm{"warmup", 0.0};
  const double setup_s = median_setup_s(kSetupRounds, [&](int round) {
    svc.reset();
    datasets.clear();  // free the previous round's inputs first
    const Clock::time_point t0 = Clock::now();
    std::map<std::string, double> gen_ms;
    datasets = generate_datasets(kPairs, args.seed, gen_ms);
    svc = std::make_unique<InferenceService>(ServiceOptions{});
    // Warm the tile pool and the worker pool: one pruned request per pair
    // (models used nowhere else), checked against the oracle after the
    // set-up time is taken.
    std::vector<ServiceRequest> warm_reqs;
    std::vector<RequestId> ids;
    for (std::size_t i = 0; i < kN; ++i) {
      const Clock::time_point g = Clock::now();
      ServiceRequest req;
      req.dataset = datasets[kPairs[i].dataset];
      req.model = std::make_shared<const GnnModel>(
          make_model(kPairs[i].kind, *req.dataset, mix(args.seed, 0xfeedull + i), 0.7));
      if (round == 0)
        r.set("graph.materialize_ms." + pair_name(kPairs[i].dataset, kPairs[i].kind),
              gen_ms[kPairs[i].dataset] + ms_since(g), "ms");
      ids.push_back(svc->submit(req));
      warm_reqs.push_back(std::move(req));
    }
    std::vector<std::uint64_t> got(kN, 0);
    std::vector<bool> ok(kN, false);
    for (std::size_t i = 0; i < kN; ++i) {
      try {
        got[i] = svc->wait(ids[i]).deterministic_fingerprint();
        ok[i] = true;
      } catch (const std::exception&) {
      }
    }
    const double s = ms_since(t0) / 1000.0;
    if (round == kSetupRounds - 1) {
      for (std::size_t i = 0; i < kN; ++i) {
        ++warm.sent;
        if (!ok[i]) ++warm.failed;
        else if (got[i] != oracle_fingerprint(*warm_reqs[i].model, *warm_reqs[i].dataset,
                                              warm_reqs[i].options))
          ++warm.mismatched;
        else ++warm.ok;
      }
    }
    return s;
  });
  r.phase(warm);
  r.set("setup_s", setup_s, "s");

  std::mutex desc_mu;
  std::vector<Desc> descs;
  std::atomic<std::int64_t> gen_us{0};
  const NextBurst next = [&](int c, std::int64_t k) {
    std::vector<Job> burst;
    for (int j = 0; j < kPruneBurst; ++j) {
      const Desc d = describe(c, k, j);
      const Clock::time_point g = Clock::now();
      Job job;
      job.req.dataset = datasets.at(kPairs[d.pair].dataset);
      job.req.model = std::make_shared<const GnnModel>(
          make_model(kPairs[d.pair].kind, *job.req.dataset, d.weight_seed, d.sparsity));
      gen_us.fetch_add(static_cast<std::int64_t>(ms_since(g) * 1000.0));
      std::lock_guard<std::mutex> lk(desc_mu);
      job.tag = descs.size();
      descs.push_back(d);
      burst.push_back(std::move(job));
    }
    return burst;
  };
  r.set("callers", callers_for_host(), "count");
  r.set("burst", kPruneBurst, "count");
  const std::vector<Answer> answers = timed_phases(args, r, tracer, *svc, next, "bursts");
  r.set("input.model_gen_ms_per_req",
        descs.empty() ? 0.0 : static_cast<double>(gen_us.load()) / 1000.0 /
                                  static_cast<double>(descs.size()),
        "ms");

  // Oracle on a seeded sample, after the timed phase: up to two answers
  // per pair. Answers arrive in completion order, so they are put in
  // request order before the seeded shuffle.
  std::mt19937_64 rng(mix(args.seed, 0x5a3b1eull));
  std::vector<Answer> shuffled = answers;
  std::sort(shuffled.begin(), shuffled.end(), [&](const Answer& a, const Answer& b) {
    return descs[a.tag].weight_seed < descs[b.tag].weight_seed;
  });
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  std::vector<int> per_pair(kN, 0);
  PhaseTally check{"oracle sample (after timing)", 0.0};
  for (const Answer& a : shuffled) {
    const Desc d = descs[a.tag];
    if (per_pair[d.pair] >= kPruneOracleSample / static_cast<int>(kN)) continue;
    ++per_pair[d.pair];
    const std::shared_ptr<const Dataset>& ds = datasets.at(kPairs[d.pair].dataset);
    const GnnModel m = make_model(kPairs[d.pair].kind, *ds, d.weight_seed, d.sparsity);
    if (oracle_fingerprint(m, *ds) == a.fingerprint) ++check.ok;
    else ++check.mismatched;
  }
  r.phase(check);
  char note[128];
  std::snprintf(note, sizeof(note),
                "oracle checked a seeded sample of %lld of %zu answers (2 per pair)",
                static_cast<long long>(check.ok + check.mismatched), answers.size());
  r.note(note);

  if (args.trace) {
    // Two distinct models per pair: compile both (the second compile of a
    // dataset hits the tile pool, as in the service), execute the first.
    std::vector<Shape> shapes;
    std::vector<std::uint64_t> oracle;
    for (int rep = 0; rep < 2; ++rep) {
      for (std::size_t i = 0; i < kN; ++i) {
        const std::shared_ptr<const Dataset>& ds = datasets[kPairs[i].dataset];
        Shape sh;
        sh.pair = pair_name(kPairs[i].dataset, kPairs[i].kind);
        sh.dataset = ds;
        sh.model = std::make_shared<const GnnModel>(make_model(
            kPairs[i].kind, *ds, mix(args.seed, 0xabcull + i * 2 + rep), kPruneLevels[i % 5]));
        sh.execute = rep == 0;
        oracle.push_back(sh.execute ? oracle_fingerprint(*sh.model, *ds) : 0);
        shapes.push_back(std::move(sh));
      }
    }
    replay_shapes(shapes, oracle, tracer, r);
  }
  r.set("peak_rss_mb", peak_rss_mb(), "MiB");
}

}  // namespace perfbench
