// serve_small: an open loop of seeded Poisson arrivals over loopback TCP
// to an in-process NetServer + InferenceService, sending the
// synthetic_stream roster (the traffic dynasparse_loadgen sends). A base
// phase at a fixed rate gives the latency metrics; an ascending ladder of
// fixed rates gives the highest rate that meets the p99 limit.

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <mutex>
#include <random>
#include <thread>

#include "net/client.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace dynasparse;

namespace {

// The workload's fixed load shape (perfbench/README.md).
constexpr double kBaseRate = 100.0;      // req/s of the base phase
constexpr std::int64_t kBaseMin = 1000;  // base samples, so p99 has 10 beyond
constexpr double kLadderStart = 150.0;   // req/s of the first rung
constexpr double kLadderStep = 1.08;     // rung spacing (8%)
constexpr int kLadderRungs = 16;         // 150 .. ~476 req/s
constexpr double kBaseShare = 0.45;      // of --seconds, for the base phase
constexpr double kRungShare = 0.06;      // of --seconds, per ladder rung
constexpr int kSetupRoundsServe = 9;     // set-up is short: take more rounds
constexpr double kP99LimitMs = 100.0;    // the ladder's latency limit
constexpr int kRosterSize = 5;           // synthetic_stream's roster length

struct Shot {
  std::size_t spec = 0;   // roster index
  double sched_ms = 0.0;  // scheduled send, from phase start
};

std::vector<Shot> poisson_plan(double rate, std::int64_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap_s(rate);
  std::vector<Shot> plan;
  plan.reserve(static_cast<std::size_t>(n));
  double t = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    t += gap_s(rng) * 1000.0;
    plan.push_back({static_cast<std::size_t>(i) % kRosterSize, t});
  }
  return plan;
}

Clock::time_point at(Clock::time_point start, double ms) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double, std::milli>(ms));
}

std::int64_t ns_of(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch())
      .count();
}

struct OpenLoop {
  PhaseTally tally;
  std::vector<double> latency_ms;      // correct answers, from scheduled send
  std::vector<double> server_ms;       // WireResult::server_ms
  std::vector<double> client_overhead_ms;  // from actual send, minus server_ms
  std::vector<double> gen_lag_ms;      // actual send - scheduled send
  std::vector<RequestTiming> timings;  // in-process phases only
  std::int64_t outstanding_at_last_send = 0;
};

/// Run `plan` over `conns` loopback connections, one submitter and one
/// reaper thread each.
OpenLoop run_net(std::uint16_t port, const std::vector<StreamRequestSpec>& roster,
                 const std::vector<std::uint64_t>& oracle, const std::vector<Shot>& plan,
                 int conns, Tracer& tracer) {
  OpenLoop out;
  const std::size_t n = plan.size();
  std::vector<std::atomic<int>> span_of(n);
  std::vector<std::atomic<std::int64_t>> sent_ns(n);
  std::atomic<std::int64_t> received{0};
  std::mutex mu;  // guards `out`
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);

  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      std::vector<std::size_t> mine;  // shot indices, in send order
      for (std::size_t i = static_cast<std::size_t>(c); i < n;
           i += static_cast<std::size_t>(conns))
        mine.push_back(i);
      std::int64_t handled = 0;
      std::unique_ptr<NetClient> client;
      try {
        client = std::make_unique<NetClient>("127.0.0.1", port, 10000);
      } catch (const std::exception&) {
        std::lock_guard<std::mutex> lk(mu);
        out.tally.unanswered += static_cast<std::int64_t>(mine.size());
        return;
      }
      std::thread submitter([&] {
        try {
          for (std::size_t i : mine) {
            const Clock::time_point due = at(start, plan[i].sched_ms);
            std::this_thread::sleep_until(due);
            const Clock::time_point now = Clock::now();
            span_of[i].store(tracer.record("net.request", due, due, -1, i + 1, true));
            {
              ScopedSpan s(tracer, "net.client.submit", span_of[i].load(), i + 1);
              sent_ns[i].store(ns_of(Clock::now()));
              client->submit(roster[plan[i].spec]);
            }
            std::lock_guard<std::mutex> lk(mu);
            out.gen_lag_ms.push_back(ms_between(due, now));
            if (i + 1 == n)
              out.outstanding_at_last_send = static_cast<std::int64_t>(n) - received.load();
          }
        } catch (const std::exception&) {
          // A dead connection: the reaper times out and counts the rest.
        }
      });
      try {
        for (; handled < static_cast<std::int64_t>(mine.size()); ++handled) {
          NetClient::Outcome o = client->await_any();
          const Clock::time_point now = Clock::now();
          received.fetch_add(1);
          // Correlation ids count up from 1 per client, in send order.
          if (o.corr == 0 || o.corr > mine.size()) {
            std::lock_guard<std::mutex> lk(mu);
            ++out.tally.failed;
            continue;
          }
          const std::size_t i = mine[o.corr - 1];
          tracer.end(span_of[i].load());
          const double lat = ms_between(at(start, plan[i].sched_ms), now);
          const double from_send = static_cast<double>(ns_of(now) - sent_ns[i].load()) / 1e6;
          std::lock_guard<std::mutex> lk(mu);
          if (!o.ok) {
            ++out.tally.failed;
          } else if (o.result.fingerprint != oracle[plan[i].spec]) {
            ++out.tally.mismatched;
          } else {
            ++out.tally.ok;
            out.latency_ms.push_back(lat);
            out.server_ms.push_back(o.result.server_ms);
            out.client_overhead_ms.push_back(from_send - o.result.server_ms);
          }
        }
      } catch (const std::exception&) {
        // Transport failure: what the reaper never handled is unanswered.
      }
      submitter.join();
      std::lock_guard<std::mutex> lk(mu);
      out.tally.unanswered += static_cast<std::int64_t>(mine.size()) - handled;
    });
  }
  for (std::thread& t : threads) t.join();
  out.tally.sent = static_cast<std::int64_t>(n);
  return out;
}

/// The same schedule submitted in process (no network): the service's
/// own RequestTiming gives queue wait and execution time.
OpenLoop run_in_process(InferenceService& svc, const std::vector<ServiceRequest>& reqs,
                        const std::vector<std::uint64_t>& oracle,
                        const std::vector<Shot>& plan, int conns, Tracer& tracer) {
  OpenLoop out;
  const std::size_t n = plan.size();
  std::mutex mu;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      std::mutex qmu;
      std::condition_variable qcv;
      std::deque<std::pair<std::size_t, RequestId>> queue;
      bool done = false;
      std::thread submitter([&] {
        for (std::size_t i = static_cast<std::size_t>(c); i < n;
             i += static_cast<std::size_t>(conns)) {
          const Clock::time_point due = at(start, plan[i].sched_ms);
          std::this_thread::sleep_until(due);
          RequestId id = 0;
          {
            ScopedSpan s(tracer, "service.submit", -1, i + 1);
            id = svc.submit(reqs[plan[i].spec]);
          }
          std::lock_guard<std::mutex> lk(qmu);
          queue.emplace_back(i, id);
          qcv.notify_one();
        }
        std::lock_guard<std::mutex> lk(qmu);
        done = true;
        qcv.notify_one();
      });
      for (;;) {
        std::pair<std::size_t, RequestId> item;
        {
          std::unique_lock<std::mutex> lk(qmu);
          qcv.wait(lk, [&] { return !queue.empty() || done; });
          if (queue.empty()) break;
          item = queue.front();
          queue.pop_front();
        }
        RequestTiming t;
        bool ok = false, match = false;
        try {
          ScopedSpan s(tracer, "service.wait", -1, item.first + 1);
          const InferenceReport rep = svc.wait(item.second, &t);
          ok = true;
          match = rep.deterministic_fingerprint() == oracle[plan[item.first].spec];
        } catch (const std::exception&) {
        }
        std::lock_guard<std::mutex> lk(mu);
        if (!ok) ++out.tally.failed;
        else if (!match) ++out.tally.mismatched;
        else {
          ++out.tally.ok;
          out.timings.push_back(t);
        }
      }
      submitter.join();
    });
  }
  for (std::thread& t : threads) t.join();
  out.tally.sent = static_cast<std::int64_t>(n);
  return out;
}

struct Stack {
  std::unique_ptr<InferenceService> service;
  std::unique_ptr<NetServer> server;  // declared last: destroyed first
};

}  // namespace

void run_serve_small(const Args& args, Result& r, Tracer& tracer) {
  const int conns = std::max(1, std::min(4, host_nproc()) / 2);
  std::vector<StreamRequestSpec> roster =
      expand_stream(synthetic_stream(kRosterSize, args.seed));

  // Oracle: one plain compile + run per distinct content (outside the
  // set-up time). The materialized requests also feed the in-process
  // phase and the layer replay.
  std::vector<ServiceRequest> reqs;
  std::vector<std::uint64_t> oracle;
  for (const StreamRequestSpec& spec : roster) {
    const Clock::time_point t0 = Clock::now();
    ServiceRequest req = materialize_request(spec);
    r.set("graph.materialize_ms." + pair_name(spec.dataset, spec.model), ms_since(t0),
          "ms");
    oracle.push_back(oracle_fingerprint(*req.model, *req.dataset, req.options));
    reqs.push_back(std::move(req));
  }

  // Set-up: service + server start and one warm-up request per content
  // over the wire (the server materializes and compiles each once).
  Stack stack;
  PhaseTally warm{"warmup", 0.0};
  const double setup_s = median_setup_s(kSetupRoundsServe, [&](int) {
    stack.server.reset();  // the server uses the service: stop it first
    stack.service.reset();
    const Clock::time_point t0 = Clock::now();
    stack.service = std::make_unique<InferenceService>(ServiceOptions{});
    stack.server = std::make_unique<NetServer>(*stack.service);
    stack.server->start();
    NetClient client("127.0.0.1", stack.server->port(), 30000);
    for (std::size_t i = 0; i < roster.size(); ++i) {
      ++warm.sent;
      NetClient::Outcome o = client.await(client.submit(roster[i]));
      if (!o.ok) ++warm.failed;
      else if (o.result.fingerprint != oracle[i]) ++warm.mismatched;
      else ++warm.ok;
    }
    return ms_since(t0) / 1000.0;
  });
  r.phase(warm);
  r.set("setup_s", setup_s, "s");
  const std::uint16_t port = stack.server->port();
  InferenceService& svc = *stack.service;

  // Settle: one second at the base rate before anything is timed, so
  // first-touch allocation and thread start-up stay out of the tail.
  {
    PhaseTally settle =
        run_net(port, roster, oracle,
                poisson_plan(kBaseRate, std::llround(kBaseRate), args.seed * 7919 + 99),
                conns, tracer)
            .tally;
    settle.name = "settle (untimed)";
    settle.rate_rps = kBaseRate;
    r.phase(settle);
  }

  const CpuTicks ticks0 = read_cpu_ticks();
  const double cpu0 = process_cpu_ms();
  const NetServerStats net0 = stack.server->stats();
  const ServiceCounters c0 = read_counters(svc);
  std::int64_t attempted = 0;  // timed phases only: the CPU-per-request base
  double gen_lag_p99 = 0.0;

  const std::int64_t base_n = std::max<std::int64_t>(
      kBaseMin, std::llround(kBaseRate * kBaseShare * args.seconds));
  const std::vector<Shot> base_plan = poisson_plan(kBaseRate, base_n, args.seed * 7919 + 1);

  auto report_base = [&](const OpenLoop& b, const std::string& phase) {
    PhaseTally t = b.tally;
    t.name = phase;
    t.rate_rps = kBaseRate;
    r.phase(t);
    attempted += t.sent;
  };

  if (!args.trace) {
    const OpenLoop base = run_net(port, roster, oracle, base_plan, conns, tracer);
    report_base(base, "base");
    r.set("latency_p50_ms", percentile(base.latency_ms, 50), "ms");
    r.set("latency_p90_ms", percentile(base.latency_ms, 90), "ms");
    r.set("latency_p99_ms", percentile(base.latency_ms, 99), "ms");
    r.set("latency_samples", static_cast<double>(base.latency_ms.size()), "count");
    // Peak RSS of set-up and the base phase: the ladder's in-flight count
    // varies with where it stops, so it stays out of this metric.
    r.set("peak_rss_mb", peak_rss_mb(), "MiB");
    gen_lag_p99 = percentile(base.gen_lag_ms, 99);

    // Ladder: each rung runs to completion (drained) before the next;
    // stop after two consecutive failing rungs.
    const double rung_s = kRungShare * args.seconds;
    double slo_rate = 0.0, peak_achieved = 0.0, ladder_lag_p99 = 0.0;
    int fails_in_row = 0;
    double rate = kLadderStart;
    for (int k = 0; k < kLadderRungs && fails_in_row < 2; ++k, rate *= kLadderStep) {
      const auto n = static_cast<std::int64_t>(std::llround(rate * rung_s));
      const std::vector<Shot> plan =
          poisson_plan(rate, n, args.seed * 7919 + 100 + static_cast<std::uint64_t>(k));
      const Clock::time_point t0 = Clock::now();
      const OpenLoop rung = run_net(port, roster, oracle, plan, conns, tracer);
      const double wall_s = ms_since(t0) / 1000.0;
      const double p99 = percentile(rung.latency_ms, 99);
      const bool backlog =
          static_cast<double>(rung.outstanding_at_last_send) > rate * kP99LimitMs / 1000.0;
      const bool pass = rung.tally.errors() == 0 && p99 <= kP99LimitMs && !backlog;
      PhaseTally t = rung.tally;
      char name[64];
      std::snprintf(name, sizeof(name), "ladder.%02d p99=%.1fms%s%s", k, p99,
                    backlog ? " backlog" : "", pass ? " pass" : " FAIL");
      t.name = name;
      t.rate_rps = rate;
      r.phase(t);
      attempted += t.sent;
      peak_achieved = std::max(peak_achieved, static_cast<double>(t.ok) / wall_s);
      ladder_lag_p99 = std::max(ladder_lag_p99, percentile(rung.gen_lag_ms, 99));
      if (pass) {
        slo_rate = rate;
        fails_in_row = 0;
      } else {
        ++fails_in_row;
      }
    }
    r.set("slo_rate_rps", slo_rate, "req/s");
    r.set("throughput_rps", slo_rate, "req/s");
    r.set("ladder.peak_achieved_rps", peak_achieved, "req/s");
    // Near saturation the generator shares the CPUs with the server, so
    // its lateness on the ladder is shown but does not flag the run.
    r.set("ladder.gen_lag_ms.p99", ladder_lag_p99, "ms");
  } else {
    // Traced run: the base schedule untraced, then traced, over the
    // wire; then the same schedule in process for the service's own
    // queue/exec split; then the single-thread layer replay (all traced).
    std::vector<Shot> plan = base_plan;
    plan.resize(std::min<std::size_t>(
        plan.size(), static_cast<std::size_t>(std::llround(kBaseRate * 0.3 * args.seconds))));
    const OpenLoop plain = run_net(port, roster, oracle, plan, conns, tracer);
    report_base(plain, "base (untraced)");
    tracer.set_enabled(true);
    const OpenLoop traced = run_net(port, roster, oracle, plan, conns, tracer);
    report_base(traced, "base (traced)");
    const double p50_plain = percentile(plain.latency_ms, 50);
    const double p50_traced = percentile(traced.latency_ms, 50);
    r.set("trace.overhead_pct",
          p50_plain > 0 ? (p50_traced - p50_plain) / p50_plain * 100.0 : 0.0, "%");
    r.set("net.client_overhead_ms.p50", percentile(traced.client_overhead_ms, 50), "ms");
    r.set("net.client_overhead_ms.p99", percentile(traced.client_overhead_ms, 99), "ms");
    r.set("net.server_ms.p50", percentile(traced.server_ms, 50), "ms");
    r.set("net.server_ms.p99", percentile(traced.server_ms, 99), "ms");
    gen_lag_p99 = std::max(percentile(plain.gen_lag_ms, 99), percentile(traced.gen_lag_ms, 99));

    const OpenLoop local = run_in_process(svc, reqs, oracle, plan, conns, tracer);
    report_base(local, "base (in process)");
    std::vector<double> q, e;
    for (const RequestTiming& t : local.timings) {
      q.push_back(t.queue_ms);
      e.push_back(t.exec_ms);
    }
    r.set("service.queue_ms.p50", percentile(q, 50), "ms");
    r.set("service.queue_ms.p99", percentile(q, 99), "ms");
    r.set("service.exec_ms.p50", percentile(e, 50), "ms");
    r.set("service.exec_ms.p90", percentile(e, 90), "ms");
  }
  r.set("net.gen_lag_ms.p99", gen_lag_p99, "ms");

  const double cpu_ms = process_cpu_ms() - cpu0;
  const NetServerStats net1 = stack.server->stats();
  r.set("net.errors_sent", static_cast<double>(net1.errors_sent - net0.errors_sent), "count");
  r.set("net.protocol_errors",
        static_cast<double>(net1.protocol_errors - net0.protocol_errors), "count");
  report_counters(r, c0, read_counters(svc));
  r.set("cpu_ms_per_req", attempted > 0 ? cpu_ms / static_cast<double>(attempted) : 0.0,
        "ms");
  report_host(r, ticks0, read_cpu_ticks(), gen_lag_p99);

  if (args.trace) {
    std::vector<Shape> shapes;
    for (std::size_t i = 0; i < roster.size(); ++i)
      shapes.push_back({pair_name(roster[i].dataset, roster[i].model), reqs[i].model,
                        reqs[i].dataset, reqs[i].options, true, &roster[i]});
    replay_shapes(shapes, oracle, tracer, r);
  }
  stack.server->stop();
  if (!r.has("peak_rss_mb")) r.set("peak_rss_mb", peak_rss_mb(), "MiB");
}

}  // namespace perfbench
