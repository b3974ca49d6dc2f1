// perfbench — the repo benchmark's binary. perfbench/run.py builds it
// and calls
//
//   perfbench --workload <serve_small|offline_large|prune_sweep>
//             --seed <n> --seconds <s> --trace <0|1> --out <dir>
//
// It prints the phase accounting and the metric table, and writes
// <dir>/result-<workload>-<seed>-<trace>.json (every metric) plus, with
// --trace 1, <dir>/trace-<workload>-<seed>.json (Chrome Trace Event
// format). Exit code 0 only when every answer was correct.

#include <cstdio>
#include <cstring>
#include <string>

#include "util/strict_parse.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr, "perfbench: %s\n(see perfbench/README.md)\n", msg.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string key = argv[i];
      if (i + 1 >= argc) usage("missing value for " + key);
      const std::string v = argv[++i];
      if (key == "--workload") args.workload = v;
      else if (key == "--seed") args.seed = dynasparse::strict_stoull(v);
      else if (key == "--seconds") args.seconds = dynasparse::strict_stod(v);
      else if (key == "--trace") args.trace = dynasparse::strict_stoi(v) != 0;
      else if (key == "--out") args.out_dir = v;
      else usage("unknown flag " + key);
    }
  } catch (const std::exception& e) {
    usage(e.what());
  }
  if (!(args.seconds > 0.0)) usage("--seconds must be > 0");

  Result r;
  Tracer tracer;  // the workloads enable it for their traced phases
  if (args.workload == "serve_small") run_serve_small(args, r, tracer);
  else if (args.workload == "offline_large") run_offline_large(args, r, tracer);
  else if (args.workload == "prune_sweep") run_prune_sweep(args, r, tracer);
  else usage("unknown workload '" + args.workload + "'");

  // Failures of every kind over every phase, against requests attempted.
  r.set("error_share",
        r.attempted() > 0 ? static_cast<double>(r.failed()) / static_cast<double>(r.attempted())
                          : 0.0,
        "ratio");
  // The share of timed requests with the property the workload's
  // optimizations target: compile-cache hits, or misses on prune_sweep.
  const double hit = r.get("service.compile_cache.hit_ratio");
  r.set("service.compile_cache.target_share",
        args.workload == "prune_sweep" ? 1.0 - hit : hit, "ratio");

  const std::string stem =
      args.workload + "-" + std::to_string(args.seed) + "-" + (args.trace ? "1" : "0");
  if (args.trace) {
    const std::string trace_path = args.out_dir + "/trace-" + stem + ".json";
    r.set("trace.spans", static_cast<double>(tracer.size()), "count");
    tracer.write_chrome_json(trace_path);
    r.note("chrome trace: " + trace_path);
  }
  r.print();
  r.write_json(args.out_dir + "/result-" + stem + ".json", args);
  return r.correct() ? 0 : 1;
}
