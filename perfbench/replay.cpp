// Single-thread layer replay: every request shape of a workload goes
// through the public functions the service calls for it, one span per
// call, so each layer's time is measured without touching the program.

#include "compiler/signature.hpp"
#include "matrix/tile_pool.hpp"
#include "net/wire.hpp"
#include "util/parallel.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace dynasparse;

namespace {

constexpr int kWireReps = 200;  // frame encode/decode calls per timing

/// Run `f` inside a span; returns the span id.
template <typename F>
int spanned(Tracer& t, const char* name, int parent, std::uint64_t request, F&& f) {
  const int id = t.begin(name, parent, request);
  f();
  t.end(id);
  return id;
}

}  // namespace

void replay_shapes(const std::vector<Shape>& shapes,
                   const std::vector<std::uint64_t>& oracle, Tracer& tracer,
                   Result& r) {
  ParallelMaxThreadsScope one_thread(1);
  TilePool pool(64);  // as the service's default pool: shared by every shape
  PhaseTally tally{"replay (1 thread)", 0.0};
  std::vector<double> dsig_ms, compile_ms, partition_ms, sparsity_ms, ir_ms,
      unattributed_compile_ms, report_ms, encode_submit_us, decode_submit_us,
      encode_result_us;
  std::vector<int> roots;
  double gemm = 0, spdmm = 0, spmm = 0, skipped = 0;
  int executed = 0;

  for (std::size_t i = 0; i < shapes.size(); ++i) {
    const Shape& sh = shapes[i];
    const std::uint64_t req = i + 1;
    const int root = tracer.begin("replay." + sh.pair, -1, req);
    roots.push_back(root);
    const int key_span = spanned(tracer, "compiler.make_compile_key", root, req, [&] {
      (void)make_compile_key(*sh.model, *sh.dataset, sh.options.config);
    });
    std::uint64_t dsig = 0;
    const int dsig_span = spanned(tracer, "compiler.dataset_signature", root, req,
                                  [&] { dsig = dataset_signature(*sh.dataset); });
    const int compile_span = tracer.begin("compiler.compile", root, req);
    const CompiledProgram prog = compile(*sh.model, *sh.dataset, sh.options.config, {},
                                         OperandSource{&pool, dsig});
    tracer.end(compile_span);

    const std::string pair = sh.pair;
    if (!r.has("compiler.compile_key_ms." + pair))
      r.set("compiler.compile_key_ms." + pair, tracer.duration_ms(key_span), "ms");
    dsig_ms.push_back(tracer.duration_ms(dsig_span));
    const double cms = tracer.duration_ms(compile_span);
    compile_ms.push_back(cms);
    partition_ms.push_back(prog.stats.partition_ms);
    sparsity_ms.push_back(prog.stats.sparsity_ms);
    ir_ms.push_back(prog.stats.ir_ms);
    unattributed_compile_ms.push_back(cms - prog.stats.total_ms());

    if (sh.execute) {
      RuntimeOptions rt = sh.options.runtime;
      rt.host_threads = 1;
      const int exec_span = tracer.begin("runtime.execute", root, req);
      ExecutionResult ex = execute(prog, rt);
      tracer.end(exec_span);
      for (const KernelExecutionReport& k : ex.kernels) {
        gemm += static_cast<double>(k.pairs_gemm);
        spdmm += static_cast<double>(k.pairs_spdmm);
        spmm += static_cast<double>(k.pairs_spmm);
        skipped += static_cast<double>(k.pairs_skipped);
      }
      ++executed;
      const int report_span = tracer.begin("core.assemble_compiled_report", root, req);
      InferenceReport rep = assemble_compiled_report(prog, rt, std::move(ex));
      tracer.end(report_span);
      rep.dataset_tag = sh.dataset->spec.tag;
      if (!r.has("runtime.execute_ms." + pair))
        r.set("runtime.execute_ms." + pair, tracer.duration_ms(exec_span), "ms");
      report_ms.push_back(tracer.duration_ms(report_span));
      ++tally.sent;
      if (i < oracle.size() && oracle[i] != 0 &&
          rep.deterministic_fingerprint() != oracle[i])
        ++tally.mismatched;
      else
        ++tally.ok;
    }

    if (sh.spec != nullptr) {
      StreamRequestSpec one = *sh.spec;
      one.repeat = 1;
      std::vector<std::uint8_t> frame;
      const int enc = spanned(tracer, "net.encode_submit", root, req, [&] {
        for (int k = 0; k < kWireReps; ++k) frame = encode_submit(k + 1, one);
      });
      const int dec = spanned(tracer, "net.decode_submit", root, req, [&] {
        for (int k = 0; k < kWireReps; ++k) {
          WireFrame f;
          std::size_t used = 0;
          if (try_extract_frame(frame.data(), frame.size(), f, used)) (void)decode_submit(f);
        }
      });
      WireResult res;
      res.fingerprint = i < oracle.size() ? oracle[i] : 0;
      std::vector<std::uint8_t> reply;
      const int enc_res = spanned(tracer, "net.encode_result", root, req, [&] {
        for (int k = 0; k < kWireReps; ++k) reply = encode_result(k + 1, res);
      });
      const double per_call_us = 1000.0 / kWireReps;
      encode_submit_us.push_back(tracer.duration_ms(enc) * per_call_us);
      decode_submit_us.push_back(tracer.duration_ms(dec) * per_call_us);
      encode_result_us.push_back(tracer.duration_ms(enc_res) * per_call_us);
    }
    tracer.end(root);
  }
  r.phase(tally);

  r.set("compiler.dataset_signature_ms", median(dsig_ms), "ms");
  r.set("compiler.compile_ms.p50", median(compile_ms), "ms");
  r.set("compiler.partition_ms.p50", median(partition_ms), "ms");
  r.set("compiler.sparsity_ms.p50", median(sparsity_ms), "ms");
  r.set("compiler.ir_ms.p50", median(ir_ms), "ms");
  r.set("compiler.unattributed_ms.p50", median(unattributed_compile_ms), "ms");
  r.set("compiler.compile_samples", static_cast<double>(compile_ms.size()), "count");
  r.set("runtime.report_ms", median(report_ms), "ms");
  if (executed > 0) {
    const double n = executed;
    r.set("runtime.pairs_gemm", gemm / n, "count");
    r.set("runtime.pairs_spdmm", spdmm / n, "count");
    r.set("runtime.pairs_spmm", spmm / n, "count");
    r.set("runtime.pairs_skipped", skipped / n, "count");
  }
  if (!encode_submit_us.empty()) {
    r.set("net.encode_submit_us", median(encode_submit_us), "us");
    r.set("net.decode_submit_us", median(decode_submit_us), "us");
    r.set("net.encode_result_us", median(encode_result_us), "us");
  }

  // How much of the replay's wall time the layer spans account for; the
  // rest (the replay's own self time) is shown, not hidden.
  double wall = 0.0, unattributed = 0.0;
  for (int root : roots) {
    wall += tracer.duration_ms(root);
    unattributed += tracer.self_time_ms(root);
  }
  r.set("replay.wall_ms", wall, "ms");
  r.set("replay.attributed_share", wall > 0 ? (wall - unattributed) / wall : 0.0, "ratio");
  r.set("replay.unattributed_ms", unattributed, "ms");

  // Self time per layer span, summed over the replay.
  for (const char* name :
       {"compiler.make_compile_key", "compiler.dataset_signature", "compiler.compile",
        "runtime.execute", "core.assemble_compiled_report", "net.encode_submit",
        "net.decode_submit", "net.encode_result"}) {
    double s = 0.0;
    for (double v : tracer.self_times_ms(name)) s += v;
    if (s > 0.0) r.set(std::string("replay.self_ms.") + name, s, "ms");
  }
}

}  // namespace perfbench
