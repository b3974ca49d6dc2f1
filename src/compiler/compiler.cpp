#include "compiler/compiler.hpp"

#include <functional>
#include <new>
#include <stdexcept>

#include "compiler/signature.hpp"
#include "matrix/tile_pool.hpp"
#include "util/fault_injection.hpp"
#include "util/stopwatch.hpp"

namespace dynasparse {

const PartitionedMatrix& CompiledProgram::adjacency_for(const KernelSpec& spec) const {
  auto it = adjacency.find(AdjOperatorKey{spec.adj, spec.epsilon});
  if (it == adjacency.end())
    throw std::logic_error("adjacency operator not materialized for kernel");
  return *it->second;
}

std::size_t CompiledProgram::approx_footprint_bytes() const {
  std::size_t b = sizeof(CompiledProgram);
  for (const DenseMatrix& w : model.weights) b += w.data().size() * sizeof(float);
  for (const PartitionedMatrix& w : weights) b += w.approx_footprint_bytes();
  b += kernels.size() * sizeof(KernelIR);
  // Dataset operands only when this program privately owns them; pooled
  // copies are the TilePool tier's bytes (charged exactly once there).
  if (!operands_pooled) b += operand_bytes;
  return b;
}

namespace {

/// Shared compilation body; `plan` empty (n1 == 0) means "run the
/// partition planner", otherwise the given plan is reused verbatim.
CompiledProgram compile_impl(const GnnModel& model, const Dataset& ds,
                             const SimConfig& cfg, const PartitionPlan& reuse_plan,
                             const CancellationToken& token,
                             const OperandSource& operands) {
  if (!cfg.valid()) throw std::invalid_argument("invalid SimConfig");
  std::string err;
  if (!validate_model(model, &err)) throw std::invalid_argument("invalid model: " + err);
  if (ds.features.cols() != model.in_dim)
    throw std::invalid_argument("dataset feature dim does not match model in_dim");

  CompiledProgram prog;
  prog.config = cfg;
  prog.model = model;

  // ---- Step 1: IR / computation graph --------------------------------
  Stopwatch sw;
  prog.kernels = build_computation_graph(model, ds.graph);
  if (!validate_computation_graph(prog.kernels))
    throw std::logic_error("computation graph failed validation");
  prog.stats.ir_ms = sw.elapsed_ms();

  // ---- Step 2: data partitioning --------------------------------------
  sw.restart();
  token.check();
  // The chaos layer's allocation-pressure site: Step 2 is where the
  // partitioned operands (the compile's dominant allocations) are
  // materialized, so an injected bad_alloc here exercises the same
  // failure surface a real out-of-memory would.
  if (fault_point(kFaultCompileAlloc)) throw std::bad_alloc();
  if (reuse_plan.n1 > 0) {
    if (reuse_plan.n2 <= 0 || reuse_plan.n1 % cfg.psys != 0 ||
        reuse_plan.n2 % cfg.psys != 0)
      throw std::invalid_argument("reused plan incompatible with config");
    prog.plan = reuse_plan;
  } else {
    std::vector<KernelWorkload> workloads = planner_workloads(prog.kernels);
    prog.plan = plan_partitions(workloads, cfg, token);
  }
  for (KernelIR& k : prog.kernels) attach_scheme(k, prog.plan.n1, prog.plan.n2);

  const double thr = cfg.sparse_storage_threshold;
  // Dataset-derived operands (adjacency, H0) go through the TilePool
  // when one is supplied: equal (dataset, geometry, operand) keys are
  // guaranteed bit-identical tiles — from_csr/from_coo are pure
  // functions of the dataset bytes and this geometry — so programs
  // sharing a dataset share one immutable copy instead of each holding
  // a private one.
  const bool pool_on = operands.pool != nullptr && operands.dataset_sig != 0 &&
                       operands.pool->max_entries() > 0;
  std::uint64_t geometry_sig = 0;
  if (pool_on)
    geometry_sig =
        HashStream().i64(prog.plan.n1).i64(prog.plan.n2).f64(thr).digest();
  auto materialize = [&](std::uint64_t operand_sig,
                         const std::function<PartitionedMatrix()>& build) {
    if (!pool_on) return std::make_shared<const PartitionedMatrix>(build());
    return operands.pool->get_or_build(
        TilePool::Key{operands.dataset_sig, geometry_sig, operand_sig}, build);
  };

  // Materialize each adjacency operator the model references once.
  for (const KernelIR& k : prog.kernels) {
    token.check();
    if (k.spec.kind != KernelKind::kAggregate) continue;
    AdjOperatorKey key{k.spec.adj, k.spec.epsilon};
    if (prog.adjacency.count(key)) continue;
    const std::uint64_t adj_sig = HashStream()
                                      .str("adj")
                                      .i64(static_cast<std::int64_t>(k.spec.adj))
                                      .f64(k.spec.epsilon)
                                      .digest();
    prog.adjacency.emplace(key, materialize(adj_sig, [&] {
      CsrMatrix op = build_adjacency_operator(ds.graph, k.spec.adj, k.spec.epsilon);
      return PartitionedMatrix::from_csr(op, prog.plan.n1, prog.plan.n1, thr);
    }));
  }
  token.check();
  prog.h0 = materialize(HashStream().str("h0").digest(), [&] {
    return PartitionedMatrix::from_coo(ds.features, prog.plan.n1, prog.plan.n2, thr);
  });
  prog.operands_pooled = pool_on;
  prog.operand_bytes = prog.h0->approx_footprint_bytes();
  for (const auto& [akey, adj] : prog.adjacency) {
    (void)akey;
    prog.operand_bytes += adj->approx_footprint_bytes();
  }
  prog.weights.reserve(model.weights.size());
  for (const DenseMatrix& w : model.weights) {
    token.check();
    prog.weights.push_back(
        PartitionedMatrix::from_dense(w, prog.plan.n2, prog.plan.n2, thr));
  }
  prog.stats.partition_ms = sw.elapsed_ms();

  // ---- Step 3: compile-time sparsity profiling ------------------------
  sw.restart();
  token.check();
  prog.h0_profile = profile_partitions(*prog.h0);
  prog.weight_profiles.reserve(prog.weights.size());
  for (const PartitionedMatrix& w : prog.weights)
    prog.weight_profiles.push_back(profile_partitions(w));
  prog.stats.sparsity_ms = sw.elapsed_ms();

  return prog;
}

}  // namespace

CompiledProgram compile(const GnnModel& model, const Dataset& ds, const SimConfig& cfg,
                        const CancellationToken& token, const OperandSource& operands) {
  return compile_impl(model, ds, cfg, PartitionPlan{}, token, operands);
}

CompiledProgram compile_with_plan(const GnnModel& model, const Dataset& ds,
                                  const SimConfig& cfg, const PartitionPlan& plan,
                                  const CancellationToken& token,
                                  const OperandSource& operands) {
  if (plan.n1 <= 0 || plan.n2 <= 0)
    throw std::invalid_argument("compile_with_plan needs a concrete plan");
  return compile_impl(model, ds, cfg, plan, token, operands);
}

}  // namespace dynasparse
