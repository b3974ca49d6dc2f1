#pragma once
// Compilation cache: the DynaSparse amortization idea applied across
// requests. The paper reuses compile-time work when "the sparsity of the
// input graph and GNN model changes" (Section VIII-A); a serving layer
// generalizes that to *any* request stream — two requests that compile the
// same (model, dataset, config) content share one CompiledProgram.
//
// Keys are content hashes (compiler/signature.hpp), so independently
// constructed but identical inputs hit. The cache mechanics — shared_ptr
// entries that outlive LRU eviction while requests execute them,
// in-flight compile dedup via shared_future, poisoned-entry erase on a
// throwing compile — live in the shared util/keyed_future_cache.hpp core
// (also behind the service's ResultCache).
//
// Thread-safe. Capacity 0 disables storage (every call compiles) but
// still counts stats, which keeps the uncached baseline measurable
// through the same code path.

#include <cstdint>
#include <memory>

#include "compiler/compiler.hpp"
#include "compiler/signature.hpp"
#include "matrix/tile_pool.hpp"
#include "util/keyed_future_cache.hpp"
#include "util/memory_budget.hpp"

namespace dynasparse {

struct CacheStats {
  std::int64_t hits = 0;        // key found (ready or in-flight)
  std::int64_t misses = 0;      // key absent; this call compiled
  std::int64_t evictions = 0;   // entries dropped by LRU (count or bytes)
  std::int64_t inflight_joins = 0;  // hits that waited on a compile in flight
  std::int64_t entries = 0;     // current resident entries
  std::int64_t bytes = 0;       // approx resident program bytes
                                // (CompiledProgram::approx_footprint_bytes;
                                // pooled operands excluded — the TilePool
                                // tier accounts those once)
};

class CompilationCache {
 public:
  /// `max_bytes` bounds the approximate resident program footprint (0 =
  /// count-only LRU, the pre-budget behavior); `tier` mirrors those bytes
  /// into a shared MemoryBudget; `pool` routes the dataset operands of
  /// every miss-compile through the shared TilePool (null = private
  /// copies).
  explicit CompilationCache(std::size_t capacity = 16,
                            std::size_t max_bytes = 0,
                            std::shared_ptr<MemoryBudget::Tier> tier = nullptr,
                            std::shared_ptr<TilePool> pool = nullptr)
      : impl_(capacity, max_bytes,
              [](const CompiledProgram& p) { return p.approx_footprint_bytes(); },
              std::move(tier), LockRank::kCompileCache),
        pool_(std::move(pool)) {}

  /// Return the program for (model, ds, cfg), compiling at most once per
  /// content key. May block while another thread compiles the same key.
  /// Throws whatever compile() throws. `token` covers only a compile this
  /// call runs itself: if the leader of an in-flight compile aborts
  /// (cancel/deadline), joined waiters retry — and re-compile under their
  /// own tokens — instead of inheriting the abort
  /// (util/keyed_future_cache.hpp hand-off semantics).
  std::shared_ptr<const CompiledProgram> get_or_compile(
      const GnnModel& model, const Dataset& ds, const SimConfig& cfg,
      const CancellationToken& token = {});

  /// Same, with a caller-precomputed key — the service's memoized path
  /// hashes the compile inputs once for its ResultKey and reuses the hash
  /// here. `key` must equal make_compile_key(model, ds, cfg).
  std::shared_ptr<const CompiledProgram> get_or_compile(
      const CompileKey& key, const GnnModel& model, const Dataset& ds,
      const SimConfig& cfg, const CancellationToken& token = {});

  /// Ready entry for `key`, or nullptr (does not wait on in-flight
  /// compiles and does not touch LRU order or stats).
  std::shared_ptr<const CompiledProgram> peek(const CompileKey& key) const {
    return impl_.peek(key);
  }

  CacheStats stats() const;
  std::size_t capacity() const { return impl_.max_entries(); }
  /// The tile pool sharing this cache's dataset operands, or null.
  const std::shared_ptr<TilePool>& tile_pool() const { return pool_; }
  /// Drop every ready entry (in-flight compiles complete unobserved).
  void clear() { impl_.clear(); }
  /// Budget shrinker hook: evict ready programs down to `target` bytes.
  /// Dropping a program also drops its pool-operand references, which is
  /// what lets the TilePool's own shrink pass (it runs after this one —
  /// reverse registration order) collect the unpinned tiles.
  void shrink_to_bytes(std::size_t target) { impl_.shrink_to_bytes(target); }

 private:
  /// compile() with operands routed through the pool. `dataset_sig` keys
  /// the pool (0 = don't pool).
  CompiledProgram compile_miss(const GnnModel& model, const Dataset& ds,
                               const SimConfig& cfg, const CancellationToken& token,
                               std::uint64_t dataset_sig) const;

  KeyedFutureCache<CompileKey, CompiledProgram> impl_;
  std::shared_ptr<TilePool> pool_;
};

}  // namespace dynasparse
