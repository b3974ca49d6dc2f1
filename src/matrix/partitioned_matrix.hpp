#pragma once
// Tiled matrix with per-tile storage format and density metadata.
//
// The compiler partitions every operand (paper Section IV-C): the adjacency
// matrix A into N1 x N1 blocks, feature matrices H into N1 x N2 tiles, and
// weight matrices W into N2 x N2 blocks. Different parts of one matrix can
// have very different densities, so each tile independently records its
// density and is stored dense or COO — this is exactly what enables the
// paper's *fine-grained* kernel-to-primitive mapping (Section VI-B) and
// the empty-partition skip (Algorithm 7 line 6-7).
//
// Tiles are value types; an all-zero tile stores nothing (kEmpty).

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "matrix/coo_matrix.hpp"
#include "matrix/csr_matrix.hpp"
#include "matrix/dense_matrix.hpp"
#include "util/config.hpp"

namespace dynasparse {

enum class TileFormat { kEmpty, kDense, kCoo };

/// Accumulation operator of a kernel (paper IR Table II: Sum/Mean/Max/Min;
/// Mean folds into adjacency weights, so tiles only distinguish the reduce).
enum class AccumOp { kSum, kMax, kMin };

/// One data partition. `rows`/`cols` are the tile's actual shape (edge
/// tiles may be smaller than the nominal partition size).
struct Tile {
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  TileFormat format = TileFormat::kEmpty;
  DenseMatrix dense;  // populated iff format == kDense
  CooMatrix coo;      // populated iff format == kCoo (row-major order)
  std::int64_t nnz = 0;

  double density() const {
    if (rows == 0 || cols == 0) return 0.0;
    return static_cast<double>(nnz) / static_cast<double>(rows * cols);
  }
  bool empty() const { return format == TileFormat::kEmpty || nnz == 0; }

  /// Bytes this tile occupies in external memory under its storage format.
  std::size_t ddr_bytes(const SimConfig& cfg) const;

  /// Approximate host-resident bytes of the stored representation (dense
  /// buffer + COO entries; lazily cached views excluded). Feeds the
  /// cache tiers' byte accounting, not the simulated DDR model.
  std::size_t approx_footprint_bytes() const;

  /// Materialize as dense / COO regardless of current format (fresh copy).
  DenseMatrix to_dense() const;
  CooMatrix to_coo() const;

  /// Cached materializations. The first call in any format builds the
  /// representation once (thread-safe); later calls — e.g. the runtime
  /// system pricing many pairs against the same tile, or the same Y strip
  /// tile consumed by every task of an output column — return the cached
  /// copy. Tiles are immutable after factory construction, so the cache
  /// never goes stale; reassigning a Tile replaces it wholesale. Memory:
  /// a cached view lives as long as the tile, bounded by ~3x the tile's
  /// stored footprint (dense of a <=1/3-density COO tile, or COO of a
  /// dense tile); callers that must not retain that (none today) should
  /// use to_dense()/to_coo(), which stay transient.
  const DenseMatrix& dense_view() const;
  const CooMatrix& coo_view() const;
  /// CSR of this tile's nonzeros — the first-class operand format of the
  /// host SPMM kernel (sparse x sparse pairs convert Y once, not per pair).
  const CsrMatrix& csr_view() const;

  /// Build a tile from a computed dense block, profiling its density and
  /// choosing COO storage when density <= sparse_threshold.
  static Tile from_dense(DenseMatrix block, double sparse_threshold);
  /// Build directly from COO entries (kept sparse regardless of density
  /// unless densification wins; entries must be within shape).
  static Tile from_coo(CooMatrix block, double sparse_threshold);
  /// All-zero tile of the given shape.
  static Tile zero(std::int64_t rows, std::int64_t cols);

 private:
  struct ViewCache {
    std::once_flag dense_once, coo_once, csr_once;
    DenseMatrix dense;
    CooMatrix coo;
    CsrMatrix csr;
  };
  // Shared (not per-copy) so copies of a tile reuse one materialization.
  mutable std::shared_ptr<ViewCache> views_ = std::make_shared<ViewCache>();
};

/// z (dense accumulator) op= x * y for two tiles. The functional math is
/// identical for every simulated primitive (GEMM/SpDMM/SPMM all compute the
/// same product); which *cycle model* applies is decided elsewhere.
void accumulate_product(const Tile& x, const Tile& y, DenseMatrix& z,
                        AccumOp op = AccumOp::kSum);

/// Logical rows x cols matrix cut into a grid of tile_rows x tile_cols
/// partitions (edge tiles truncated).
class PartitionedMatrix {
 public:
  PartitionedMatrix() = default;
  /// All-zero partitioned matrix.
  PartitionedMatrix(std::int64_t rows, std::int64_t cols, std::int64_t tile_rows,
                    std::int64_t tile_cols);

  static PartitionedMatrix from_dense(const DenseMatrix& m, std::int64_t tile_rows,
                                      std::int64_t tile_cols, double sparse_threshold);
  static PartitionedMatrix from_coo(const CooMatrix& m, std::int64_t tile_rows,
                                    std::int64_t tile_cols, double sparse_threshold);
  static PartitionedMatrix from_csr(const CsrMatrix& m, std::int64_t tile_rows,
                                    std::int64_t tile_cols, double sparse_threshold);

  std::int64_t rows() const { return rows_; }
  std::int64_t cols() const { return cols_; }
  std::int64_t tile_rows() const { return tile_rows_; }
  std::int64_t tile_cols() const { return tile_cols_; }
  std::int64_t grid_rows() const { return grid_rows_; }
  std::int64_t grid_cols() const { return grid_cols_; }

  const Tile& tile(std::int64_t gi, std::int64_t gj) const;
  Tile& tile(std::int64_t gi, std::int64_t gj);

  /// Shape of tile (gi, gj) accounting for edge truncation.
  std::int64_t tile_row_count(std::int64_t gi) const;
  std::int64_t tile_col_count(std::int64_t gj) const;

  /// Replace tile (gi, gj) from a computed dense block (shape must match);
  /// density is profiled and the storage format chosen by threshold.
  void set_tile_from_dense(std::int64_t gi, std::int64_t gj, DenseMatrix block,
                           double sparse_threshold);

  std::int64_t total_nnz() const;
  double density() const;
  /// Total external-memory footprint of all tiles.
  std::size_t ddr_bytes(const SimConfig& cfg) const;
  /// Host-resident bytes across all tiles (cache accounting, not DDR).
  std::size_t approx_footprint_bytes() const;

  /// Reassemble the full logical matrix (tests / small matrices only).
  DenseMatrix to_dense() const;

  /// Apply f to every stored element; tiles are re-profiled and may change
  /// storage format (e.g. ReLU re-sparsifies). Elements that are
  /// structurally absent (zero) are assumed to satisfy f(0) == 0, which
  /// holds for ReLU/PReLU — asserted in debug builds.
  void apply_elementwise(const std::function<float(float)>& f, double sparse_threshold);

  /// this += other (elementwise); shapes and tilings must match. Used for
  /// GraphSAGE's combine step.
  void add_inplace(const PartitionedMatrix& other, double sparse_threshold);

  /// Per-tile densities flattened row-major over the grid (profiling
  /// snapshot handed to the runtime system).
  std::vector<double> tile_density_map() const;

 private:
  std::size_t grid_index(std::int64_t gi, std::int64_t gj) const {
    return static_cast<std::size_t>(gi * grid_cols_ + gj);
  }

  std::int64_t rows_ = 0, cols_ = 0;
  std::int64_t tile_rows_ = 0, tile_cols_ = 0;
  std::int64_t grid_rows_ = 0, grid_cols_ = 0;
  std::vector<Tile> tiles_;
};

}  // namespace dynasparse
