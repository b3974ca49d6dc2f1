#pragma once
// Optimized implementations of the three computation primitives.
//
// GEMM, SpDMM and SPMM are *numerically identical* operations — they all
// compute Z = X * Y — and differ only in which zero elements they skip
// (paper Section III-A). These host-side kernels are the functional ground
// truth: the simulator's per-tile execution and the end-to-end engine are
// both validated against them, and the property tests assert the three
// primitives agree on random inputs across the whole density grid.
//
// Accumulation order: all kernels accumulate in the order k = 0..n-1 for
// output (i, j) += X(i, k) * Y(k, j), so results are bit-identical across
// primitives, not merely close.
//
// Implementation strategy (this is the host hot path): every kernel
// normalizes its operands once — dense operands to row-major, sparse
// operands to CSR / row-major COO — then streams contiguous row spans
// through raw pointers. The layout branch that DenseMatrix::at() pays per
// element is hoisted entirely out of the inner loops, which lets the
// compiler vectorize the j-loop. The seed kernels are preserved verbatim
// in matrix_ops_ref.hpp; the kernel-equivalence tests assert bit-identical
// output between the two families.

#include "matrix/coo_matrix.hpp"
#include "matrix/csr_matrix.hpp"
#include "matrix/dense_matrix.hpp"

namespace dynasparse {

/// Dense x dense -> dense (row-major). The GEMM primitive.
DenseMatrix gemm(const DenseMatrix& x, const DenseMatrix& y);

/// Sparse x dense -> dense. The SpDMM primitive: skips zeros of X.
DenseMatrix spdmm(const CooMatrix& x, const DenseMatrix& y);
/// CSR-first SpDMM: the preferred operand format for host kernels (row
/// spans of X pair with row spans of Y with no per-entry row lookup).
DenseMatrix spdmm(const CsrMatrix& x, const DenseMatrix& y);

/// Dense x sparse -> dense. SpDMM with the *second* operand sparse (the
/// hardware handles this by loading X into BufferO and routing on Y; see
/// Algorithm 7 lines 14-15 which place the sparser operand in BufferU).
DenseMatrix spdmm_rhs(const DenseMatrix& x, const CooMatrix& y);

/// Sparse x sparse -> dense. The SPMM primitive (row-wise product).
DenseMatrix spmm(const CooMatrix& x, const CooMatrix& y);
/// CSR-first SPMM.
DenseMatrix spmm(const CsrMatrix& x, const CsrMatrix& y);

/// CSR x dense -> dense; cache-friendly host kernel used by the naive
/// reference model and the CPU baseline's functional path.
DenseMatrix csr_spdmm(const CsrMatrix& x, const DenseMatrix& y);

/// z += x * y with dense accumulation into a caller-provided tile. All the
/// simulator's functional tile math funnels through these.
void gemm_accumulate(const DenseMatrix& x, const DenseMatrix& y, DenseMatrix& z);
void spdmm_accumulate(const CooMatrix& x, const DenseMatrix& y, DenseMatrix& z);
void spdmm_accumulate(const CsrMatrix& x, const DenseMatrix& y, DenseMatrix& z);
void spdmm_rhs_accumulate(const DenseMatrix& x, const CooMatrix& y, DenseMatrix& z);
void spmm_accumulate(const CooMatrix& x, const CooMatrix& y, DenseMatrix& z);
/// SPMM with the right operand pre-converted to CSR (e.g. a cached
/// Tile::csr_view()), skipping the per-call coo_to_csr.
void spmm_accumulate(const CooMatrix& x, const CsrMatrix& y, DenseMatrix& z);
void spmm_accumulate(const CsrMatrix& x, const CsrMatrix& y, DenseMatrix& z);

}  // namespace dynasparse
