// Packed column-panel storage for block Krylov bases, plus the strided
// kernels that let the whole block Lanczos iteration (growth, BCGS2
// reorthogonalization, Rayleigh-Ritz H-fill, Chebyshev filtering) run
// directly on the packed layout with zero pack/unpack round trips. These
// are the only block kernels in the library; unpacked VectorBlocks appear
// only at API boundaries (warm starts, deflation and locked sets) and are
// packed before any blocked kernel touches them.
//
// Layout: row-major with a fixed leading dimension (`ld`) chosen once at
// Reset() time — element (row r, column c) lives at data[r * ld + c], so
// any group of consecutive columns is a contiguous panel per row. This is
// exactly the layout SparseMatrix::MatVecRowsPanel and the fixed-width
// Gram/multi-AXPY kernels consume, which is what makes the basis storage
// itself the SpMM operand: growing the basis never copies a column.
//
// Kernel shape: two-pass block classical Gram-Schmidt (BCGS2, "twice is
// enough") over cache-blocked panels of kReorthPanelWidth basis columns.
// Each panel step is one Gram sweep over the rows, in register tiles of
// two target lanes x the panel width, and ONE update sweep that serves
// every target column of the block at once: the target lanes are adjacent
// in each row, so a row is read and written once per panel step instead
// of once per (column, panel) pair. The in-panel factorization of
// OrthonormalizeColumns is a pipelined two-pass MGS: each AXPY rides in
// the sweep of the next dot (the last one in the norm's), so a column
// against k kept panel columns costs 2k + 2 sweeps instead of 4k + 2.
//
// Numerical contract: every kernel reproduces, bit for bit, the
// arithmetic of the corresponding single-column vector_ops.h kernel —
// same accumulation order (ascending row index per coefficient, ascending
// panel lane per element) — so fusing columns into one sweep changes no
// bit. The kernels run serially on the calling thread: the projections
// are memory-bound sweeps over a few megabytes, and giving each column its
// own pool task made the tasks share cache lines and re-stream every
// panel, which measured twice as slow as one thread. The solver's pool
// (BlockLanczosOptions::pool) still serves the SpMM and the H-fill.

#ifndef SPECTRAL_LPM_LINALG_PACKED_BASIS_H_
#define SPECTRAL_LPM_LINALG_PACKED_BASIS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/vector_ops.h"

namespace spectral {

/// A block of equal-length column vectors, unpacked: the interchange
/// format at the solver API boundaries.
using VectorBlock = std::vector<Vector>;

/// Basis columns per cache-blocked panel. A Gram tile of two target
/// lanes x eight coefficients lives in registers while the panel's eight
/// basis lanes stay hot in L1/L2 across the Gram and update sweeps.
inline constexpr int64_t kReorthPanelWidth = 8;

/// A block of equal-length column vectors stored as one contiguous
/// row-major buffer with a fixed leading dimension. Columns are cheap
/// views (offsets), never owning allocations; the buffer is sized once
/// and reused across solver restarts.
class PackedBasis {
 public:
  PackedBasis() = default;

  /// (Re)allocates storage for `rows` x `capacity` and fixes the leading
  /// dimension at `capacity`. Existing contents are discarded. Idempotent
  /// when the geometry is unchanged (no reallocation, contents kept).
  void Reset(int64_t rows, int64_t capacity) {
    if (rows == rows_ && capacity == ld_) return;
    rows_ = rows;
    ld_ = capacity;
    data_.assign(static_cast<size_t>(rows) * static_cast<size_t>(capacity),
                 0.0);
  }

  int64_t rows() const { return rows_; }
  int64_t capacity() const { return ld_; }
  /// Leading dimension: the row stride in doubles (== capacity()).
  int64_t ld() const { return ld_; }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// Base pointer of column `c` (stride ld() between rows).
  double* col(int64_t c) { return data_.data() + c; }
  const double* col(int64_t c) const { return data_.data() + c; }

  double& at(int64_t r, int64_t c) {
    return data_[static_cast<size_t>(r) * static_cast<size_t>(ld_) +
                 static_cast<size_t>(c)];
  }
  double at(int64_t r, int64_t c) const {
    return data_[static_cast<size_t>(r) * static_cast<size_t>(ld_) +
                 static_cast<size_t>(c)];
  }

  /// Copies column `src` over column `dst` (no-op when src == dst).
  void CopyColumn(int64_t src, int64_t dst) {
    if (src == dst) return;
    double* d = data_.data();
    for (int64_t r = 0; r < rows_; ++r) d[r * ld_ + dst] = d[r * ld_ + src];
  }

  /// Copies a contiguous Vector into column `dst`.
  void CopyColumnIn(const Vector& src, int64_t dst) {
    double* d = data_.data();
    for (int64_t r = 0; r < rows_; ++r) {
      d[r * ld_ + dst] = src[static_cast<size_t>(r)];
    }
  }

  /// Copies column `src` out into a contiguous Vector (resized to rows()).
  void CopyColumnOut(int64_t src, Vector& dst) const {
    dst.resize(static_cast<size_t>(rows_));
    const double* d = data_.data();
    for (int64_t r = 0; r < rows_; ++r) {
      dst[static_cast<size_t>(r)] = d[r * ld_ + src];
    }
  }

 private:
  int64_t rows_ = 0;
  int64_t ld_ = 0;
  std::vector<double> data_;
};

/// <column ca of a, column cb of b>; same accumulation order as Dot().
double DotColumns(const PackedBasis& a, int64_t ca, const PackedBasis& b,
                  int64_t cb);

/// Column dst += alpha * column src (within one basis); same per-element
/// arithmetic as Axpy().
void AxpyColumn(double alpha, PackedBasis& v, int64_t src, int64_t dst);

/// Scales column `c` to unit norm and returns the original norm, with
/// Normalize()'s exact semantics (untouched + 0 below `tiny`).
double NormalizeColumn(PackedBasis& v, int64_t c, double tiny = 1e-300);

/// Two-pass MGS of the contiguous vector `x` against packed columns
/// [0, cols) of `v` — the strided twin of OrthogonalizeAgainst().
void OrthogonalizeVectorAgainstColumns(const PackedBasis& v, int64_t cols,
                                       std::span<double> x);

/// Removes from packed columns [block0, block0 + block_cols) of `v` their
/// components along each (assumed unit-norm) contiguous vector in `basis`:
/// two passes of panel-blocked classical Gram-Schmidt, all block columns
/// fused into each panel's row sweeps. If `panels` is non-null it is
/// incremented by passes x panels x block columns: a work unit (one
/// column's projection onto one panel), not a count of kernel calls, and
/// the unit reported in FiedlerResult diagnostics. `flops` accumulates
/// the deterministic flop estimate.
void OrthogonalizeColumnsAgainstBlock(std::span<const Vector> basis,
                                      PackedBasis& v, int64_t block0,
                                      int64_t block_cols,
                                      int64_t* panels = nullptr,
                                      int64_t* flops = nullptr);

/// Same, but the basis is packed columns [basis0, basis0 + basis_cols) of
/// `v` itself; the ranges must not overlap.
void OrthogonalizeColumnsAgainstColumns(PackedBasis& v, int64_t basis0,
                                        int64_t basis_cols, int64_t block0,
                                        int64_t block_cols,
                                        int64_t* panels = nullptr,
                                        int64_t* flops = nullptr);

/// Orthonormalizes packed columns [b0, b0 + count) of `v` in place:
/// incoming columns are consumed in panels of kReorthPanelWidth, each
/// panel is orthogonalized against the kept prefix with the blocked kernel
/// above, then factored by a pipelined in-panel two-pass MGS. Columns whose
/// norm collapses below `drop_tol` are numerically dependent and are
/// dropped; the survivors keep their relative order (compacted by column
/// copies). Returns the resulting rank; survivors end up at
/// [b0, b0 + rank).
int64_t OrthonormalizeColumns(PackedBasis& v, int64_t b0, int64_t count,
                              double drop_tol = 1e-10,
                              int64_t* panels = nullptr,
                              int64_t* flops = nullptr);

/// Fused symmetric multi-dot for the Rayleigh-Ritz H-fill: for every j in
/// [j0, j0 + count) computes
///   out[j - j0] = (<v_i, av_j> + <v_j, av_i>) / 2
/// in ONE pass over the rows per panel of kReorthPanelWidth columns —
/// instead of 2 * count scalar Dot passes. Per output the accumulation is
/// ascending-row, so the result is bit-identical to the scalar Dot pair.
void ProjectedRowMultiDot(const PackedBasis& v, const PackedBasis& av,
                          int64_t i, int64_t j0, int64_t count, double* out);

}  // namespace spectral

#endif  // SPECTRAL_LPM_LINALG_PACKED_BASIS_H_
