// Abstract matrix-free linear operator. The Lanczos solver only needs
// y = A x, which lets it run on the Laplacian itself or on spectral
// transformations of it without materializing new matrices.

#ifndef SPECTRAL_LPM_EIGEN_OPERATOR_H_
#define SPECTRAL_LPM_EIGEN_OPERATOR_H_

#include <cstdint>
#include <span>

#include "linalg/sparse_matrix.h"

namespace spectral {

class ThreadPool;

/// Below this many rows a matvec is not worth partitioning; shared with
/// core/spectral_lpm.cc's "is a pool worth spawning" gate so the two sites
/// cannot drift apart.
inline constexpr int64_t kDefaultMinParallelRows = 2048;

/// Square linear operator interface.
class LinearOperator {
 public:
  virtual ~LinearOperator() = default;

  /// Dimension n of the operator (n x n).
  virtual int64_t Dim() const = 0;

  /// y = A x; x and y have size Dim() and must not alias.
  virtual void Apply(std::span<const double> x, std::span<double> y) const = 0;

  /// Multi-vector apply on row-major panels with arbitrary leading
  /// dimensions (x[j * x_ld + c] is column c of row j, c < width <= x_ld;
  /// a contiguous block is ld == width): y_c = A x_c for every c. Consumes
  /// a panel of a larger packed basis (linalg/packed_basis.h) in place.
  /// The single block primitive: results must be bit-identical to `width`
  /// independent Apply() calls — the block eigensolver's byte-identity
  /// contract across parallelism levels depends on it.
  virtual void ApplyPanel(int64_t width, const double* x, int64_t x_ld,
                          double* y, int64_t y_ld) const = 0;

  /// Deterministic flop count of one Apply() (2 flops per stored nonzero
  /// plus any transformation overhead); 0 when unknown. Feeds the kernel
  /// profiler's machine-independent flop counters, never the arithmetic.
  virtual int64_t FlopsPerApply() const { return 0; }
};

/// Wraps a CSR matrix; requires a square matrix. With a thread pool the
/// matvec is row-partitioned across the pool's workers; each output entry
/// is accumulated by exactly one thread in the same order as the serial
/// code, so parallel and serial results are bit-identical.
class SparseOperator : public LinearOperator {
 public:
  /// Does not take ownership; `matrix` (and `pool`, when non-null) must
  /// outlive the operator. A null pool or a matrix smaller than
  /// `min_parallel_rows` keeps the serial path.
  explicit SparseOperator(const SparseMatrix* matrix,
                          ThreadPool* pool = nullptr,
                          int64_t min_parallel_rows = kDefaultMinParallelRows);

  int64_t Dim() const override;
  void Apply(std::span<const double> x, std::span<double> y) const override;
  /// One pass over the CSR structure serves all `width` columns
  /// (MatVecRowsPanel), row-partitioned over the pool like Apply.
  void ApplyPanel(int64_t width, const double* x, int64_t x_ld, double* y,
                  int64_t y_ld) const override;
  int64_t FlopsPerApply() const override;

 private:
  const SparseMatrix* matrix_;
  ThreadPool* pool_;
  int64_t min_parallel_rows_;
};

/// y = shift * x - A x. With shift >= lambda_max(A) this maps the smallest
/// eigenvalues of a symmetric A to the largest eigenvalues of the operator,
/// which is how the Fiedler pair is made extremal for Lanczos.
class ShiftNegateOperator : public LinearOperator {
 public:
  /// Does not take ownership; `inner` must outlive the operator.
  ShiftNegateOperator(const LinearOperator* inner, double shift);

  int64_t Dim() const override;
  void Apply(std::span<const double> x, std::span<double> y) const override;
  void ApplyPanel(int64_t width, const double* x, int64_t x_ld, double* y,
                  int64_t y_ld) const override;
  int64_t FlopsPerApply() const override;

  double shift() const { return shift_; }

 private:
  const LinearOperator* inner_;
  double shift_;
};

}  // namespace spectral

#endif  // SPECTRAL_LPM_EIGEN_OPERATOR_H_
