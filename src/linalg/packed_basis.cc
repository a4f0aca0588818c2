#include "linalg/packed_basis.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>

#include "util/check.h"

namespace spectral {
namespace {

// One panel of the BCGS2 projection when the basis panel lives in the
// packed buffer itself: a fused Gram pass (all PW coefficients in one
// stream over x) followed by a fused multi-AXPY update. Lanes
// [b0, b0 + PW) are contiguous per row, so one row pointer serves all PW
// coefficients; the compile-time width keeps coefficients in registers.
// Accumulation is ascending-row per coefficient and ascending-lane per
// element, the same for every PW. No __restrict: the target column
// aliases the same buffer (disjoint lanes).
template <int PW>
void PanelProjectPackedFixed(double* data, int64_t ld, int64_t n, int64_t b0,
                             int64_t xc) {
  const double* b = data + b0;
  double* x = data + xc;
  double coeffs[PW] = {};
  for (int64_t r = 0; r < n; ++r) {
    const double xi = x[r * ld];
    const double* br = b + r * ld;
    for (int c = 0; c < PW; ++c) coeffs[c] += br[c] * xi;
  }
  for (int64_t r = 0; r < n; ++r) {
    const double* br = b + r * ld;
    double acc = x[r * ld];
    for (int c = 0; c < PW; ++c) acc -= coeffs[c] * br[c];
    x[r * ld] = acc;
  }
}

void PanelProjectPacked(double* data, int64_t ld, int64_t n, int64_t b0,
                        int64_t pw, int64_t xc) {
  switch (pw) {
    case 1: return PanelProjectPackedFixed<1>(data, ld, n, b0, xc);
    case 2: return PanelProjectPackedFixed<2>(data, ld, n, b0, xc);
    case 3: return PanelProjectPackedFixed<3>(data, ld, n, b0, xc);
    case 4: return PanelProjectPackedFixed<4>(data, ld, n, b0, xc);
    case 5: return PanelProjectPackedFixed<5>(data, ld, n, b0, xc);
    case 6: return PanelProjectPackedFixed<6>(data, ld, n, b0, xc);
    case 7: return PanelProjectPackedFixed<7>(data, ld, n, b0, xc);
    case 8: return PanelProjectPackedFixed<8>(data, ld, n, b0, xc);
    default:
      SPECTRAL_CHECK_LE(pw, kReorthPanelWidth);
  }
}

// Same kernel with an unpacked (Vector) basis panel and a strided target
// column — used to project packed columns against deflation/locked sets
// that live as contiguous Vectors.
template <int PW>
void PanelProjectVectorsFixed(const Vector* basis, size_t p0, double* x,
                              int64_t ld, int64_t n) {
  const double* __restrict b[PW];
  for (int c = 0; c < PW; ++c) {
    b[c] = basis[p0 + static_cast<size_t>(c)].data();
  }
  double coeffs[PW] = {};
  for (int64_t r = 0; r < n; ++r) {
    const double xi = x[r * ld];
    for (int c = 0; c < PW; ++c) coeffs[c] += b[c][r] * xi;
  }
  for (int64_t r = 0; r < n; ++r) {
    double acc = x[r * ld];
    for (int c = 0; c < PW; ++c) acc -= coeffs[c] * b[c][r];
    x[r * ld] = acc;
  }
}

void PanelProjectVectors(std::span<const Vector> basis, size_t p0, size_t pw,
                         double* x, int64_t ld, int64_t n) {
  switch (pw) {
    case 1: return PanelProjectVectorsFixed<1>(basis.data(), p0, x, ld, n);
    case 2: return PanelProjectVectorsFixed<2>(basis.data(), p0, x, ld, n);
    case 3: return PanelProjectVectorsFixed<3>(basis.data(), p0, x, ld, n);
    case 4: return PanelProjectVectorsFixed<4>(basis.data(), p0, x, ld, n);
    case 5: return PanelProjectVectorsFixed<5>(basis.data(), p0, x, ld, n);
    case 6: return PanelProjectVectorsFixed<6>(basis.data(), p0, x, ld, n);
    case 7: return PanelProjectVectorsFixed<7>(basis.data(), p0, x, ld, n);
    case 8: return PanelProjectVectorsFixed<8>(basis.data(), p0, x, ld, n);
    default:
      SPECTRAL_CHECK_LE(pw, static_cast<size_t>(kReorthPanelWidth));
  }
}

// Column dispatch: one task owns one output column end to end, and small
// blocks skip the pool (kMinParallelWork), so results never depend on the
// pool size.
void ForEachColumn(ThreadPool* pool, int64_t cols, int64_t column_size,
                   const std::function<void(int64_t)>& fn) {
  if (pool != nullptr && pool->num_threads() >= 2 && cols >= 2 &&
      cols * column_size >= kMinParallelWork) {
    pool->ParallelFor(0, cols, 1, fn);
  } else {
    for (int64_t j = 0; j < cols; ++j) fn(j);
  }
}

// Fixed-width H-fill lanes: both dot products of the symmetrized
// projected entry accumulate in ascending-row order, exactly matching the
// scalar (Dot(v_i, av_j) + Dot(v_j, av_i)) / 2.
template <int PW>
void HfillPanelFixed(const double* vd, const double* avd, int64_t ld_v,
                     int64_t ld_av, int64_t n, int64_t i, int64_t j0,
                     double* out) {
  double a[PW] = {};  // <v_i, av_j>
  double b[PW] = {};  // <v_j, av_i>
  for (int64_t r = 0; r < n; ++r) {
    const double vi = vd[r * ld_v + i];
    const double avi = avd[r * ld_av + i];
    const double* vj = vd + r * ld_v + j0;
    const double* avj = avd + r * ld_av + j0;
    for (int c = 0; c < PW; ++c) {
      a[c] += vi * avj[c];
      b[c] += vj[c] * avi;
    }
  }
  for (int c = 0; c < PW; ++c) out[c] = (a[c] + b[c]) / 2.0;
}

void HfillPanel(const double* vd, const double* avd, int64_t ld_v,
                int64_t ld_av, int64_t n, int64_t i, int64_t j0, int64_t pw,
                double* out) {
  switch (pw) {
    case 1: return HfillPanelFixed<1>(vd, avd, ld_v, ld_av, n, i, j0, out);
    case 2: return HfillPanelFixed<2>(vd, avd, ld_v, ld_av, n, i, j0, out);
    case 3: return HfillPanelFixed<3>(vd, avd, ld_v, ld_av, n, i, j0, out);
    case 4: return HfillPanelFixed<4>(vd, avd, ld_v, ld_av, n, i, j0, out);
    case 5: return HfillPanelFixed<5>(vd, avd, ld_v, ld_av, n, i, j0, out);
    case 6: return HfillPanelFixed<6>(vd, avd, ld_v, ld_av, n, i, j0, out);
    case 7: return HfillPanelFixed<7>(vd, avd, ld_v, ld_av, n, i, j0, out);
    case 8: return HfillPanelFixed<8>(vd, avd, ld_v, ld_av, n, i, j0, out);
    default:
      SPECTRAL_CHECK_LE(pw, kReorthPanelWidth);
  }
}

}  // namespace

double DotColumns(const PackedBasis& a, int64_t ca, const PackedBasis& b,
                  int64_t cb) {
  SPECTRAL_DCHECK_EQ(a.rows(), b.rows());
  const double* x = a.data() + ca;
  const double* y = b.data() + cb;
  const int64_t ld_a = a.ld();
  const int64_t ld_b = b.ld();
  double acc = 0.0;
  const int64_t n = a.rows();
  for (int64_t r = 0; r < n; ++r) acc += x[r * ld_a] * y[r * ld_b];
  return acc;
}

void AxpyColumn(double alpha, PackedBasis& v, int64_t src, int64_t dst) {
  const double* x = v.data() + src;
  double* y = v.data() + dst;
  const int64_t ld = v.ld();
  const int64_t n = v.rows();
  for (int64_t r = 0; r < n; ++r) y[r * ld] += alpha * x[r * ld];
}

double NormalizeColumn(PackedBasis& v, int64_t c, double tiny) {
  const double norm = std::sqrt(DotColumns(v, c, v, c));
  if (norm < tiny) return 0.0;
  const double alpha = 1.0 / norm;
  double* x = v.data() + c;
  const int64_t ld = v.ld();
  const int64_t n = v.rows();
  for (int64_t r = 0; r < n; ++r) x[r * ld] *= alpha;
  return norm;
}

void OrthogonalizeVectorAgainstColumns(const PackedBasis& v, int64_t cols,
                                       std::span<double> x) {
  const double* d = v.data();
  const int64_t ld = v.ld();
  const int64_t n = v.rows();
  SPECTRAL_DCHECK_EQ(static_cast<int64_t>(x.size()), n);
  // Two passes of MGS, like vector_ops' OrthogonalizeAgainst.
  for (int pass = 0; pass < 2; ++pass) {
    for (int64_t i = 0; i < cols; ++i) {
      const double* b = d + i;
      double coeff = 0.0;
      for (int64_t r = 0; r < n; ++r) {
        coeff += b[r * ld] * x[static_cast<size_t>(r)];
      }
      for (int64_t r = 0; r < n; ++r) {
        x[static_cast<size_t>(r)] -= coeff * b[r * ld];
      }
    }
  }
}

void OrthogonalizeColumnsAgainstBlock(std::span<const Vector> basis,
                                      PackedBasis& v, int64_t block0,
                                      int64_t block_cols, ThreadPool* pool,
                                      int64_t* panels, int64_t* flops) {
  if (basis.empty() || block_cols == 0) return;
  const int64_t n = v.rows();
  const int64_t ld = v.ld();
  const size_t num_panels =
      (basis.size() + kReorthPanelWidth - 1) / kReorthPanelWidth;
  for (int pass = 0; pass < 2; ++pass) {
    ForEachColumn(pool, block_cols, n, [&](int64_t j) {
      double* x = v.data() + block0 + j;
      for (size_t p0 = 0; p0 < basis.size(); p0 += kReorthPanelWidth) {
        const size_t pw = std::min(static_cast<size_t>(kReorthPanelWidth),
                                   basis.size() - p0);
        PanelProjectVectors(basis, p0, pw, x, ld, n);
      }
    });
  }
  if (panels != nullptr) {
    *panels += 2 * static_cast<int64_t>(num_panels) * block_cols;
  }
  if (flops != nullptr) {
    *flops += 8 * n * static_cast<int64_t>(basis.size()) * block_cols;
  }
}

void OrthogonalizeColumnsAgainstColumns(PackedBasis& v, int64_t basis0,
                                        int64_t basis_cols, int64_t block0,
                                        int64_t block_cols, ThreadPool* pool,
                                        int64_t* panels, int64_t* flops) {
  if (basis_cols == 0 || block_cols == 0) return;
  SPECTRAL_DCHECK(basis0 + basis_cols <= block0 || block0 + block_cols <=
                                                      basis0);
  const int64_t n = v.rows();
  const int64_t ld = v.ld();
  const int64_t num_panels =
      (basis_cols + kReorthPanelWidth - 1) / kReorthPanelWidth;
  for (int pass = 0; pass < 2; ++pass) {
    ForEachColumn(pool, block_cols, n, [&](int64_t j) {
      const int64_t xc = block0 + j;
      for (int64_t p0 = 0; p0 < basis_cols; p0 += kReorthPanelWidth) {
        const int64_t pw = std::min(kReorthPanelWidth, basis_cols - p0);
        PanelProjectPacked(v.data(), ld, n, basis0 + p0, pw, xc);
      }
    });
  }
  if (panels != nullptr) *panels += 2 * num_panels * block_cols;
  if (flops != nullptr) *flops += 8 * n * basis_cols * block_cols;
}

int64_t OrthonormalizeColumns(PackedBasis& v, int64_t b0, int64_t count,
                              double drop_tol, ThreadPool* pool,
                              int64_t* panels, int64_t* flops) {
  const int64_t n = v.rows();
  int64_t kept = 0;  // columns [b0, b0 + kept) are orthonormal survivors
  int64_t next = 0;  // first incoming column not yet consumed
  while (next < count) {
    const int64_t pw = std::min(kReorthPanelWidth, count - next);
    // Compact the incoming panel down to [kept, kept + pw) so the blocked
    // projection sees a contiguous lane group (CopyColumn self-guarded).
    if (kept != next) {
      for (int64_t c = 0; c < pw; ++c) {
        v.CopyColumn(b0 + next + c, b0 + kept + c);
      }
    }
    next += pw;
    OrthogonalizeColumnsAgainstColumns(v, b0, kept, b0 + kept, pw, pool,
                                       panels, flops);
    // Small in-panel factorization: two-pass MGS with rank drops. The
    // panel is at most kReorthPanelWidth wide, so this stays serial.
    int64_t panel_kept = kept;
    for (int64_t j = kept; j < kept + pw; ++j) {
      for (int pass = 0; pass < 2; ++pass) {
        for (int64_t i = kept; i < panel_kept; ++i) {
          const double coeff = DotColumns(v, b0 + i, v, b0 + j);
          AxpyColumn(-coeff, v, b0 + i, b0 + j);
          if (flops != nullptr) *flops += 4 * n;
        }
      }
      if (flops != nullptr) *flops += 3 * n;
      if (NormalizeColumn(v, b0 + j) <= drop_tol) continue;  // dependent
      v.CopyColumn(b0 + j, b0 + panel_kept);
      ++panel_kept;
    }
    kept = panel_kept;
  }
  return kept;
}

void ProjectedRowMultiDot(const PackedBasis& v, const PackedBasis& av,
                          int64_t i, int64_t j0, int64_t count, double* out) {
  SPECTRAL_DCHECK_EQ(v.rows(), av.rows());
  const int64_t n = v.rows();
  for (int64_t p0 = 0; p0 < count; p0 += kReorthPanelWidth) {
    const int64_t pw = std::min(kReorthPanelWidth, count - p0);
    HfillPanel(v.data(), av.data(), v.ld(), av.ld(), n, i, j0 + p0, pw,
               out + p0);
  }
}

}  // namespace spectral
