#include "linalg/packed_basis.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <type_traits>

#include "util/check.h"

namespace spectral {
namespace {

// Calls fn(std::integral_constant<int, PW>{}) for the runtime panel width
// pw in [1, kReorthPanelWidth], so every panel kernel below is compiled
// with a fixed width and keeps its coefficients in registers.
template <class Fn>
void WithPanelWidth(int64_t pw, Fn&& fn) {
  switch (pw) {
    case 1: return fn(std::integral_constant<int, 1>{});
    case 2: return fn(std::integral_constant<int, 2>{});
    case 3: return fn(std::integral_constant<int, 3>{});
    case 4: return fn(std::integral_constant<int, 4>{});
    case 5: return fn(std::integral_constant<int, 5>{});
    case 6: return fn(std::integral_constant<int, 6>{});
    case 7: return fn(std::integral_constant<int, 7>{});
    case 8: return fn(std::integral_constant<int, 8>{});
    default:
      SPECTRAL_CHECK_LE(pw, kReorthPanelWidth);
  }
}

// A basis panel that lives in the packed buffer itself: lanes
// [b0, b0 + PW) of every row, contiguous per row.
struct PackedPanel {
  const double* base;  // data + b0
  int64_t ld;
  double operator()(int64_t r, int c) const { return base[r * ld + c]; }
};

// A basis panel of PW contiguous Vectors (deflation and locked sets).
template <int PW>
struct VectorPanel {
  const double* cols[PW];
  double operator()(int64_t r, int c) const { return cols[c][r]; }
};

// Target lanes per register tile of the Gram sweep. TJ x PW accumulators
// (2 x 8 doubles) plus one basis row fit the SSE2 register file; a
// runtime-indexed accumulator array would spill every one of them.
constexpr int kGramTileLanes = 2;
// Target lanes whose coefficients one panel step keeps on the stack.
// Wider blocks are processed in groups (the lanes are independent).
constexpr int64_t kTargetGroup = 8;

// Gram coefficients of TJ adjacent target lanes `x` against one PW-wide
// basis panel: coeffs[j * kReorthPanelWidth + c] is the sum over rows of
// b(r, c) * x_j[r], accumulated from 0 in ascending row order, exactly as
// a single-column Gram pass does.
template <int TJ, int PW, class Panel>
void GramTile(const Panel& b, const double* x, int64_t ld, int64_t n,
              double* coeffs) {
  double acc[TJ][PW] = {};
  for (int64_t r = 0; r < n; ++r) {
    double br[PW];
    for (int c = 0; c < PW; ++c) br[c] = b(r, c);
    const double* xr = x + r * ld;
    for (int j = 0; j < TJ; ++j) {
      const double xj = xr[j];
      for (int c = 0; c < PW; ++c) acc[j][c] += br[c] * xj;
    }
  }
  for (int j = 0; j < TJ; ++j) {
    for (int c = 0; c < PW; ++c) coeffs[j * kReorthPanelWidth + c] = acc[j][c];
  }
}

// One BCGS panel step for `cols` adjacent target lanes: the Gram sweep in
// register tiles, then ONE update sweep over the rows that serves every
// target lane, subtracting in ascending panel-lane order per element. Per
// element this is exactly the single-column fused Gram + multi-AXPY pass,
// so the result does not depend on how many lanes share a sweep. The basis
// row is read into locals before any target lane is written, which keeps
// the in-buffer case (the panel aliases the same rows, disjoint lanes)
// correct without __restrict.
template <int PW, class Panel>
void ProjectPanel(const Panel& b, double* x, int64_t ld, int64_t n,
                  int64_t cols) {
  for (int64_t g0 = 0; g0 < cols; g0 += kTargetGroup) {
    const int64_t tw = std::min(kTargetGroup, cols - g0);
    double* xg = x + g0;
    double coeffs[kTargetGroup * kReorthPanelWidth];
    int64_t j = 0;
    for (; j + kGramTileLanes <= tw; j += kGramTileLanes) {
      GramTile<kGramTileLanes, PW>(b, xg + j, ld, n,
                                   coeffs + j * kReorthPanelWidth);
    }
    for (; j < tw; ++j) {
      GramTile<1, PW>(b, xg + j, ld, n, coeffs + j * kReorthPanelWidth);
    }
    for (int64_t r = 0; r < n; ++r) {
      double br[PW];
      for (int c = 0; c < PW; ++c) br[c] = b(r, c);
      double* xr = xg + r * ld;
      for (int64_t t = 0; t < tw; ++t) {
        const double* ct = coeffs + t * kReorthPanelWidth;
        double acc = xr[t];
        for (int c = 0; c < PW; ++c) acc -= ct[c] * br[c];
        xr[t] = acc;
      }
    }
  }
}

// NormalizeColumn's tail, given the column's sum of squares: the norm,
// and the scaling unless it is below `tiny`.
double ScaleToUnit(PackedBasis& v, int64_t c, double sum_sq, double tiny) {
  const double norm = std::sqrt(sum_sq);
  if (norm < tiny) return 0.0;
  const double alpha = 1.0 / norm;
  double* x = v.data() + c;
  const int64_t ld = v.ld();
  const int64_t n = v.rows();
  for (int64_t r = 0; r < n; ++r) x[r * ld] *= alpha;
  return norm;
}

// Two-pass MGS of column `xc` against the orthonormal columns [q0, q1),
// then NormalizeColumn; returns the norm. The sweeps are pipelined: each
// AXPY x -= <q_i, x> q_i rides in the sweep that forms the next dot, and
// the last one in the norm's sum of squares, so a column costs
// 2k + 2 sweeps instead of 4k + 2 (k = q1 - q0). Per element the
// arithmetic is the unfused DotColumns / AxpyColumn / NormalizeColumn
// sequence: every dot reads x[r] after the previous AXPY updated it.
double MgsColumn(PackedBasis& v, int64_t q0, int64_t q1, int64_t xc) {
  const int64_t ld = v.ld();
  const int64_t n = v.rows();
  double* x = v.data() + xc;
  const int64_t k = q1 - q0;
  // Projection i of the 2k-long sequence uses basis column q0 + i % k.
  double acc = 0.0;
  if (k > 0) {
    const double* q = v.data() + q0;
    for (int64_t r = 0; r < n; ++r) acc += q[r * ld] * x[r * ld];
    for (int64_t i = 1; i < 2 * k; ++i) {
      const double alpha = -acc;
      const double* next = v.data() + q0 + i % k;
      acc = 0.0;
      for (int64_t r = 0; r < n; ++r) {
        x[r * ld] += alpha * q[r * ld];
        acc += next[r * ld] * x[r * ld];
      }
      q = next;
    }
    const double alpha = -acc;
    acc = 0.0;
    for (int64_t r = 0; r < n; ++r) {
      x[r * ld] += alpha * q[r * ld];
      acc += x[r * ld] * x[r * ld];
    }
  } else {
    for (int64_t r = 0; r < n; ++r) acc += x[r * ld] * x[r * ld];
  }
  return ScaleToUnit(v, xc, acc, 1e-300);
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
  return ScaleToUnit(v, c, DotColumns(v, c, v, c), tiny);
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
                                      int64_t block_cols, int64_t* panels,
                                      int64_t* flops) {
  if (basis.empty() || block_cols == 0) return;
  const int64_t n = v.rows();
  const int64_t ld = v.ld();
  const int64_t basis_cols = static_cast<int64_t>(basis.size());
  const int64_t num_panels =
      (basis_cols + kReorthPanelWidth - 1) / kReorthPanelWidth;
  double* x = v.data() + block0;
  for (int pass = 0; pass < 2; ++pass) {
    for (int64_t p0 = 0; p0 < basis_cols; p0 += kReorthPanelWidth) {
      WithPanelWidth(std::min(kReorthPanelWidth, basis_cols - p0),
                     [&](auto w) {
                       constexpr int kPw = decltype(w)::value;
                       VectorPanel<kPw> b;
                       for (int c = 0; c < kPw; ++c) {
                         b.cols[c] = basis[static_cast<size_t>(p0 + c)].data();
                       }
                       ProjectPanel<kPw>(b, x, ld, n, block_cols);
                     });
    }
  }
  if (panels != nullptr) *panels += 2 * num_panels * block_cols;
  if (flops != nullptr) *flops += 8 * n * basis_cols * block_cols;
}

void OrthogonalizeColumnsAgainstColumns(PackedBasis& v, int64_t basis0,
                                        int64_t basis_cols, int64_t block0,
                                        int64_t block_cols, int64_t* panels,
                                        int64_t* flops) {
  if (basis_cols == 0 || block_cols == 0) return;
  SPECTRAL_DCHECK(basis0 + basis_cols <= block0 || block0 + block_cols <=
                                                      basis0);
  const int64_t n = v.rows();
  const int64_t ld = v.ld();
  const int64_t num_panels =
      (basis_cols + kReorthPanelWidth - 1) / kReorthPanelWidth;
  double* x = v.data() + block0;
  for (int pass = 0; pass < 2; ++pass) {
    for (int64_t p0 = 0; p0 < basis_cols; p0 += kReorthPanelWidth) {
      const PackedPanel b{v.data() + basis0 + p0, ld};
      WithPanelWidth(std::min(kReorthPanelWidth, basis_cols - p0),
                     [&](auto w) {
                       ProjectPanel<decltype(w)::value>(b, x, ld, n,
                                                        block_cols);
                     });
    }
  }
  if (panels != nullptr) *panels += 2 * num_panels * block_cols;
  if (flops != nullptr) *flops += 8 * n * basis_cols * block_cols;
}

int64_t OrthonormalizeColumns(PackedBasis& v, int64_t b0, int64_t count,
                              double drop_tol, int64_t* panels,
                              int64_t* flops) {
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
    OrthogonalizeColumnsAgainstColumns(v, b0, kept, b0 + kept, pw, panels,
                                       flops);
    // Small in-panel factorization: two-pass MGS with rank drops.
    int64_t panel_kept = kept;
    for (int64_t j = kept; j < kept + pw; ++j) {
      const double norm = MgsColumn(v, b0 + kept, b0 + panel_kept, b0 + j);
      if (flops != nullptr) *flops += 8 * n * (panel_kept - kept) + 3 * n;
      if (norm <= drop_tol) continue;  // dependent
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
    WithPanelWidth(pw, [&](auto w) {
      HfillPanelFixed<decltype(w)::value>(v.data(), av.data(), v.ld(), av.ld(),
                                          n, i, j0 + p0, out + p0);
    });
  }
}

}  // namespace spectral
