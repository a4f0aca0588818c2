#include "eigen/block_lanczos.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "eigen/jacobi.h"
#include "linalg/dense_matrix.h"
#include "linalg/packed_basis.h"
#include "util/check.h"
#include "util/random.h"
#include "util/timer.h"

namespace spectral {

namespace {

// Metadata of one assembled Ritz pair; the vector itself lives as a
// packed column of the solver's `ritz` buffer.
struct RitzInfo {
  double theta = 0.0;
  double residual = 0.0;
  bool taken = false;  // locked (moved to the output) — skip in the top-up
};

// Appends random unit columns orthogonal to `deflate`, `locked`, and the
// packed prefix [0, cur) until `v` has `width` live columns. Returns the
// new column count, or -1 if no such direction can be constructed (the
// complement is exhausted). RNG draw order and per-column arithmetic are
// fixed, so the same seed yields the same columns. The orthogonalization
// work is billed to profile.reorth_*.
int64_t PadPackedRandom(int64_t n, int64_t width,
                        std::span<const Vector> deflate,
                        const VectorBlock& locked, PackedBasis& v,
                        int64_t cur, Rng& rng, Vector& tmp,
                        KernelProfile& profile) {
  WallTimer timer;
  while (cur < width) {
    bool found = false;
    for (int attempt = 0; attempt < 8 && !found; ++attempt) {
      tmp.resize(static_cast<size_t>(n));
      for (double& x : tmp) x = rng.UniformDouble(-1.0, 1.0);
      OrthogonalizeAgainst(deflate, tmp);
      OrthogonalizeAgainst(locked, tmp);
      OrthogonalizeVectorAgainstColumns(v, cur, tmp);
      profile.reorth_flops +=
          8 * n *
              (static_cast<int64_t>(deflate.size()) +
               static_cast<int64_t>(locked.size()) + cur) +
          3 * n;
      if (Normalize(tmp) > 1e-8) {
        v.CopyColumnIn(tmp, cur);
        ++cur;
        found = true;
      }
    }
    if (!found) {
      profile.reorth_ms += timer.ElapsedSeconds() * 1e3;
      return -1;
    }
  }
  profile.reorth_ms += timer.ElapsedSeconds() * 1e3;
  return cur;
}

// In-place Chebyshev filter of the given degree on packed columns [0, w)
// of `v`: applies the degree-d Chebyshev polynomial of op mapped so
// [lo, cut] -> [-1, 1], amplifying every spectral component above `cut`
// by cosh(d * acosh(t)) while keeping the damped interval at magnitude
// <= 1. Columns are renormalized afterwards. These matvecs never touch a
// Krylov basis, so they cost no reorthogonalization — and the whole block
// advances through each recurrence step with ONE fused SpMM. The
// recurrence runs on dense width-w buffers (hoisted into the solver's
// workspace); the three-term step is evaluated element-wise, identically
// to the scalar per-column loop, so results are bit-identical to the
// unfused filter. Flops are billed to profile.cheb_*, including the
// filter's SpMMs.
void ChebyshevFilterPacked(const LinearOperator& op, double lo, double cut,
                           int degree, PackedBasis& v, int64_t w,
                           std::vector<double>& prev,
                           std::vector<double>& curr,
                           std::vector<double>& next, int64_t& matvecs,
                           int64_t& spmm_calls, KernelProfile& profile) {
  const int64_t n = op.Dim();
  if (w == 0) return;
  const double center = (cut + lo) / 2.0;
  const double half_width = (cut - lo) / 2.0;
  const size_t total = static_cast<size_t>(n * w);
  SPECTRAL_DCHECK_LE(total, prev.size());
  const int64_t flops_per_spmm = w * op.FlopsPerApply();
  // T_0(t) X = X: pack the block once; the recurrence stays packed.
  for (int64_t r = 0; r < n; ++r) {
    for (int64_t c = 0; c < w; ++c) {
      prev[static_cast<size_t>(r * w + c)] = v.at(r, c);
    }
  }
  op.ApplyPanel(w, prev.data(), w, curr.data(), w);  // T_1(t) X = t(A) X
  matvecs += w;
  ++spmm_calls;
  profile.cheb_flops += flops_per_spmm;
  {
    double* __restrict cw = curr.data();
    const double* __restrict pr = prev.data();
    for (size_t e = 0; e < total; ++e) {
      cw[e] = (cw[e] - center * pr[e]) / half_width;
    }
    profile.cheb_flops += 3 * static_cast<int64_t>(total);
  }
  for (int k = 2; k <= degree; ++k) {
    op.ApplyPanel(w, curr.data(), w, next.data(), w);
    matvecs += w;
    ++spmm_calls;
    profile.cheb_flops += flops_per_spmm;
    {
      double* __restrict nw = next.data();
      const double* __restrict cr = curr.data();
      const double* __restrict pr = prev.data();
      for (size_t e = 0; e < total; ++e) {
        nw[e] = 2.0 * (nw[e] - center * cr[e]) / half_width - pr[e];
      }
      profile.cheb_flops += 5 * static_cast<int64_t>(total);
    }
    prev.swap(curr);
    curr.swap(next);
  }
  for (int64_t c = 0; c < w; ++c) {
    for (int64_t r = 0; r < n; ++r) {
      v.at(r, c) = curr[static_cast<size_t>(r * w + c)];
    }
    NormalizeColumn(v, c);
    profile.cheb_flops += 3 * n;
  }
}

}  // namespace

StatusOr<BlockLanczosResult> LargestEigenpairsBlock(
    const LinearOperator& op, std::span<const Vector> deflate,
    const BlockLanczosOptions& options) {
  const int64_t n = op.Dim();
  if (n <= 0) return InvalidArgumentError("operator dimension must be >= 1");
  const int64_t avail = n - static_cast<int64_t>(deflate.size());
  if (avail <= 0) {
    return FailedPreconditionError(
        "deflation set spans the entire space; no eigenpair to find");
  }
  SPECTRAL_CHECK_GE(options.num_pairs, 1);
  SPECTRAL_CHECK_GE(options.max_restarts, 1);
  const int64_t want = std::min<int64_t>(options.num_pairs, avail);
  int64_t width = options.block_size > 0 ? options.block_size : want + 2;
  width = std::clamp<int64_t>(width, want, avail);
  const int64_t max_basis = std::min<int64_t>(
      avail, std::max<int64_t>(options.max_basis, 2 * width));

  Rng rng(options.seed);
  BlockLanczosResult result;
  ThreadPool* pool = options.pool;
  int64_t* panels = &result.reorth_panels;
  KernelProfile& profile = result.profile;
  int64_t* reorth_flops = &profile.reorth_flops;

  VectorBlock locked;  // accepted eigenvectors, theta descending
  std::vector<double> locked_vals;
  Vector locked_res;

  // --- Solve-lifetime workspace, allocated ONCE and reused across every
  // restart: the packed Krylov basis `v` (capacity max_basis + width: a
  // staged candidate block rides beyond the basis), the packed applied
  // block `av`, the packed Ritz block, the Chebyshev recurrence buffers,
  // and small per-column scratch. Nothing below this reallocates per
  // restart except the dense m x m Rayleigh-Ritz problem itself.
  PackedBasis v;
  v.Reset(n, max_basis + width);
  PackedBasis av;
  av.Reset(n, max_basis);
  PackedBasis ritz_vecs;
  ritz_vecs.Reset(n, width);
  std::vector<double> cheb_prev(static_cast<size_t>(n * width));
  std::vector<double> cheb_curr(static_cast<size_t>(n * width));
  std::vector<double> cheb_next(static_cast<size_t>(n * width));
  Vector pad_tmp(static_cast<size_t>(n));
  Vector az(static_cast<size_t>(n));
  std::vector<double> coeffs(static_cast<size_t>(max_basis));
  std::vector<RitzInfo> ritz;
  ritz.reserve(static_cast<size_t>(width));

  // Start block: the warm start projected onto the complement of the
  // deflation set, padded with random columns to full width. A collapsed
  // (garbage) warm start degrades gracefully to the all-random start.
  // Live columns of `v` in [0, xw); between restarts this range holds the
  // restart block.
  int64_t xw = 0;
  for (const Vector& col : options.start) {
    if (xw >= width) break;
    SPECTRAL_CHECK_EQ(static_cast<int64_t>(col.size()), n)
        << "warm-start column has the wrong dimension";
    v.CopyColumnIn(col, xw);
    ++xw;
  }
  {
    WallTimer timer;
    OrthogonalizeColumnsAgainstBlock(deflate, v, 0, xw, pool, panels,
                                     reorth_flops);
    xw = OrthonormalizeColumns(v, 0, xw, /*drop_tol=*/1e-10, pool, panels,
                               reorth_flops);
    profile.reorth_ms += timer.ElapsedSeconds() * 1e3;
  }
  xw = PadPackedRandom(n, width, deflate, locked, v, xw, rng, pad_tmp,
                       profile);
  if (xw < 0) {
    return FailedPreconditionError(
        "could not construct a start block orthogonal to the deflation set");
  }

  for (int restart = 0; restart < options.max_restarts; ++restart) {
    result.restarts = restart + 1;
    const int64_t remaining = want - static_cast<int64_t>(locked.size());

    // --- Grow the block Krylov basis with fused full reorthogonalization.
    // The candidate block starts as the restart block already sitting at
    // [0, xw); each round absorbs it into the basis [0, m), applies the
    // operator to the new panel IN PLACE (strided SpMM straight off the
    // basis columns — no pack/unpack), stages the applied panel as the
    // next candidate at [m, m + cw), and cleans it against everything.
    int64_t m = 0;
    int64_t cw = xw;
    bool exhausted = false;
    while (cw > 0 && m + cw <= max_basis) {
      const int64_t base = m;
      m += cw;
      {
        WallTimer timer;
        // ONE fused SpMM applies the operator to every new basis column.
        op.ApplyPanel(cw, v.data() + base, v.ld(), av.data() + base,
                      av.ld());
        result.matvecs += cw;
        ++result.spmm_calls;
        profile.spmm_flops += cw * op.FlopsPerApply();
        // Stage the applied panel as the next candidate block.
        for (int64_t r = 0; r < n; ++r) {
          const double* src = av.data() + r * av.ld() + base;
          double* dst = v.data() + r * v.ld() + m;
          for (int64_t c = 0; c < cw; ++c) dst[c] = src[c];
        }
        profile.spmm_ms += timer.ElapsedSeconds() * 1e3;
      }
      WallTimer timer;
      OrthogonalizeColumnsAgainstBlock(deflate, v, m, cw, pool, panels,
                                       reorth_flops);
      OrthogonalizeColumnsAgainstBlock(locked, v, m, cw, pool, panels,
                                       reorth_flops);
      OrthogonalizeColumnsAgainstColumns(v, 0, m, m, cw, pool, panels,
                                         reorth_flops);
      cw = OrthonormalizeColumns(v, m, cw, /*drop_tol=*/1e-10, pool, panels,
                                 reorth_flops);
      // Re-clean at unit scale. Near convergence the remainder above is
      // tiny, so normalizing it amplifies the projections' rounding —
      // including the deflated kernel direction, which is the operator's
      // *largest* eigenvalue on shift*I - L and would otherwise leak back
      // in and get "found". A second pass over everything at unit norm
      // pins the pollution back to machine epsilon; columns that lose half
      // their mass here were junk and are dropped.
      OrthogonalizeColumnsAgainstBlock(deflate, v, m, cw, pool, panels,
                                       reorth_flops);
      OrthogonalizeColumnsAgainstBlock(locked, v, m, cw, pool, panels,
                                       reorth_flops);
      OrthogonalizeColumnsAgainstColumns(v, 0, m, m, cw, pool, panels,
                                         reorth_flops);
      cw = OrthonormalizeColumns(v, m, cw, /*drop_tol=*/0.5, pool, panels,
                                 reorth_flops);
      profile.reorth_ms += timer.ElapsedSeconds() * 1e3;
      if (cw == 0) exhausted = true;
    }
    SPECTRAL_CHECK_GT(m, 0);

    // --- Rayleigh-Ritz on the projected dense matrix H = V^T A V. Row i's
    // task computes the symmetrized entries (i, j >= i) with ONE fused
    // multi-dot pass per panel of 8 columns and mirrors them; every cell
    // is written by exactly one task, so rows parallelize race-free and
    // each accumulation runs serially: bit-identical for any pool size.
    DenseMatrix h(m, m);
    {
      WallTimer timer;
      const auto fill_row = [&](int64_t i) {
        ProjectedRowMultiDot(v, av, i, i, m - i, &h.At(i, i));
        for (int64_t j = i + 1; j < m; ++j) h.At(j, i) = h.At(i, j);
      };
      if (pool != nullptr && pool->num_threads() >= 2 && m >= 2) {
        pool->ParallelFor(0, m, 1, fill_row);
      } else {
        for (int64_t i = 0; i < m; ++i) fill_row(i);
      }
      profile.hfill_flops += (4 * n + 2) * (m * (m + 1) / 2);
      profile.hfill_ms += timer.ElapsedSeconds() * 1e3;
    }
    WallTimer rr_timer;
    auto eig = JacobiEigenSolve(h);
    if (!eig.ok()) return eig.status();

    // Assemble the top Ritz pairs (descending), enough for the restart
    // block; A z comes free from the stored applied columns. The row-fused
    // accumulation (ascending basis index per row) is exactly the old
    // per-column Axpy chain's per-element order.
    const int64_t assemble = std::min<int64_t>(m, width);
    ritz.assign(static_cast<size_t>(assemble), RitzInfo{});
    for (int64_t k = 0; k < assemble; ++k) {
      RitzInfo& pair = ritz[static_cast<size_t>(k)];
      const int64_t col = m - 1 - k;
      pair.theta = eig->eigenvalues[static_cast<size_t>(col)];
      for (int64_t i = 0; i < m; ++i) {
        coeffs[static_cast<size_t>(i)] = eig->eigenvectors.At(i, col);
      }
      for (int64_t r = 0; r < n; ++r) {
        const double* vr = v.data() + r * v.ld();
        const double* avr = av.data() + r * av.ld();
        double zr = 0.0;
        double azr = 0.0;
        for (int64_t i = 0; i < m; ++i) {
          const double u = coeffs[static_cast<size_t>(i)];
          zr += u * vr[i];
          azr += u * avr[i];
        }
        ritz_vecs.at(r, k) = zr;
        az[static_cast<size_t>(r)] = azr;
      }
      const double norm = NormalizeColumn(ritz_vecs, k);
      if (norm > 0.0) Scale(1.0 / norm, az);
      const double* z = ritz_vecs.data() + k;
      const int64_t zld = ritz_vecs.ld();
      const double mtheta = -pair.theta;
      for (int64_t r = 0; r < n; ++r) {
        az[static_cast<size_t>(r)] += mtheta * z[r * zld];
      }
      pair.residual = Norm2(az);
    }
    profile.rr_flops +=
        eig->sweeps * 6 * m * m * m + assemble * (4 * n * m + 8 * n);
    profile.rr_ms += rr_timer.ElapsedSeconds() * 1e3;

    // --- Lock the converged prefix, in descending order only, so the
    // accepted pairs are guaranteed to be the extremal ones in sequence.
    int64_t newly_locked = 0;
    while (newly_locked < remaining && newly_locked < assemble) {
      RitzInfo& pair = ritz[static_cast<size_t>(newly_locked)];
      const double scale = std::max(std::fabs(pair.theta), 1.0);
      // On Krylov exhaustion span(V) is invariant under A (up to drop_tol),
      // so the Ritz pairs are exact on the reachable subspace: accept them,
      // mirroring the scalar solver's breakdown path.
      if (pair.residual > options.tol * scale && !exhausted) break;
      locked_vals.push_back(pair.theta);
      locked_res.push_back(pair.residual);
      locked.emplace_back();
      ritz_vecs.CopyColumnOut(newly_locked, locked.back());
      pair.taken = true;
      ++newly_locked;
    }
    if (static_cast<int64_t>(locked.size()) >= want) {
      result.converged = true;
      break;
    }

    // --- Restart from the best unconverged Ritz vectors (thick restart:
    // the dense Rayleigh-Ritz above accepts any starting subspace). The
    // Ritz columns are copied, not moved: `ritz_vecs` doubles as the
    // best-effort answer when max_restarts runs out below.
    xw = 0;
    double worst_residual = 0.0;
    double wanted_theta_min = 0.0;
    const int64_t still_wanted = want - static_cast<int64_t>(locked.size());
    for (int64_t k = newly_locked; k < assemble; ++k) {
      const RitzInfo& pair = ritz[static_cast<size_t>(k)];
      if (k - newly_locked < still_wanted) {
        worst_residual = std::max(worst_residual, pair.residual);
        wanted_theta_min = pair.theta;
      }
      for (int64_t r = 0; r < n; ++r) v.at(r, xw) = ritz_vecs.at(r, k);
      ++xw;
    }

    // --- Chebyshev acceleration: when the residual is still far from tol,
    // damp the unwanted interval [lo, cut] on the restart block. The cut is
    // the best available estimate of the first unwanted eigenvalue: the
    // largest Ritz value below the restart set.
    const int64_t cut_col = m - 1 - assemble;
    if (options.cheb_degree_max > 0 && cut_col >= 0 && xw > 0) {
      const double lo = options.op_lower_bound;
      const double cut = eig->eigenvalues[static_cast<size_t>(cut_col)];
      const double scale = std::max(std::fabs(wanted_theta_min), 1.0);
      if (cut > lo && wanted_theta_min > cut &&
          worst_residual > options.tol * scale) {
        const double t_wanted = (2.0 * wanted_theta_min - cut - lo) /
                                (cut - lo);
        if (t_wanted > 1.0 + 1e-12) {
          // Degree that closes the remaining residual/tol gap (aiming one
          // decade below tol), capped by the option.
          const double gain = std::clamp(
              worst_residual / (0.1 * options.tol * scale), 1.0, 1e14);
          const int degree = static_cast<int>(std::ceil(
              std::acosh(gain) / std::acosh(t_wanted)));
          if (degree >= 2) {
            WallTimer timer;
            ChebyshevFilterPacked(op, lo, cut,
                                  std::min(degree, options.cheb_degree_max),
                                  v, xw, cheb_prev, cheb_curr, cheb_next,
                                  result.matvecs, result.spmm_calls,
                                  profile);
            profile.cheb_ms += timer.ElapsedSeconds() * 1e3;
          }
        }
      }
    }

    {
      WallTimer timer;
      OrthogonalizeColumnsAgainstBlock(deflate, v, 0, xw, pool, panels,
                                       reorth_flops);
      OrthogonalizeColumnsAgainstBlock(locked, v, 0, xw, pool, panels,
                                       reorth_flops);
      xw = OrthonormalizeColumns(v, 0, xw, /*drop_tol=*/1e-10, pool, panels,
                                 reorth_flops);
      profile.reorth_ms += timer.ElapsedSeconds() * 1e3;
    }
    xw = PadPackedRandom(n, width, deflate, locked, v, xw, rng, pad_tmp,
                         profile);
    if (xw < 0) {
      if (locked.empty()) {
        return InternalError("block Lanczos lost the search subspace");
      }
      break;  // complement exhausted: report what is locked
    }
  }

  // Best effort: top up with the freshest (unconverged) Ritz pairs so the
  // caller still sees `want` pairs with honest residuals.
  if (!result.converged) {
    for (size_t k = 0; k < ritz.size(); ++k) {
      if (static_cast<int64_t>(locked.size()) >= want) break;
      const RitzInfo& pair = ritz[k];
      if (pair.taken) continue;
      locked_vals.push_back(pair.theta);
      locked_res.push_back(pair.residual);
      locked.emplace_back();
      ritz_vecs.CopyColumnOut(static_cast<int64_t>(k), locked.back());
    }
  }
  result.eigenvalues = std::move(locked_vals);
  result.eigenvectors = std::move(locked);
  result.residuals = std::move(locked_res);
  return result;
}

}  // namespace spectral
