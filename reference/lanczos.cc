#include "reference/lanczos.h"

#include <algorithm>
#include <cmath>

#include "reference/tridiagonal.h"
#include "util/check.h"
#include "util/random.h"

namespace spectral {

namespace {

// Fills `v` with random unit noise orthogonal to `deflate`. Returns false if
// the projected norm collapses (deflation spans nearly the whole space).
bool RandomStartVector(int64_t n, std::span<const Vector> deflate,
                       Rng& rng, Vector& v) {
  for (int attempt = 0; attempt < 8; ++attempt) {
    v.assign(static_cast<size_t>(n), 0.0);
    for (auto& x : v) x = rng.UniformDouble(-1.0, 1.0);
    OrthogonalizeAgainst(deflate, v);
    if (Normalize(v) > 1e-8) return true;
  }
  return false;
}

}  // namespace

StatusOr<LanczosResult> LargestEigenpair(const LinearOperator& op,
                                         std::span<const Vector> deflate,
                                         const LanczosOptions& options) {
  const int64_t n = op.Dim();
  if (n <= 0) return InvalidArgumentError("operator dimension must be >= 1");
  if (static_cast<int64_t>(deflate.size()) >= n) {
    return FailedPreconditionError(
        "deflation set spans the entire space; no eigenpair to find");
  }
  SPECTRAL_CHECK_GE(options.max_basis, 2);
  SPECTRAL_CHECK_GE(options.max_restarts, 1);

  Rng rng(options.seed);
  LanczosResult result;

  Vector start;
  bool have_start = false;
  if (!options.start.empty()) {
    SPECTRAL_CHECK_EQ(static_cast<int64_t>(options.start.size()), n)
        << "warm-start vector has the wrong dimension";
    start = options.start;
    OrthogonalizeAgainst(deflate, start);
    have_start = Normalize(start) > 1e-10;
  }
  if (!have_start && !RandomStartVector(n, deflate, rng, start)) {
    return FailedPreconditionError(
        "could not construct a start vector orthogonal to the deflation set");
  }

  const int max_basis =
      static_cast<int>(std::min<int64_t>(options.max_basis,
                                         n - static_cast<int64_t>(deflate.size())));

  std::vector<Vector> basis;  // Lanczos vectors v_0 .. v_j
  Vector alphas;
  Vector betas;  // betas[j] couples v_j and v_{j+1}
  Vector w(static_cast<size_t>(n));
  Vector ritz(static_cast<size_t>(n));
  Vector applied(static_cast<size_t>(n));

  for (int restart = 0; restart < options.max_restarts; ++restart) {
    result.restarts = restart + 1;
    basis.clear();
    alphas.clear();
    betas.clear();
    basis.push_back(start);

    bool breakdown = false;
    for (int j = 0; j < max_basis; ++j) {
      op.Apply(basis[static_cast<size_t>(j)], w);
      result.matvecs += 1;
      const double alpha = Dot(w, basis[static_cast<size_t>(j)]);
      alphas.push_back(alpha);
      Axpy(-alpha, basis[static_cast<size_t>(j)], w);
      if (j > 0) {
        Axpy(-betas[static_cast<size_t>(j - 1)], basis[static_cast<size_t>(j - 1)], w);
      }
      // Full reorthogonalization against the deflation set and the whole
      // basis keeps the recurrence numerically orthogonal.
      OrthogonalizeAgainst(deflate, w);
      OrthogonalizeAgainst(basis, w);
      const double beta = Norm2(w);
      if (beta < 1e-12) {
        breakdown = true;  // exact invariant subspace reached
        break;
      }
      if (j + 1 >= max_basis) break;
      betas.push_back(beta);
      Scale(1.0 / beta, w);
      basis.push_back(w);
    }

    // Rayleigh-Ritz on the projected tridiagonal.
    const int m = static_cast<int>(alphas.size());
    SPECTRAL_CHECK_GT(m, 0);
    Vector sub(betas.begin(),
               betas.begin() + std::max(0, m - 1));
    auto tri = SolveTridiagonal(
        Vector(alphas.begin(), alphas.begin() + m), sub);
    if (!tri.ok()) return tri.status();

    // Largest Ritz pair.
    const int64_t top = m - 1;
    Fill(ritz, 0.0);
    for (int j = 0; j < m; ++j) {
      Axpy(tri->eigenvectors.At(j, top), basis[static_cast<size_t>(j)], ritz);
    }
    OrthogonalizeAgainst(deflate, ritz);
    if (Normalize(ritz) < 1e-12) {
      // Degenerate restart; try a fresh random direction.
      if (!RandomStartVector(n, deflate, rng, start)) {
        return InternalError("Lanczos lost the search subspace");
      }
      continue;
    }

    // True residual on the original operator.
    op.Apply(ritz, applied);
    result.matvecs += 1;
    const double theta = Dot(ritz, applied);
    Axpy(-theta, ritz, applied);
    const double residual = Norm2(applied);

    result.eigenvalue = theta;
    result.eigenvector = ritz;
    result.residual = residual;
    if (residual <= options.tol * std::max(std::fabs(theta), 1.0)) {
      result.converged = true;
      return result;
    }
    if (breakdown) {
      // The Krylov space is exhausted; the Ritz pair is exact for the
      // reachable subspace. Accept it.
      result.converged = true;
      return result;
    }
    start = ritz;  // restart from the best current estimate
  }
  return result;  // best effort, converged == false
}

StatusOr<LanczosPathResult> LanczosPath(const SparseMatrix& laplacian,
                                        const FiedlerOptions& options) {
  const int64_t n = laplacian.rows();
  SPECTRAL_CHECK_EQ(n, laplacian.cols());
  SPECTRAL_CHECK_GE(n, 2);
  const double zero_tol = 1e-8 * std::max(1.0, laplacian.GershgorinBound());
  const double shift = laplacian.GershgorinBound() * 1.0001 + 1e-12;

  SparseOperator lap_op(&laplacian, options.matvec_pool);
  ShiftNegateOperator op(&lap_op, shift);

  // Deflate the exact kernel vector 1/sqrt(n).
  std::vector<Vector> deflate;
  deflate.emplace_back(static_cast<size_t>(n),
                       1.0 / std::sqrt(static_cast<double>(n)));

  LanczosOptions lopt;
  lopt.max_restarts = options.max_restarts;
  lopt.tol = options.tol;
  lopt.seed = options.seed;

  LanczosPathResult result;
  const int64_t want = std::min<int64_t>(options.num_pairs, n - 1);
  for (int64_t k = 0; k < want; ++k) {
    auto lan = LargestEigenpair(op, deflate, lopt);
    if (!lan.ok()) return lan.status();
    result.matvecs += lan->matvecs;
    result.restarts += lan->restarts;
    if (!lan->converged && k > 0) break;  // keep the converged prefix
    LaplacianEigenPair pair;
    pair.eigenvalue = shift - lan->eigenvalue;
    pair.eigenvector = lan->eigenvector;
    if (!lan->converged) {
      // The Fiedler pair itself missed tolerance: an unconverged estimate
      // cannot prove a second kernel vector, so no disconnected check.
      result.converged = false;
      result.pairs.push_back(std::move(pair));
      break;
    }
    if (k == 0 && pair.eigenvalue < zero_tol) {
      return FailedPreconditionError(
          "Laplacian has multiple zero eigenvalues: graph is disconnected");
    }
    deflate.push_back(pair.eigenvector);
    result.pairs.push_back(std::move(pair));
  }
  return result;
}

}  // namespace spectral
