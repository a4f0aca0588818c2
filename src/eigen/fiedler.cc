#include "eigen/fiedler.h"

#include <algorithm>
#include <cmath>

#include "eigen/block_lanczos.h"
#include "eigen/jacobi.h"
#include "eigen/operator.h"
#include "util/check.h"

namespace spectral {

namespace {

// Eigenvalues within kDegeneracyRelTol * lambda2 + kDegeneracyAbsTol of
// lambda2 count as degenerate with it.
constexpr double kDegeneracyRelTol = 1e-5;
constexpr double kDegeneracyAbsTol = 1e-8;

// Mean-centers a copy of `x` and normalizes it; returns empty if the result
// is numerically zero (constant input).
Vector CenteredUnit(const Vector& x) {
  Vector out = x;
  const double mean = Sum(out) / static_cast<double>(out.size());
  for (double& v : out) v -= mean;
  if (Normalize(out) < 1e-12) return {};
  return out;
}

// Deterministic sign convention: flip so the first entry with magnitude
// above tolerance is positive.
void FixSign(Vector& v) {
  for (double x : v) {
    if (std::fabs(x) > 1e-12) {
      if (x < 0) Scale(-1.0, v);
      return;
    }
  }
}

// Picks the canonical representative of the (near-)degenerate eigenspace
// spanned by the orthonormal columns in `space`.
Vector Canonicalize(const std::vector<const Vector*>& space,
                    std::span<const Vector> axes) {
  SPECTRAL_CHECK(!space.empty());
  const size_t n = space[0]->size();
  if (axes.empty() || space.size() == 1) {
    Vector v = *space[0];
    FixSign(v);
    return v;
  }

  // Coefficients of each centered axis function projected into the space.
  std::vector<Vector> coeffs;  // one m-vector per usable axis
  for (const Vector& raw_axis : axes) {
    Vector axis = CenteredUnit(raw_axis);
    if (axis.empty()) continue;
    Vector c(space.size(), 0.0);
    double norm2 = 0.0;
    for (size_t k = 0; k < space.size(); ++k) {
      c[k] = Dot(*space[k], axis);
      norm2 += c[k] * c[k];
    }
    if (norm2 < 1e-16) continue;
    const double inv = 1.0 / std::sqrt(norm2);
    for (double& x : c) x *= inv;  // unit energy per axis: fair mix
    coeffs.push_back(std::move(c));
  }
  if (coeffs.empty()) {
    Vector v = *space[0];
    FixSign(v);
    return v;
  }

  Vector mix(space.size(), 0.0);
  for (const Vector& c : coeffs) Axpy(1.0, c, std::span<double>(mix));
  if (Norm2(mix) < 1e-12) mix = coeffs[0];

  Vector v(n, 0.0);
  for (size_t k = 0; k < space.size(); ++k) {
    Axpy(mix[k], *space[k], std::span<double>(v));
  }
  Normalize(v);
  FixSign(v);
  return v;
}

StatusOr<FiedlerResult> DensePath(const SparseMatrix& laplacian,
                                  const FiedlerOptions& options,
                                  double zero_tol) {
  auto eig = JacobiEigenSolve(DenseMatrix::FromSparse(laplacian));
  if (!eig.ok()) return eig.status();
  const int64_t n = laplacian.rows();

  int64_t zeros = 0;
  while (zeros < n && eig->eigenvalues[static_cast<size_t>(zeros)] < zero_tol) {
    ++zeros;
  }
  if (zeros == 0) {
    return InternalError("Laplacian has no zero eigenvalue; not a Laplacian?");
  }
  if (zeros > 1) {
    return FailedPreconditionError(
        "Laplacian has multiple zero eigenvalues: graph is disconnected");
  }

  FiedlerResult result;
  result.method_used = "dense-jacobi";
  const int64_t want = std::min<int64_t>(options.num_pairs, n - 1);
  for (int64_t k = 0; k < want; ++k) {
    LaplacianEigenPair pair;
    pair.eigenvalue = eig->eigenvalues[static_cast<size_t>(1 + k)];
    pair.eigenvector.resize(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      pair.eigenvector[static_cast<size_t>(i)] = eig->eigenvectors.At(i, 1 + k);
    }
    result.pairs.push_back(std::move(pair));
  }
  return result;
}

StatusOr<FiedlerResult> BlockLanczosPath(const SparseMatrix& laplacian,
                                         const FiedlerOptions& options,
                                         double zero_tol,
                                         const VectorBlock* warm_start) {
  const int64_t n = laplacian.rows();
  const double shift = laplacian.GershgorinBound() * 1.0001 + 1e-12;

  SparseOperator lap_op(&laplacian, options.matvec_pool);
  ShiftNegateOperator op(&lap_op, shift);

  // Deflate the exact kernel vector 1/sqrt(n).
  std::vector<Vector> deflate;
  deflate.emplace_back(static_cast<size_t>(n),
                       1.0 / std::sqrt(static_cast<double>(n)));

  BlockLanczosOptions lopt;
  lopt.num_pairs =
      static_cast<int>(std::min<int64_t>(options.num_pairs, n - 1));
  lopt.max_basis = options.block_max_basis;
  lopt.max_restarts = options.max_restarts;
  // One decade below the caller's tolerance (the Chebyshev filter makes
  // the extra decade nearly free): at tol itself, start-dependent noise in
  // a degenerate eigenspace still straddles the rank quantizer, so warm-
  // and cold-started solves could disagree on exactly-tied points. The
  // warm-start property tests pin this contract.
  lopt.tol = std::max(options.tol * 0.1, 1e-13);
  lopt.seed = options.seed;
  lopt.cheb_degree_max = options.cheb_degree_max;
  lopt.op_lower_bound = 0.0;  // shift >= lambda_max: shift*I - L is PSD
  lopt.pool = options.matvec_pool;
  const bool warm = warm_start != nullptr && !warm_start->empty();
  if (warm) lopt.start = *warm_start;

  auto lan = LargestEigenpairsBlock(op, deflate, lopt);
  if (!lan.ok()) return lan.status();

  FiedlerResult result;
  result.method_used = warm ? "block-lanczos+warm" : "block-lanczos";
  result.warm_started = warm;
  result.matvecs = lan->matvecs;
  result.spmm_calls = lan->spmm_calls;
  result.reorth_panels = lan->reorth_panels;
  result.restarts = lan->restarts;
  result.profile = lan->profile;

  // Keep the converged prefix: extra pairs exist only for canonicalization
  // and may be dropped, but the Fiedler pair itself must have converged.
  for (size_t k = 0; k < lan->eigenvalues.size(); ++k) {
    const double theta = lan->eigenvalues[k];
    const double scale = std::max(std::fabs(theta), 1.0);
    const bool pair_ok =
        lan->converged || lan->residuals[k] <= options.tol * scale;
    if (!pair_ok && k > 0) break;
    LaplacianEigenPair pair;
    pair.eigenvalue = shift - theta;
    pair.eigenvector = std::move(lan->eigenvectors[k]);
    if (!pair_ok) {
      // Best-effort Fiedler pair: mark and return instead of erroring so
      // the caller's retry/degrade ladder can take over. No disconnected
      // check — the unconverged estimate cannot prove a second kernel
      // vector.
      result.converged = false;
      result.pairs.push_back(std::move(pair));
      break;
    }
    if (k == 0 && pair.eigenvalue < zero_tol) {
      return FailedPreconditionError(
          "Laplacian has multiple zero eigenvalues: graph is disconnected");
    }
    result.pairs.push_back(std::move(pair));
  }
  if (result.pairs.empty()) {
    return InternalError("block Lanczos produced no eigenpairs");
  }
  return result;
}

}  // namespace

StatusOr<FiedlerResult> ComputeFiedler(const SparseMatrix& laplacian,
                                       const FiedlerOptions& options,
                                       std::span<const Vector> canonical_axes,
                                       const VectorBlock* warm_start) {
  if (laplacian.rows() != laplacian.cols()) {
    return InvalidArgumentError("Laplacian must be square");
  }
  const int64_t n = laplacian.rows();
  if (n < 2) {
    return InvalidArgumentError(
        "Fiedler vector needs at least 2 vertices; got " + std::to_string(n));
  }
  SPECTRAL_CHECK_GE(options.num_pairs, 1);

  const double zero_tol =
      1e-8 * std::max(1.0, laplacian.GershgorinBound());

  auto result = n <= options.dense_threshold
                    ? DensePath(laplacian, options, zero_tol)
                    : BlockLanczosPath(laplacian, options, zero_tol,
                                       warm_start);
  if (!result.ok()) return result.status();

  FiedlerResult out = std::move(result).value();
  SPECTRAL_CHECK(!out.pairs.empty());
  out.lambda2 = out.pairs[0].eigenvalue;

  // Collect the near-degenerate eigenspace of lambda2.
  const double degen_limit =
      out.lambda2 +
      kDegeneracyRelTol * std::max(std::fabs(out.lambda2), 1e-30) +
      kDegeneracyAbsTol;
  std::vector<const Vector*> space;
  for (const auto& pair : out.pairs) {
    if (pair.eigenvalue <= degen_limit) space.push_back(&pair.eigenvector);
  }
  out.degenerate_dim = static_cast<int>(space.size());
  out.fiedler = Canonicalize(space, canonical_axes);
  return out;
}

}  // namespace spectral
