#include "reference/tridiagonal.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "util/check.h"

namespace spectral {

namespace {

// Hypotenuse without overflow.
double Pythag(double a, double b) {
  const double absa = std::fabs(a);
  const double absb = std::fabs(b);
  if (absa > absb) {
    const double r = absb / absa;
    return absa * std::sqrt(1.0 + r * r);
  }
  if (absb == 0.0) return 0.0;
  const double r = absa / absb;
  return absb * std::sqrt(1.0 + r * r);
}

double SignLike(double magnitude, double sign_source) {
  return sign_source >= 0.0 ? std::fabs(magnitude) : -std::fabs(magnitude);
}

}  // namespace

StatusOr<TridiagonalEigenResult> SolveTridiagonal(const Vector& diag,
                                                  const Vector& sub) {
  const int64_t n = static_cast<int64_t>(diag.size());
  if (n == 0) return InvalidArgumentError("empty tridiagonal");
  SPECTRAL_CHECK_EQ(sub.size() + 1, diag.size());

  auto at = [](Vector& v, int64_t i) -> double& {
    return v[static_cast<size_t>(i)];
  };

  Vector d = diag;
  // e[i] couples d[i] and d[i+1]; e[n-1] is a zero sentinel.
  Vector e(static_cast<size_t>(n), 0.0);
  for (int64_t i = 0; i < n - 1; ++i) at(e, i) = sub[static_cast<size_t>(i)];

  DenseMatrix z = DenseMatrix::Identity(n);

  // Implicit QL with shifts; adapted (0-indexed) from the classic `tqli`.
  for (int64_t l = 0; l < n; ++l) {
    int iter = 0;
    int64_t m;
    do {
      for (m = l; m < n - 1; ++m) {
        const double dd = std::fabs(at(d, m)) + std::fabs(at(d, m + 1));
        if (std::fabs(at(e, m)) <=
            std::numeric_limits<double>::epsilon() * dd) {
          break;
        }
      }
      if (m != l) {
        if (iter++ == 60) {
          return InternalError("tridiagonal QL: too many iterations");
        }
        double g = (at(d, l + 1) - at(d, l)) / (2.0 * at(e, l));
        double r = Pythag(g, 1.0);
        g = at(d, m) - at(d, l) + at(e, l) / (g + SignLike(r, g));
        double s = 1.0;
        double c = 1.0;
        double p = 0.0;
        int64_t i = m - 1;
        for (; i >= l; --i) {
          double f = s * at(e, i);
          const double b = c * at(e, i);
          r = Pythag(f, g);
          at(e, i + 1) = r;
          if (r == 0.0) {
            at(d, i + 1) -= p;
            at(e, m) = 0.0;
            break;
          }
          s = f / r;
          c = g / r;
          g = at(d, i + 1) - p;
          r = (at(d, i) - g) * s + 2.0 * c * b;
          p = s * r;
          at(d, i + 1) = g + p;
          g = c * r - b;
          for (int64_t k = 0; k < n; ++k) {
            f = z.At(k, i + 1);
            z.At(k, i + 1) = s * z.At(k, i) + c * f;
            z.At(k, i) = c * z.At(k, i) - s * f;
          }
        }
        if (r == 0.0 && i >= l) continue;
        at(d, l) -= p;
        at(e, l) = g;
        at(e, m) = 0.0;
      }
    } while (m != l);
  }

  // Sort ascending.
  std::vector<int64_t> perm(static_cast<size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  std::sort(perm.begin(), perm.end(), [&](int64_t a, int64_t b) {
    return d[static_cast<size_t>(a)] < d[static_cast<size_t>(b)];
  });

  TridiagonalEigenResult result;
  result.eigenvalues.resize(static_cast<size_t>(n));
  result.eigenvectors = DenseMatrix(n, n);
  for (int64_t k = 0; k < n; ++k) {
    result.eigenvalues[static_cast<size_t>(k)] =
        d[static_cast<size_t>(perm[static_cast<size_t>(k)])];
    for (int64_t i = 0; i < n; ++i) {
      result.eigenvectors.At(i, k) = z.At(i, perm[static_cast<size_t>(k)]);
    }
  }
  return result;
}

}  // namespace spectral
