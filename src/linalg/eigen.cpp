#include "linalg/eigen.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <stdexcept>

#include "common/rng.hpp"

namespace gred::linalg {
namespace {

// Subspace iteration limits. The wanted Ritz pairs of Waxman hop
// matrices converge in 60-300 steps (n = 100 to 4096); the cap only
// bounds pathological (near-degenerate) spectra, which then return the
// best Rayleigh-Ritz approximation found.
constexpr std::size_t kMaxSubspaceIterations = 2000;
constexpr double kResidualTolerance = 1e-10;
constexpr std::uint64_t kStartBlockSeed = 0x4d2d706f73ULL;

// Blocks are n x p row-major: entry (i, k) at [i * p + k].
double column_dot(const std::vector<double>& x, std::size_t n, std::size_t p,
                  std::size_t j, std::size_t k) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += x[i * p + j] * x[i * p + k];
  return acc;
}

/// Y = (A + shift I) X with the block width P fixed at compile time.
/// Four rows of A per pass share each load of X and keep 4P independent
/// accumulators; every entry still sums over j in order.
template <std::size_t P>
void multiply_block_fixed(const Matrix& a, double shift, const double* x,
                          double* y) {
  const std::size_t n = a.rows();
  constexpr std::size_t kRows = 4;
  std::size_t i = 0;
  for (; i + kRows <= n; i += kRows) {
    double acc[kRows][P] = {};
    for (std::size_t j = 0; j < n; ++j) {
      const double* xj = x + j * P;
      for (std::size_t r = 0; r < kRows; ++r) {
        const double aij = a(i + r, j);
        for (std::size_t k = 0; k < P; ++k) acc[r][k] += aij * xj[k];
      }
    }
    for (std::size_t r = 0; r < kRows; ++r) {
      for (std::size_t k = 0; k < P; ++k) {
        y[(i + r) * P + k] = acc[r][k] + shift * x[(i + r) * P + k];
      }
    }
  }
  for (; i < n; ++i) {
    double acc[P] = {};
    for (std::size_t j = 0; j < n; ++j) {
      const double aij = a(i, j);
      for (std::size_t k = 0; k < P; ++k) acc[k] += aij * x[j * P + k];
    }
    for (std::size_t k = 0; k < P; ++k) {
      y[i * P + k] = acc[k] + shift * x[i * P + k];
    }
  }
}

/// Y = (A + shift I) X. The embedding's block width (m = 2, p = 4)
/// takes the register-blocked kernel; other widths a plain loop.
void multiply_block(const Matrix& a, double shift, const std::vector<double>& x,
                    std::size_t p, std::vector<double>& y) {
  if (p == 4) return multiply_block_fixed<4>(a, shift, x.data(), y.data());
  const std::size_t n = a.rows();
  std::vector<double> acc(p);
  for (std::size_t i = 0; i < n; ++i) {
    std::fill(acc.begin(), acc.end(), 0.0);
    for (std::size_t j = 0; j < n; ++j) {
      const double aij = a(i, j);
      for (std::size_t k = 0; k < p; ++k) acc[k] += aij * x[j * p + k];
    }
    for (std::size_t k = 0; k < p; ++k) {
      y[i * p + k] = acc[k] + shift * x[i * p + k];
    }
  }
}

/// Modified Gram-Schmidt, two passes per column. A column with
/// (numerically) nothing outside its predecessors is restarted from the
/// matching column of `fallback`, the random start block.
void orthonormalize(std::vector<double>& x, std::size_t n, std::size_t p,
                    const std::vector<double>& fallback) {
  for (std::size_t k = 0; k < p; ++k) {
    for (int attempt = 0; attempt < 2; ++attempt) {
      const double before = std::sqrt(column_dot(x, n, p, k, k));
      for (int pass = 0; pass < 2; ++pass) {
        for (std::size_t j = 0; j < k; ++j) {
          const double d = column_dot(x, n, p, j, k);
          for (std::size_t i = 0; i < n; ++i) x[i * p + k] -= d * x[i * p + j];
        }
      }
      const double after = std::sqrt(column_dot(x, n, p, k, k));
      if (after > 1e-10 * before && after > 0.0) {
        for (std::size_t i = 0; i < n; ++i) x[i * p + k] /= after;
        break;
      }
      for (std::size_t i = 0; i < n; ++i) x[i * p + k] = fallback[i * p + k];
    }
  }
}

/// Block subspace iteration on A + shift I from `start` (n x p). Returns
/// all p Ritz pairs (values of A + shift I, descending) once the first
/// m residuals are at most `tolerance`.
EigenDecomposition subspace_iterate(const Matrix& a, double shift,
                                    std::size_t m, std::size_t p,
                                    const std::vector<double>& start,
                                    double tolerance) {
  const std::size_t n = a.rows();
  std::vector<double> x = start;
  orthonormalize(x, n, p, start);
  std::vector<double> y(n * p);
  Matrix h(p, p);
  EigenDecomposition ritz;
  ritz.vectors = Matrix(n, p);
  std::vector<double> ay(n * p);
  for (std::size_t iter = 0;; ++iter) {
    multiply_block(a, shift, x, p, y);
    // Rayleigh-Ritz: H = X^T (A + shift I) X, symmetrized.
    for (std::size_t r = 0; r < p; ++r) {
      for (std::size_t c = r; c < p; ++c) {
        double xr_yc = 0.0;
        double xc_yr = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          xr_yc += x[i * p + r] * y[i * p + c];
          xc_yr += x[i * p + c] * y[i * p + r];
        }
        h(r, c) = h(c, r) = 0.5 * (xr_yc + xc_yr);
      }
    }
    const EigenDecomposition small = symmetric_eigen(h);
    // Ritz vectors V = X W and their images (A + shift I) V = Y W.
    bool converged = true;
    for (std::size_t k = 0; k < p; ++k) {
      double residual_sq = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        double v = 0.0;
        double av = 0.0;
        for (std::size_t r = 0; r < p; ++r) {
          v += x[i * p + r] * small.vectors(r, k);
          av += y[i * p + r] * small.vectors(r, k);
        }
        ritz.vectors(i, k) = v;
        ay[i * p + k] = av;
        const double diff = av - small.values[k] * v;
        residual_sq += diff * diff;
      }
      if (k < m && std::sqrt(residual_sq) > tolerance) converged = false;
    }
    if (converged || iter + 1 == kMaxSubspaceIterations) {
      ritz.values = small.values;
      return ritz;
    }
    x.swap(ay);
    orthonormalize(x, n, p, start);
  }
}

/// Sum of squares of the strictly-off-diagonal elements.
double off_diagonal_sq(const Matrix& a) {
  double acc = 0.0;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      if (r != c) acc += a(r, c) * a(r, c);
    }
  }
  return acc;
}

}  // namespace

EigenDecomposition symmetric_eigen(const Matrix& a,
                                   const JacobiOptions& options) {
  if (!a.is_symmetric(1e-6)) {
    throw std::invalid_argument("symmetric_eigen: matrix is not symmetric");
  }
  const std::size_t n = a.rows();
  Matrix d = a;                       // working copy, driven to diagonal
  Matrix v = Matrix::identity(n);    // accumulated rotations

  const double stop =
      options.tolerance * options.tolerance * a.frobenius_norm() *
          a.frobenius_norm() +
      1e-300;

  for (std::size_t sweep = 0; sweep < options.max_sweeps; ++sweep) {
    if (off_diagonal_sq(d) <= stop) break;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = d(p, q);
        if (std::fabs(apq) < 1e-300) continue;
        const double app = d(p, p);
        const double aqq = d(q, q);

        // Rotation angle that annihilates d(p,q).
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;

        // Apply J^T D J on rows/cols p and q.
        for (std::size_t k = 0; k < n; ++k) {
          const double dkp = d(k, p);
          const double dkq = d(k, q);
          d(k, p) = c * dkp - s * dkq;
          d(k, q) = s * dkp + c * dkq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double dpk = d(p, k);
          const double dqk = d(q, k);
          d(p, k) = c * dpk - s * dqk;
          d(q, k) = s * dpk + c * dqk;
        }
        // Accumulate eigenvectors: V <- V J.
        for (std::size_t k = 0; k < n; ++k) {
          const double vkp = v(k, p);
          const double vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }

  // Extract and sort eigenpairs by descending eigenvalue.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::vector<double> diag(n);
  for (std::size_t i = 0; i < n; ++i) diag[i] = d(i, i);
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return diag[x] > diag[y]; });

  EigenDecomposition out;
  out.values.resize(n);
  out.vectors = Matrix(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    out.values[j] = diag[order[j]];
    for (std::size_t i = 0; i < n; ++i) {
      out.vectors(i, j) = v(i, order[j]);
    }
  }
  return out;
}

EigenDecomposition top_symmetric_eigen(const Matrix& a, std::size_t m) {
  if (!a.is_symmetric(1e-6)) {
    throw std::invalid_argument("top_symmetric_eigen: matrix is not symmetric");
  }
  const std::size_t n = a.rows();
  if (m == 0 || m > n) {
    throw std::invalid_argument("top_symmetric_eigen: need 0 < m <= n");
  }
  const std::size_t p = std::min(m + 2, n);
  const double tolerance = kResidualTolerance * a.frobenius_norm();

  std::vector<double> start(n * p);
  Rng rng(kStartBlockSeed);
  for (double& v : start) v = rng.uniform(-1.0, 1.0);

  // Subspace iteration finds the p eigenvalues of largest magnitude.
  // When a negative one competes with the m-th largest value, iterate
  // on A + sigma I instead: with sigma the spectral radius (the largest
  // Ritz magnitude) every eigenvalue is non-negative and magnitude
  // order is value order.
  EigenDecomposition ritz = subspace_iterate(a, 0.0, m, p, start, tolerance);
  if (p < n && -ritz.values.back() >= ritz.values[m - 1]) {
    const double sigma =
        std::max(std::fabs(ritz.values.front()), std::fabs(ritz.values.back()));
    ritz = subspace_iterate(a, sigma, m, p, start, tolerance);
    for (double& v : ritz.values) v -= sigma;
  }

  EigenDecomposition out;
  out.values.assign(ritz.values.begin(),
                    ritz.values.begin() + static_cast<std::ptrdiff_t>(m));
  out.vectors = Matrix(n, m);
  for (std::size_t k = 0; k < m; ++k) {
    // Sign: the largest-magnitude entry (lowest index on ties) is
    // positive.
    std::size_t pivot = 0;
    for (std::size_t i = 1; i < n; ++i) {
      if (std::fabs(ritz.vectors(i, k)) > std::fabs(ritz.vectors(pivot, k))) {
        pivot = i;
      }
    }
    const double sign = ritz.vectors(pivot, k) < 0.0 ? -1.0 : 1.0;
    for (std::size_t i = 0; i < n; ++i) {
      out.vectors(i, k) = sign * ritz.vectors(i, k);
    }
  }
  return out;
}

}  // namespace gred::linalg
