#include "linalg/mds.hpp"

#include <cmath>
#include <vector>

#include "linalg/eigen.hpp"

namespace gred::linalg {

Matrix pairwise_distances(const Matrix& coords) {
  const std::size_t n = coords.rows();
  const std::size_t m = coords.cols();
  Matrix d(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < m; ++k) {
        const double diff = coords(i, k) - coords(j, k);
        acc += diff * diff;
      }
      const double dist = std::sqrt(acc);
      d(i, j) = dist;
      d(j, i) = dist;
    }
  }
  return d;
}

double kruskal_stress(const Matrix& distances, const Matrix& coords) {
  const Matrix dhat = pairwise_distances(coords);
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < distances.rows(); ++i) {
    for (std::size_t j = i + 1; j < distances.cols(); ++j) {
      const double diff = distances(i, j) - dhat(i, j);
      num += diff * diff;
      den += distances(i, j) * distances(i, j);
    }
  }
  if (den == 0.0) return 0.0;
  return std::sqrt(num / den);
}

Result<MdsResult> classical_mds(const Matrix& distances, std::size_t m) {
  const std::size_t n = distances.rows();
  if (n == 0 || distances.cols() != n) {
    return Error(ErrorCode::kInvalidArgument,
                 "classical_mds: distance matrix must be square");
  }
  if (m == 0 || m >= n) {
    return Error(ErrorCode::kInvalidArgument,
                 "classical_mds: need 0 < m < n");
  }
  if (!distances.is_symmetric(1e-9)) {
    return Error(ErrorCode::kInvalidArgument,
                 "classical_mds: distance matrix must be symmetric");
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (distances(i, i) != 0.0) {
      return Error(ErrorCode::kInvalidArgument,
                   "classical_mds: nonzero diagonal");
    }
    for (std::size_t j = 0; j < n; ++j) {
      if (distances(i, j) < 0.0) {
        return Error(ErrorCode::kInvalidArgument,
                     "classical_mds: negative distance");
      }
    }
  }

  // Double centering B = -1/2 J L^(2) J with J = I - A/n, in O(n^2):
  // B_ij = -1/2 (L2_ij - rowmean_i - colmean_j + grandmean).
  Matrix b = distances.elementwise_square();
  std::vector<double> row_mean(n, 0.0);
  std::vector<double> col_mean(n, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      row_mean[r] += b(r, c);
      col_mean[c] += b(r, c);
    }
  }
  const double inv_n = 1.0 / static_cast<double>(n);
  double grand_mean = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    row_mean[i] *= inv_n;
    col_mean[i] *= inv_n;
    grand_mean += row_mean[i];
  }
  grand_mean *= inv_n;
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      b(r, c) = -0.5 * (b(r, c) - row_mean[r] - col_mean[c] + grand_mean);
    }
  }
  // Symmetrize to kill floating-point drift (the input is symmetric
  // only to 1e-9).
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = r + 1; c < n; ++c) {
      const double avg = 0.5 * (b(r, c) + b(c, r));
      b(r, c) = avg;
      b(c, r) = avg;
    }
  }

  const EigenDecomposition eig = top_symmetric_eigen(b, m);

  // Q = E_m Lambda_m^{1/2}; clamp tiny negative eigenvalues (the hop
  // metric is generally non-Euclidean, so trailing eigenvalues can dip
  // below zero).
  MdsResult out;
  out.eigenvalues = eig.values;
  out.coordinates = Matrix(n, m);
  for (std::size_t k = 0; k < m; ++k) {
    const double lambda = eig.values[k];
    const double scale = lambda > 0.0 ? std::sqrt(lambda) : 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      out.coordinates(i, k) = eig.vectors(i, k) * scale;
    }
  }
  out.stress = kruskal_stress(distances, out.coordinates);
  return out;
}

}  // namespace gred::linalg
