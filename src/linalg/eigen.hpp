// Symmetric eigensolvers.
//
// The control plane's M-position algorithm needs only the top-m
// eigenpairs (m = 2) of the double-centered matrix B (n x n, n =
// #switches). `top_symmetric_eigen` extracts them by block subspace
// iteration in O(n^2) per step. The cyclic Jacobi method
// (`symmetric_eigen`) computes every eigenpair in O(n^3); it is the
// test oracle for the subspace solver and the solver for its small
// p x p Rayleigh-Ritz matrices. Production never runs it on B itself.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"

namespace gred::linalg {

/// Eigen decomposition of a symmetric matrix: A = V diag(values) V^T.
/// `values` are sorted descending; `vectors.col(j)` pairs with values[j]
/// (vectors is column-major in the sense that column j is eigenvector j).
struct EigenDecomposition {
  std::vector<double> values;
  Matrix vectors;  ///< n x k; column j is the eigenvector for values[j].
};

/// Options for the Jacobi sweep loop.
struct JacobiOptions {
  std::size_t max_sweeps = 64;
  double tolerance = 1e-12;  ///< stop when off-diagonal norm is below this
                             ///< times the Frobenius norm of the input
};

/// Computes all eigenpairs of a symmetric matrix. Precondition:
/// a.is_symmetric(); asserts/throws otherwise.
EigenDecomposition symmetric_eigen(const Matrix& a,
                                   const JacobiOptions& options = {});

/// The m algebraically largest eigenpairs of a symmetric matrix
/// (values descending, vectors n x m), by deterministic block subspace
/// iteration: block size m + 2 from a fixed start block, modified
/// Gram-Schmidt, Rayleigh-Ritz through symmetric_eigen, stopping when
/// every wanted Ritz residual ||A v - lambda v|| is at most
/// 1e-10 * ||A||_F. If a negative eigenvalue competes in magnitude with
/// the wanted ones, the iteration is repeated on A + sigma I (sigma the
/// spectral radius) so the largest values, not the largest magnitudes,
/// are found. Signs are fixed a priori: each vector's largest-magnitude
/// entry is positive (lowest index on ties). Throws
/// std::invalid_argument unless 0 < m <= n and `a` is symmetric.
EigenDecomposition top_symmetric_eigen(const Matrix& a, std::size_t m);

}  // namespace gred::linalg
