// Matrix algebra, the Jacobi eigensolver, and classical MDS (the
// mathematical core of the M-position algorithm).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "graph/shortest_path.hpp"
#include "linalg/eigen.hpp"
#include "linalg/matrix.hpp"
#include "linalg/mds.hpp"
#include "topology/waxman.hpp"

namespace gred::linalg {
namespace {

// ---------- Matrix ----------

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 0) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 0), -2.0);
}

TEST(MatrixTest, InitializerList) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(MatrixTest, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(MatrixTest, AtBoundsChecked) {
  Matrix m(2, 2);
  EXPECT_THROW(m.at(2, 0), std::out_of_range);
  EXPECT_THROW(m.at(0, 2), std::out_of_range);
  EXPECT_NO_THROW(m.at(1, 1));
}

TEST(MatrixTest, IdentityAndOnes) {
  const Matrix i = Matrix::identity(3);
  EXPECT_DOUBLE_EQ(i(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(i(0, 1), 0.0);
  const Matrix ones = Matrix::ones(2, 2);
  EXPECT_DOUBLE_EQ(ones(1, 1), 1.0);
}

TEST(MatrixTest, Transpose) {
  Matrix m{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const Matrix t = m.transpose();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
}

TEST(MatrixTest, Multiply) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  const Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(MatrixTest, MultiplyByIdentity) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(a * Matrix::identity(2), a);
  EXPECT_EQ(Matrix::identity(2) * a, a);
}

TEST(MatrixTest, AddSubtractScale) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Matrix b{{4.0, 3.0}, {2.0, 1.0}};
  EXPECT_EQ((a + b)(0, 0), 5.0);
  EXPECT_EQ((a - b)(1, 1), 3.0);
  EXPECT_EQ((a * 2.0)(1, 0), 6.0);
  EXPECT_EQ((2.0 * a)(1, 0), 6.0);
}

TEST(MatrixTest, ElementwiseSquare) {
  Matrix a{{-2.0, 3.0}};
  const Matrix sq = a.elementwise_square();
  EXPECT_DOUBLE_EQ(sq(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(sq(0, 1), 9.0);
}

TEST(MatrixTest, FrobeniusNorm) {
  Matrix a{{3.0, 4.0}};
  EXPECT_DOUBLE_EQ(a.frobenius_norm(), 5.0);
}

TEST(MatrixTest, Symmetry) {
  Matrix s{{1.0, 2.0}, {2.0, 3.0}};
  Matrix a{{1.0, 2.0}, {2.5, 3.0}};
  EXPECT_TRUE(s.is_symmetric());
  EXPECT_FALSE(a.is_symmetric());
  EXPECT_FALSE(Matrix(2, 3).is_symmetric());
}

TEST(MatrixTest, MaxAbsDiff) {
  Matrix a{{1.0, 2.0}};
  Matrix b{{1.5, 1.0}};
  EXPECT_DOUBLE_EQ(a.max_abs_diff(b), 1.0);
}

// ---------- symmetric eigendecomposition ----------

TEST(EigenTest, DiagonalMatrix) {
  Matrix d{{3.0, 0.0, 0.0}, {0.0, 1.0, 0.0}, {0.0, 0.0, 2.0}};
  const EigenDecomposition e = symmetric_eigen(d);
  ASSERT_EQ(e.values.size(), 3u);
  EXPECT_NEAR(e.values[0], 3.0, 1e-10);
  EXPECT_NEAR(e.values[1], 2.0, 1e-10);
  EXPECT_NEAR(e.values[2], 1.0, 1e-10);
}

TEST(EigenTest, Known2x2) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1.
  Matrix a{{2.0, 1.0}, {1.0, 2.0}};
  const EigenDecomposition e = symmetric_eigen(a);
  EXPECT_NEAR(e.values[0], 3.0, 1e-10);
  EXPECT_NEAR(e.values[1], 1.0, 1e-10);
  // Eigenvector for 3 is (1,1)/sqrt(2) up to sign.
  EXPECT_NEAR(std::fabs(e.vectors(0, 0)), std::sqrt(0.5), 1e-8);
  EXPECT_NEAR(e.vectors(0, 0), e.vectors(1, 0), 1e-8);
}

TEST(EigenTest, ReconstructsMatrix) {
  Rng rng(31);
  const std::size_t n = 12;
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const double v = rng.uniform(-2.0, 2.0);
      a(i, j) = v;
      a(j, i) = v;
    }
  }
  const EigenDecomposition e = symmetric_eigen(a);
  // A == V diag(values) V^T
  Matrix lambda(n, n);
  for (std::size_t i = 0; i < n; ++i) lambda(i, i) = e.values[i];
  const Matrix rebuilt = e.vectors * lambda * e.vectors.transpose();
  EXPECT_LT(rebuilt.max_abs_diff(a), 1e-8);
}

TEST(EigenTest, VectorsAreOrthonormal) {
  Rng rng(32);
  const std::size_t n = 10;
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const double v = rng.uniform(-1.0, 1.0);
      a(i, j) = v;
      a(j, i) = v;
    }
  }
  const EigenDecomposition e = symmetric_eigen(a);
  const Matrix vtv = e.vectors.transpose() * e.vectors;
  EXPECT_LT(vtv.max_abs_diff(Matrix::identity(n)), 1e-8);
}

TEST(EigenTest, ValuesSortedDescending) {
  Rng rng(33);
  const std::size_t n = 8;
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const double v = rng.uniform(-1.0, 1.0);
      a(i, j) = v;
      a(j, i) = v;
    }
  }
  const EigenDecomposition e = symmetric_eigen(a);
  for (std::size_t i = 1; i < n; ++i) {
    EXPECT_GE(e.values[i - 1], e.values[i]);
  }
}

TEST(EigenTest, RejectsAsymmetric) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_THROW(symmetric_eigen(a), std::invalid_argument);
}

TEST(TopEigenTest, FindsLargestValuesWhenNegativesDominateInMagnitude) {
  // Spectrum {3, 2, 1, 0.5, 0.25, 0.1, -7, -8, -9, -10} in a random
  // orthonormal basis: plain subspace iteration with a block of 4 would
  // lock onto -10..-7, so the solver must shift to find 3 and 2.
  const std::vector<double> spectrum{3.0,  2.0,  1.0,  0.5,  0.25,
                                     0.1,  -7.0, -8.0, -9.0, -10.0};
  const std::size_t n = spectrum.size();
  Rng rng(34);
  Matrix r(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) r(i, j) = r(j, i) = rng.uniform(-1, 1);
  }
  const Matrix q = symmetric_eigen(r).vectors;  // orthonormal basis
  Matrix lambda(n, n);
  for (std::size_t i = 0; i < n; ++i) lambda(i, i) = spectrum[i];
  Matrix a = q * lambda * q.transpose();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      a(i, j) = a(j, i) = 0.5 * (a(i, j) + a(j, i));
    }
  }

  const EigenDecomposition top = top_symmetric_eigen(a, 2);
  ASSERT_EQ(top.values.size(), 2u);
  EXPECT_NEAR(top.values[0], 3.0, 1e-9);
  EXPECT_NEAR(top.values[1], 2.0, 1e-9);
  for (std::size_t k = 0; k < 2; ++k) {
    double residual = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double av = 0.0;
      for (std::size_t j = 0; j < n; ++j) av += a(i, j) * top.vectors(j, k);
      const double diff = av - top.values[k] * top.vectors(i, k);
      residual += diff * diff;
    }
    EXPECT_LE(std::sqrt(residual), 1e-9 * a.frobenius_norm());
  }
}

TEST(TopEigenTest, RejectsBadInput) {
  EXPECT_THROW(top_symmetric_eigen(Matrix{{1.0, 2.0}, {3.0, 4.0}}, 1),
               std::invalid_argument);
  EXPECT_THROW(top_symmetric_eigen(Matrix::identity(3), 0),
               std::invalid_argument);
  EXPECT_THROW(top_symmetric_eigen(Matrix::identity(3), 4),
               std::invalid_argument);
}

// ---------- classical MDS ----------

/// Distance matrix of explicit 2-D points.
Matrix distances_of(const std::vector<std::pair<double, double>>& pts) {
  const std::size_t n = pts.size();
  Matrix d(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double dx = pts[i].first - pts[j].first;
      const double dy = pts[i].second - pts[j].second;
      d(i, j) = std::sqrt(dx * dx + dy * dy);
    }
  }
  return d;
}

TEST(MdsTest, RecoversPlanarConfigurationExactly) {
  // Points genuinely in 2-D: classical MDS must reproduce all pairwise
  // distances (stress ~ 0).
  const std::vector<std::pair<double, double>> pts{
      {0.0, 0.0}, {1.0, 0.0}, {0.0, 2.0}, {3.0, 1.0}, {-1.0, -1.0}};
  const Matrix d = distances_of(pts);
  auto r = classical_mds(d, 2);
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_LT(r.value().stress, 1e-7);
  const Matrix dhat = pairwise_distances(r.value().coordinates);
  EXPECT_LT(dhat.max_abs_diff(d), 1e-7);
}

TEST(MdsTest, LineGraphEmbedsOnALine) {
  // Hop distances of a path graph are exactly 1-D Euclidean.
  const std::size_t n = 7;
  Matrix d(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      d(i, j) = std::fabs(static_cast<double>(i) - static_cast<double>(j));
    }
  }
  auto r = classical_mds(d, 2);
  ASSERT_TRUE(r.ok());
  EXPECT_LT(r.value().stress, 1e-7);
  // Second coordinate should be ~0 for all points.
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(r.value().coordinates(i, 1), 0.0, 1e-6);
  }
}

TEST(MdsTest, EigenvaluesDescending) {
  const std::vector<std::pair<double, double>> pts{
      {0.0, 0.0}, {2.0, 0.0}, {0.0, 1.0}, {2.0, 1.0}, {1.0, 3.0}};
  auto r = classical_mds(distances_of(pts), 2);
  ASSERT_TRUE(r.ok());
  const auto& ev = r.value().eigenvalues;
  for (std::size_t i = 1; i < ev.size(); ++i) {
    EXPECT_GE(ev[i - 1], ev[i] - 1e-9);
  }
}

TEST(MdsTest, TranslationInvariant) {
  const std::vector<std::pair<double, double>> base{
      {0.0, 0.0}, {1.0, 0.5}, {2.0, -1.0}, {0.5, 2.0}};
  std::vector<std::pair<double, double>> shifted;
  for (auto [x, y] : base) shifted.push_back({x + 100.0, y - 50.0});
  auto a = classical_mds(distances_of(base), 2);
  auto b = classical_mds(distances_of(shifted), 2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Same distance matrices -> same embedded distances.
  const Matrix da = pairwise_distances(a.value().coordinates);
  const Matrix db = pairwise_distances(b.value().coordinates);
  EXPECT_LT(da.max_abs_diff(db), 1e-8);
}

TEST(MdsTest, RejectsBadInput) {
  EXPECT_FALSE(classical_mds(Matrix(0, 0), 2).ok());
  EXPECT_FALSE(classical_mds(Matrix(3, 4), 2).ok());
  EXPECT_FALSE(classical_mds(Matrix(3, 3), 0).ok());
  EXPECT_FALSE(classical_mds(Matrix(3, 3), 3).ok());

  Matrix asym(3, 3);
  asym(0, 1) = 1.0;  // not mirrored
  asym(1, 0) = 2.0;
  asym(0, 2) = asym(2, 0) = 1.0;
  asym(1, 2) = asym(2, 1) = 1.0;
  EXPECT_FALSE(classical_mds(asym, 2).ok());

  Matrix neg{{0.0, -1.0}, {-1.0, 0.0}};
  EXPECT_FALSE(classical_mds(neg, 1).ok());

  Matrix diag{{1.0, 1.0}, {1.0, 0.0}};
  EXPECT_FALSE(classical_mds(diag, 1).ok());
}

TEST(MdsTest, NonEuclideanDistancesStillEmbed) {
  // Hop metric of a star graph (center 0): d(leaf, leaf) = 2, d(0,
  // leaf) = 1. Not planar-Euclidean for 5 leaves, so stress > 0, but
  // the embedding must exist and be finite.
  const std::size_t n = 6;
  Matrix d(n, n);
  for (std::size_t i = 1; i < n; ++i) {
    d(0, i) = d(i, 0) = 1.0;
    for (std::size_t j = 1; j < n; ++j) {
      if (i != j) d(i, j) = 2.0;
    }
  }
  auto r = classical_mds(d, 2);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.value().stress, 0.0);
  EXPECT_LT(r.value().stress, 0.6);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(std::isfinite(r.value().coordinates(i, 0)));
    EXPECT_TRUE(std::isfinite(r.value().coordinates(i, 1)));
  }
}

TEST(MdsTest, HigherDimensionReducesStrain) {
  // Classical MDS minimizes *strain* (squared-distance residual), and
  // adding a positive-eigenvalue dimension must not increase it. (Note
  // Kruskal stress is NOT monotone in m — a correct subtlety.)
  Rng rng(44);
  const std::size_t n = 10;
  std::vector<std::pair<double, double>> pts;
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)});
  }
  Matrix d = distances_of(pts);
  // Perturb to make it slightly non-Euclidean.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double f = 1.0 + 0.1 * rng.next_double();
      d(i, j) *= f;
      d(j, i) = d(i, j);
    }
  }
  auto m2 = classical_mds(d, 2);
  auto m3 = classical_mds(d, 3);
  ASSERT_TRUE(m2.ok());
  ASSERT_TRUE(m3.ok());
  // Strain = || B - Q Q^T ||_F^2 where B is the double-centered squared
  // distance matrix — the objective classical MDS provably minimizes,
  // monotone non-increasing in m.
  const std::size_t nn = d.rows();
  Matrix j = Matrix::identity(nn);
  j -= Matrix::ones(nn, nn) * (1.0 / static_cast<double>(nn));
  Matrix b = j * d.elementwise_square() * j;
  b *= -0.5;
  auto strain = [&b](const Matrix& coords) {
    const Matrix bhat = coords * coords.transpose();
    const Matrix diff = b - bhat;
    return diff.frobenius_norm();
  };
  EXPECT_LE(strain(m3.value().coordinates),
            strain(m2.value().coordinates) + 1e-9);
}

// ---------- classical MDS against the Jacobi oracle ----------
//
// classical_mds extracts the top-2 eigenpairs of B = -1/2 J L^(2) J by
// block subspace iteration; the full Jacobi decomposition of the same B
// (built here with the dense J products) is the oracle.

/// Hop-count matrix of a seeded Waxman graph (min degree 3).
Matrix waxman_hops(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  topology::WaxmanOptions opt;
  opt.node_count = n;
  opt.min_degree = 3;
  const topology::WaxmanTopology topo =
      topology::generate_waxman(opt, rng).value();
  const graph::ApspResult apsp = graph::all_pairs_shortest_paths(topo.graph);
  Matrix d(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) d(i, j) = apsp.dist(i, j);
  }
  return d;
}

/// Euclidean distances of random planar points with every pair scaled
/// by its own factor in [1, 1.15): symmetric but non-Euclidean.
Matrix perturbed_distances(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<double, double>> pts;
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({rng.next_double(), rng.next_double()});
  }
  Matrix d = distances_of(pts);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      d(i, j) *= 1.0 + 0.15 * rng.next_double();
      d(j, i) = d(i, j);
    }
  }
  return d;
}

/// B = -1/2 J L^(2) J with the dense products, symmetrized.
Matrix double_centered(const Matrix& d) {
  const std::size_t n = d.rows();
  Matrix j = Matrix::identity(n);
  j -= Matrix::ones(n, n) * (1.0 / static_cast<double>(n));
  Matrix b = j * d.elementwise_square() * j;
  b *= -0.5;
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = r + 1; c < n; ++c) {
      b(r, c) = b(c, r) = 0.5 * (b(r, c) + b(c, r));
    }
  }
  return b;
}

/// ||B v - lambda v|| for the unit eigenvector behind MDS column k.
double mds_residual(const Matrix& b, const MdsResult& r, std::size_t k) {
  const std::size_t n = b.rows();
  const double lambda = r.eigenvalues[k];
  const double scale = std::sqrt(lambda);
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double bv = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      bv += b(i, j) * r.coordinates(j, k) / scale;
    }
    const double diff = bv - lambda * r.coordinates(i, k) / scale;
    acc += diff * diff;
  }
  return std::sqrt(acc);
}

/// Checks classical_mds(d, 2) against the Jacobi oracle: eigenvalues,
/// residuals, and coordinates under the sign convention (largest-|entry|
/// positive, lowest index on ties).
void expect_matches_oracle(const Matrix& d) {
  const std::size_t n = d.rows();
  auto mds = classical_mds(d, 2);
  ASSERT_TRUE(mds.ok()) << mds.error().to_string();
  const MdsResult& r = mds.value();
  ASSERT_EQ(r.eigenvalues.size(), 2u);
  const Matrix b = double_centered(d);
  const double b_norm = b.frobenius_norm();
  const EigenDecomposition oracle = symmetric_eigen(b);
  for (std::size_t k = 0; k < 2; ++k) {
    const double lambda = oracle.values[k];
    EXPECT_NEAR(r.eigenvalues[k], lambda, 1e-9 * std::fabs(lambda))
        << "n=" << n << " k=" << k;
    EXPECT_LE(mds_residual(b, r, k), 1e-9 * b_norm) << "n=" << n;
    std::size_t pivot = 0;
    for (std::size_t i = 1; i < n; ++i) {
      if (std::fabs(oracle.vectors(i, k)) >
          std::fabs(oracle.vectors(pivot, k))) {
        pivot = i;
      }
    }
    const double sign = oracle.vectors(pivot, k) < 0.0 ? -1.0 : 1.0;
    double worst = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double expected = sign * oracle.vectors(i, k) * std::sqrt(lambda);
      worst = std::max(worst, std::fabs(r.coordinates(i, k) - expected));
    }
    EXPECT_LE(worst, 1e-8) << "n=" << n << " k=" << k;
  }
}

TEST(MdsOracleTest, WaxmanHopMatricesMatchJacobi) {
  for (const std::size_t n : {10u, 50u, 200u}) {
    SCOPED_TRACE(n);
    expect_matches_oracle(waxman_hops(n, 500 + n));
  }
}

TEST(MdsOracleTest, PerturbedNonEuclideanMatricesMatchJacobi) {
  for (const std::size_t n : {10u, 50u, 200u}) {
    SCOPED_TRACE(n);
    expect_matches_oracle(perturbed_distances(n, 600 + n));
  }
}

TEST(MdsOracleTest, DegenerateGapRingAgreesUpToRotation) {
  // The hop metric of a ring: B is circulant, so lambda1 == lambda2 and
  // any orthonormal basis of that plane is a valid answer. Only the
  // residuals and the subspace are defined: the coordinates must match
  // Jacobi's after the best rotation/reflection (orthogonal Procrustes).
  const std::size_t n = 40;
  Matrix d(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t gap = i > j ? i - j : j - i;
      d(i, j) = static_cast<double>(std::min(gap, n - gap));
    }
  }
  auto mds = classical_mds(d, 2);
  ASSERT_TRUE(mds.ok());
  const MdsResult& r = mds.value();
  const Matrix b = double_centered(d);
  const EigenDecomposition oracle = symmetric_eigen(b);
  ASSERT_NEAR(oracle.values[0], oracle.values[1], 1e-9 * oracle.values[0]);
  for (std::size_t k = 0; k < 2; ++k) {
    EXPECT_NEAR(r.eigenvalues[k], oracle.values[k], 1e-9 * oracle.values[k]);
    EXPECT_LE(mds_residual(b, r, k), 1e-9 * b.frobenius_norm());
  }
  Matrix x_oracle(n, 2);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < 2; ++k) {
      x_oracle(i, k) = oracle.vectors(i, k) * std::sqrt(oracle.values[k]);
    }
  }
  // Procrustes: R = U V^T from the SVD of M = X^T X_oracle, computed as
  // R = M (M^T M)^{-1/2} with the 2x2 eigendecomposition of M^T M.
  const Matrix m = r.coordinates.transpose() * x_oracle;
  const EigenDecomposition mtm = symmetric_eigen(m.transpose() * m);
  Matrix inv_sqrt(2, 2);
  for (std::size_t k = 0; k < 2; ++k) {
    ASSERT_GT(mtm.values[k], 0.0);
    for (std::size_t r1 = 0; r1 < 2; ++r1) {
      for (std::size_t c1 = 0; c1 < 2; ++c1) {
        inv_sqrt(r1, c1) += mtm.vectors(r1, k) * mtm.vectors(c1, k) /
                            std::sqrt(mtm.values[k]);
      }
    }
  }
  const Matrix rotation = m * inv_sqrt;
  const Matrix aligned = r.coordinates * rotation;
  EXPECT_LT(aligned.max_abs_diff(x_oracle), 1e-8);
}

TEST(KruskalStressTest, ZeroForExactMatch) {
  Matrix coords{{0.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}};
  const Matrix d = pairwise_distances(coords);
  EXPECT_NEAR(kruskal_stress(d, coords), 0.0, 1e-12);
}

TEST(PairwiseDistancesTest, SymmetricZeroDiagonal) {
  Matrix coords{{0.0, 0.0}, {3.0, 4.0}};
  const Matrix d = pairwise_distances(coords);
  EXPECT_DOUBLE_EQ(d(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(d(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(d(1, 0), 5.0);
}

}  // namespace
}  // namespace gred::linalg
