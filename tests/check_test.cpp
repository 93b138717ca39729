// The gred::check validators themselves: each one must pass on a
// known-good structure, report real work (checked > 0), and — the part
// a validator test must never skip — actually detect tampering.
// Also the degenerate Delaunay inputs the paper's join protocol can
// meet in practice: collinear-only sites, duplicates, cocircular
// quadruples.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/invariants.hpp"
#include "common/rng.hpp"
#include "core/controller.hpp"
#include "geometry/delaunay.hpp"
#include "geometry/point.hpp"
#include "graph/graph.hpp"
#include "graph/shortest_path.hpp"
#include "topology/presets.hpp"

namespace gred::check {
namespace {

using geometry::DelaunayTriangulation;
using geometry::Point2D;

std::vector<Point2D> random_points(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Point2D> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({rng.next_double(), rng.next_double()});
  }
  return pts;
}

// --- validate_delaunay -------------------------------------------------

TEST(ValidateDelaunay, PassesOnRandomSites) {
  auto dt = DelaunayTriangulation::build(random_points(60, 7)).value();
  const CheckReport report = validate_delaunay(dt);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(report.checked, 60u);
}

TEST(ValidateDelaunay, TinyTriangulations) {
  // n = 0, 1, 2 never have triangles; the chain structure must hold.
  EXPECT_TRUE(validate_delaunay(DelaunayTriangulation()).ok());
  EXPECT_TRUE(validate_delaunay(
                  DelaunayTriangulation::build({{0.5, 0.5}}).value())
                  .ok());
  auto pair =
      DelaunayTriangulation::build({{0.1, 0.2}, {0.8, 0.9}}).value();
  EXPECT_TRUE(pair.are_neighbors(0, 1));
  EXPECT_TRUE(validate_delaunay(pair).ok());
}

TEST(ValidateDelaunay, CollinearOnlySites) {
  // Exactly-collinear chain: no triangles, consecutive-site adjacency.
  std::vector<Point2D> pts;
  for (int i = 0; i < 12; ++i) {
    pts.push_back({0.0625 * i, 0.125 * i});
  }
  auto built = DelaunayTriangulation::build(pts);
  ASSERT_TRUE(built.ok());
  const DelaunayTriangulation& dt = built.value();
  EXPECT_TRUE(dt.triangles().empty());
  const CheckReport report = validate_delaunay(dt);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(report.checked, 0u);
}

TEST(ValidateDelaunay, CollinearThenInsertOffLine) {
  std::vector<Point2D> pts;
  for (int i = 0; i < 8; ++i) pts.push_back({0.125 * i, 0.25});
  auto built = DelaunayTriangulation::build(pts);
  ASSERT_TRUE(built.ok());
  DelaunayTriangulation dt = std::move(built).value();
  ASSERT_TRUE(dt.insert({0.3, 0.9}).ok());
  EXPECT_FALSE(dt.triangles().empty());
  const CheckReport report = validate_delaunay(dt);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(ValidateDelaunay, NearCollinearSliverSites) {
  // Points within one ulp of a line: build() must orient every sliver
  // with the exact predicate (regression: the naive signed_area2
  // orientation produced invalid triangulations here).
  Rng rng(0x51);
  std::vector<Point2D> pts;
  for (int i = 0; i < 24; ++i) {
    const double t = rng.next_double();
    pts.push_back({t, 0.5 + 0.25 * t});
  }
  auto built = DelaunayTriangulation::build(pts);
  ASSERT_TRUE(built.ok());
  const CheckReport report = validate_delaunay(built.value());
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(ValidateDelaunay, DuplicateSitesRejected) {
  auto built = DelaunayTriangulation::build(
      {{0.1, 0.1}, {0.9, 0.2}, {0.5, 0.8}, {0.1, 0.1}});
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.error().code, ErrorCode::kInvalidArgument);

  auto dt =
      DelaunayTriangulation::build({{0.1, 0.1}, {0.9, 0.2}, {0.5, 0.8}})
          .value();
  EXPECT_FALSE(dt.insert({0.9, 0.2}).ok());
  EXPECT_TRUE(validate_delaunay(dt).ok());
}

TEST(ValidateDelaunay, CocircularQuadruple) {
  // Four exactly cocircular points (a square): either diagonal gives a
  // valid DT; the empty-circumcircle predicate must treat the
  // boundary as empty and insertion must not crash.
  std::vector<Point2D> pts{{0.25, 0.25}, {0.75, 0.25}, {0.75, 0.75},
                           {0.25, 0.75}};
  auto built = DelaunayTriangulation::build(pts);
  ASSERT_TRUE(built.ok());
  DelaunayTriangulation dt = std::move(built).value();
  EXPECT_EQ(dt.triangles().size(), 2u);
  CheckReport report = validate_delaunay(dt);
  EXPECT_TRUE(report.ok()) << report.to_string();

  // The circle's center is cocircular-adjacent too: still fine.
  ASSERT_TRUE(dt.insert({0.5, 0.5}).ok());
  report = validate_delaunay(dt);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(ValidateDelaunay, CornerClustersKeepOneHullCycle) {
  // Sites a churned controller left within ~3e-7 of the corners (0, 0),
  // (1, 0) and (1, 1) of the virtual space: joins whose fitted position
  // clamped to a corner, pushed apart by separate_duplicates. Five of
  // them lie exactly on the line x = 1. Regression: the quad predicate
  // guarded in_circumcircle with 1e-30 * (sum of squared distances)^2,
  // so a site on the chord between two clustered sites (determinant
  // ~1e-32, dominated by one far vertex) read as outside the far
  // triangle's circle. The cavity then left a flat gap, the boundary
  // split into two cycles, and is_valid_delaunay did not notice.
  const std::vector<Point2D> cluster{
      {1.0, 0.0},           {0.0, 0.0},
      {1.0, 2.58e-07},      {1.0, 2.57e-07},
      {2.68e-07, 2.58e-07}, {1.0, 2.51e-07},
      {2.67e-07, 2.5e-07},  {1.0, 2.43e-07},
      {1.0, 2.42e-07},      {1.0, 1.0},
      {1.0 + 2.65e-07, 1.0 + 2.59e-07}};
  std::vector<Point2D> pts = random_points(40, 102);
  pts.insert(pts.end(), cluster.begin(), cluster.end());
  for (std::uint64_t order = 1; order <= 8; ++order) {
    SCOPED_TRACE(order);
    Rng rng(order);
    auto built = DelaunayTriangulation::build(pts, &rng);
    ASSERT_TRUE(built.ok()) << built.error().to_string();
    EXPECT_TRUE(built.value().is_valid_delaunay());
    const CheckReport report = validate_delaunay(built.value());
    EXPECT_TRUE(report.ok()) << report.to_string();
  }
}

// --- validate_virtual_space --------------------------------------------

TEST(ValidateVirtualSpace, AgreesWithBruteForce) {
  const std::vector<Point2D> sites = random_points(40, 11);
  auto dt = DelaunayTriangulation::build(sites).value();
  const CheckReport report = validate_virtual_space(
      sites, [&](const Point2D& p) { return dt.nearest_site(p); });
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(report.checked, sites.size());
}

TEST(ValidateVirtualSpace, DetectsWrongAnswers) {
  const std::vector<Point2D> sites = random_points(40, 12);
  // An off-by-one "nearest" map must be caught.
  const CheckReport report = validate_virtual_space(
      sites, [&](const Point2D&) { return std::size_t{0}; });
  EXPECT_FALSE(report.ok());
  EXPECT_FALSE(report.violations.empty());
}

// --- validate_graph ----------------------------------------------------

TEST(ValidateGraph, PassesOnPreset) {
  const graph::Graph g = topology::grid(4, 4);
  EXPECT_TRUE(validate_graph(g).ok());
  const graph::ApspResult unweighted =
      graph::all_pairs_shortest_paths(g, /*weighted=*/false);
  const CheckReport report = validate_graph(g, unweighted, false);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(report.checked, 16u * 16u);
}

TEST(ValidateGraph, DetectsCorruptedApsp) {
  const graph::Graph g = topology::ring(6);
  graph::ApspResult apsp =
      graph::all_pairs_shortest_paths(g, /*weighted=*/false);
  apsp.dist(1, 4) = 0.25;  // not a real shortest-path distance
  const CheckReport report = validate_graph(g, apsp, false);
  EXPECT_FALSE(report.ok());
}

TEST(ValidateGraph, DisconnectedComponentsConsistent) {
  graph::Graph g(6);
  ASSERT_TRUE(g.add_edge(0, 1).ok());
  ASSERT_TRUE(g.add_edge(1, 2).ok());
  ASSERT_TRUE(g.add_edge(3, 4).ok());  // {3,4,5} component (5 isolated)
  const graph::ApspResult apsp =
      graph::all_pairs_shortest_paths(g, /*weighted=*/false);
  const CheckReport report = validate_graph(g, apsp, false);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

// --- validate_flow_tables ----------------------------------------------

TEST(ValidateFlowTables, PassesAfterInstall) {
  sden::SdenNetwork net(
      topology::uniform_edge_network(topology::grid(4, 4), 2));
  core::Controller ctrl;
  ASSERT_TRUE(ctrl.initialize(net).ok());
  const CheckReport report = validate_flow_tables(
      net, ctrl.space().participants(), ctrl.space().positions());
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(report.checked, 16u);
}

TEST(ValidateFlowTables, DetectsStalePositions) {
  sden::SdenNetwork net(
      topology::uniform_edge_network(topology::grid(3, 3), 1));
  core::Controller ctrl;
  ASSERT_TRUE(ctrl.initialize(net).ok());
  // Claim different ground-truth positions than the ones installed:
  // every candidate entry is now stale.
  std::vector<Point2D> moved = ctrl.space().positions();
  for (Point2D& p : moved) {
    p.x = 1.0 - p.x;
    p.y = 1.0 - p.y;
  }
  const CheckReport report =
      validate_flow_tables(net, ctrl.space().participants(), moved);
  EXPECT_FALSE(report.ok());
}

// --- CheckReport plumbing ----------------------------------------------

TEST(CheckReport, CapsStoredViolations) {
  CheckReport report;
  report.subject = "cap-test";
  for (std::size_t i = 0; i < CheckReport::kMaxViolations + 10; ++i) {
    report.fail("violation " + std::to_string(i));
  }
  EXPECT_EQ(report.violations.size(), CheckReport::kMaxViolations);
  EXPECT_EQ(report.suppressed, 10u);
  EXPECT_FALSE(report.ok());
  const std::string text = report.to_string();
  EXPECT_NE(text.find("cap-test"), std::string::npos);
}

}  // namespace
}  // namespace gred::check
