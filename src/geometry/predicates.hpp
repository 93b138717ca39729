// Geometric predicates for the Delaunay construction.
//
// Each predicate has two stages. A double-precision evaluation with a
// static forward error bound (Shewchuk's `ccwerrboundA` /
// `iccerrboundA`) decides whenever the computed determinant clears the
// bound; inside that uncertainty band (and for inputs whose differences
// could under- or overflow) it falls back to the quad-precision
// reference evaluation. The bound also covers the reference's own
// rounding and its degeneracy guard, so the filtered predicate returns
// exactly the reference's decision on every input.
//
// The reference evaluates the determinant in __float128 and treats it as
// zero when |det| <= 1e-32 * permanent, where the permanent is the same
// expansion with every term made non-negative. The guard sits above the
// quad rounding error (~1e-33 * permanent), so exactly degenerate inputs
// (collinear / cocircular) are always reported as such, while a
// determinant that is small only because the points are clustered
// (every term is small, not cancelling) is still resolved.
#pragma once

#include <optional>

#include "geometry/point.hpp"

namespace gred::geometry {

enum class Orientation { kClockwise, kCollinear, kCounterClockwise };

/// Orientation of the ordered triple (a, b, c).
Orientation orient2d(const Point2D& a, const Point2D& b, const Point2D& c);

/// Signed twice-area of triangle (a, b, c); >0 when counter-clockwise.
double signed_area2(const Point2D& a, const Point2D& b, const Point2D& c);

/// True iff `p` lies strictly inside the circumcircle of the
/// counter-clockwise triangle (a, b, c).
bool in_circumcircle(const Point2D& a, const Point2D& b, const Point2D& c,
                     const Point2D& p);

/// Circumcenter of triangle (a, b, c). Precondition: not collinear.
Point2D circumcenter(const Point2D& a, const Point2D& b, const Point2D& c);

/// True iff p is inside or on the boundary of triangle (a,b,c) given in
/// counter-clockwise order.
bool point_in_triangle(const Point2D& a, const Point2D& b, const Point2D& c,
                       const Point2D& p);

/// The two stages of orient2d / in_circumcircle, exposed so tests can
/// check the filter against the reference and see which stage decided.
namespace predicate_stages {

/// Double-precision stage: the decision when the error bound certifies
/// it, std::nullopt when the reference must decide.
std::optional<Orientation> orient2d_filter(const Point2D& a, const Point2D& b,
                                           const Point2D& c);
std::optional<bool> in_circumcircle_filter(const Point2D& a, const Point2D& b,
                                           const Point2D& c, const Point2D& p);

/// Quad-precision reference stage.
Orientation orient2d_reference(const Point2D& a, const Point2D& b,
                               const Point2D& c);
bool in_circumcircle_reference(const Point2D& a, const Point2D& b,
                               const Point2D& c, const Point2D& p);

}  // namespace predicate_stages

}  // namespace gred::geometry
