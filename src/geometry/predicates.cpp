#include "geometry/predicates.hpp"

#include <cmath>

namespace gred::geometry {
namespace {

// Quad-precision (113-bit mantissa) reference evaluation. Its rounding
// error is below (10 + 96e) * e * permanent with e = 2^-113 (Shewchuk's
// incircle bound, ~1e-33; orient2d's is smaller), so a guard of 1e-32 *
// permanent decides every exactly degenerate input as degenerate and
// every non-degenerate decision it makes has the exact sign.
using quad = __float128;

quad qabs(quad x) { return x < 0 ? -x : x; }

constexpr quad kGuard = 1e-32;

// Double-precision filter. e = 2^-53; the A bounds are Shewchuk's
// first-stage bounds for these exact expression shapes (fp contraction
// is disabled for this file, see CMakeLists.txt). kReferenceSlack
// absorbs the reference's guard and rounding: 1e-32 + 1e-33 relative to
// a permanent within 1e-14 of the double one is below 2e-32 of it.
constexpr double kEpsilon = 0x1p-53;
constexpr double kCcwErrBoundA = (3.0 + 16.0 * kEpsilon) * kEpsilon;
constexpr double kIccErrBoundA = (10.0 + 96.0 * kEpsilon) * kEpsilon;
constexpr double kReferenceSlack = 2e-32;

// The error bounds hold only without underflow and overflow. Every
// nonzero coordinate difference in [2^-230, 2^230] keeps all products
// of up to four differences inside the normal range.
bool in_filter_range(double d) {
  const double m = std::fabs(d);
  return m == 0.0 || (m >= 0x1p-230 && m <= 0x1p230);
}

}  // namespace

double signed_area2(const Point2D& a, const Point2D& b, const Point2D& c) {
  return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x);
}

namespace predicate_stages {

std::optional<Orientation> orient2d_filter(const Point2D& a, const Point2D& b,
                                           const Point2D& c) {
  const double bax = b.x - a.x;
  const double bay = b.y - a.y;
  const double cax = c.x - a.x;
  const double cay = c.y - a.y;
  if (!(in_filter_range(bax) && in_filter_range(bay) &&
        in_filter_range(cax) && in_filter_range(cay))) {
    return std::nullopt;
  }
  const double left = bax * cay;
  const double right = bay * cax;
  const double det = left - right;
  const double permanent = std::fabs(left) + std::fabs(right);
  const double bound = (kCcwErrBoundA + kReferenceSlack) * permanent;
  if (det > bound) return Orientation::kCounterClockwise;
  if (-det > bound) return Orientation::kClockwise;
  return std::nullopt;
}

std::optional<bool> in_circumcircle_filter(const Point2D& a, const Point2D& b,
                                           const Point2D& c,
                                           const Point2D& p) {
  const double adx = a.x - p.x;
  const double ady = a.y - p.y;
  const double bdx = b.x - p.x;
  const double bdy = b.y - p.y;
  const double cdx = c.x - p.x;
  const double cdy = c.y - p.y;
  if (!(in_filter_range(adx) && in_filter_range(ady) &&
        in_filter_range(bdx) && in_filter_range(bdy) &&
        in_filter_range(cdx) && in_filter_range(cdy))) {
    return std::nullopt;
  }
  const double bdxcdy = bdx * cdy;
  const double cdxbdy = cdx * bdy;
  const double alift = adx * adx + ady * ady;
  const double cdxady = cdx * ady;
  const double adxcdy = adx * cdy;
  const double blift = bdx * bdx + bdy * bdy;
  const double adxbdy = adx * bdy;
  const double bdxady = bdx * ady;
  const double clift = cdx * cdx + cdy * cdy;
  const double det = alift * (bdxcdy - cdxbdy) + blift * (cdxady - adxcdy) +
                     clift * (adxbdy - bdxady);
  const double permanent =
      (std::fabs(bdxcdy) + std::fabs(cdxbdy)) * alift +
      (std::fabs(cdxady) + std::fabs(adxcdy)) * blift +
      (std::fabs(adxbdy) + std::fabs(bdxady)) * clift;
  const double bound = (kIccErrBoundA + kReferenceSlack) * permanent;
  if (det > bound) return true;
  if (-det > bound) return false;
  return std::nullopt;
}

Orientation orient2d_reference(const Point2D& a, const Point2D& b,
                               const Point2D& c) {
  const quad left = (quad(b.x) - quad(a.x)) * (quad(c.y) - quad(a.y));
  const quad right = (quad(b.y) - quad(a.y)) * (quad(c.x) - quad(a.x));
  const quad det = left - right;
  if (qabs(det) <= kGuard * (qabs(left) + qabs(right))) {
    return Orientation::kCollinear;
  }
  return det > 0 ? Orientation::kCounterClockwise : Orientation::kClockwise;
}

bool in_circumcircle_reference(const Point2D& a, const Point2D& b,
                               const Point2D& c, const Point2D& p) {
  const quad adx = quad(a.x) - quad(p.x);
  const quad ady = quad(a.y) - quad(p.y);
  const quad bdx = quad(b.x) - quad(p.x);
  const quad bdy = quad(b.y) - quad(p.y);
  const quad cdx = quad(c.x) - quad(p.x);
  const quad cdy = quad(c.y) - quad(p.y);

  const quad bdxcdy = bdx * cdy;
  const quad cdxbdy = cdx * bdy;
  const quad alift = adx * adx + ady * ady;
  const quad cdxady = cdx * ady;
  const quad adxcdy = adx * cdy;
  const quad blift = bdx * bdx + bdy * bdy;
  const quad adxbdy = adx * bdy;
  const quad bdxady = bdx * ady;
  const quad clift = cdx * cdx + cdy * cdy;

  const quad det = alift * (bdxcdy - cdxbdy) + blift * (cdxady - adxcdy) +
                   clift * (adxbdy - bdxady);
  const quad permanent = (qabs(bdxcdy) + qabs(cdxbdy)) * alift +
                         (qabs(cdxady) + qabs(adxcdy)) * blift +
                         (qabs(adxbdy) + qabs(bdxady)) * clift;
  return det > kGuard * permanent;
}

}  // namespace predicate_stages

Orientation orient2d(const Point2D& a, const Point2D& b, const Point2D& c) {
  if (const auto fast = predicate_stages::orient2d_filter(a, b, c)) {
    return *fast;
  }
  return predicate_stages::orient2d_reference(a, b, c);
}

bool in_circumcircle(const Point2D& a, const Point2D& b, const Point2D& c,
                     const Point2D& p) {
  if (const auto fast = predicate_stages::in_circumcircle_filter(a, b, c, p)) {
    return *fast;
  }
  return predicate_stages::in_circumcircle_reference(a, b, c, p);
}

Point2D circumcenter(const Point2D& a, const Point2D& b, const Point2D& c) {
  const double d =
      2.0 * (a.x * (b.y - c.y) + b.x * (c.y - a.y) + c.x * (a.y - b.y));
  const double a2 = a.x * a.x + a.y * a.y;
  const double b2 = b.x * b.x + b.y * b.y;
  const double c2 = c.x * c.x + c.y * c.y;
  const double ux = (a2 * (b.y - c.y) + b2 * (c.y - a.y) + c2 * (a.y - b.y)) / d;
  const double uy = (a2 * (c.x - b.x) + b2 * (a.x - c.x) + c2 * (b.x - a.x)) / d;
  return {ux, uy};
}

bool point_in_triangle(const Point2D& a, const Point2D& b, const Point2D& c,
                       const Point2D& p) {
  const double d1 = signed_area2(a, b, p);
  const double d2 = signed_area2(b, c, p);
  const double d3 = signed_area2(c, a, p);
  const bool has_neg = (d1 < 0) || (d2 < 0) || (d3 < 0);
  const bool has_pos = (d1 > 0) || (d2 > 0) || (d3 > 0);
  return !(has_neg && has_pos);
}

}  // namespace gred::geometry
