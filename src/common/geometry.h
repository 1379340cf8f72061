// 2-D geometry for unit-disk wireless models.
//
// The paper's analysis (Section 5) hinges on areas of intersecting disks:
// a cluster is a unit disk of radius R around the CH, and the number of
// in-cluster neighbours of a node v follows a Binomial whose success
// probability is An/Au, where An is the lens between the cluster disk and
// v's own transmission disk. This header provides exact lens areas plus an
// adaptive Simpson integrator used for the DCH-reachability model, where
// the relevant region is a three-disk intersection with no simple closed form.

#pragma once

#include <cmath>
#include <functional>

namespace cfds {

/// The paper's transmission range R in metres, which is also the cluster
/// radius of the per-cluster measures (Figures 5-7): the Monte-Carlo and
/// full-stack estimators run at it, and runner rows record it.
inline constexpr double kPaperRange = 100.0;

/// A point or vector in the plane, in metres.
struct Vec2 {
  double x = 0.0;
  double y = 0.0;

  friend constexpr Vec2 operator+(Vec2 a, Vec2 b) { return {a.x + b.x, a.y + b.y}; }
  friend constexpr Vec2 operator-(Vec2 a, Vec2 b) { return {a.x - b.x, a.y - b.y}; }
  friend constexpr Vec2 operator*(double k, Vec2 a) { return {k * a.x, k * a.y}; }
  friend constexpr bool operator==(Vec2, Vec2) = default;

  [[nodiscard]] double norm() const { return std::hypot(x, y); }
};

/// Euclidean distance between two points.
[[nodiscard]] inline double distance(Vec2 a, Vec2 b) { return (a - b).norm(); }

/// True if |a-b| <= range (closed ball, matching the paper's "distance from v
/// less than or equal to R" definition of a one-hop neighbour).
[[nodiscard]] inline bool within_range(Vec2 a, Vec2 b, double range) {
  return distance(a, b) <= range;
}

/// A disk (centre, radius). Radius must be >= 0.
struct Disk {
  Vec2 center;
  double radius = 0.0;

  [[nodiscard]] bool contains(Vec2 p) const {
    return within_range(center, p, radius);
  }
  [[nodiscard]] double area() const { return M_PI * radius * radius; }
};

/// Exact area of the intersection (lens) of two disks.
///
/// Handles the degenerate cases (disjoint, nested) exactly. For two disks of
/// equal radius R whose centres are R apart — the paper's worst-case node on
/// the cluster circumference — this evaluates to 2*pi*R^2/3 - sqrt(3)/2*R^2.
[[nodiscard]] double lens_area(const Disk& a, const Disk& b);

/// The paper's An: the in-cluster neighbourhood area of a node sitting on the
/// circumference of a cluster of radius r (both disks have radius r, centres
/// r apart). Equals lens_area for that configuration; kept as a named
/// function because the analysis module uses it directly.
[[nodiscard]] double worst_case_overlap_area(double r);

/// The paper's ratio q = An/Au for the worst-case (circumference) node:
/// 2/3 - sqrt(3)/(2*pi), independent of r.
[[nodiscard]] double worst_case_overlap_fraction();

/// Area of the intersection of three disks, via adaptive 2-D integration on
/// the bounding box of the smallest disk. Accurate to ~1e-6 relative error;
/// used only by the DCH-reachability study where no closed form exists.
[[nodiscard]] double triple_intersection_area(const Disk& a, const Disk& b,
                                              const Disk& c);

/// Adaptive Simpson quadrature of f over [lo, hi] with absolute tolerance.
[[nodiscard]] double integrate(const std::function<double(double)>& f, double lo,
                               double hi, double tolerance = 1e-10);

}  // namespace cfds
