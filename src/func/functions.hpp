#pragma once

// Concrete admissible cost functions (Section 2 of the paper). All have
// globally bounded, Lipschitz derivatives and compact argmin — note that a
// plain quadratic is NOT admissible (unbounded gradient); Huber is its
// admissible counterpart.
//
// The transcendental families (LogCosh, SmoothAbs, SoftplusBasin)
// evaluate through the deterministic polynomial math in simd/det_math —
// NOT libm — so their derivative() is bit-identical to the SIMD batch
// gradient kernels on every backend and platform, and their
// gradient_bound()/lipschitz_bound() are tight for the implementation
// actually running (det_tanh saturates to exactly ±1, so LogCosh's
// bound scale is attained; likewise SmoothAbs's).

#include <algorithm>

#include "func/scalar_function.hpp"

namespace ftmao {

/// Huber loss around `center`:
///   h(x) = scale * phi(x - center),
///   phi(r) = r^2/2 for |r| <= delta, delta*(|r| - delta/2) otherwise.
/// Quadratic near the optimum, linear in the tails. |h'| <= scale*delta,
/// Lipschitz constant scale, argmin {center}.
class Huber final : public ScalarFunction {
 public:
  Huber(double center, double delta, double scale);

  double value(double x) const override;
  double derivative(double x) const override;
  double gradient_bound() const override { return scale_ * delta_; }
  double lipschitz_bound() const override { return scale_; }
  Interval argmin() const override { return Interval(center_); }
  BatchGradientKernel batch_gradient_kernel() const override {
    return BatchGradientKernel::clamp(center_, center_, -delta_, delta_,
                                      scale_);
  }

  double center() const { return center_; }
  double delta() const { return delta_; }
  double scale() const { return scale_; }

 private:
  double center_;
  double delta_;
  double scale_;
};

/// Log-cosh loss:
///   h(x) = scale * width * log(cosh((x - center)/width)).
/// Smooth everywhere; h'(x) = scale * tanh((x-center)/width). The
/// deterministic tanh saturates to exactly ±1 for |z| >= 20, so
/// gradient_bound() = scale is attained (not just approached); the
/// Lipschitz constant scale/width is attained at the center. Argmin
/// {center}.
class LogCosh final : public ScalarFunction {
 public:
  LogCosh(double center, double width, double scale);

  double value(double x) const override;
  double derivative(double x) const override;
  double gradient_bound() const override { return scale_; }
  double lipschitz_bound() const override { return scale_ / width_; }
  Interval argmin() const override { return Interval(center_); }
  BatchGradientKernel batch_gradient_kernel() const override;

  double center() const { return center_; }
  double width() const { return width_; }
  double scale() const { return scale_; }

 private:
  double center_;
  double width_;
  double scale_;
};

/// Pseudo-Huber / smoothed absolute value:
///   h(x) = scale * (sqrt((x-center)^2 + eps^2) - eps).
/// gradient_bound() = scale is attained in double precision (once
/// eps²/r² drops below one ulp, r/sqrt(r²+eps²) rounds to exactly ±1);
/// the Lipschitz constant scale/eps is h''(center) exactly. Argmin
/// {center}.
class SmoothAbs final : public ScalarFunction {
 public:
  SmoothAbs(double center, double eps, double scale);

  double value(double x) const override;
  double derivative(double x) const override;
  double gradient_bound() const override { return scale_; }
  double lipschitz_bound() const override { return scale_ / eps_; }
  Interval argmin() const override { return Interval(center_); }
  BatchGradientKernel batch_gradient_kernel() const override;

  double center() const { return center_; }
  double eps() const { return eps_; }
  double scale() const { return scale_; }

 private:
  double center_;
  double eps_;
  double scale_;
};

/// Huber loss of the distance to an interval [lo, hi]: identically zero on
/// the interval, Huber growth outside. Its argmin is the full interval —
/// used to exercise non-singleton compact argmin sets, which Lemma 1's
/// geometry depends on.
class FlatHuber final : public ScalarFunction {
 public:
  FlatHuber(Interval flat, double delta, double scale);

  double value(double x) const override;
  double derivative(double x) const override;
  double gradient_bound() const override { return scale_ * delta_; }
  double lipschitz_bound() const override { return scale_; }
  Interval argmin() const override { return flat_; }
  BatchGradientKernel batch_gradient_kernel() const override {
    return BatchGradientKernel::clamp(flat_.lo(), flat_.hi(), -delta_, delta_,
                                      scale_);
  }

  Interval flat() const { return flat_; }
  double delta() const { return delta_; }
  double scale() const { return scale_; }

 private:
  Interval flat_;
  double delta_;
  double scale_;
};

/// Asymmetric Huber: quadratic near `center`, linear tails with DIFFERENT
/// saturation slopes on each side —
///   h'(x) = scale * clamp(x - center, -delta_neg, +delta_pos).
/// Models asymmetric penalties (undershooting cheaper than overshooting),
/// still admissible: convex, C^1, |h'| <= scale * max(deltas), Lipschitz
/// constant scale, argmin {center}.
class AsymmetricHuber final : public ScalarFunction {
 public:
  AsymmetricHuber(double center, double delta_neg, double delta_pos,
                  double scale);

  double value(double x) const override;
  double derivative(double x) const override;
  double gradient_bound() const override {
    return scale_ * std::max(delta_neg_, delta_pos_);
  }
  double lipschitz_bound() const override { return scale_; }
  Interval argmin() const override { return Interval(center_); }
  BatchGradientKernel batch_gradient_kernel() const override {
    return BatchGradientKernel::clamp(center_, center_, -delta_neg_,
                                      delta_pos_, scale_);
  }

  double center() const { return center_; }
  double delta_neg() const { return delta_neg_; }
  double delta_pos() const { return delta_pos_; }
  double scale() const { return scale_; }

 private:
  double center_;
  double delta_neg_;
  double delta_pos_;
  double scale_;
};

/// Two opposing softplus walls:
///   h(x) = scale * width * [softplus((x-b)/width) + softplus((a-x)/width)]
/// with a <= b. Strictly convex with a unique minimizer at (a+b)/2;
/// |h'| < scale. Lipschitz bound (tight up to the sum-splitting):
///   L' = scale/width * (1/4 + sigma'(g/2)),  g = (b-a)/width.
/// Proof: h''(x)*width/scale = sigma'(u) + sigma'(g+u) with u = (x-b)/w.
/// For u >= -g/2, sigma'(u) <= 1/4 and g+u >= g/2 so (sigma' even,
/// decreasing on positives) sigma'(g+u) <= sigma'(g/2); u <= -g/2 is the
/// mirror image with the roles swapped. Equals the old scale/(2*width)
/// at a == b and is strictly tighter for a < b (sigma' evaluated through
/// the deterministic det_sigmoid so the bound pins exactly everywhere).
class SoftplusBasin final : public ScalarFunction {
 public:
  SoftplusBasin(double a, double b, double width, double scale);

  double value(double x) const override;
  double derivative(double x) const override;
  double gradient_bound() const override { return scale_; }
  double lipschitz_bound() const override;
  Interval argmin() const override { return Interval((a_ + b_) / 2.0); }
  BatchGradientKernel batch_gradient_kernel() const override;

  double a() const { return a_; }
  double b() const { return b_; }
  double width() const { return width_; }
  double scale() const { return scale_; }

 private:
  double a_;
  double b_;
  double width_;
  double scale_;
};

}  // namespace ftmao
