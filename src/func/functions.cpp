#include "func/functions.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "simd/det_math.hpp"

namespace ftmao {

// ---------------------------------------------- BatchGradientKernel

double BatchGradientKernel::evaluate(double x) const {
  switch (kind) {
    case Kind::kClamp: {
      const double below = std::min(x - p0, 0.0);
      const double above = std::max(x - p1, 0.0);
      return scale * std::clamp(below + above, p2, p3);
    }
    case Kind::kTanh:
      return detmath::grad_tanh(x, p0, p1, scale);
    case Kind::kSmoothAbs:
      return detmath::grad_smooth_abs(x, p0, p1, scale);
    case Kind::kSoftplusDiff:
      return detmath::grad_softplus_diff(x, p0, p1, p2, scale);
    case Kind::kNone:
      break;
  }
  return 0.0;
}

// ---------------------------------------------------------------- Huber

Huber::Huber(double center, double delta, double scale)
    : center_(center), delta_(delta), scale_(scale) {
  FTMAO_EXPECTS(delta > 0.0);
  FTMAO_EXPECTS(scale > 0.0);
}

double Huber::value(double x) const {
  const double r = x - center_;
  const double ar = std::abs(r);
  if (ar <= delta_) return scale_ * 0.5 * r * r;
  return scale_ * delta_ * (ar - 0.5 * delta_);
}

double Huber::derivative(double x) const {
  const double r = x - center_;
  return scale_ * std::clamp(r, -delta_, delta_);
}

// -------------------------------------------------------------- LogCosh

LogCosh::LogCosh(double center, double width, double scale)
    : center_(center), width_(width), scale_(scale) {
  FTMAO_EXPECTS(width > 0.0);
  FTMAO_EXPECTS(scale > 0.0);
}

double LogCosh::value(double x) const {
  return detmath::val_log_cosh(x, center_, width_, scale_);
}

double LogCosh::derivative(double x) const {
  return detmath::grad_tanh(x, center_, width_, scale_);
}

BatchGradientKernel LogCosh::batch_gradient_kernel() const {
  return BatchGradientKernel::tanh_grad(center_, width_, scale_);
}

// ------------------------------------------------------------ SmoothAbs

SmoothAbs::SmoothAbs(double center, double eps, double scale)
    : center_(center), eps_(eps), scale_(scale) {
  FTMAO_EXPECTS(eps > 0.0);
  FTMAO_EXPECTS(scale > 0.0);
}

double SmoothAbs::value(double x) const {
  return detmath::val_smooth_abs(x, center_, eps_, scale_);
}

double SmoothAbs::derivative(double x) const {
  return detmath::grad_smooth_abs(x, center_, eps_, scale_);
}

BatchGradientKernel SmoothAbs::batch_gradient_kernel() const {
  return BatchGradientKernel::smooth_abs(center_, eps_, scale_);
}

// ------------------------------------------------------------ FlatHuber

FlatHuber::FlatHuber(Interval flat, double delta, double scale)
    : flat_(flat), delta_(delta), scale_(scale) {
  FTMAO_EXPECTS(delta > 0.0);
  FTMAO_EXPECTS(scale > 0.0);
}

double FlatHuber::value(double x) const {
  const double d = flat_.distance_to(x);
  if (d <= delta_) return scale_ * 0.5 * d * d;
  return scale_ * delta_ * (d - 0.5 * delta_);
}

double FlatHuber::derivative(double x) const {
  double signed_dist = 0.0;
  if (x < flat_.lo()) signed_dist = x - flat_.lo();
  if (x > flat_.hi()) signed_dist = x - flat_.hi();
  return scale_ * std::clamp(signed_dist, -delta_, delta_);
}

// ------------------------------------------------------ AsymmetricHuber

AsymmetricHuber::AsymmetricHuber(double center, double delta_neg,
                                 double delta_pos, double scale)
    : center_(center),
      delta_neg_(delta_neg),
      delta_pos_(delta_pos),
      scale_(scale) {
  FTMAO_EXPECTS(delta_neg > 0.0);
  FTMAO_EXPECTS(delta_pos > 0.0);
  FTMAO_EXPECTS(scale > 0.0);
}

double AsymmetricHuber::value(double x) const {
  const double r = x - center_;
  if (r >= delta_pos_)
    return scale_ * delta_pos_ * (r - 0.5 * delta_pos_);
  if (r <= -delta_neg_)
    return scale_ * delta_neg_ * (-r - 0.5 * delta_neg_);
  return scale_ * 0.5 * r * r;
}

double AsymmetricHuber::derivative(double x) const {
  return scale_ * std::clamp(x - center_, -delta_neg_, delta_pos_);
}

// -------------------------------------------------------- SoftplusBasin

SoftplusBasin::SoftplusBasin(double a, double b, double width, double scale)
    : a_(a), b_(b), width_(width), scale_(scale) {
  FTMAO_EXPECTS(a <= b);
  FTMAO_EXPECTS(width > 0.0);
  FTMAO_EXPECTS(scale > 0.0);
}

double SoftplusBasin::value(double x) const {
  return detmath::val_softplus_basin(x, a_, b_, width_, scale_);
}

double SoftplusBasin::derivative(double x) const {
  return detmath::grad_softplus_diff(x, a_, b_, width_, scale_);
}

double SoftplusBasin::lipschitz_bound() const {
  // scale/width * (1/4 + sigma'(g/2)), g = (b-a)/width — see the header
  // for the proof. det_sigmoid_prime keeps the bound's bits
  // platform-independent like every other certificate input.
  const double g = (b_ - a_) / width_;
  const double sp = detmath::det_sigmoid_prime(g / 2.0);
  return scale_ / width_ * (0.25 + sp);
}

BatchGradientKernel SoftplusBasin::batch_gradient_kernel() const {
  return BatchGradientKernel::softplus_diff(a_, b_, width_, scale_);
}

}  // namespace ftmao
