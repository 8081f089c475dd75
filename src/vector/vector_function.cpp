#include "vector/vector_function.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "common/contracts.hpp"

namespace ftmao {

namespace {

// Scalar Huber pieces shared by the vector types.
double huber_value(double r, double delta) {
  const double ar = std::abs(r);
  if (ar <= delta) return 0.5 * r * r;
  return delta * (ar - 0.5 * delta);
}

double huber_slope(double r, double delta) {
  return std::clamp(r, -delta, delta);
}

// The relative resolution to which a_minimizer compares two values of a
// sum, far above the ~1e-14 rounding of a few dozen weighted terms.
constexpr double kValueResolution = 1e-12;

}  // namespace

// --------------------------------------------------------- SeparableHuber

SeparableHuber::SeparableHuber(Vec center, double delta, double scale)
    : center_(std::move(center)), delta_(delta), scale_(scale) {
  FTMAO_EXPECTS(center_.dim() >= 1);
  FTMAO_EXPECTS(delta > 0.0);
  FTMAO_EXPECTS(scale > 0.0);
}

double SeparableHuber::value(const Vec& x) const {
  FTMAO_EXPECTS(x.dim() == dim());
  double v = 0.0;
  for (std::size_t k = 0; k < dim(); ++k)
    v += huber_value(x[k] - center_[k], delta_);
  return scale_ * v;
}

Vec SeparableHuber::gradient(const Vec& x) const {
  Vec g(dim());
  gradient_into(x, g);
  return g;
}

void SeparableHuber::gradient_into(const Vec& x, Vec& out) const {
  FTMAO_EXPECTS(x.dim() == dim());
  FTMAO_EXPECTS(out.dim() == dim());
  for (std::size_t k = 0; k < dim(); ++k)
    out[k] = scale_ * huber_slope(x[k] - center_[k], delta_);
}

double SeparableHuber::gradient_bound() const {
  return scale_ * delta_ * std::sqrt(static_cast<double>(dim()));
}

bool SeparableHuber::batch_gradient_kernels(
    std::vector<BatchGradientKernel>& out) const {
  // huber_slope(r, delta) == clamp(min(r,0) + max(r,0), -delta, delta)
  // bit-for-bit (std tie semantics make min+max the identity on r), so
  // the clamp descriptor reproduces gradient_into exactly.
  for (std::size_t k = 0; k < dim(); ++k)
    out.push_back(BatchGradientKernel::clamp(center_[k], center_[k], -delta_,
                                             delta_, scale_));
  return true;
}

// ------------------------------------------------------------ RadialHuber

RadialHuber::RadialHuber(Vec center, double delta, double scale)
    : center_(std::move(center)), delta_(delta), scale_(scale) {
  FTMAO_EXPECTS(center_.dim() >= 1);
  FTMAO_EXPECTS(delta > 0.0);
  FTMAO_EXPECTS(scale > 0.0);
}

double RadialHuber::value(const Vec& x) const {
  FTMAO_EXPECTS(x.dim() == dim());
  return scale_ * huber_value(x.distance_to(center_), delta_);
}

Vec RadialHuber::gradient(const Vec& x) const {
  Vec g(dim());
  gradient_into(x, g);
  return g;
}

void RadialHuber::gradient_into(const Vec& x, Vec& out) const {
  FTMAO_EXPECTS(x.dim() == dim());
  FTMAO_EXPECTS(out.dim() == dim());
  out = x;  // same size: copies into out's storage
  out -= center_;
  const double r = out.norm2();
  if (r == 0.0) {
    out.fill(0.0);
    return;
  }
  out *= scale_ * huber_slope(r, delta_) / r;
}

// ------------------------------------------------------- DirectionalHuber

DirectionalHuber::DirectionalHuber(Vec direction, double offset, double delta,
                                   double scale)
    : direction_(std::move(direction)),
      offset_(offset),
      delta_(delta),
      scale_(scale) {
  FTMAO_EXPECTS(direction_.dim() >= 1);
  FTMAO_EXPECTS(delta > 0.0);
  FTMAO_EXPECTS(scale > 0.0);
  const double norm = direction_.norm2();
  FTMAO_EXPECTS(norm > 0.0);
  direction_ *= 1.0 / norm;
}

double DirectionalHuber::value(const Vec& x) const {
  FTMAO_EXPECTS(x.dim() == dim());
  return scale_ * huber_value(direction_.dot(x) - offset_, delta_);
}

Vec DirectionalHuber::gradient(const Vec& x) const {
  FTMAO_EXPECTS(x.dim() == dim());
  return (scale_ * huber_slope(direction_.dot(x) - offset_, delta_)) *
         direction_;
}

Vec DirectionalHuber::a_minimizer() const { return offset_ * direction_; }

// --------------------------------------------------------- ScalarAsVector

ScalarAsVector::ScalarAsVector(ScalarFunctionPtr f) : scalar_(std::move(f)) {
  FTMAO_EXPECTS(scalar_ != nullptr);
}

double ScalarAsVector::value(const Vec& x) const {
  FTMAO_EXPECTS(x.dim() == 1);
  return scalar_->value(x[0]);
}

Vec ScalarAsVector::gradient(const Vec& x) const {
  Vec g(1);
  gradient_into(x, g);
  return g;
}

void ScalarAsVector::gradient_into(const Vec& x, Vec& out) const {
  FTMAO_EXPECTS(x.dim() == 1);
  FTMAO_EXPECTS(out.dim() == 1);
  out[0] = scalar_->derivative(x[0]);
}

Vec ScalarAsVector::a_minimizer() const {
  return Vec(1, scalar_->argmin().midpoint());
}

bool ScalarAsVector::batch_gradient_kernels(
    std::vector<BatchGradientKernel>& out) const {
  const BatchGradientKernel k = scalar_->batch_gradient_kernel();
  if (!k.valid()) return false;
  out.push_back(k);
  return true;
}

// ------------------------------------------------------ VectorWeightedSum

VectorWeightedSum::VectorWeightedSum(std::vector<Term> terms)
    : terms_(std::move(terms)) {
  FTMAO_EXPECTS(!terms_.empty());
  double total = 0.0;
  for (const auto& t : terms_) {
    FTMAO_EXPECTS(t.weight >= 0.0);
    FTMAO_EXPECTS(t.function != nullptr);
    FTMAO_EXPECTS(t.function->dim() == terms_.front().function->dim());
    total += t.weight;
  }
  FTMAO_EXPECTS(total > 0.0);
}

std::size_t VectorWeightedSum::dim() const {
  return terms_.front().function->dim();
}

double VectorWeightedSum::value(const Vec& x) const {
  double v = 0.0;
  for (const auto& t : terms_) v += t.weight * t.function->value(x);
  return v;
}

Vec VectorWeightedSum::gradient(const Vec& x) const {
  Vec g(dim());
  Vec gi(dim());
  accumulate_gradient(x, g, gi);
  return g;
}

void VectorWeightedSum::accumulate_gradient(const Vec& x, Vec& g,
                                            Vec& gi) const {
  g.fill(0.0);
  for (const auto& t : terms_) {
    t.function->gradient_into(x, gi);
    gi *= t.weight;
    g += gi;
  }
}

double VectorWeightedSum::gradient_bound() const {
  double b = 0.0;
  for (const auto& t : terms_) b += t.weight * t.function->gradient_bound();
  return b;
}

double VectorWeightedSum::lipschitz_bound() const {
  double b = 0.0;
  for (const auto& t : terms_) b += t.weight * t.function->lipschitz_bound();
  return b;
}

double VectorWeightedSum::gradient_tolerance() const {
  return kRelativeTolerance * gradient_bound();
}

Vec VectorWeightedSum::a_minimizer() const {
  // Start from the weighted centroid of the terms' minimizers, the
  // optimum itself when the terms sit symmetrically about it.
  Vec x(dim(), 0.0);
  double total = 0.0;
  for (const auto& t : terms_) {
    if (t.weight <= 0.0) continue;
    Vec mi = t.function->a_minimizer();
    mi *= t.weight;
    x += mi;
    total += t.weight;
  }
  x *= 1.0 / total;

  const double tolerance = gradient_tolerance();
  Vec g(dim());
  Vec gi(dim());
  accumulate_gradient(x, g, gi);
  double gnorm = g.norm2();
  if (gnorm < tolerance) return x;

  const double lipschitz = lipschitz_bound();
  FTMAO_EXPECTS(lipschitz > 0.0);
  double step = 1.0 / lipschitz;
  double fx = value(x);
  Vec trial(dim());
  for (int it = 0; it < kMaxIterations; ++it) {
    for (std::size_t k = 0; k < dim(); ++k) trial[k] = x[k] - step * g[k];
    const double ft = value(trial);
    // Armijo with c = 1/2, which a step of 1/L always passes. The values
    // are compared only to their resolution: near the optimum the
    // required decrease falls below the rounding of value(), which must
    // not shrink the step. An overlong step still fails there once its
    // overshoot has raised the value past that resolution.
    const double slack = kValueResolution * std::abs(fx);
    if (!(ft <= fx - 0.5 * step * gnorm * gnorm + slack)) {
      step *= 0.5;
      continue;
    }
    std::swap(x, trial);
    fx = ft;
    accumulate_gradient(x, g, gi);
    gnorm = g.norm2();
    if (gnorm < tolerance) return x;
  }
  std::ostringstream os;
  os << "VectorWeightedSum::a_minimizer: gradient norm " << gnorm
     << " above " << tolerance << " after " << kMaxIterations << " steps";
  throw ContractViolation(os.str());
}

}  // namespace ftmao
