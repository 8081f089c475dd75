#pragma once

// Admissible cost functions on R^k for the vector extension (the paper's
// open problem). Admissibility mirrors the scalar definition: convex, C^1,
// compact argmin, gradient bounded and Lipschitz.

#include <memory>
#include <vector>

#include "func/scalar_function.hpp"
#include "vector/vec.hpp"

namespace ftmao {

class VectorFunction {
 public:
  virtual ~VectorFunction() = default;

  virtual std::size_t dim() const = 0;
  virtual double value(const Vec& x) const = 0;
  virtual Vec gradient(const Vec& x) const = 0;

  /// Writes gradient(x) into `out` (dim() coordinates) without
  /// allocating. Bit-identical to gradient() — the batched vector engine
  /// calls this once per agent per round in its hot loop. The default
  /// delegates to gradient(); allocation-free overrides must perform the
  /// exact same arithmetic per coordinate.
  virtual void gradient_into(const Vec& x, Vec& out) const {
    out = gradient(x);
  }

  /// L with ||grad||_2 <= L everywhere.
  virtual double gradient_bound() const = 0;

  /// L with ||grad(x) - grad(y)||_2 <= L ||x - y||_2 everywhere (the
  /// smoothness bound; VectorWeightedSum::a_minimizer steps by 1/L).
  virtual double lipschitz_bound() const = 0;

  /// Some point in argmin (the argmin need not be a box in general).
  virtual Vec a_minimizer() const = 0;

  /// Per-coordinate closed-form gradient descriptors, if the gradient is
  /// SEPARABLE and every coordinate fits a BatchGradientKernel shape:
  /// appends dim() descriptors to `out` (coordinate order) and returns
  /// true, in which case out[k].evaluate(x[k]) == gradient_into(x)[k]
  /// bit-for-bit for every x. Coupled gradients (RadialHuber,
  /// DirectionalHuber, sums) return false and keep the virtual path in
  /// the batched vector engine. Default: false, `out` untouched.
  virtual bool batch_gradient_kernels(
      std::vector<BatchGradientKernel>& out) const {
    (void)out;
    return false;
  }
};

using VectorFunctionPtr = std::shared_ptr<const VectorFunction>;

/// Separable sum of per-coordinate Hubers centered at c: the benign case
/// where coordinate-wise SBG inherits the scalar guarantees coordinate by
/// coordinate.
class SeparableHuber final : public VectorFunction {
 public:
  SeparableHuber(Vec center, double delta, double scale);

  std::size_t dim() const override { return center_.dim(); }
  double value(const Vec& x) const override;
  Vec gradient(const Vec& x) const override;
  void gradient_into(const Vec& x, Vec& out) const override;
  double gradient_bound() const override;
  double lipschitz_bound() const override { return scale_; }
  Vec a_minimizer() const override { return center_; }
  /// dim() clamp descriptors — gradient_into's per-coordinate
  /// scale * clamp(x[k] - c[k], -delta, delta) in closed form.
  bool batch_gradient_kernels(
      std::vector<BatchGradientKernel>& out) const override;

 private:
  Vec center_;
  double delta_;
  double scale_;
};

/// Huber of the Euclidean distance to a center: h(x) = phi(||x - c||_2).
/// Rotation-invariant — couples the coordinates, which is exactly what
/// makes the vector case hard (the set-Y analogue stops being convex).
class RadialHuber final : public VectorFunction {
 public:
  RadialHuber(Vec center, double delta, double scale);

  std::size_t dim() const override { return center_.dim(); }
  double value(const Vec& x) const override;
  Vec gradient(const Vec& x) const override;
  /// Allocation-free: forms x - c in `out`, takes its Vec::norm2 and
  /// scales it in place (gradient() calls this).
  void gradient_into(const Vec& x, Vec& out) const override;
  double gradient_bound() const override { return scale_ * delta_; }
  double lipschitz_bound() const override { return scale_; }
  Vec a_minimizer() const override { return center_; }

 private:
  Vec center_;
  double delta_;
  double scale_;
};

/// Huber of a linear functional: h(x) = phi(u . x - b) with ||u||_2 = 1.
/// Its argmin is the whole hyperplane slab {u.x = b} — unbounded, so this
/// type is NOT admissible alone; it is used in sums with others (the sum's
/// argmin is compact) and to build coupled objectives.
class DirectionalHuber final : public VectorFunction {
 public:
  DirectionalHuber(Vec direction, double offset, double delta, double scale);

  std::size_t dim() const override { return direction_.dim(); }
  double value(const Vec& x) const override;
  Vec gradient(const Vec& x) const override;
  double gradient_bound() const override { return scale_ * delta_; }
  double lipschitz_bound() const override { return scale_; }
  /// A point on the minimizing hyperplane.
  Vec a_minimizer() const override;

 private:
  Vec direction_;  // unit norm
  double offset_;
  double delta_;
  double scale_;
};

/// A scalar admissible cost viewed as a 1-dimensional vector cost — the
/// bridge for the d=1 collapse: a vector-SBG run over ScalarAsVector
/// wrappers performs coordinate arithmetic identical to the scalar
/// engine over the wrapped functions.
class ScalarAsVector final : public VectorFunction {
 public:
  explicit ScalarAsVector(ScalarFunctionPtr f);

  std::size_t dim() const override { return 1; }
  double value(const Vec& x) const override;
  Vec gradient(const Vec& x) const override;
  void gradient_into(const Vec& x, Vec& out) const override;
  double gradient_bound() const override {
    return scalar_->gradient_bound();
  }
  double lipschitz_bound() const override {
    return scalar_->lipschitz_bound();
  }
  /// Midpoint of the scalar argmin interval.
  Vec a_minimizer() const override;
  /// The wrapped scalar's descriptor (one coordinate), if it has one —
  /// keeps the d=1 collapse on the devirtualized path for every family
  /// the scalar engines devirtualize.
  bool batch_gradient_kernels(
      std::vector<BatchGradientKernel>& out) const override;

  const ScalarFunctionPtr& scalar() const { return scalar_; }

 private:
  ScalarFunctionPtr scalar_;
};

/// Non-negative weighted sum.
class VectorWeightedSum final : public VectorFunction {
 public:
  struct Term {
    double weight;
    VectorFunctionPtr function;
  };
  explicit VectorWeightedSum(std::vector<Term> terms);

  std::size_t dim() const override;
  double value(const Vec& x) const override;
  Vec gradient(const Vec& x) const override;
  double gradient_bound() const override;
  /// sum_i w_i L_i.
  double lipschitz_bound() const override;

  /// Gradient descent from the weighted centroid of the terms' minimizers
  /// by fixed steps of 1/lipschitz_bound(), the standard method for
  /// L-smooth convex costs. A step that fails the sufficient-decrease
  /// (Armijo) test is halved, so an understated bound cannot diverge.
  /// Returns the first iterate whose gradient norm is below
  /// gradient_tolerance() (the centroid itself when it already is);
  /// throws ContractViolation after kMaxIterations trial steps instead of
  /// returning an inexact point.
  Vec a_minimizer() const override;

  /// kRelativeTolerance * gradient_bound(): the gradient's rounding grows
  /// with the costs' scale, so no absolute tolerance suits every spread.
  double gradient_tolerance() const;

 private:
  static constexpr double kRelativeTolerance = 1e-12;
  static constexpr int kMaxIterations = 100000;

  /// gradient(x) into `g`, with `gi` as the per-term scratch: the terms'
  /// weighted gradients summed in term order onto zeros.
  void accumulate_gradient(const Vec& x, Vec& g, Vec& gi) const;

  std::vector<Term> terms_;
};

}  // namespace ftmao
