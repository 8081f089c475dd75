#include "vector/vec.hpp"

#include <cmath>

#include "common/contracts.hpp"

namespace ftmao {

Vec::Vec(std::size_t dim, double fill) : data_(dim, fill) {}

Vec::Vec(std::initializer_list<double> values) : data_(values) {}

double Vec::operator[](std::size_t i) const {
  FTMAO_EXPECTS(i < data_.size());
  return data_[i];
}

double& Vec::operator[](std::size_t i) {
  FTMAO_EXPECTS(i < data_.size());
  return data_[i];
}

Vec& Vec::operator+=(const Vec& other) {
  FTMAO_EXPECTS(dim() == other.dim());
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Vec& Vec::operator-=(const Vec& other) {
  FTMAO_EXPECTS(dim() == other.dim());
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Vec& Vec::operator*=(double s) {
  for (double& x : data_) x *= s;
  return *this;
}

void Vec::fill(double value) {
  for (double& x : data_) x = value;
}

double Vec::dot(const Vec& other) const {
  FTMAO_EXPECTS(dim() == other.dim());
  double acc = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i) acc += data_[i] * other.data_[i];
  return acc;
}

double Vec::norm2() const { return std::sqrt(dot(*this)); }

double Vec::norm_inf() const {
  double best = 0.0;
  for (double x : data_) best = std::max(best, std::abs(x));
  return best;
}

double Vec::distance_to(const Vec& other) const {
  Vec diff = *this;
  diff -= other;
  return diff.norm2();
}

}  // namespace ftmao
