#pragma once

// Minimal dense vector for the R^k extension (k is small — 2 or 3 in the
// experiments — so a thin wrapper over std::vector<double> is all the
// linear algebra this needs).

#include <cstddef>
#include <initializer_list>
#include <vector>

namespace ftmao {

class Vec {
 public:
  Vec() = default;
  explicit Vec(std::size_t dim, double fill = 0.0);
  Vec(std::initializer_list<double> values);

  std::size_t dim() const { return data_.size(); }
  double operator[](std::size_t i) const;
  double& operator[](std::size_t i);

  Vec& operator+=(const Vec& other);
  Vec& operator-=(const Vec& other);
  Vec& operator*=(double s);
  void fill(double value);  ///< every coordinate = value

  friend Vec operator+(Vec a, const Vec& b) { return a += b; }
  friend Vec operator-(Vec a, const Vec& b) { return a -= b; }
  friend Vec operator*(double s, Vec a) { return a *= s; }

  friend bool operator==(const Vec&, const Vec&) = default;

  double dot(const Vec& other) const;
  double norm2() const;                    ///< Euclidean norm
  double norm_inf() const;                 ///< max |coordinate|
  double distance_to(const Vec& other) const;  ///< Euclidean

  const std::vector<double>& data() const { return data_; }

 private:
  std::vector<double> data_;
};

}  // namespace ftmao
