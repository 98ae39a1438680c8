// Small dense matrix support for the exact linear-phase solver.
//
// Within one bulletin-board phase the fluid dynamics is linear, f' = M f,
// so f(t̂ + τ) = expm(M τ) f(t̂). The matrices involved are |P| x |P| —
// path counts are modest — so a simple dense representation suffices.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace staleflow {

/// Row-major dense matrix of doubles.
class Matrix {
 public:
  Matrix() = default;

  /// rows x cols zero matrix.
  Matrix(std::size_t rows, std::size_t cols);

  static Matrix identity(std::size_t n);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }

  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }
  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }

  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double scalar);

  friend Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
  friend Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
  friend Matrix operator*(Matrix a, double s) { return a *= s; }

  /// Matrix product; requires cols() == other.rows().
  Matrix multiply(const Matrix& other) const;

  /// Matrix-vector product; requires x.size() == cols().
  std::vector<double> apply(std::span<const double> x) const;

  /// Maximum absolute row sum (the induced infinity norm).
  double inf_norm() const noexcept;

  /// Solves A X = B for X via LU with partial pivoting (A is this matrix,
  /// must be square with rows() == B.rows()). Throws std::domain_error if
  /// singular to working precision.
  Matrix solve(const Matrix& rhs) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace staleflow
