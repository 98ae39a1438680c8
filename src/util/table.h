// Plain-text table printing for benchmark output.
//
// Benches print paper-style tables to stdout; this keeps the formatting in
// one place so every experiment's output looks the same.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace staleflow {

/// Accumulates rows of string cells and renders an aligned ASCII table.
class Table {
 public:
  /// Creates a table with the given column headers (must be non-empty).
  explicit Table(std::vector<std::string> headers);

  /// Appends a row. Must have exactly as many cells as there are headers.
  void add_row(std::vector<std::string> cells);

  std::size_t rows() const noexcept { return rows_.size(); }

  /// Renders with a header rule, e.g.
  ///   T        amplitude   predicted
  ///   -------  ----------  ----------
  ///   0.1000   0.024900    0.024979
  std::string to_string() const;

  /// Writes to_string() to the stream.
  void print(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Fixed-precision formatting helpers used when filling tables.
std::string fmt(double value, int precision = 6);
std::string fmt_sci(double value, int precision = 3);
std::string fmt_int(long long value);
std::string fmt_bool(bool value);

}  // namespace staleflow
