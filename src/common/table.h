// Console table rendering for the bench harnesses: each bench prints the
// rows/series of the paper table or figure it regenerates, so the output
// is directly comparable with the publication.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace hetsim::common {

/// Right-aligned fixed formatting of a double with `digits` decimals.
[[nodiscard]] std::string format_double(double v, int digits = 2);

/// A simple text table: header row plus data rows, padded columns.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Appends a row; must have the same arity as the header.
  void add_row(std::vector<std::string> row);

  /// Convenience: formats doubles with the given precision.
  void add_row_numeric(const std::string& label,
                       const std::vector<double>& values, int digits = 2);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }

  /// Renders with column padding, a header separator and `title` above.
  void print(std::ostream& os, const std::string& title = {}) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace hetsim::common
