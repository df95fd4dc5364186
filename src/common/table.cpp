#include "common/table.h"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace hetsim::common {

std::string format_double(double v, int digits) {
  std::ostringstream ss;
  ss << std::fixed << std::setprecision(digits) << v;
  return ss.str();
}

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  if (header_.empty()) throw std::invalid_argument("Table: empty header");
}

void Table::add_row(std::vector<std::string> row) {
  if (row.size() != header_.size()) {
    throw std::invalid_argument("Table: row arity mismatch");
  }
  rows_.push_back(std::move(row));
}

void Table::add_row_numeric(const std::string& label,
                            const std::vector<double>& values, int digits) {
  std::vector<std::string> row;
  row.reserve(values.size() + 1);
  row.push_back(label);
  for (const double v : values) row.push_back(format_double(v, digits));
  add_row(std::move(row));
}

void Table::print(std::ostream& os, const std::string& title) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  if (!title.empty()) os << title << '\n';
  const auto emit = [&](const std::vector<std::string>& row) {
    os << "| ";
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << std::left << std::setw(static_cast<int>(widths[c])) << row[c]
         << " | ";
    }
    os << '\n';
  };
  emit(header_);
  os << '|';
  for (const std::size_t w : widths) os << std::string(w + 2, '-') << '|';
  os << '\n';
  for (const auto& row : rows_) emit(row);
}

}  // namespace hetsim::common
