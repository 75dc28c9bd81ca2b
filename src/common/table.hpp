#pragma once
/// \file table.hpp
/// Result tables and data series for the characterization reports.
///
/// Every registry experiment reproduces paper tables or figures; `Table`
/// renders the rows exactly as the paper formats them (fixed columns,
/// aligned), and `Series` carries (x, y) curves for the figures. Both can
/// be exported as CSV so the data can be re-plotted.

#include <deque>
#include <iosfwd>
#include <string>
#include <variant>
#include <vector>

namespace columbia {

/// A table cell: text, integer, or floating-point with chosen precision.
class Cell {
 public:
  Cell() : value_(std::string{}) {}
  Cell(std::string text) : value_(std::move(text)) {}
  Cell(const char* text) : value_(std::string(text)) {}
  Cell(long long i) : value_(i) {}
  Cell(int i) : value_(static_cast<long long>(i)) {}
  Cell(double v, int precision = 2) : value_(v), precision_(precision) {}

  /// Renders to the final display string.
  std::string str() const;

 private:
  std::variant<std::string, long long, double> value_;
  int precision_ = 2;
};

/// Fixed-schema result table with aligned text rendering and CSV export.
class Table {
 public:
  Table(std::string title, std::vector<std::string> columns);

  void add_row(std::vector<Cell> cells);

  const std::string& title() const { return title_; }
  std::size_t num_rows() const { return rows_.size(); }
  std::size_t num_columns() const { return columns_.size(); }
  /// Rendered value at (row, col).
  std::string at(std::size_t row, std::size_t col) const;

  /// Pretty aligned rendering (monospace) with a title banner.
  std::string render() const;
  /// RFC-4180-ish CSV (no quoting of embedded commas needed for our data).
  std::string csv() const;

  friend std::ostream& operator<<(std::ostream& os, const Table& t);

 private:
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::vector<Cell>> rows_;
};

/// One labeled curve of a figure: y(x) samples in insertion order.
struct Series {
  std::string label;
  std::vector<double> x;
  std::vector<double> y;

  void add(double xv, double yv) {
    x.push_back(xv);
    y.push_back(yv);
  }
};

/// A figure is a titled bundle of series; rendered as a labeled column dump
/// (one block per series) that mirrors the paper's log-log plots.
class Figure {
 public:
  Figure(std::string title, std::string x_label, std::string y_label);

  /// Returns a reference that remains valid across later add_series calls
  /// (deque storage: no reallocation of existing elements).
  Series& add_series(std::string label);
  const std::deque<Series>& series() const { return series_; }
  const std::string& title() const { return title_; }

  std::string render() const;
  std::string csv() const;

 private:
  std::string title_;
  std::string x_label_;
  std::string y_label_;
  std::deque<Series> series_;
};

}  // namespace columbia
