// Console table helpers shared by the benchmark harness.

#ifndef NVMGC_SRC_UTIL_TABLE_PRINTER_H_
#define NVMGC_SRC_UTIL_TABLE_PRINTER_H_

#include <cstdio>
#include <string>
#include <vector>

namespace nvmgc {

// Collects rows of string cells and prints them as an aligned ASCII table.
// Benchmarks use this to print paper-style result tables.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> header);

  void AddRow(std::vector<std::string> cells);

  // Renders the table to `out` (defaults to stdout).
  void Print(std::FILE* out = stdout) const;

  size_t row_count() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

// Numeric formatting helpers.
std::string FormatDouble(double value, int decimals = 2);
// Mean of `sum` over `n` samples, or "n/a" with no samples (never a NaN).
std::string FormatMean(double sum, int n, int decimals = 2);
std::string FormatSiBytes(uint64_t bytes);
std::string FormatMillis(double millis);

}  // namespace nvmgc

#endif  // NVMGC_SRC_UTIL_TABLE_PRINTER_H_
