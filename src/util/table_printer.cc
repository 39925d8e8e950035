#include "src/util/table_printer.h"

#include <algorithm>
#include <cinttypes>

#include "src/util/check.h"

namespace nvmgc {

TablePrinter::TablePrinter(std::vector<std::string> header) : header_(std::move(header)) {}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  NVMGC_CHECK(cells.size() == header_.size());
  rows_.push_back(std::move(cells));
}

void TablePrinter::Print(std::FILE* out) const {
  std::vector<size_t> widths(header_.size(), 0);
  for (size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      std::fprintf(out, "%c %-*s", c == 0 ? '|' : ' ', static_cast<int>(widths[c]),
                   row[c].c_str());
      std::fputs(" |", out);
    }
    std::fputc('\n', out);
  };
  print_row(header_);
  for (size_t c = 0; c < header_.size(); ++c) {
    std::fputs(c == 0 ? "|-" : "--", out);
    for (size_t i = 0; i < widths[c]; ++i) {
      std::fputc('-', out);
    }
    std::fputs("-|", out);
  }
  std::fputc('\n', out);
  for (const auto& row : rows_) {
    print_row(row);
  }
}

std::string FormatDouble(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return buf;
}

std::string FormatMean(double sum, int n, int decimals) {
  return n > 0 ? FormatDouble(sum / n, decimals) : "n/a";
}

std::string FormatSiBytes(uint64_t bytes) {
  static const char* kUnits[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  double v = static_cast<double>(bytes);
  int unit = 0;
  while (v >= 1024.0 && unit < 4) {
    v /= 1024.0;
    ++unit;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f %s", v, kUnits[unit]);
  return buf;
}

std::string FormatMillis(double millis) {
  char buf[64];
  if (millis >= 1000.0) {
    std::snprintf(buf, sizeof(buf), "%.2f s", millis / 1000.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f ms", millis);
  }
  return buf;
}

}  // namespace nvmgc
