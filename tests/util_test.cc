// Unit tests for src/util.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/util/check.h"
#include "src/util/histogram.h"
#include "src/util/random.h"
#include "src/util/table_printer.h"

namespace nvmgc {
namespace {

TEST(CheckTest, PassingChecksAreSilent) {
  NVMGC_CHECK(1 + 1 == 2);
  NVMGC_CHECK_MSG(true, "never printed");
}

TEST(CheckDeathTest, FailureReportsFileLineAndExpression) {
  EXPECT_DEATH(NVMGC_CHECK(2 + 2 == 5),
               "NVMGC_CHECK failed at .*util_test\\.cc:[0-9]+: 2 \\+ 2 == 5");
}

TEST(CheckDeathTest, FailureWithMessageAppendsContext) {
  EXPECT_DEATH(NVMGC_CHECK_MSG(false, "region 7 lost its twin"),
               "NVMGC_CHECK failed at .*util_test\\.cc:[0-9]+: false: "
               "region 7 lost its twin");
}

TEST(RandomTest, DeterministicForSameSeed) {
  Random a(42);
  Random b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Random a(1);
  Random b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 2);
}

TEST(RandomTest, NextBelowStaysInBounds) {
  Random r(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.NextBelow(17), 17u);
  }
  EXPECT_EQ(r.NextBelow(0), 0u);
  EXPECT_EQ(r.NextBelow(1), 0u);
}

TEST(RandomTest, NextBelowIsRoughlyUniform) {
  Random r(9);
  constexpr int kBuckets = 8;
  constexpr int kSamples = 80000;
  int counts[kBuckets] = {0};
  for (int i = 0; i < kSamples; ++i) {
    counts[r.NextBelow(kBuckets)]++;
  }
  for (int c : counts) {
    EXPECT_NEAR(c, kSamples / kBuckets, kSamples / kBuckets * 0.1);
  }
}

TEST(RandomTest, NextInRangeInclusive) {
  Random r(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = r.NextInRange(5, 7);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 3u);  // All three values appear.
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  Random r(13);
  for (int i = 0; i < 10000; ++i) {
    const double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, NextBoolMatchesProbability) {
  Random r(17);
  int heads = 0;
  for (int i = 0; i < 100000; ++i) {
    heads += r.NextBool(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(heads, 30000, 1200);
}

TEST(ZipfTest, StaysInRangeAndIsSkewed) {
  ZipfGenerator zipf(1000, 0.9, 21);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 50000; ++i) {
    const uint64_t v = zipf.Next();
    ASSERT_LT(v, 1000u);
    counts[v]++;
  }
  // Head keys dominate the tail under a zipfian law.
  int head = 0;
  for (uint64_t k = 0; k < 10; ++k) {
    head += counts.count(k) ? counts[k] : 0;
  }
  EXPECT_GT(head, 50000 / 5);
}

TEST(HistogramTest, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(50), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.Record(1000);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 1000u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_NEAR(h.Percentile(50), 1000, 1000 * 0.07);
}

TEST(HistogramTest, PercentilesOrdered) {
  Histogram h;
  Random r(3);
  for (int i = 0; i < 100000; ++i) {
    h.Record(r.NextBelow(1'000'000));
  }
  const uint64_t p50 = h.Percentile(50);
  const uint64_t p95 = h.Percentile(95);
  const uint64_t p99 = h.Percentile(99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_NEAR(p50, 500'000, 50'000);
  EXPECT_NEAR(p99, 990'000, 40'000);
}

TEST(HistogramTest, LargeValuesBucketedWithBoundedError) {
  Histogram h;
  const uint64_t value = 123'456'789'000ULL;
  h.Record(value);
  const uint64_t p = h.Percentile(100);
  EXPECT_NEAR(static_cast<double>(p), static_cast<double>(value), value * 0.07);
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.Record(5);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(HistogramTest, ResetThenRecordBehavesLikeFresh) {
  Histogram h;
  h.Record(1'000'000);
  h.Reset();
  h.Record(42);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 42u);
  EXPECT_EQ(h.max(), 42u);
  EXPECT_NEAR(h.Percentile(50), 42, 42 * 0.07);
}

TEST(HistogramTest, PercentileEdgesBracketTheDistribution) {
  Histogram h;
  for (uint64_t v = 1; v <= 1000; ++v) {
    h.Record(v);
  }
  // p0 resolves at/near the minimum, p100 at/near the maximum (both within
  // the bucketing error bound).
  EXPECT_LE(h.Percentile(0), h.Percentile(1));
  EXPECT_NEAR(h.Percentile(0), 1, 1);
  EXPECT_NEAR(h.Percentile(100), 1000, 1000 * 0.07);
  EXPECT_GE(h.Percentile(100), h.max() * 93 / 100);
}

TEST(HistogramTest, PercentileIsMonotoneInP) {
  Histogram h;
  Random r(29);
  for (int i = 0; i < 20000; ++i) {
    h.Record(1 + r.NextBelow(1'000'000'000));
  }
  uint64_t prev = 0;
  for (int p = 0; p <= 100; ++p) {
    const uint64_t v = h.Percentile(p);
    EXPECT_GE(v, prev) << "Percentile(" << p << ") < Percentile(" << p - 1 << ")";
    prev = v;
  }
}

TEST(HistogramTest, SummarizeDigest) {
  Histogram empty;
  const HistogramSummary zero = Summarize(empty);
  EXPECT_EQ(zero.count, 0u);
  EXPECT_EQ(zero.p50, 0u);
  EXPECT_EQ(zero.max, 0u);
  EXPECT_EQ(zero.mean, 0.0);

  Histogram h;
  for (uint64_t v = 1; v <= 10000; ++v) {
    h.Record(v);
  }
  const HistogramSummary s = Summarize(h);
  EXPECT_EQ(s.count, 10000u);
  EXPECT_EQ(s.max, 10000u);
  EXPECT_LE(s.p50, s.p95);
  EXPECT_LE(s.p95, s.p99);
  EXPECT_LE(s.p99, s.max);
  EXPECT_NEAR(s.p50, 5000, 5000 * 0.07);
  EXPECT_NEAR(s.mean, 5000.5, 5000.5 * 0.01);
}

TEST(HistogramTest, RegistrySummariesCoverRecordedMetrics) {
  MetricsRegistry metrics;
  metrics.RecordHistogram("a.lat", 100);
  metrics.RecordHistogram("a.lat", 300);
  metrics.RecordHistogram("b.lat", 7);
  const auto summaries = metrics.Summaries();
  ASSERT_EQ(summaries.size(), 2u);
  EXPECT_EQ(summaries.at("a.lat").count, 2u);
  EXPECT_EQ(summaries.at("b.lat").count, 1u);
  EXPECT_EQ(metrics.Summary("a.lat").count, 2u);
  EXPECT_EQ(metrics.Summary("missing").count, 0u);
}

TEST(TablePrinterTest, AddRowRequiresMatchingWidth) {
  TablePrinter t({"a", "b"});
  t.AddRow({"1", "2"});
  EXPECT_EQ(t.row_count(), 1u);
  EXPECT_DEATH(t.AddRow({"only-one"}), "NVMGC_CHECK");
}

// The cells of one printed row: the text between its pipes.
std::vector<std::string> SplitCells(const std::string& line) {
  std::vector<std::string> cells;
  size_t start = line.find('|');
  while (start != std::string::npos) {
    const size_t end = line.find('|', start + 1);
    if (end == std::string::npos) {
      break;
    }
    cells.push_back(line.substr(start + 1, end - start - 1));
    start = end;
  }
  return cells;
}

// A printed table pastes as a Markdown table: its separator row has one cell
// of dashes under each header cell.
TEST(TablePrinterTest, SeparatorRowIsMarkdown) {
  TablePrinter t({"app", "gc (ms)", "x"});
  t.AddRow({"page-rank", "12.5", "3"});
  std::FILE* out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  t.Print(out);
  std::rewind(out);
  std::vector<std::string> lines;
  char buf[256];
  while (std::fgets(buf, sizeof(buf), out) != nullptr) {
    lines.emplace_back(buf);
  }
  std::fclose(out);
  ASSERT_EQ(lines.size(), 3u);
  const std::vector<std::string> header = SplitCells(lines[0]);
  const std::vector<std::string> separator = SplitCells(lines[1]);
  ASSERT_EQ(header.size(), 3u);
  ASSERT_EQ(separator.size(), header.size()) << lines[1];
  for (const std::string& cell : separator) {
    EXPECT_FALSE(cell.empty()) << lines[1];
    EXPECT_EQ(cell.find_first_not_of('-'), std::string::npos) << lines[1];
  }
  EXPECT_EQ(SplitCells(lines[2]).size(), header.size());
}

TEST(FormatTest, Helpers) {
  EXPECT_EQ(FormatDouble(1.2345, 2), "1.23");
  EXPECT_EQ(FormatSiBytes(1024), "1.0 KiB");
  EXPECT_EQ(FormatSiBytes(3 * 1024 * 1024), "3.0 MiB");
  EXPECT_EQ(FormatMillis(1500.0), "1.50 s");
  EXPECT_EQ(FormatMillis(12.5), "12.50 ms");
}

}  // namespace
}  // namespace nvmgc
