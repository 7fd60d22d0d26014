// Unit tests for the cost model, run reports (makespan/overlap/utilization), table
// printing, CSV and JSON serialization, and the checked report-file writer.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/metrics/cost_model.h"
#include "src/metrics/csv_writer.h"
#include "src/metrics/json_writer.h"
#include "src/metrics/run_report.h"
#include "src/metrics/table_printer.h"
#include "tests/testing/temp_files.h"

namespace cgraph {
namespace {

CostModel SimpleModel() {
  CostModel model;
  model.cost_per_compute_unit = 1.0;
  model.cost_per_hit_byte = 0.0;
  model.cost_per_mem_byte = 1.0;
  model.cost_per_disk_byte = 10.0;
  model.bandwidth_channels = 2;
  return model;
}

TEST(CostModelTest, ComputeAndAccessCosts) {
  const CostModel model = SimpleModel();
  EXPECT_DOUBLE_EQ(model.ComputeCost(100), 100.0);
  AccessCharge charge;
  charge.hit_bytes = 50;
  charge.mem_bytes = 30;
  charge.disk_bytes = 2;
  EXPECT_DOUBLE_EQ(model.AccessCost(charge), 30.0 + 20.0);
}

TEST(CostModelTest, ModeledTimeRespectsChannelSaturation) {
  const CostModel model = SimpleModel();
  AccessCharge charge;
  charge.mem_bytes = 100;
  // 8 workers but only 2 channels: access divides by 2, compute by 8.
  EXPECT_DOUBLE_EQ(model.ModeledTime(80, charge, 8), 80.0 / 8 + 100.0 / 2);
  // 1 worker: both divide by 1.
  EXPECT_DOUBLE_EQ(model.ModeledTime(80, charge, 1), 80.0 + 100.0);
}

RunReport TwoJobReport() {
  RunReport report;
  report.executor_name = "test";
  report.workers = 2;
  JobStats a;
  a.job_name = "a";
  a.compute_units = 100;
  a.charge.mem_bytes = 50;
  JobStats b;
  b.job_name = "b";
  b.compute_units = 300;
  b.charge.mem_bytes = 150;
  report.jobs = {a, b};
  return report;
}

TEST(RunReportTest, TotalsAggregate) {
  const RunReport report = TwoJobReport();
  EXPECT_EQ(report.TotalComputeUnits(), 400u);
  EXPECT_EQ(report.TotalCharge().mem_bytes, 200u);
  EXPECT_EQ(report.BytesBelowCache(), 200u);
}

TEST(RunReportTest, MakespanOverlapsAcrossJobs) {
  const CostModel model = SimpleModel();
  RunReport report = TwoJobReport();
  // compute = 400/2 = 200; access = 200/2 = 100. Two jobs: the smaller component is half
  // hidden: 200 + 100/2 = 250.
  EXPECT_DOUBLE_EQ(report.ModeledMakespan(model), 250.0);
  // A single job cannot hide anything: plain sum.
  report.jobs.resize(1);
  // compute = 100/2 = 50; access = 50/2 = 25 -> 50 + 25.
  EXPECT_DOUBLE_EQ(report.ModeledMakespan(model), 75.0);
}

TEST(RunReportTest, CpuUtilizationBounds) {
  const CostModel model = SimpleModel();
  const RunReport report = TwoJobReport();
  const double utilization = report.CpuUtilization(model);
  EXPECT_GT(utilization, 0.0);
  EXPECT_LE(utilization, 1.0);
  EXPECT_DOUBLE_EQ(utilization, 200.0 / 250.0);
}

TEST(RunReportTest, EmptyReportUtilizationIsOne) {
  const CostModel model = SimpleModel();
  RunReport report;
  EXPECT_DOUBLE_EQ(report.CpuUtilization(model), 1.0);
}

TEST(JobStatsTest, ModeledTimesSplit) {
  const CostModel model = SimpleModel();
  JobStats stats;
  stats.compute_units = 40;
  stats.charge.mem_bytes = 10;
  EXPECT_DOUBLE_EQ(stats.ModeledComputeTime(model, 4), 10.0);
  EXPECT_DOUBLE_EQ(stats.ModeledAccessTime(model, 4), 5.0);
  EXPECT_DOUBLE_EQ(stats.ModeledTime(model, 4), 15.0);
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"Name", "Value"});
  table.AddRow({"x", "1"});
  table.AddRow({"longer-name", "22"});
  const std::string out = table.ToString();
  std::istringstream lines(out);
  std::string line;
  std::vector<size_t> lengths;
  while (std::getline(lines, line)) {
    lengths.push_back(line.size());
  }
  ASSERT_EQ(lengths.size(), 4u);  // Header + separator + two rows.
  EXPECT_EQ(lengths[0], lengths[1]);
  EXPECT_EQ(lengths[0], lengths[2]);
  EXPECT_EQ(lengths[0], lengths[3]);
}

TEST(TablePrinterTest, ShortRowsPadded) {
  TablePrinter table({"A", "B", "C"});
  table.AddRow({"only-one"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("only-one"), std::string::npos);
  // Three separators per row (one per column) plus the trailing one.
  const std::string last_line = out.substr(out.rfind("| only-one"));
  EXPECT_EQ(std::count(last_line.begin(), last_line.end(), '|'), 4);
}

TEST(CsvWriterTest, ContainsHeaderAndTotalRow) {
  const CostModel model = SimpleModel();
  const RunReport report = TwoJobReport();
  const std::string csv = RunReportToCsv(report, model);
  EXPECT_NE(csv.find("executor,job,iterations"), std::string::npos);
  EXPECT_NE(csv.find("test,a,"), std::string::npos);
  EXPECT_NE(csv.find("test,b,"), std::string::npos);
  EXPECT_NE(csv.find("test,total,"), std::string::npos);
  // Header + 2 jobs + total = 4 lines.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 4);
}

TEST(WriteTextFileTest, RoundTripThroughFile) {
  const std::string csv = RunReportToCsv(TwoJobReport(), SimpleModel());
  const std::string path = test_support::TempPath("cgraph_report.csv");
  ASSERT_TRUE(WriteTextFile(path, csv).ok());
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), csv);
  std::remove(path.c_str());
}

TEST(WriteTextFileTest, UnwritablePathFails) {
  EXPECT_FALSE(WriteTextFile("/nonexistent/dir/report.json", "{}\n").ok());
}

TEST(JsonWriterTest, NestedContainersGetCommasOnlyBetweenElements) {
  JsonWriter w;
  w.BeginObject().Field("a", uint64_t{1}).Key("b").BeginArray();
  w.BeginObject().EndObject().BeginArray().EndArray().Value("s").Value(0.5);
  w.BeginObject().Field("c", "x").Field("d", uint32_t{2}).EndObject();
  w.EndArray().Key("e").BeginObject().EndObject().EndObject();
  EXPECT_EQ(w.str(), R"({"a":1,"b":[{},[],"s",0.5,{"c":"x","d":2}],"e":{}})");
}

TEST(JsonWriterTest, EscapesQuotesBackslashesAndControlCharacters) {
  JsonWriter w;
  w.BeginObject().Field("k\"\n", std::string_view("q\"b\\s\r\t\x01\x1f/\x7f", 11));
  EXPECT_EQ(w.EndObject().str(), R"({"k\"\n":"q\"b\\s\u000d\t\u0001\u001f/)" "\x7f" R"("})");
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.BeginArray().Value(std::nan("")).Value(HUGE_VAL).Value(-HUGE_VAL).Value(0.5).EndArray();
  EXPECT_EQ(w.str(), "[null,null,null,0.5]");
}

TEST(JsonWriterTest, IntegersAreExact) {
  JsonWriter w;
  w.BeginArray().Value(UINT64_MAX).Value(uint64_t{0}).Value(uint32_t{4294967295u}).EndArray();
  EXPECT_EQ(w.str(), "[18446744073709551615,0,4294967295]");
}

TEST(JsonWriterTest, DoublesRoundTrip) {
  const double values[] = {0.1, 1.0 / 3.0, 851452672.0, 2.89077e+07, 1e-300, -4.25e17,
                           0.042576123456789};
  for (const double v : values) {
    JsonWriter w;
    w.Value(v);
    EXPECT_EQ(std::strtod(w.str().c_str(), nullptr), v) << w.str();
  }
  JsonWriter shortest;
  shortest.BeginArray().Value(0.1).Value(93.0).EndArray();
  EXPECT_EQ(shortest.str(), "[0.1,93]");
}

}  // namespace
}  // namespace cgraph
