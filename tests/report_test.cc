// Report-layer tests: the JSON report golden (byte-exact rendering with
// timings off), the metrics CSV shape, and the release writers for both
// the suppression view and the Anatomy bucketization pair.

#include "engine/report.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "anonymity/release.h"
#include "cli/pipeline.h"
#include "core/algorithm.h"
#include "test_util.h"

namespace ldv {
namespace {

using testutil::PaperTable1;

// A fully constructed one-job result with hand-picked metric values, so
// the golden below pins the exact rendering rather than algorithm output.
JobResult UnitResult() {
  JobResult result;
  auto input = std::make_shared<EngineTable>(PaperTable1());
  input->source = "unit";
  result.tables.push_back(std::move(input));

  EngineJob job;
  job.spec.algorithm = Algorithm::kTp;
  job.spec.l = 2;
  job.spec.table_index = 0;
  job.outcome.feasible = true;
  job.outcome.algorithm = Algorithm::kTp;
  job.outcome.methodology = Methodology::kSuppression;
  job.outcome.stars = 7;
  job.outcome.suppressed_tuples = 3;
  job.outcome.group_stats.group_count = 2;
  job.outcome.group_stats.min_size = 4;
  job.outcome.group_stats.max_size = 6;
  job.outcome.group_stats.mean_size = 5.0;
  job.outcome.kl_divergence = 0.25;
  job.outcome.specializations = 0;
  job.outcome.seconds = 123.0;  // must not appear with timings off
  result.jobs.push_back(std::move(job));
  return result;
}

TEST(Report, JsonGoldenWithoutTimings) {
  ReportOptions options;
  options.include_seconds = false;
  const std::string expected =
      "{\n"
      "  \"ldiv_report_version\": 1,\n"
      "  \"job_count\": 1,\n"
      "  \"tables\": [\n"
      "    {\"index\": 0, \"source\": \"unit\", \"rows\": 10, \"qi_attributes\": 3, "
      "\"schema\": \"Age(3),Gender(2),Education(3)|Disease(4)\"}\n"
      "  ],\n"
      "  \"jobs\": [\n"
      "    {\n"
      "      \"job\": 0,\n"
      "      \"table\": 0,\n"
      "      \"algorithm\": \"TP\",\n"
      "      \"methodology\": \"suppression\",\n"
      "      \"l\": 2,\n"
      "      \"feasible\": true,\n"
      "      \"stars\": 7,\n"
      "      \"suppressed_tuples\": 3,\n"
      "      \"groups\": 2,\n"
      "      \"min_group\": 4,\n"
      "      \"max_group\": 6,\n"
      "      \"mean_group\": 5,\n"
      "      \"kl_divergence\": 0.25,\n"
      "      \"specializations\": 0\n"
      "    }\n"
      "  ]\n"
      "}\n";
  EXPECT_EQ(RenderJsonReport(UnitResult(), options), expected);
}

TEST(Report, JsonIncludesSecondsByDefault) {
  std::string json = RenderJsonReport(UnitResult());
  EXPECT_NE(json.find("\"seconds\": 123"), std::string::npos);
}

TEST(Report, MetricsCsvGoldenWithoutTimings) {
  ReportOptions options;
  options.include_seconds = false;
  const std::string expected =
      "job,table,source,algorithm,methodology,l,rows,feasible,stars,"
      "suppressed_tuples,groups,min_group,max_group,mean_group,kl_divergence,"
      "specializations\n"
      "0,0,\"unit\",TP,suppression,2,10,true,7,3,2,4,6,5,0.25,0\n";
  EXPECT_EQ(RenderMetricsCsv(UnitResult(), options), expected);
}

TEST(Report, WritersRoundTripThroughDisk) {
  std::string stem = testing::TempDir() + "report_test";
  std::string error;
  ReportOptions options;
  options.include_seconds = false;
  ASSERT_TRUE(WriteJsonReport(UnitResult(), stem + ".json", options, &error)) << error;
  ASSERT_TRUE(WriteMetricsCsv(UnitResult(), stem + "_metrics.csv", options, &error)) << error;
  std::ifstream json(stem + ".json");
  std::stringstream content;
  content << json.rdbuf();
  EXPECT_EQ(content.str(), RenderJsonReport(UnitResult(), options));
  std::remove((stem + ".json").c_str());
  std::remove((stem + "_metrics.csv").c_str());
}

TEST(Report, SuppressionReleaseRoundTrips) {
  Table table = PaperTable1();
  AnonymizationOutcome outcome = AlgorithmRegistry::Global().Get(Algorithm::kTp).Run(table, 2);
  ASSERT_TRUE(outcome.feasible);
  ASSERT_NE(outcome.generalized, nullptr);

  std::string stem = testing::TempDir() + "release_test";
  std::string error;
  ASSERT_TRUE(WriteReleaseForOutcome(table, outcome, stem, &error)) << error;
  std::optional<std::vector<ReleaseRow>> rows = ReadReleaseCsv(table.schema(), stem + ".csv");
  ASSERT_TRUE(rows.has_value());
  EXPECT_EQ(rows->size(), table.size());
  std::uint64_t stars = 0;
  for (const ReleaseRow& row : *rows) {
    for (Value v : row.qi) stars += IsStar(v) ? 1 : 0;
  }
  EXPECT_EQ(stars, outcome.stars);
  std::remove((stem + ".csv").c_str());
}

TEST(Report, AnatomyReleaseWritesBucketPair) {
  Table table = PaperTable1();
  AnonymizationOutcome outcome =
      AlgorithmRegistry::Global().Get(Algorithm::kAnatomy).Run(table, 2);
  ASSERT_TRUE(outcome.feasible);
  ASSERT_EQ(outcome.generalized, nullptr) << "bucketization publishes no suppression view";

  std::string stem = testing::TempDir() + "anatomy_release_test";
  std::string error;
  ASSERT_TRUE(WriteReleaseForOutcome(table, outcome, stem, &error)) << error;

  std::ifstream qit(stem + ".csv");
  std::string header;
  ASSERT_TRUE(std::getline(qit, header));
  EXPECT_EQ(header, "Age,Gender,Education,Bucket");
  std::size_t qit_rows = 0;
  for (std::string line; std::getline(qit, line);) qit_rows += line.empty() ? 0 : 1;
  EXPECT_EQ(qit_rows, table.size());

  std::ifstream st(stem + "_sa.csv");
  ASSERT_TRUE(std::getline(st, header));
  EXPECT_EQ(header, "Bucket,Disease,Count");
  std::uint64_t total = 0;
  for (std::string line; std::getline(st, line);) {
    if (line.empty()) continue;
    std::size_t last_comma = line.rfind(',');
    total += std::stoull(line.substr(last_comma + 1));
  }
  EXPECT_EQ(total, table.size()) << "ST counts must cover every tuple exactly once";
  std::remove((stem + ".csv").c_str());
  std::remove((stem + "_sa.csv").c_str());
}

TEST(Report, InfeasibleOutcomeWritesNothing) {
  Table table = PaperTable1();
  AnonymizationOutcome outcome;
  outcome.feasible = false;
  std::string stem = testing::TempDir() + "infeasible_release_test";
  std::string error;
  ASSERT_TRUE(WriteReleaseForOutcome(table, outcome, stem, &error));
  std::ifstream in(stem + ".csv");
  EXPECT_FALSE(in.good());
}

}  // namespace
}  // namespace ldv
