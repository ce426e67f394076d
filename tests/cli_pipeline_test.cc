// In-process end-to-end tests of the CLI pipeline: CSV load -> anonymize
// -> release/report, the synthetic (n, d) grid, sweep determinism across
// thread counts, and clean failure on unreadable input.

#include "cli/pipeline.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "anonymity/eligibility.h"
#include "anonymity/release.h"
#include "engine/report.h"
#include "common/csv.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "test_util.h"

namespace ldv {
namespace {

CliOptions SyntheticOptions() {
  CliOptions options;
  options.dataset.name = "sal";
  options.ns = {1200};
  options.ds = {3};
  return options;
}

TEST(CliPipeline, SingleRunOnSyntheticData) {
  CliOptions options = SyntheticOptions();
  options.algorithms = {Algorithm::kTp};
  options.ls = {2};
  Expected<JobResult, PipelineError> result_run = RunPipeline(options);
  ASSERT_TRUE(result_run.ok()) << result_run.error().message;
  const JobResult& result = result_run.value();
  ASSERT_EQ(result.tables.size(), 1u);
  EXPECT_EQ(result.tables[0]->table.size(), 1200u);
  EXPECT_EQ(result.tables[0]->table.qi_count(), 3u);
  EXPECT_EQ(result.tables[0]->source, "sal(n=1200, seed=1, d=3)");
  ASSERT_EQ(result.jobs.size(), 1u);
  EXPECT_TRUE(result.jobs[0].outcome.feasible);
  EXPECT_TRUE(IsLDiverse(result.tables[0]->table, result.jobs[0].outcome.partition, 2));
}

TEST(CliPipeline, EveryRegisteredAlgorithmRunsEndToEnd) {
  CliOptions options = SyntheticOptions();
  options.algorithms.assign(kAllAlgorithms.begin(), kAllAlgorithms.end());
  options.ls = {4};
  Expected<JobResult, PipelineError> result_run = RunPipeline(options);
  ASSERT_TRUE(result_run.ok()) << result_run.error().message;
  const JobResult& result = result_run.value();
  ASSERT_EQ(result.jobs.size(), kAlgorithmCount);
  for (std::size_t i = 0; i < result.jobs.size(); ++i) {
    const EngineJob& job = result.jobs[i];
    EXPECT_EQ(job.spec.algorithm, kAllAlgorithms[i]) << "job order must follow the grid";
    EXPECT_TRUE(job.outcome.feasible) << RunSpecLabel(job.spec);
    EXPECT_TRUE(IsLDiverse(result.tables[0]->table, job.outcome.partition, 4))
        << RunSpecLabel(job.spec);
  }
}

TEST(CliPipeline, CsvInputRoundTripsThroughRelease) {
  // Write microdata as CSV, run the pipeline on the file, write the
  // release, and parse the release back: every row survives with its SA
  // value, and the star count matches the outcome.
  Rng rng(7);
  Table table = testutil::RandomEligibleTable(rng, 300, {12, 6, 4}, 8, 3);
  std::string input_path = testing::TempDir() + "cli_pipeline_input.csv";
  ASSERT_TRUE(WriteTableCsv(table, input_path));

  CliOptions options;
  options.input = input_path;
  options.format = CsvFormat::kCoded;
  options.schema = table.schema();
  options.algorithms = {Algorithm::kTpPlus};
  options.ls = {3};
  Expected<JobResult, PipelineError> result_run = RunPipeline(options);
  ASSERT_TRUE(result_run.ok()) << result_run.error().message;
  const JobResult& result = result_run.value();
  ASSERT_EQ(result.jobs.size(), 1u);
  ASSERT_TRUE(result.jobs[0].outcome.feasible);
  EXPECT_EQ(result.tables[0]->source, "csv:" + input_path);

  std::string stem = testing::TempDir() + "cli_pipeline_release";
  std::string error;
  ASSERT_TRUE(
      WriteReleaseForOutcome(result.tables[0]->table, result.jobs[0].outcome, stem, &error))
      << error;
  std::optional<std::vector<ReleaseRow>> rows = ReadReleaseCsv(table.schema(), stem + ".csv");
  ASSERT_TRUE(rows.has_value());
  ASSERT_EQ(rows->size(), table.size());
  std::uint64_t stars = 0;
  std::vector<std::uint32_t> sa_histogram(table.schema().sa_domain_size(), 0);
  for (const ReleaseRow& row : *rows) {
    for (Value v : row.qi) stars += IsStar(v) ? 1 : 0;
    ++sa_histogram[row.sa];
  }
  EXPECT_EQ(stars, result.jobs[0].outcome.stars);
  EXPECT_EQ(sa_histogram, table.SaHistogramCounts()) << "releases never perturb SA values";
  std::remove(input_path.c_str());
  std::remove((stem + ".csv").c_str());
}

TEST(CliPipeline, SweepGridIsJobOrderedAndThreadCountInvariant) {
  // 2 algorithms x 2 l x (2 n-cells x 1 d-cell) = 8 jobs. Identical
  // reports regardless of worker count is the batch-driver determinism
  // guarantee surfaced through the CLI layer.
  CliOptions options = SyntheticOptions();
  options.algorithms = {Algorithm::kMondrian, Algorithm::kAnatomy};
  options.ls = {2, 4};
  options.ns = {600, 900};
  options.sweep = true;

  ReportOptions report_options;
  report_options.include_seconds = false;

  options.threads = 1;
  Expected<JobResult, PipelineError> serial_run = RunPipeline(options);
  ASSERT_TRUE(serial_run.ok()) << serial_run.error().message;
  const JobResult& serial = serial_run.value();
  ASSERT_EQ(serial.jobs.size(), 8u);
  EXPECT_EQ(serial.tables.size(), 2u);
  EXPECT_EQ(RunSpecLabel(serial.jobs[0].spec), "Mondrian/l=2/table=0");
  EXPECT_EQ(RunSpecLabel(serial.jobs[3].spec), "Anatomy/l=4/table=0");
  EXPECT_EQ(RunSpecLabel(serial.jobs[7].spec), "Anatomy/l=4/table=1");

  options.threads = 4;
  Expected<JobResult, PipelineError> threaded_run = RunPipeline(options);
  ASSERT_TRUE(threaded_run.ok()) << threaded_run.error().message;
  const JobResult& threaded = threaded_run.value();
  EXPECT_EQ(RenderJsonReport(serial, report_options),
            RenderJsonReport(threaded, report_options));
  EXPECT_EQ(RenderMetricsCsv(serial, report_options),
            RenderMetricsCsv(threaded, report_options));
}

TEST(CliPipeline, SingleJobIsThreadBudgetInvariant) {
  // A single job runs inline and spends the whole budget on in-kernel
  // parallelism (Hilbert encode, Mondrian subtrees, grouping, the KL
  // reductions) -- the deterministic-kernel guarantee surfaced through
  // the CLI layer. The table is large enough that every parallel path
  // actually engages.
  CliOptions options = SyntheticOptions();
  options.ns = {20000};
  options.algorithms = {Algorithm::kMondrian, Algorithm::kHilbert};
  options.ls = {6};

  ReportOptions report_options;
  report_options.include_seconds = false;

  std::string reference_json, reference_csv;
  for (std::uint32_t threads : {1u, 2u, 4u}) {
    options.threads = threads;
    Expected<JobResult, PipelineError> result_run = RunPipeline(options);
    ASSERT_TRUE(result_run.ok()) << result_run.error().message;
    const JobResult& result = result_run.value();
    ASSERT_EQ(result.jobs.size(), 2u);
    EXPECT_EQ(result.threads, threads);
    std::string json = RenderJsonReport(result, report_options);
    std::string csv = RenderMetricsCsv(result, report_options);
    if (threads == 1) {
      reference_json = std::move(json);
      reference_csv = std::move(csv);
    } else {
      EXPECT_EQ(json, reference_json) << "threads=" << threads;
      EXPECT_EQ(csv, reference_csv) << "threads=" << threads;
    }
  }
  SetThreadBudget(0);
}

TEST(CliPipeline, ReportRecordsThreadsOnlyBesideTimings) {
  CliOptions options = SyntheticOptions();
  options.algorithms = {Algorithm::kTp};
  options.threads = 3;
  Expected<JobResult, PipelineError> result_run = RunPipeline(options);
  ASSERT_TRUE(result_run.ok()) << result_run.error().message;
  const JobResult& result = result_run.value();
  SetThreadBudget(0);

  ReportOptions with_timings;
  with_timings.include_seconds = true;
  EXPECT_NE(RenderJsonReport(result, with_timings).find("\"threads\": 3"), std::string::npos);
  ReportOptions no_timings;
  no_timings.include_seconds = false;
  EXPECT_EQ(RenderJsonReport(result, no_timings).find("\"threads\""), std::string::npos)
      << "--no-timings output must stay byte-identical across thread budgets";
}

TEST(CliPipeline, InfeasibleJobIsReportedNotFatal) {
  CliOptions options = SyntheticOptions();
  options.ns = {50};
  options.algorithms = {Algorithm::kTp};
  options.ls = {10000};
  Expected<JobResult, PipelineError> result_run = RunPipeline(options);
  ASSERT_TRUE(result_run.ok()) << result_run.error().message;
  const JobResult& result = result_run.value();
  ASSERT_EQ(result.jobs.size(), 1u);
  EXPECT_FALSE(result.jobs[0].outcome.feasible);
}

TEST(CliPipeline, LoadAndGenerationFailuresAreCleanTypedErrors) {
  CliOptions missing;
  missing.input = testing::TempDir() + "cli_pipeline_missing.csv";
  missing.format = CsvFormat::kCoded;
  missing.schema = testutil::MakeSchema({4, 4}, 3);
  Expected<JobResult, PipelineError> result = RunPipeline(missing);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, PipelineErrorCode::kIo);
  EXPECT_EQ(ExitCodeFor(result.error().code), 3);
  EXPECT_NE(result.error().message.find("cannot open"), std::string::npos)
      << result.error().message;

  CliOptions bad_dataset = SyntheticOptions();
  bad_dataset.dataset.name = "census";
  Expected<JobResult, PipelineError> result2 = RunPipeline(bad_dataset);
  ASSERT_FALSE(result2.ok());
  EXPECT_EQ(result2.error().code, PipelineErrorCode::kUsage);
  EXPECT_EQ(result2.error().field, "dataset");
  EXPECT_NE(result2.error().message.find("census"), std::string::npos);

  CliOptions bad_d = SyntheticOptions();
  bad_d.ds = {9};
  Expected<JobResult, PipelineError> result3 = RunPipeline(bad_d);
  ASSERT_FALSE(result3.ok());
  EXPECT_EQ(result3.error().code, PipelineErrorCode::kUsage);
  EXPECT_NE(result3.error().message.find("out of range"), std::string::npos)
      << result3.error().message;
}

}  // namespace
}  // namespace ldv
