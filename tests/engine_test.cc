// Engine-layer tests: the Expected error channel and its exit-code table,
// the JobSpec wire round trip and rejection rules, the single semantic
// validation pass (ResolveJobSpec), the DatasetCache LRU behavior, and
// the Engine itself -- cache hits on repeat traffic, paged-run cache
// bypass, cross-run artifact memoization, and equality with the CLI
// adapter path.

#include "engine/engine.h"

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "cli/cli_options.h"
#include "common/csv.h"
#include "common/expected.h"
#include "common/memory_budget.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/schema_spec.h"
#include "engine/content_cache.h"
#include "engine/error.h"
#include "engine/job_spec.h"
#include "engine/report.h"
#include "test_util.h"

namespace ldv {
namespace {

JobSpec SyntheticSpec() {
  JobSpec spec;
  spec.dataset.name = "sal";
  spec.ns = {900};
  spec.ds = {3};
  return spec;
}

std::string ReadFile(const std::string& path) {
  std::string content;
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return content;
  char buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) content.append(buf, got);
  std::fclose(f);
  return content;
}

TEST(Expected, HoldsValueOrError) {
  Expected<int, PipelineError> ok(7);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 7);

  Expected<int, PipelineError> bad(UsageError("l", "boom"));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().field, "l");
  EXPECT_EQ(bad.error().message, "boom");
}

TEST(PipelineErrorCodes, OneExitCodeTable) {
  EXPECT_EQ(ExitCodeFor(PipelineErrorCode::kUsage), 1);
  EXPECT_EQ(ExitCodeFor(PipelineErrorCode::kInfeasible), 2);
  EXPECT_EQ(ExitCodeFor(PipelineErrorCode::kIo), 3);
  EXPECT_EQ(ExitCodeFor(PipelineErrorCode::kUnavailable), 4);
  EXPECT_STREQ(PipelineErrorCodeName(PipelineErrorCode::kIo), "io");
}

TEST(JobSpecWire, RoundTripsEveryNonDefaultField) {
  JobSpec spec;
  spec.algorithms = {Algorithm::kMondrian, Algorithm::kAnatomy};
  spec.ls = {2, 4, 6};
  spec.dataset.name = "occ";
  spec.dataset.seed = 99;
  spec.ns = {600, 900};
  spec.ds = {2, 3};
  spec.out = "spec_out";
  spec.sweep = true;
  spec.write_releases = true;
  spec.compute_kl = false;
  spec.timings = false;
  spec.threads = 4;
  spec.memory_budget = 64u << 20;
  spec.priority = 7;
  spec.deadline_ms = 1500;

  Expected<JobSpec, PipelineError> parsed = ParseJobSpec(SerializeJobSpec(spec));
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_EQ(parsed->algorithms, spec.algorithms);
  EXPECT_EQ(parsed->ls, spec.ls);
  EXPECT_EQ(parsed->dataset.name, "occ");
  EXPECT_EQ(parsed->dataset.seed, 99u);
  EXPECT_EQ(parsed->ns, spec.ns);
  EXPECT_EQ(parsed->ds, spec.ds);
  EXPECT_EQ(parsed->out, "spec_out");
  EXPECT_TRUE(parsed->sweep);
  EXPECT_TRUE(parsed->write_releases);
  EXPECT_FALSE(parsed->compute_kl);
  EXPECT_FALSE(parsed->timings);
  EXPECT_EQ(parsed->threads, 4u);
  EXPECT_EQ(parsed->memory_budget, 64u << 20);
  EXPECT_EQ(parsed->priority, 7u);
  EXPECT_EQ(parsed->deadline_ms, 1500u);
}

TEST(JobSpecWire, AcceptsTheFlagSpellingsOfThreadsAndByteSizes) {
  Expected<JobSpec, PipelineError> parsed = ParseJobSpec(
      "version = 1\nthreads = auto\nmemory-budget = 512M\nartifact-cache = 64M\n");
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_EQ(parsed->threads, 0u);
  EXPECT_EQ(parsed->memory_budget, 512ull << 20);
  EXPECT_EQ(parsed->artifact_cache, 64ull << 20);

  Expected<JobSpec, PipelineError> bad_threads = ParseJobSpec("version = 1\nthreads = many\n");
  ASSERT_FALSE(bad_threads.ok());
  EXPECT_EQ(bad_threads.error().field, "threads");
  Expected<JobSpec, PipelineError> bad_budget =
      ParseJobSpec("version = 1\nmemory-budget = 5Q\n");
  ASSERT_FALSE(bad_budget.ok());
  EXPECT_EQ(bad_budget.error().field, "memory-budget");
}

TEST(JobSpecWire, RejectsTheCliPresenceConflicts) {
  Expected<JobSpec, PipelineError> input_and_n =
      ParseJobSpec("version = 1\ninput = /tmp/x.csv\nformat = raw\nn = 500\n");
  ASSERT_FALSE(input_and_n.ok());
  EXPECT_EQ(input_and_n.error().code, PipelineErrorCode::kUsage);
  EXPECT_EQ(input_and_n.error().field, "n");
  EXPECT_NE(input_and_n.error().message.find("conflicts with --input"), std::string::npos)
      << input_and_n.error().message;

  Expected<JobSpec, PipelineError> input_and_seed =
      ParseJobSpec("version = 1\ninput = /tmp/x.csv\nseed = 3\n");
  ASSERT_FALSE(input_and_seed.ok());
  EXPECT_EQ(input_and_seed.error().field, "seed");

  Expected<JobSpec, PipelineError> format_alone = ParseJobSpec("version = 1\nformat = auto\n");
  ASSERT_FALSE(format_alone.ok());
  EXPECT_EQ(format_alone.error().field, "format");
  Expected<JobSpec, PipelineError> schema_alone = ParseJobSpec("version = 1\nschema = 3|2\n");
  ASSERT_FALSE(schema_alone.ok());
  EXPECT_EQ(schema_alone.error().field, "schema");
}

TEST(JobSpecWire, RejectsUnknownKeysAndBadVersions) {
  Expected<JobSpec, PipelineError> unknown = ParseJobSpec("version = 1\nfrobnicate = 3\n");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.error().field, "frobnicate");

  Expected<JobSpec, PipelineError> unversioned = ParseJobSpec("algo = tp\n");
  ASSERT_FALSE(unversioned.ok());
  EXPECT_EQ(unversioned.error().field, "version");

  Expected<JobSpec, PipelineError> future = ParseJobSpec("version = 2\n");
  ASSERT_FALSE(future.ok());
  EXPECT_NE(future.error().message.find("unsupported job spec version"), std::string::npos);
}

TEST(JobSpecWire, RejectsDuplicateKeysNulBytesAndOversizedKeys) {
  // Silent last-wins on a duplicate key would let a smuggled second line
  // quietly override the first; the parser refuses with the line number.
  Expected<JobSpec, PipelineError> dup = ParseJobSpec("version = 1\nl = 2\nl = 4\n");
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.error().code, PipelineErrorCode::kUsage);
  EXPECT_EQ(dup.error().field, "l");
  EXPECT_NE(dup.error().message.find("duplicate key"), std::string::npos) << dup.error().message;
  EXPECT_NE(dup.error().message.find("jobspec:3"), std::string::npos) << dup.error().message;

  std::string with_nul = "version = 1\nout = x";
  with_nul.push_back('\0');
  with_nul += "y\n";
  Expected<JobSpec, PipelineError> nul = ParseJobSpec(with_nul);
  ASSERT_FALSE(nul.ok());
  EXPECT_EQ(nul.error().code, PipelineErrorCode::kUsage);
  EXPECT_NE(nul.error().message.find("NUL"), std::string::npos) << nul.error().message;

  const std::string long_key(200, 'k');
  Expected<JobSpec, PipelineError> oversized =
      ParseJobSpec("version = 1\n" + long_key + " = v\n");
  ASSERT_FALSE(oversized.ok());
  EXPECT_EQ(oversized.error().code, PipelineErrorCode::kUsage);
  EXPECT_NE(oversized.error().message.find("128-byte limit"), std::string::npos)
      << oversized.error().message;
  EXPECT_NE(oversized.error().message.find("jobspec:2"), std::string::npos)
      << oversized.error().message;
}

TEST(ResolveJobSpec, ValidationErrorsNameTheOffendingField) {
  JobSpec zero_l = SyntheticSpec();
  zero_l.ls = {0};
  Expected<ResolvedJobSpec, PipelineError> r1 = ResolveJobSpec(zero_l);
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.error().field, "l");

  JobSpec tiny_budget = SyntheticSpec();
  tiny_budget.memory_budget = 1u << 20;
  Expected<ResolvedJobSpec, PipelineError> r2 = ResolveJobSpec(tiny_budget);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.error().field, "memory-budget");
  EXPECT_NE(r2.error().message.find("below the 8M floor"), std::string::npos);

  JobSpec grid_emit = SyntheticSpec();
  grid_emit.ns = {600, 900};
  grid_emit.emit_input = "t.csv";
  Expected<ResolvedJobSpec, PipelineError> r3 = ResolveJobSpec(grid_emit);
  ASSERT_FALSE(r3.ok());
  EXPECT_EQ(r3.error().field, "emit-input");

  JobSpec stray_format = SyntheticSpec();
  stray_format.format = CsvFormat::kRaw;
  Expected<ResolvedJobSpec, PipelineError> r4 = ResolveJobSpec(stray_format);
  ASSERT_FALSE(r4.ok());
  EXPECT_EQ(r4.error().field, "format");
}

TEST(ResolveJobSpec, CsvInputNormalizesToASingleCellGrid) {
  Rng rng(3);
  Table table = testutil::RandomEligibleTable(rng, 40, {6, 4}, 5, 2);
  std::string path = testing::TempDir() + "engine_resolve_input.csv";
  std::string write_error;
  ASSERT_TRUE(WriteTableCsv(table, path, &write_error)) << write_error;

  JobSpec spec;
  spec.input = path;
  spec.schema_spec = FormatSchemaSpec(table.schema());
  spec.ns = {10000};
  spec.ds = {3};
  Expected<ResolvedJobSpec, PipelineError> resolved = ResolveJobSpec(spec);
  ASSERT_TRUE(resolved.ok()) << resolved.error().message;
  EXPECT_NE(resolved->format, CsvFormat::kAuto) << "kAuto must resolve at validation time";
  EXPECT_EQ(resolved->spec.ns, std::vector<std::uint64_t>{0});
  EXPECT_EQ(resolved->spec.ds, std::vector<std::uint64_t>{0});
  std::remove(path.c_str());
}

TEST(DatasetCache, LruHitMissEvictAndStats) {
  DatasetCache cache(/*capacity_bytes=*/1000);
  auto t1 = std::make_shared<EngineTable>(testutil::PaperTable1());
  auto t2 = std::make_shared<EngineTable>(testutil::PaperTable1());
  auto t3 = std::make_shared<EngineTable>(testutil::PaperTable1());

  EXPECT_EQ(cache.Lookup("a"), nullptr);
  cache.Insert("a", t1, 400);
  cache.Insert("b", t2, 400);
  EXPECT_EQ(cache.Lookup("a"), t1);  // refreshes "a" to most-recent
  cache.Insert("c", t3, 400);        // capacity 1000: evicts LRU "b"
  EXPECT_EQ(cache.Lookup("b"), nullptr);
  EXPECT_EQ(cache.Lookup("a"), t1);
  EXPECT_EQ(cache.Lookup("c"), t3);

  DatasetCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.insertions, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.resident_bytes, 800u);

  // An entry larger than the whole capacity is never cached.
  cache.Insert("huge", t1, 4000);
  EXPECT_EQ(cache.Lookup("huge"), nullptr);

  cache.Clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().resident_bytes, 0u);
}

TEST(DatasetCache, ZeroCapacityDisablesCaching) {
  DatasetCache cache(0);
  cache.Insert("a", std::make_shared<EngineTable>(testutil::PaperTable1()), 10);
  EXPECT_EQ(cache.Lookup("a"), nullptr);
}

TEST(DatasetCache, KeysCarryContentIdentity) {
  EXPECT_EQ(DatasetCache::CsvKey("/definitely/not/a/file.csv", CsvFormat::kCoded, ""), "")
      << "unstatable files are uncacheable so the loader reports the real error";

  DatasetSpec cell;
  cell.name = "sal";
  cell.n = 900;
  cell.seed = 1;
  cell.d = 3;
  std::string key = DatasetCache::SyntheticKey(cell);
  EXPECT_NE(key.find("sal"), std::string::npos);
  EXPECT_NE(key.find("900"), std::string::npos);
}

TEST(Engine, RepeatRunsHitTheDatasetCache) {
  Engine engine;
  JobSpec spec = SyntheticSpec();
  spec.algorithms = {Algorithm::kTp};

  Expected<JobResult, PipelineError> first = engine.Run(spec);
  ASSERT_TRUE(first.ok()) << first.error().message;
  EXPECT_EQ(first->cache_hits, 0u);
  EXPECT_EQ(first->cache_misses, 1u);

  Expected<JobResult, PipelineError> second = engine.Run(spec);
  ASSERT_TRUE(second.ok()) << second.error().message;
  EXPECT_EQ(second->cache_hits, 1u);
  EXPECT_EQ(second->cache_misses, 0u);
  EXPECT_EQ(first->tables[0].get(), second->tables[0].get())
      << "a cache hit shares the materialized table, not a copy";
  SetThreadBudget(0);
}

TEST(Engine, BudgetedInRamRunsCacheNormallyAndMatchByteForByte) {
  Engine engine;
  JobSpec spec = SyntheticSpec();
  spec.algorithms = {Algorithm::kMondrian};
  spec.timings = false;

  Expected<JobResult, PipelineError> plain = engine.Run(spec);
  ASSERT_TRUE(plain.ok()) << plain.error().message;

  // 900 rows fit comfortably inside a 64M budget, so ingestion stays
  // in-RAM and the DatasetCache serves the budgeted run like any other.
  JobSpec budgeted = spec;
  budgeted.memory_budget = 64u << 20;
  Expected<JobResult, PipelineError> cached = engine.Run(budgeted);
  ASSERT_TRUE(cached.ok()) << cached.error().message;
  EXPECT_EQ(cached->cache_hits, 1u);
  EXPECT_EQ(cached->cache_misses, 0u);
  EXPECT_EQ(cached->tables[0]->paged, nullptr);
  EXPECT_EQ(engine.dataset_cache().stats().bypassed_paged, 0u);

  ReportOptions options;
  options.include_seconds = false;
  EXPECT_EQ(RenderJsonReport(plain.value(), options), RenderJsonReport(cached.value(), options));
  EXPECT_EQ(RenderMetricsCsv(plain.value(), options), RenderMetricsCsv(cached.value(), options));
  SetMemoryBudget(0);
  SetThreadBudget(0);
}

TEST(Engine, PagedRunsBypassTheCacheButMatchByteForByte) {
  Engine engine;
  JobSpec spec = SyntheticSpec();
  spec.ns = {200000};
  spec.algorithms = {Algorithm::kMondrian};
  spec.timings = false;

  Expected<JobResult, PipelineError> plain = engine.Run(spec);
  ASSERT_TRUE(plain.ok()) << plain.error().message;
  EXPECT_EQ(plain->cache_misses, 1u);

  // Under the 8M floor budget the estimated table footprint (~3.2M)
  // exceeds a quarter of the budget, so ingestion takes the paged path
  // and bypasses the cache -- recorded, not silently skipped.
  JobSpec budgeted = spec;
  budgeted.memory_budget = 8u << 20;
  Expected<JobResult, PipelineError> paged = engine.Run(budgeted);
  ASSERT_TRUE(paged.ok()) << paged.error().message;
  EXPECT_EQ(paged->cache_hits, 0u);
  EXPECT_EQ(paged->cache_misses, 0u);
  EXPECT_NE(paged->tables[0]->paged, nullptr);
  EXPECT_EQ(engine.dataset_cache().stats().bypassed_paged, 1u);

  ReportOptions options;
  options.include_seconds = false;
  EXPECT_EQ(RenderJsonReport(plain.value(), options), RenderJsonReport(paged.value(), options));
  EXPECT_EQ(RenderMetricsCsv(plain.value(), options), RenderMetricsCsv(paged.value(), options));
  SetMemoryBudget(0);
  SetThreadBudget(0);
}

TEST(Engine, SweepResolvesArtifactsOnceAndRepeatRunsHitTheArtifactCache) {
  Engine engine;
  JobSpec spec = SyntheticSpec();
  spec.algorithms = {Algorithm::kTp, Algorithm::kTpPlus, Algorithm::kHilbert,
                     Algorithm::kMondrian};
  spec.ls = {2, 4, 6};
  spec.timings = false;

  Expected<JobResult, PipelineError> first = engine.Run(spec);
  ASSERT_TRUE(first.ok()) << first.error().message;
  ASSERT_EQ(first->jobs.size(), 12u);
  EXPECT_EQ(first->artifact_hits, 0u);
  EXPECT_EQ(first->artifact_misses, 2u)
      << "one GroupedTable build and one Hilbert order for the whole sweep";

  Expected<JobResult, PipelineError> second = engine.Run(spec);
  ASSERT_TRUE(second.ok()) << second.error().message;
  EXPECT_EQ(second->artifact_hits, 2u);
  EXPECT_EQ(second->artifact_misses, 0u);

  const ArtifactCache::Stats stats = engine.artifact_cache().stats();
  EXPECT_EQ(stats.insertions, 2u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_GT(stats.resident_bytes, 0u);

  ReportOptions options;
  options.include_seconds = false;
  EXPECT_EQ(RenderJsonReport(first.value(), options), RenderJsonReport(second.value(), options));
  EXPECT_EQ(RenderMetricsCsv(first.value(), options),
            RenderMetricsCsv(second.value(), options));
  SetThreadBudget(0);
}

TEST(Engine, DisabledArtifactCacheMatchesTheHitPathByteForByte) {
  JobSpec spec = SyntheticSpec();
  spec.algorithms = {Algorithm::kTp, Algorithm::kTpPlus, Algorithm::kHilbert};
  spec.ls = {2, 4};
  spec.timings = false;

  Engine warm_engine;
  ASSERT_TRUE(warm_engine.Run(spec).ok());
  Expected<JobResult, PipelineError> warm = warm_engine.Run(spec);
  ASSERT_TRUE(warm.ok()) << warm.error().message;
  EXPECT_EQ(warm->artifact_hits, 2u);

  Engine cold_engine;
  JobSpec disabled = spec;
  disabled.artifact_cache = 0;
  Expected<JobResult, PipelineError> cold = cold_engine.Run(disabled);
  ASSERT_TRUE(cold.ok()) << cold.error().message;
  EXPECT_EQ(cold_engine.artifact_cache().stats().insertions, 0u)
      << "--artifact-cache=0 disables memoization entirely";

  ReportOptions options;
  options.include_seconds = false;
  EXPECT_EQ(RenderJsonReport(warm.value(), options), RenderJsonReport(cold.value(), options));
  EXPECT_EQ(RenderMetricsCsv(warm.value(), options), RenderMetricsCsv(cold.value(), options));
  SetThreadBudget(0);
}

TEST(Engine, MatchesTheCliAdapterByteForByte) {
  CliOptions options;
  std::vector<const char*> argv = {"ldiv", "--n=900", "--algo=tp+", "--l=3", "--no-timings"};
  std::string error;
  ASSERT_TRUE(ParseCliOptions(static_cast<int>(argv.size()), argv.data(), &options, &error))
      << error;

  Expected<JobResult, PipelineError> via_cli = GlobalEngine().Run(options.spec);
  ASSERT_TRUE(via_cli.ok()) << via_cli.error().message;

  Engine engine;
  Expected<JobResult, PipelineError> via_engine = engine.Run(options.spec);
  ASSERT_TRUE(via_engine.ok()) << via_engine.error().message;

  ReportOptions report_options;
  report_options.include_seconds = false;
  EXPECT_EQ(RenderJsonReport(via_cli.value(), report_options),
            RenderJsonReport(via_engine.value(), report_options));
  EXPECT_EQ(RenderMetricsCsv(via_cli.value(), report_options),
            RenderMetricsCsv(via_engine.value(), report_options));
  SetThreadBudget(0);
}

TEST(Engine, ExecuteWritesOutputsAndMapsInfeasibleToExitCode) {
  Engine engine;
  JobSpec spec = SyntheticSpec();
  spec.algorithms = {Algorithm::kTp};
  spec.timings = false;
  spec.out = testing::TempDir() + "engine_execute_out";

  std::string notices;
  Expected<ExecuteSummary, PipelineError> summary = engine.Execute(spec, &notices);
  ASSERT_TRUE(summary.ok()) << summary.error().message;
  EXPECT_EQ(summary->job_count, 1u);
  EXPECT_EQ(summary->infeasible, 0u);
  EXPECT_EQ(summary->exit_code, 0);
  EXPECT_FALSE(ReadFile(spec.out + ".json").empty());
  EXPECT_FALSE(ReadFile(spec.out + "_metrics.csv").empty());
  EXPECT_FALSE(ReadFile(spec.out + ".csv").empty());

  JobSpec infeasible = spec;
  infeasible.ns = {50};
  infeasible.ls = {10000};
  Expected<ExecuteSummary, PipelineError> summary2 = engine.Execute(infeasible);
  ASSERT_TRUE(summary2.ok()) << summary2.error().message;
  EXPECT_EQ(summary2->infeasible, 1u);
  EXPECT_EQ(summary2->exit_code, ExitCodeFor(PipelineErrorCode::kInfeasible));

  for (const char* suffix : {".json", "_metrics.csv", ".csv"}) {
    std::remove((spec.out + suffix).c_str());
  }
  SetThreadBudget(0);
}

TEST(Engine, ExecuteReportsAFullDiskUnderTheEmitInputCopy) {
  // 20 rows fit the writer's block, so /dev/full's ENOSPC only surfaces
  // when the file is finished: the write must be checked after the close,
  // and the message names the errno.
  Engine engine;
  JobSpec spec = SyntheticSpec();
  spec.ns = {20};
  spec.algorithms = {Algorithm::kTp};
  spec.timings = false;
  spec.emit_input = "/dev/full";
  spec.out = testing::TempDir() + "engine_full_disk_out";
  Expected<ExecuteSummary, PipelineError> summary = engine.Execute(spec);
  ASSERT_FALSE(summary.ok()) << "a full disk under --emit-input must not exit 0";
  EXPECT_EQ(summary.error().code, PipelineErrorCode::kIo);
  EXPECT_EQ(summary.error().message, "cannot write '/dev/full': No space left on device");
}

// Runs a 200k-row TP job whose release outgrows a 64 KiB RLIMIT_FSIZE
// (SIGXFSZ ignored, so the write fails with EFBIG) and prints what it saw
// for the death test below to match.
void WriteReleaseUnderAFileSizeLimit(const std::string& out) {
  signal(SIGXFSZ, SIG_IGN);
  const rlimit limit = {64 << 10, 64 << 10};
  setrlimit(RLIMIT_FSIZE, &limit);
  Engine engine;
  JobSpec spec = SyntheticSpec();
  spec.ns = {200000};
  spec.ds = {4};
  spec.ls = {4};
  spec.algorithms = {Algorithm::kTp};
  spec.out = out;
  Expected<ExecuteSummary, PipelineError> summary = engine.Execute(spec);
  std::fprintf(stderr, "io=%d message=%s left=%d\n",
               !summary.ok() && summary.error().code == PipelineErrorCode::kIo,
               summary.ok() ? "" : summary.error().message.c_str(),
               access((out + ".csv").c_str(), F_OK) == 0);
}

// A write that fails mid-release must not leave a torn <out>.csv behind:
// its last QI-group can be partial, and a partial group need not be
// l-diverse. The limit is set in a re-executed child ("threadsafe"
// death-test style) so it never binds the test process itself.
TEST(EngineDeathTest, AFailedReleaseWriteLeavesNoFileBehind) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string out = testing::TempDir() + "engine_fsize_out";
  EXPECT_EXIT(
      {
        WriteReleaseUnderAFileSizeLimit(out);
        std::_Exit(0);
      },
      ::testing::ExitedWithCode(0),
      "io=1 message=cannot write '.*engine_fsize_out\\.csv': File too large left=0");
}

}  // namespace
}  // namespace ldv
