// ArtifactCache tests: the LRU byte-budget mechanics (hit/miss, eviction
// order, recency refresh, capacity re-sizing, shared-ownership pinning),
// content-identity invalidation when a CSV input changes on disk, refault
// correctness under a forced-eviction artifact budget, and concurrent
// daemon submissions sharing one cached artifact (run under TSan in CI).

#include "engine/content_cache.h"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/csv.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/schema_spec.h"
#include "daemon/client.h"
#include "daemon/daemon.h"
#include "daemon/protocol.h"
#include "engine/engine.h"
#include "engine/job_spec.h"
#include "engine/report.h"
#include "test_util.h"

namespace ldv {
namespace {

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

std::shared_ptr<const std::vector<RowId>> MakeOrder(std::size_t n) {
  auto order = std::make_shared<std::vector<RowId>>();
  for (std::size_t i = 0; i < n; ++i) order->push_back(static_cast<RowId>(i));
  return order;
}

TEST(ArtifactCache, LruHitMissEvictAndRefresh) {
  ArtifactCache cache(/*capacity_bytes=*/1000);
  auto a = MakeOrder(3);
  auto b = MakeOrder(1);
  auto c = MakeOrder(2);

  EXPECT_EQ(cache.LookupOrder("a"), nullptr);
  cache.InsertOrder("a", a, 400);
  cache.InsertOrder("b", b, 400);
  EXPECT_EQ(cache.LookupOrder("a"), a) << "a hit returns the shared artifact, not a copy";
  cache.InsertOrder("c", c, 400);  // over budget: evicts "b", the least recently used
  EXPECT_EQ(cache.LookupOrder("b"), nullptr);
  EXPECT_EQ(cache.LookupOrder("a"), a);
  EXPECT_EQ(cache.LookupOrder("c"), c);

  const ArtifactCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.insertions, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.resident_bytes, 800u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 2u);
}

TEST(ArtifactCache, ZeroCapacityAndOversizedEntriesAreNotCached) {
  ArtifactCache disabled(0);
  disabled.InsertOrder("a", MakeOrder(1), 10);
  EXPECT_EQ(disabled.LookupOrder("a"), nullptr);
  EXPECT_EQ(disabled.stats().insertions, 0u);

  ArtifactCache small(100);
  small.InsertOrder("big", MakeOrder(1), 101);
  EXPECT_EQ(small.LookupOrder("big"), nullptr);
  EXPECT_EQ(small.stats().resident_bytes, 0u);
}

TEST(ArtifactCache, SetCapacityEvictsPastTheNewBudgetButPinnedArtifactsSurvive) {
  ArtifactCache cache(1000);
  cache.InsertOrder("a", MakeOrder(4), 400);
  cache.InsertOrder("b", MakeOrder(5), 400);

  // A consumer holding the artifact keeps it alive across eviction: the
  // cache only drops its own reference.
  std::shared_ptr<const std::vector<RowId>> pinned = cache.LookupOrder("a");
  ASSERT_NE(pinned, nullptr);

  cache.SetCapacity(400);  // "b" is now least recently used; only "a" fits
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.LookupOrder("b"), nullptr);
  EXPECT_EQ(cache.LookupOrder("a"), pinned);

  cache.SetCapacity(0);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(pinned->size(), 4u) << "the pinned artifact outlives its cache entry";
}

TEST(ArtifactCache, KeysSeparateArtifactKindsAndSchemas) {
  Table table = testutil::PaperTable1();
  const std::string grouped_key = ArtifactCache::GroupedKey("ds", table);
  const std::string order_key = ArtifactCache::OrderKey("ds", table);
  EXPECT_NE(grouped_key, order_key) << "one dataset, two artifact kinds, two keys";
  EXPECT_NE(grouped_key.find("ds"), std::string::npos);
  EXPECT_NE(ArtifactCache::GroupedKey("other", table), grouped_key)
      << "the dataset content key is part of the artifact key";
}

TEST(ArtifactCacheEngine, CsvContentChangeInvalidatesArtifacts) {
  Rng rng(7);
  Table table = testutil::RandomEligibleTable(rng, 60, {6, 4}, 5, 2);
  const std::string path = testing::TempDir() + "artifact_input.csv";
  std::string write_error;
  ASSERT_TRUE(WriteTableCsv(table, path, &write_error)) << write_error;

  Engine engine;
  JobSpec spec;
  spec.input = path;
  spec.schema_spec = FormatSchemaSpec(table.schema());
  spec.algorithms = {Algorithm::kTp};
  spec.ls = {2};
  spec.timings = false;

  Expected<JobResult, PipelineError> first = engine.Run(spec);
  ASSERT_TRUE(first.ok()) << first.error().message;
  EXPECT_EQ(first->artifact_misses, 1u);
  EXPECT_EQ(first->artifact_hits, 0u);

  Expected<JobResult, PipelineError> second = engine.Run(spec);
  ASSERT_TRUE(second.ok()) << second.error().message;
  EXPECT_EQ(second->artifact_hits, 1u);
  EXPECT_EQ(second->artifact_misses, 0u);

  // Rewriting the file (different row count, hence size and mtime)
  // changes the dataset content key, so the stale grouping is never
  // served for the new data.
  Rng changed_rng(8);
  Table changed = testutil::RandomEligibleTable(changed_rng, 80, {6, 4}, 5, 2);
  ASSERT_TRUE(WriteTableCsv(changed, path, &write_error)) << write_error;
  Expected<JobResult, PipelineError> third = engine.Run(spec);
  ASSERT_TRUE(third.ok()) << third.error().message;
  EXPECT_EQ(third->artifact_hits, 0u) << "a changed CSV must not reuse stale artifacts";
  EXPECT_EQ(third->artifact_misses, 1u);

  // The rewrite a path + mtime + size key cannot see: the same rows in
  // reverse order (same byte count) with the original mtime restored, as
  // `cp -p` or `rsync -t` leave it. Only the ctime still moves, so the
  // table and its artifacts must both miss.
  struct ::stat before{};
  ASSERT_EQ(::stat(path.c_str(), &before), 0);
  std::string header;
  std::vector<std::string> rows;
  {
    std::ifstream in(path);
    std::getline(in, header);
    for (std::string row; std::getline(in, row);) rows.push_back(row);
  }
  // Step past the file-system clock's granularity so the rewrite cannot
  // share the previous write's ctime tick.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  {
    std::ofstream out(path, std::ios::trunc);
    out << header << '\n';
    for (auto row = rows.rbegin(); row != rows.rend(); ++row) out << *row << '\n';
  }
  const struct ::timespec times[2] = {before.st_atim, before.st_mtim};
  ASSERT_EQ(::utimensat(AT_FDCWD, path.c_str(), times, 0), 0);
  struct ::stat after{};
  ASSERT_EQ(::stat(path.c_str(), &after), 0);
  ASSERT_EQ(after.st_size, before.st_size);
  ASSERT_EQ(after.st_mtim.tv_nsec, before.st_mtim.tv_nsec);
  Expected<JobResult, PipelineError> fourth = engine.Run(spec);
  ASSERT_TRUE(fourth.ok()) << fourth.error().message;
  EXPECT_EQ(fourth->cache_misses, 1u) << "the rewritten rows must not be served from the cache";
  EXPECT_EQ(fourth->artifact_misses, 1u) << "nor their stale grouping";

  std::remove(path.c_str());
  SetThreadBudget(0);
}

TEST(ArtifactCacheEngine, ForcedEvictionRefaultsByteForByte) {
  Engine engine;
  JobSpec spec;
  spec.dataset.name = "sal";
  spec.ns = {900};
  spec.ds = {3};
  spec.algorithms = {Algorithm::kTp, Algorithm::kHilbert};
  spec.ls = {2, 3};
  spec.timings = false;

  Expected<JobResult, PipelineError> reference = engine.Run(spec);
  ASSERT_TRUE(reference.ok()) << reference.error().message;
  EXPECT_EQ(reference->artifact_misses, 2u);
  const std::uint64_t resident = engine.artifact_cache().stats().resident_bytes;
  ASSERT_GT(resident, 0u);

  // A budget one byte short of both artifacts forces an eviction up
  // front; the run refaults what it lost and must still match.
  JobSpec tight = spec;
  tight.artifact_cache = resident - 1;
  Expected<JobResult, PipelineError> refaulted = engine.Run(tight);
  ASSERT_TRUE(refaulted.ok()) << refaulted.error().message;
  EXPECT_GT(engine.artifact_cache().stats().evictions, 0u);
  EXPECT_GT(refaulted->artifact_misses, 0u) << "the evicted artifact must refault";

  ReportOptions options;
  options.include_seconds = false;
  EXPECT_EQ(RenderJsonReport(reference.value(), options),
            RenderJsonReport(refaulted.value(), options));
  EXPECT_EQ(RenderMetricsCsv(reference.value(), options),
            RenderMetricsCsv(refaulted.value(), options));
  SetThreadBudget(0);
}

TEST(ArtifactCacheDaemon, ConcurrentSubmissionsShareOneArtifact) {
  DaemonOptions options;
  options.socket_path = testing::TempDir() + "ldivd_artifact.sock";
  options.workers = 2;
  Daemon daemon(options);
  std::string error;
  ASSERT_TRUE(daemon.Start(&error)) << error;

  auto spec_for = [](const std::string& out) {
    JobSpec spec;
    spec.dataset.name = "sal";
    spec.ns = {600};
    spec.ds = {3};
    spec.algorithms = {Algorithm::kTp};
    spec.ls = {2};
    spec.timings = false;
    spec.out = out;
    return spec;
  };

  constexpr std::size_t kClients = 6;
  std::vector<Frame> replies(kClients);
  std::vector<std::map<std::string, std::string>> kvs(kClients);
  std::vector<std::string> errors(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      const JobSpec spec =
          spec_for(testing::TempDir() + "ldivd_artifact_" + std::to_string(i));
      DaemonRequest(options.socket_path, Frame{"job", SerializeJobSpec(spec)}, &replies[i],
                    &kvs[i], &errors[i]);
    });
  }
  for (std::thread& t : clients) t.join();
  for (std::size_t i = 0; i < kClients; ++i) {
    ASSERT_EQ(replies[i].verb, "ok") << errors[i] << " " << replies[i].payload;
  }

  // One GroupedTable build serves every submission; the stats verb
  // surfaces the shared counters.
  Frame reply;
  std::map<std::string, std::string> kv;
  ASSERT_TRUE(DaemonRequest(options.socket_path, Frame{"stats", ""}, &reply, &kv, &error))
      << error;
  EXPECT_EQ(kv.at("artifact-misses"), "1") << "the grouping must be built exactly once";
  EXPECT_EQ(kv.at("artifact-hits"), std::to_string(kClients - 1));

  // Hit-path outputs are byte-identical to the cold-path ones.
  const std::string reference = ReadFile(testing::TempDir() + "ldivd_artifact_0.csv");
  ASSERT_FALSE(reference.empty());
  for (std::size_t i = 1; i < kClients; ++i) {
    EXPECT_EQ(ReadFile(testing::TempDir() + "ldivd_artifact_" + std::to_string(i) + ".csv"),
              reference);
  }
  for (std::size_t i = 0; i < kClients; ++i) {
    const std::string stem = testing::TempDir() + "ldivd_artifact_" + std::to_string(i);
    for (const char* suffix : {".csv", "_sa.csv", ".json", "_metrics.csv"}) {
      std::remove((stem + suffix).c_str());
    }
  }
  daemon.Stop();
  daemon.WaitForShutdown();
  SetThreadBudget(0);
}

}  // namespace
}  // namespace ldv
