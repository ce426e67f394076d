#include "engine/engine.h"

#include <sys/stat.h>

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <utility>

#include "common/failpoint.h"
#include "common/memory_budget.h"
#include "common/parallel.h"
#include "common/workspace.h"
#include "core/batch.h"
#include "data/dataset.h"
#include "engine/report.h"

namespace ldv {

namespace {

// Sizes the paged-ingestion machinery from the run's memory budget: the
// page cache gets roughly a quarter of the budget (clamped to [8, 256]
// frames) so staging pages, sort buffers, and grouping arenas keep the
// rest. LDIV_PAGE_BYTES overrides the page size (tests and the CI
// memory-capped leg set it tiny to force heavy eviction on small inputs).
PagedTableBuilder::Options PagedOptionsFromBudget() {
  PagedTableBuilder::Options paged;
  paged.budget = GlobalMemoryBudgetShared();
  if (const char* env = std::getenv("LDIV_PAGE_BYTES")) {
    char* end = nullptr;
    const unsigned long long bytes = std::strtoull(env, &end, 10);
    if (end != env && *end == '\0' && bytes >= 64 && bytes % sizeof(std::uint32_t) == 0) {
      paged.page_bytes = static_cast<std::size_t>(bytes);
    }
  }
  const std::uint64_t budget = MemoryBudgetBytes();
  if (budget != 0) {
    const std::uint64_t frames = budget / 4 / paged.page_bytes;
    paged.cache_frames = static_cast<std::size_t>(
        std::clamp<std::uint64_t>(frames, 8, 256));
  }
  return paged;
}

// Resident-byte estimate for DatasetCache accounting: the columnar row
// data plus a small allowance for schema/dictionary storage.
std::uint64_t EstimateTableBytes(const Table& table) {
  return static_cast<std::uint64_t>(table.size()) * (table.qi_count() + 1) *
             sizeof(std::uint32_t) +
         4096;
}

// A run pages its input only under a budget, and only when the in-RAM
// estimate would eat more than a quarter of it; smaller inputs load
// resident and cache normally (the bypass only ever protected paged
// tables' budget reservations from outliving their run). The pre-load
// estimates err high: 2x the CSV file size, or the synthetic grid's
// columnar bytes.
bool ShouldPage(std::uint64_t estimated_bytes) {
  const std::uint64_t budget = MemoryBudgetBytes();
  return budget != 0 && estimated_bytes > budget / 4;
}

std::uint64_t EstimateCsvBytes(const std::string& path) {
  struct ::stat st{};
  if (::stat(path.c_str(), &st) != 0) return ~std::uint64_t{0} / 8;  // unstatable: stay paged
  return 2 * static_cast<std::uint64_t>(st.st_size) + 4096;
}

std::uint64_t EstimateSyntheticBytes(const DatasetSpec& cell) {
  return static_cast<std::uint64_t>(cell.n) * (cell.d + 1) * sizeof(std::uint32_t) + 4096;
}

std::uint64_t ArtifactBytes(const GroupedTable& grouped) { return grouped.ApproxBytes(); }
std::uint64_t ArtifactBytes(const std::vector<RowId>& order) {
  return order.size() * sizeof(RowId);
}

// One artifact of a table: the cached copy under `key`, or `build()`,
// inserted under `key` when the table is cache-eligible ("" = built per
// run, never cached). Counts the lookup in the run's artifact traffic.
template <typename T, typename Build>
std::shared_ptr<const T> ResolveArtifact(ArtifactCache& cache, const std::string& key,
                                         Build build, JobResult* result) {
  if (!key.empty()) {
    if (std::shared_ptr<const void> hit = cache.Lookup(key)) {
      ++result->artifact_hits;
      return std::static_pointer_cast<const T>(hit);
    }
    ++result->artifact_misses;
  }
  std::shared_ptr<const T> built = build();
  if (!key.empty()) cache.Insert(key, built, ArtifactBytes(*built));
  return built;
}

}  // namespace

Engine::Engine(EngineOptions options)
    : options_(options),
      cache_(options.cache_bytes),
      artifact_cache_(options.artifact_cache_bytes) {}

Expected<bool, PipelineError> Engine::MaterializeTables(const ResolvedJobSpec& resolved,
                                                        JobResult* result) {
  const JobSpec& spec = resolved.spec;
  const PagedTableBuilder::Options paged_options = PagedOptionsFromBudget();
  std::string error;
  // One input table. Truly paged tables bypass the cache: they hold
  // reservations against this run's process-global budget, which the next
  // SetMemoryBudget replaces. Everything else -- budgeted inputs that fit
  // in RAM included -- is served from or added to the DatasetCache under
  // `key` ("" = uncacheable). `require_rows` rejects an empty CSV.
  auto materialize = [&](std::string source, std::uint64_t estimated_bytes,
                         const std::string& key, bool require_rows, auto load_paged,
                         auto load) -> std::optional<PipelineError> {
    std::shared_ptr<EngineTable> entry;
    if (ShouldPage(estimated_bytes)) {
      cache_.RecordPagedBypass();
      std::unique_ptr<PagedTable> table = load_paged();
      if (table == nullptr) return IoError(error);
      entry = std::make_shared<EngineTable>(std::move(table));
    } else {
      if (!key.empty()) {
        if (std::shared_ptr<const EngineTable> hit = cache_.Lookup(key)) {
          ++result->cache_hits;
          result->tables.push_back(std::move(hit));
          return std::nullopt;
        }
        ++result->cache_misses;
      }
      std::optional<Table> table = load();
      if (!table) return IoError(error);
      entry = std::make_shared<EngineTable>(std::move(*table));
      entry->cache_key = key;
    }
    if (require_rows && entry->table.empty()) {
      return IoError("'" + spec.input + "' holds no data rows");
    }
    entry->source = std::move(source);
    if (!entry->cache_key.empty()) cache_.Insert(key, entry, EstimateTableBytes(entry->table));
    result->tables.push_back(std::move(entry));
    return std::nullopt;
  };

  if (!spec.input.empty()) {
    const Schema* schema = resolved.schema.has_value() ? &*resolved.schema : nullptr;
    std::optional<PipelineError> failed = materialize(
        (resolved.format == CsvFormat::kRaw ? "csv-raw:" : "csv:") + spec.input,
        EstimateCsvBytes(spec.input),
        DatasetCache::CsvKey(spec.input, resolved.format, spec.schema_spec),
        /*require_rows=*/true,
        [&] {
          return LoadTableCsvPaged(spec.input, resolved.format, schema, paged_options, &error);
        },
        [&] { return LoadTableCsv(spec.input, resolved.format, schema, &error); });
    if (failed.has_value()) return *failed;
    return true;
  }

  // Synthetic grid: one table per (n, d) cell, n-major -- the job order
  // the report documents.
  for (std::uint64_t n : spec.ns) {
    for (std::uint64_t d : spec.ds) {
      DatasetSpec cell = spec.dataset;
      cell.n = static_cast<std::size_t>(n);
      cell.d = static_cast<std::size_t>(d);
      std::optional<PipelineError> failed = materialize(
          DatasetLabel(cell), EstimateSyntheticBytes(cell), DatasetCache::SyntheticKey(cell),
          /*require_rows=*/false,
          [&] { return GenerateDatasetPaged(cell, paged_options, &error); },
          [&] { return GenerateDataset(cell, &error); });
      if (failed.has_value()) return *failed;
    }
  }
  return true;
}

std::uint64_t Engine::ResolveArtifacts(std::span<const RunSpec> specs, JobResult* result) {
  result->artifacts.assign(result->tables.size(), TableArtifacts{});
  std::vector<char> need_grouped(result->tables.size(), 0);
  std::vector<char> need_order(result->tables.size(), 0);
  for (const RunSpec& spec : specs) {
    if (RunUsesGroupedArtifact(spec)) need_grouped[spec.table_index] = 1;
    if (AlgorithmUsesHilbertOrderArtifact(spec.algorithm)) need_order[spec.table_index] = 1;
  }

  std::uint64_t resident_bytes = 0;
  Workspace workspace;
  for (std::size_t i = 0; i < result->tables.size(); ++i) {
    const EngineTable& input = *result->tables[i];
    // Cross-run caching needs a content-identity key and an in-RAM table
    // (a paged table's artifacts are rebuilt per run like the table
    // itself); ineligible tables still resolve once per run, so every job
    // of a sweep shares the build either way.
    const bool eligible = !input.cache_key.empty() && input.paged == nullptr;
    TableArtifacts& artifacts = result->artifacts[i];
    if (need_grouped[i] != 0) {
      const std::string key =
          eligible ? ArtifactCache::GroupedKey(input.cache_key, input.table) : std::string();
      artifacts.grouped = ResolveArtifact<GroupedTable>(artifact_cache_, key, [&] {
        auto grouped = std::make_shared<GroupedTable>(input.table, &workspace);
        // The build may have charged its arenas to THIS run's memory
        // budget; a cached artifact must never carry that reservation
        // into the next budget epoch. RunLocked re-charges the resident
        // bytes with a run-scoped reservation instead.
        grouped->ReleaseBudgetCharge();
        return grouped;
      }, result);
      resident_bytes += ArtifactBytes(*artifacts.grouped);
    }
    if (need_order[i] != 0) {
      const std::string key =
          eligible ? ArtifactCache::OrderKey(input.cache_key, input.table) : std::string();
      artifacts.hilbert_order = ResolveArtifact<std::vector<RowId>>(artifact_cache_, key, [&] {
        auto order = std::make_shared<std::vector<RowId>>();
        HilbertComputeOrder(input.table, &workspace, order.get());
        return order;
      }, result);
      resident_bytes += ArtifactBytes(*artifacts.hilbert_order);
    }
  }
  return resident_bytes;
}

Expected<JobResult, PipelineError> Engine::RunLocked(const ResolvedJobSpec& resolved) {
  const JobSpec& spec = resolved.spec;
  JobResult result;
  // One budget for the whole run: the batch driver and the in-kernel
  // parallelism both draw from it (see src/common/parallel.h).
  SetThreadBudget(spec.threads);
  result.threads = ThreadBudget();
  // Likewise one memory budget (0 = unlimited): ingestion, grouping, and
  // the Hilbert sort all consult it through GlobalMemoryBudget().
  SetMemoryBudget(spec.memory_budget);
  Expected<bool, PipelineError> materialized = MaterializeTables(resolved, &result);
  if (!materialized.ok()) return materialized.error();
  if (result.tables.empty()) {
    return UsageError("n", "nothing to run: the (n, d) grid produced no input tables");
  }

  AnonymizerOptions algo_options;
  algo_options.compute_kl = spec.compute_kl;
  std::vector<RunSpec> specs =
      ExpandRunGrid(spec.algorithms, spec.ls, result.tables.size(), algo_options);
  result.jobs.reserve(specs.size());

  // Per-run ArtifactCache capacity: an explicit --artifact-cache wins;
  // otherwise a budgeted run clamps the engine default to a quarter of
  // its memory budget so cached artifacts stay within the headroom the
  // run's own working set leaves. Runs serialize on run_mutex_, so the
  // retune (and any eviction it forces) is race-free.
  std::uint64_t artifact_capacity = options_.artifact_cache_bytes;
  if (spec.artifact_cache != kArtifactCacheAuto) {
    artifact_capacity = spec.artifact_cache;
  } else if (spec.memory_budget != 0) {
    artifact_capacity = std::min(artifact_capacity, spec.memory_budget / 4);
  }
  artifact_cache_.SetCapacity(artifact_capacity);

  // Resolve the GroupedTable / Hilbert order once per distinct table --
  // the sweep's jobs share them -- and charge a budgeted run for the
  // bytes it now pins (cached artifacts carry no reservation of their
  // own; see GroupedTable::ReleaseBudgetCharge).
  const std::uint64_t artifact_bytes = ResolveArtifacts(specs, &result);
  MemoryReservation artifacts_reservation;
  if (MemoryBudgetBytes() != 0 && artifact_bytes != 0) {
    artifacts_reservation = MemoryReservation(GlobalMemoryBudgetShared(), artifact_bytes);
  }

  if (specs.size() == 1 && !spec.sweep) {
    // Single invocation: run inline so errors and timings stay on the
    // calling thread.
    const RunSpec& run = specs.front();
    Workspace workspace;
    const TableArtifacts& artifacts = result.artifacts[run.table_index];
    AnonymizationOutcome outcome =
        AlgorithmRegistry::Global()
            .Create(run.algorithm, run.options)
            ->Run(result.tables[run.table_index]->table, run.l, &workspace,
                  artifacts.empty() ? nullptr : &artifacts);
    result.jobs.push_back({run, std::move(outcome)});
    return result;
  }

  std::vector<const Table*> tables;
  tables.reserve(result.tables.size());
  for (const std::shared_ptr<const EngineTable>& input : result.tables) {
    tables.push_back(&input->table);
  }
  // BatchOptions::threads stays 0: the driver follows the budget set
  // above, splitting it between job-level workers and inner kernels.
  std::vector<AnonymizationOutcome> outcomes =
      AnonymizeBatch(ToBatchJobs(specs, tables, result.artifacts));
  for (std::size_t i = 0; i < specs.size(); ++i) {
    result.jobs.push_back({specs[i], std::move(outcomes[i])});
  }
  return result;
}

Expected<JobResult, PipelineError> Engine::Run(const JobSpec& spec) {
  Expected<ResolvedJobSpec, PipelineError> resolved = ResolveJobSpec(spec);
  if (!resolved.ok()) return resolved.error();
  std::lock_guard<std::mutex> lock(run_mutex_);
  // This is the I/O unwind boundary: a spill, page, sort, or ingestion
  // syscall failure anywhere below (including inside parallel kernels)
  // throws IoFailure, RAII reclaims the spill files and budget
  // reservations on the way up, and the caller sees a typed io error --
  // never an abort.
  try {
    return RunLocked(*resolved);
  } catch (const IoFailure& failure) {
    return IoError(failure.what());
  }
}

Expected<ExecuteSummary, PipelineError> Engine::Execute(const JobSpec& spec,
                                                        std::string* notices) {
  Expected<ResolvedJobSpec, PipelineError> resolved = ResolveJobSpec(spec);
  if (!resolved.ok()) return resolved.error();
  // Hold the run lock through output writing so paged reads never race a
  // following run. (Lifetimes need no lock: a paged table shares ownership
  // of the budget epoch it charged, so it may safely outlive the run.)
  std::lock_guard<std::mutex> lock(run_mutex_);
  Expected<JobResult, PipelineError> result = [&]() -> Expected<JobResult, PipelineError> {
    // Same unwind boundary as Run(): typed io error instead of an abort.
    try {
      return RunLocked(*resolved);
    } catch (const IoFailure& failure) {
      return IoError(failure.what());
    }
  }();
  if (!result.ok()) return result.error();
  std::optional<PipelineError> write_error = WriteJobOutputs(resolved->spec, *result, notices);
  if (write_error.has_value()) return *write_error;

  ExecuteSummary summary;
  summary.job_count = result->jobs.size();
  for (const EngineJob& job : result->jobs) {
    if (!job.outcome.feasible) ++summary.infeasible;
  }
  summary.threads = result->threads;
  summary.cache_hits = result->cache_hits;
  summary.cache_misses = result->cache_misses;
  summary.artifact_hits = result->artifact_hits;
  summary.artifact_misses = result->artifact_misses;
  // A sweep treats infeasible cells as data; a single run fails loudly.
  summary.exit_code = (summary.job_count == 1 && summary.infeasible > 0)
                          ? ExitCodeFor(PipelineErrorCode::kInfeasible)
                          : 0;
  return summary;
}

Engine& GlobalEngine() {
  // Leaked intentionally: cached tables must stay valid for any
  // static-destruction-order stragglers.
  static Engine* engine = new Engine;
  return *engine;
}

}  // namespace ldv
