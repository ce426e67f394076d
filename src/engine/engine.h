#ifndef LDIV_ENGINE_ENGINE_H_
#define LDIV_ENGINE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/expected.h"
#include "common/paged_column.h"
#include "common/table.h"
#include "core/artifacts.h"
#include "core/run_spec.h"
#include "engine/content_cache.h"
#include "engine/error.h"
#include "engine/job_spec.h"

namespace ldv {

/// One materialized input table plus where it came from, for reports.
/// Under --memory-budget the row data lives in `paged` (memory-mapped
/// spill files) and `table` is the borrowed resident() view over it; the
/// algorithms and report writers consume `table` either way, so outputs
/// are byte-identical across the two storage modes.
struct EngineTable {
  Table table;
  /// Keeps the spill files and mappings alive behind a borrowed `table`;
  /// null for ordinary in-RAM inputs.
  std::unique_ptr<PagedTable> paged;
  /// Provenance label, e.g. "csv:micro.csv" or "sal(n=10000, seed=1, d=3)".
  std::string source;
  /// The DatasetCache content-identity key this table was materialized
  /// under; "" when uncacheable (unstatable CSV) or paged. Derived
  /// artifacts reuse it as the dataset half of their ArtifactCache key.
  std::string cache_key;

  explicit EngineTable(Table t) : table(std::move(t)) {}
  explicit EngineTable(std::unique_ptr<PagedTable> p)
      : table(p->resident()), paged(std::move(p)) {}
};

/// One completed engine job: its spec and the algorithm outcome.
struct EngineJob {
  RunSpec spec;
  AnonymizationOutcome outcome;
};

/// Everything one Engine::Run produced, in deterministic job order (the
/// ExpandRunGrid order: table-major, then algorithm, then l). Tables are
/// shared with the DatasetCache; entries may alias across JobResults.
struct JobResult {
  std::vector<std::shared_ptr<const EngineTable>> tables;
  /// Pre-resolved solver artifacts, parallel to `tables` (empty structs
  /// for tables whose jobs consume none). Shared with the ArtifactCache;
  /// holding them here keeps every artifact alive for the whole run even
  /// if the cache evicts it mid-flight.
  std::vector<TableArtifacts> artifacts;
  std::vector<EngineJob> jobs;
  /// The resolved thread budget the run executed under. An execution
  /// detail like wall-clock: reports include it only alongside timings,
  /// so --no-timings output stays byte-identical across budgets.
  unsigned threads = 1;
  /// DatasetCache traffic of this run's input materialization (0/0 when
  /// every table came up paged and bypassed the cache).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  /// ArtifactCache traffic of this run's GroupedTable / Hilbert-order
  /// resolution (0/0 when no job consumes artifacts or the tables were
  /// cache-ineligible).
  std::uint64_t artifact_hits = 0;
  std::uint64_t artifact_misses = 0;
};

/// Byte-compare-friendly summary of an Execute call, the payload a daemon
/// reply carries back to the submitting client.
struct ExecuteSummary {
  std::size_t job_count = 0;
  std::size_t infeasible = 0;
  unsigned threads = 1;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t artifact_hits = 0;
  std::uint64_t artifact_misses = 0;
  /// The one-shot CLI's exit status for this run (0 ok, 2 when a
  /// single-job run was infeasible) -- `ldiv submit` exits with it so a
  /// scripted submit is a drop-in for a one-shot invocation.
  int exit_code = 0;
};

struct EngineOptions {
  /// DatasetCache capacity; 0 disables cross-job input caching.
  std::uint64_t cache_bytes = 256u << 20;
  /// ArtifactCache capacity (GroupedTable + Hilbert-order memoization);
  /// 0 disables cross-job artifact caching. A job can override per run
  /// with JobSpec::artifact_cache; budgeted jobs without an override are
  /// clamped to a quarter of their memory budget.
  std::uint64_t artifact_cache_bytes = 256u << 20;
};

/// The reusable anonymization engine behind every front-end: one object
/// that validates JobSpecs (ResolveJobSpec), materializes inputs through a
/// cross-job DatasetCache, and runs the algorithms x (l, n, d) grid
/// through the existing inline/AnonymizeBatch machinery. The one-shot CLI
/// is a thin adapter over Run; the daemon's workers call Execute.
///
/// Runs serialize on an internal mutex: the thread and memory budgets are
/// process-global (SetThreadBudget / SetMemoryBudget), so two concurrent
/// solves would race on them. Job-level concurrency belongs to the
/// admission queue in front of the engine, intra-job parallelism to the
/// per-run thread budget.
class Engine {
 public:
  explicit Engine(EngineOptions options = {});

  /// Validates, materializes and solves `spec`; no outputs are written.
  /// Infeasible jobs are not an error (reported with feasible = false).
  ///
  /// Budget caveat: a budgeted (memory_budget != 0) result holds paged
  /// tables charged against the process-global budget of THIS run; drop
  /// the JobResult before the next budgeted Run (the CLI's sequential
  /// run-then-write-then-exit does so naturally). Execute encapsulates
  /// the safe order for long-running callers.
  Expected<JobResult, PipelineError> Run(const JobSpec& spec);

  /// Run + write every output the spec asks for (release(s), reports,
  /// dictionary sidecar, emit-input), destroying the JobResult before
  /// returning -- the whole job lifetime stays under the run lock, which
  /// makes it safe for a daemon to interleave budgeted jobs. Notice lines
  /// ("wrote value dictionaries to ...") append to `*notices` when
  /// non-null.
  Expected<ExecuteSummary, PipelineError> Execute(const JobSpec& spec,
                                                  std::string* notices = nullptr);

  DatasetCache& dataset_cache() { return cache_; }
  ArtifactCache& artifact_cache() { return artifact_cache_; }

 private:
  Expected<JobResult, PipelineError> RunLocked(const ResolvedJobSpec& resolved);
  Expected<bool, PipelineError> MaterializeTables(const ResolvedJobSpec& resolved,
                                                  JobResult* result);
  /// Resolves the GroupedTable / Hilbert-order artifacts each distinct
  /// table's jobs consume -- once per table, through the ArtifactCache
  /// when the table is cache-eligible (non-empty cache_key, not paged).
  /// Returns the total resident bytes of the artifacts now pinned by
  /// `result`, so RunLocked can charge them to a budgeted run.
  std::uint64_t ResolveArtifacts(std::span<const RunSpec> specs, JobResult* result);

  std::mutex run_mutex_;
  EngineOptions options_;
  DatasetCache cache_;
  ArtifactCache artifact_cache_;
};

}  // namespace ldv

#endif  // LDIV_ENGINE_ENGINE_H_
