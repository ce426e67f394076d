#ifndef LDIV_CORE_RUN_SPEC_H_
#define LDIV_CORE_RUN_SPEC_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/algorithm.h"
#include "core/batch.h"

namespace ldv {

/// One pipeline invocation: run `algorithm` with privacy parameter `l` on
/// the `table_index`-th input table. RunSpecs are the unit the CLI sweeps
/// over; a vector of them converts 1:1 into AnonymizeBatch jobs.
struct RunSpec {
  Algorithm algorithm = Algorithm::kTp;
  std::uint32_t l = 2;
  std::size_t table_index = 0;
  AnonymizerOptions options;
};

/// True iff the run reads the table's GroupedTable: its solve consumes it,
/// or its KL estimator (any but Anatomy's) takes its points from it. The
/// engine resolves the artifact for these runs; Anonymizer::Run builds one
/// when none is supplied.
bool RunUsesGroupedArtifact(const RunSpec& spec);

/// Human-readable job label, e.g. "TP+/l=4/table=0".
std::string RunSpecLabel(const RunSpec& spec);

/// Expands the full `tables x algorithms x ls` grid in deterministic job
/// order: table-major, then algorithm, then l -- the order results are
/// reported in, independent of how many batch workers run the jobs.
std::vector<RunSpec> ExpandRunGrid(std::span<const Algorithm> algorithms,
                                   std::span<const std::uint32_t> ls, std::size_t table_count,
                                   const AnonymizerOptions& options);

/// Converts specs to AnonymizeBatch jobs against `tables`. Each spec's
/// table_index must be < tables.size(); the tables are borrowed and must
/// outlive the batch run. When `artifacts` is non-empty it must parallel
/// `tables` (artifacts[i] pre-resolved from *tables[i]); each job then
/// borrows its table's artifacts so TP / TP+ / Hilbert skip rebuilding the
/// grouping or order per job.
std::vector<BatchJob> ToBatchJobs(std::span<const RunSpec> specs,
                                  std::span<const Table* const> tables,
                                  std::span<const TableArtifacts> artifacts = {});

/// Parses a comma-separated list of registry names ("tp,mondrian"), or
/// "all" for every registered algorithm in enum order. Returns false with
/// a message naming the registered algorithms on an unknown name --
/// front-end input, so never an LDIV_CHECK.
bool ParseAlgorithmList(std::string_view list, std::vector<Algorithm>* out, std::string* error);

/// The registered algorithm names in enum order, joined by `separator`
/// (usage strings, error messages).
std::string RegisteredAlgorithmNames(std::string_view separator);

}  // namespace ldv

#endif  // LDIV_CORE_RUN_SPEC_H_
