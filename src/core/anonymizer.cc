#include "core/anonymizer.h"

namespace ldv {

AnonymizationOutcome Anonymize(const Table& table, std::uint32_t l, Algorithm algorithm,
                               const AnonymizerOptions& options, Workspace* workspace) {
  std::unique_ptr<Anonymizer> anonymizer =
      AlgorithmRegistry::Global().Create(algorithm, options);
  return workspace != nullptr ? anonymizer->Run(table, l, workspace)
                              : anonymizer->Run(table, l);
}

}  // namespace ldv
