#ifndef LDIV_CORE_ANONYMIZER_H_
#define LDIV_CORE_ANONYMIZER_H_

#include <cstdint>

#include "core/algorithm.h"

namespace ldv {

/// Convenience facade over the AlgorithmRegistry: runs `algorithm` on
/// `table` with privacy parameter `l` and returns the uniform outcome with
/// the shared utility metrics filled in. Equivalent to
/// `AlgorithmRegistry::Global().Create(algorithm, options)->Run(table, l)`.
/// Pass a Workspace to reuse solver scratch across repeated calls.
AnonymizationOutcome Anonymize(const Table& table, std::uint32_t l, Algorithm algorithm,
                               const AnonymizerOptions& options = {},
                               Workspace* workspace = nullptr);

}  // namespace ldv

#endif  // LDIV_CORE_ANONYMIZER_H_
