#ifndef LDIV_CLI_CLI_OPTIONS_H_
#define LDIV_CLI_CLI_OPTIONS_H_

#include <span>
#include <string>
#include <string_view>

#include "engine/job_spec.h"

namespace ldv {

class FlagSet;

/// One `ldiv` invocation: the job its flags (and the optional `--config`
/// file, which flags override) describe, already through ResolveJobSpec,
/// or a request for the usage text. Everything here is user input, so
/// parsing reports through error strings -- an `ldiv` user can never trip
/// an LDIV_CHECK from the command line.
struct CliOptions {
  /// The resolved job: for a CSV input, `format` is kCoded or kRaw (never
  /// kAuto) and `schema_spec` is the canonical FormatSchemaSpec text, so
  /// every front end that serializes it sends the same bytes.
  JobSpec spec;
  bool help = false;
};

/// Parses argv (and any `--config` file) into `*options`: the flag
/// grammar, `--help`, `--config` and the unknown-flag check, then
/// ReadJobSpecKeys, `--no-timings`, and ResolveJobSpec. Returns false
/// with a one-line message on any malformed, unknown or inconsistent
/// flag. Front-ends with additional flags (the `ldiv submit` client) pass
/// their names through `extra_flags` and read the raw values of the ones
/// that are not job keys back through `raw_flags`.
bool ParseCliOptions(int argc, const char* const* argv, CliOptions* options, std::string* error,
                     std::span<const std::string_view> extra_flags = {},
                     FlagSet* raw_flags = nullptr);

/// The parsed job, `options.spec`; kept for callers that take it through
/// a function.
JobSpec ToJobSpec(const CliOptions& options);

/// The usage text printed by --help and on parse errors.
std::string CliUsage(std::string_view program);

}  // namespace ldv

#endif  // LDIV_CLI_CLI_OPTIONS_H_
