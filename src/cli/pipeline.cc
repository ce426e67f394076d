#include "cli/pipeline.h"

namespace ldv {

Engine& GlobalEngine() {
  // Leaked intentionally: cached tables must stay valid for any
  // static-destruction-order stragglers.
  static Engine* engine = new Engine;
  return *engine;
}

Expected<JobResult, PipelineError> RunPipeline(const CliOptions& options) {
  return GlobalEngine().Run(ToJobSpec(options));
}

}  // namespace ldv
