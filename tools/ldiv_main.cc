// The `ldiv` command-line front-end: the end-to-end pipeline of the
// repository behind one binary. Loads a coded CSV (or generates an
// ACS-style synthetic table), runs any registered algorithm -- or a sweep
// over algorithms x (l, n, d) grids through the batched driver -- and
// writes the anonymized release plus a JSON/CSV metrics report.
//
//   ldiv --algo=tp+ --l=4 --input=micro.csv --out=release
//        --schema=Age:79,Gender:2,Education:17|Income:50
//   ldiv --algo=all --l=2,4 --dataset=sal --n=10000 --d=3 --sweep --out=grid
//
// Subcommands turn the same pipeline into a service (see README):
//
//   ldiv serve --socket=/tmp/ldivd.sock --queue-depth=16
//   ldiv submit --socket=/tmp/ldivd.sock --algo=tp+ --l=4 --out=release
//   ldiv ctl --socket=/tmp/ldivd.sock stats|ping|shutdown
//
// Exit codes: 0 success, 1 usage error, 2 infeasible instance, 3 I/O
// error, 4 daemon unavailable / backpressure / expired deadline.

#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "cli/cli_options.h"
#include "cli/pipeline.h"
#include "common/flags.h"
#include "common/memory_budget.h"
#include "daemon/client.h"
#include "daemon/daemon.h"
#include "daemon/protocol.h"
#include "engine/report.h"

namespace {

constexpr int kExitOk = 0;
constexpr int kExitUsage = 1;
constexpr int kExitUnavailable = 4;

// Set by the SIGINT/SIGTERM handler; a watcher thread turns it into a
// graceful Daemon::Stop (the handler itself must stay async-signal-safe).
std::atomic<bool> g_signal_stop{false};

void OnStopSignal(int) { g_signal_stop.store(true, std::memory_order_relaxed); }

// The daemon's CWD is not the client's: every path in a submitted spec
// crosses the socket absolutized.
std::string Absolutize(const std::string& path) {
  if (path.empty() || path.front() == '/') return path;
  char cwd[4096];
  if (::getcwd(cwd, sizeof cwd) == nullptr) return path;
  return std::string(cwd) + "/" + path;
}

int OneShotMain(int argc, char** argv) {
  using namespace ldv;

  CliOptions options;
  std::string error;
  if (!ParseCliOptions(argc, argv, &options, &error)) {
    std::fprintf(stderr, "ldiv: %s\n\n%s", error.c_str(), CliUsage(argv[0]).c_str());
    return kExitUsage;
  }
  if (options.help) {
    std::fprintf(stdout, "%s", CliUsage(argv[0]).c_str());
    return kExitOk;
  }

  Expected<JobResult, PipelineError> run = RunPipeline(options);
  if (!run.ok()) {
    std::fprintf(stderr, "ldiv: %s\n", run.error().message.c_str());
    return ExitCodeFor(run.error().code);
  }
  const JobResult& result = run.value();

  std::string notices;
  if (std::optional<PipelineError> write_error =
          WriteJobOutputs(ToJobSpec(options), result, &notices)) {
    std::fprintf(stderr, "ldiv: %s\n", write_error->message.c_str());
    return ExitCodeFor(write_error->code);
  }
  std::fprintf(stderr, "%s", notices.c_str());

  // One summary line per job, in job order.
  std::size_t infeasible = 0;
  for (std::size_t i = 0; i < result.jobs.size(); ++i) {
    const EngineJob& job = result.jobs[i];
    const AnonymizationOutcome& outcome = job.outcome;
    if (!outcome.feasible) {
      ++infeasible;
      std::fprintf(stderr, "[%zu] %s: infeasible (table is not %u-eligible)\n", i,
                   RunSpecLabel(job.spec).c_str(), job.spec.l);
      continue;
    }
    std::fprintf(stderr,
                 "[%zu] %s: %llu stars, %llu suppressed, %zu groups, KL %.4f, %.3fs\n", i,
                 RunSpecLabel(job.spec).c_str(),
                 static_cast<unsigned long long>(outcome.stars),
                 static_cast<unsigned long long>(outcome.suppressed_tuples),
                 outcome.group_stats.group_count, outcome.kl_divergence, outcome.seconds);
  }
  std::fprintf(stderr, "report: %s.json, %s_metrics.csv (%zu jobs)\n", options.out.c_str(),
               options.out.c_str(), result.jobs.size());

  // A sweep treats infeasible cells as data; a single run fails loudly.
  if (result.jobs.size() == 1 && infeasible > 0) {
    return ExitCodeFor(PipelineErrorCode::kInfeasible);
  }
  return kExitOk;
}

int ServeMain(int argc, char** argv) {
  using namespace ldv;

  FlagSet flags;
  std::string error;
  constexpr std::array<std::string_view, 7> kServeFlags = {
      "socket",         "queue-depth",    "workers",      "cache-bytes",
      "artifact-cache", "retry-after-ms", "io-timeout-ms"};
  DaemonOptions options;
  std::uint64_t queue_depth = 16;
  std::uint64_t workers = 1;
  std::string cache_text;
  std::string artifact_text;
  std::uint64_t retry_after_ms = 100;
  std::uint64_t io_timeout_ms = 10000;
  bool parsed = flags.ParseArgs(argc, argv, &error) &&
                flags.GetString("socket", "", &options.socket_path, &error) &&
                flags.GetUint64("queue-depth", 16, &queue_depth, &error) &&
                flags.GetUint64("workers", 1, &workers, &error) &&
                flags.GetString("cache-bytes", "256M", &cache_text, &error) &&
                flags.GetString("artifact-cache", "", &artifact_text, &error) &&
                flags.GetUint64("retry-after-ms", 100, &retry_after_ms, &error) &&
                flags.GetUint64("io-timeout-ms", 10000, &io_timeout_ms, &error);
  if (parsed) {
    std::vector<std::string> unknown =
        flags.UnknownKeys(std::span<const std::string_view>(kServeFlags));
    if (!unknown.empty()) {
      parsed = false;
      error = "unknown flag --" + unknown.front() + " (see --help)";
    }
  }
  if (parsed && options.socket_path.empty()) {
    parsed = false;
    error = "serve requires --socket=PATH";
  }
  if (parsed && !ParseByteSize(cache_text, &options.cache_bytes, &error)) {
    parsed = false;
    error = "--cache-bytes: " + error;
  }
  if (parsed && !artifact_text.empty() &&
      !ParseByteSize(artifact_text, &options.artifact_cache_bytes, &error)) {
    parsed = false;
    error = "--artifact-cache: " + error;
  }
  if (parsed && queue_depth == 0) {
    parsed = false;
    error = "--queue-depth must be at least 1";
  }
  if (!parsed) {
    std::fprintf(stderr, "ldiv serve: %s\n", error.c_str());
    return kExitUsage;
  }
  options.queue_depth = static_cast<std::size_t>(queue_depth);
  options.workers = static_cast<std::size_t>(workers);
  options.retry_after_ms = static_cast<std::uint32_t>(retry_after_ms);
  options.io_timeout_ms = static_cast<std::uint32_t>(io_timeout_ms);

  // Daemon::Start ignores SIGPIPE too, but do it before Start so even the
  // startup error paths cannot die to a racing peer.
  std::signal(SIGPIPE, SIG_IGN);

  Daemon daemon(options);
  if (!daemon.Start(&error)) {
    std::fprintf(stderr, "ldiv serve: %s\n", error.c_str());
    // Colliding with a live daemon is an operator mistake, not an I/O
    // fault -- exit 1 so scripts can tell the two apart.
    if (error.find("already listening") != std::string::npos) return kExitUsage;
    return ExitCodeFor(PipelineErrorCode::kIo);
  }
  std::fprintf(stderr, "ldivd listening on %s (queue %zu, %zu worker%s)\n",
               options.socket_path.c_str(), options.queue_depth, options.workers,
               options.workers == 1 ? "" : "s");

  std::signal(SIGINT, OnStopSignal);
  std::signal(SIGTERM, OnStopSignal);
  std::thread signal_watcher([&daemon] {
    while (!g_signal_stop.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    daemon.Stop();
  });

  daemon.WaitForShutdown();
  // Unblock the watcher if shutdown came over the socket, not a signal.
  g_signal_stop.store(true, std::memory_order_relaxed);
  signal_watcher.join();
  std::fprintf(stderr, "ldivd drained and stopped\n");
  return kExitOk;
}

int SubmitMain(int argc, char** argv) {
  using namespace ldv;

  constexpr std::array<std::string_view, 4> kSubmitFlags = {"socket", "priority", "deadline-ms",
                                                            "retry"};
  CliOptions options;
  FlagSet raw_flags;
  std::string error;
  if (!ParseCliOptions(argc, argv, &options, &error,
                       std::span<const std::string_view>(kSubmitFlags), &raw_flags)) {
    std::fprintf(stderr, "ldiv submit: %s\n\n%s", error.c_str(), CliUsage(argv[0]).c_str());
    return kExitUsage;
  }
  if (options.help) {
    std::fprintf(stdout, "%s", CliUsage(argv[0]).c_str());
    return kExitOk;
  }

  std::string socket_path;
  std::uint32_t priority = 0;
  std::uint64_t deadline_ms = 0;
  std::uint64_t retries = 0;
  if (!raw_flags.GetString("socket", "", &socket_path, &error) ||
      !raw_flags.GetUint32("priority", 0, &priority, &error) ||
      !raw_flags.GetUint64("deadline-ms", 0, &deadline_ms, &error) ||
      !raw_flags.GetUint64("retry", 0, &retries, &error)) {
    std::fprintf(stderr, "ldiv submit: %s\n", error.c_str());
    return kExitUsage;
  }
  if (socket_path.empty()) {
    std::fprintf(stderr, "ldiv submit: submit requires --socket=PATH\n");
    return kExitUsage;
  }

  options.input = Absolutize(options.input);
  options.out = Absolutize(options.out);
  options.emit_input = Absolutize(options.emit_input);
  JobSpec spec = ToJobSpec(options);
  spec.priority = priority;
  spec.deadline_ms = deadline_ms;

  // Jittered exponential backoff against `busy` backpressure: the daemon's
  // retry-after-ms hint is the base, doubled per attempt (capped at 10s),
  // and the actual sleep is uniform in [base/2, base] so a flood of
  // rejected clients does not re-arrive in lockstep.
  std::mt19937 jitter(static_cast<std::uint32_t>(::getpid()) ^
                      static_cast<std::uint32_t>(
                          std::chrono::steady_clock::now().time_since_epoch().count()));
  Frame reply;
  std::map<std::string, std::string> kv;
  for (std::uint64_t attempt = 0;; ++attempt) {
    kv.clear();
    if (!DaemonRequest(socket_path, Frame{"job", SerializeJobSpec(spec)}, &reply, &kv, &error)) {
      std::fprintf(stderr, "ldiv submit: %s\n", error.c_str());
      return kExitUnavailable;
    }
    if (reply.verb != "busy") break;
    if (attempt >= retries) {
      std::fprintf(stderr, "ldiv submit: %s (retry after %s ms)\n", kv["error"].c_str(),
                   kv["retry-after-ms"].c_str());
      return kExitUnavailable;
    }
    std::uint64_t hint_ms = 100;
    ParseUint64(kv["retry-after-ms"], &hint_ms);
    if (hint_ms == 0) hint_ms = 1;
    const std::uint64_t shift = attempt < 16 ? attempt : 16;
    const std::uint64_t base = std::min<std::uint64_t>(10000, hint_ms << shift);
    const std::uint64_t delay = base / 2 + jitter() % (base / 2 + 1);
    std::fprintf(stderr, "ldiv submit: daemon busy, retrying in %llu ms (%llu of %llu)\n",
                 static_cast<unsigned long long>(delay),
                 static_cast<unsigned long long>(attempt + 1),
                 static_cast<unsigned long long>(retries));
    std::this_thread::sleep_for(std::chrono::milliseconds(delay));
  }
  if (reply.verb != "ok") {
    std::fprintf(stderr, "ldiv submit: %s\n", kv["error"].c_str());
    int exit_code = kExitUnavailable;
    std::uint64_t parsed_code = 0;
    if (ParseUint64(kv["exit-code"], &parsed_code) && parsed_code != 0) {
      exit_code = static_cast<int>(parsed_code);
    }
    return exit_code;
  }

  // Mirror the one-shot CLI: notices to stderr, the result summary (the
  // reply's key = value lines) to stdout, exit status from the server.
  for (std::size_t i = 0;; ++i) {
    auto notice = kv.find("notice-" + std::to_string(i));
    if (notice == kv.end()) break;
    std::fprintf(stderr, "%s\n", notice->second.c_str());
  }
  for (const auto& [key, value] : kv) {
    if (key.rfind("notice-", 0) == 0) continue;
    std::fprintf(stdout, "%s = %s\n", key.c_str(), value.c_str());
  }
  std::uint64_t exit_code = 0;
  ParseUint64(kv["exit-code"], &exit_code);
  return static_cast<int>(exit_code);
}

int CtlMain(int argc, char** argv) {
  using namespace ldv;

  // The command is the one positional token; everything else is flags.
  std::string command;
  std::vector<char*> flag_argv = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (argv[i][0] != '-' && command.empty()) {
      command = argv[i];
    } else {
      flag_argv.push_back(argv[i]);
    }
  }

  FlagSet flags;
  std::string error;
  std::string socket_path;
  constexpr std::array<std::string_view, 1> kCtlFlags = {"socket"};
  bool parsed = flags.ParseArgs(static_cast<int>(flag_argv.size()), flag_argv.data(), &error) &&
                flags.GetString("socket", "", &socket_path, &error);
  if (parsed) {
    std::vector<std::string> unknown =
        flags.UnknownKeys(std::span<const std::string_view>(kCtlFlags));
    if (!unknown.empty()) {
      parsed = false;
      error = "unknown flag --" + unknown.front() + " (see --help)";
    }
  }
  if (parsed && socket_path.empty()) {
    parsed = false;
    error = "ctl requires --socket=PATH";
  }
  if (parsed && command != "stats" && command != "ping" && command != "shutdown") {
    parsed = false;
    error = "ctl expects one command: stats | ping | shutdown";
  }
  if (!parsed) {
    std::fprintf(stderr, "ldiv ctl: %s\n", error.c_str());
    return kExitUsage;
  }

  Frame reply;
  std::map<std::string, std::string> kv;
  if (!DaemonRequest(socket_path, Frame{command, ""}, &reply, &kv, &error)) {
    std::fprintf(stderr, "ldiv ctl: %s\n", error.c_str());
    return kExitUnavailable;
  }
  if (reply.verb != "ok") {
    std::fprintf(stderr, "ldiv ctl: %s\n", kv["error"].c_str());
    return kExitUnavailable;
  }
  for (const auto& [key, value] : kv) {
    std::fprintf(stdout, "%s = %s\n", key.c_str(), value.c_str());
  }
  return kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  // Subcommand dispatch: a non-flag argv[1] selects the daemon verbs; the
  // flag-only form stays the one-shot pipeline for compatibility.
  const std::string verb = argc > 1 && argv[1][0] != '-' ? argv[1] : "";
  if (verb.empty()) return OneShotMain(argc, argv);

  std::vector<char*> rest = {argv[0]};
  for (int i = 2; i < argc; ++i) rest.push_back(argv[i]);
  const int rest_argc = static_cast<int>(rest.size());
  if (verb == "serve") return ServeMain(rest_argc, rest.data());
  if (verb == "submit") return SubmitMain(rest_argc, rest.data());
  if (verb == "ctl") return CtlMain(rest_argc, rest.data());

  std::fprintf(stderr, "ldiv: unknown subcommand '%s' (expected serve, submit or ctl)\n\n%s",
               verb.c_str(), ldv::CliUsage(argv[0]).c_str());
  return kExitUsage;
}
