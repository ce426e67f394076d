#include "daemon/daemon.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <exception>

#include "common/failpoint.h"
#include "daemon/protocol.h"
#include "engine/error.h"

namespace ldv {

namespace {

constexpr int kAcceptPollMs = 200;

std::int64_t MonotonicMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void ReplyBestEffort(int fd, const Frame& frame, int deadline_ms) {
  std::string ignored;
  WriteFrame(fd, frame, &ignored, deadline_ms);
}

// True when a live daemon answers on `path` -- distinguishes a stale
// socket file (crashed daemon; safe to replace) from an active one.
bool SocketAnswers(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return false;
  struct sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const bool answered =
      ::connect(fd, reinterpret_cast<const struct sockaddr*>(&addr), sizeof(addr)) == 0;
  ::close(fd);
  return answered;
}

Frame ErrorFrame(const PipelineError& error) {
  std::map<std::string, std::string> kv;
  kv["error"] = error.message;
  if (!error.field.empty()) kv["field"] = error.field;
  kv["exit-code"] = std::to_string(ExitCodeFor(error.code));
  return Frame{"error", EncodeKvPayload(kv)};
}

}  // namespace

namespace {

EngineOptions MakeEngineOptions(const DaemonOptions& options) {
  EngineOptions engine_options;
  engine_options.cache_bytes = options.cache_bytes;
  if (options.artifact_cache_bytes != kArtifactCacheAuto) {
    engine_options.artifact_cache_bytes = options.artifact_cache_bytes;
  }
  return engine_options;
}

}  // namespace

Daemon::Daemon(DaemonOptions options)
    : options_(std::move(options)), engine_(MakeEngineOptions(options_)) {}

Daemon::~Daemon() {
  Stop();
  WaitForShutdown();
}

bool Daemon::Start(std::string* error) {
  struct sockaddr_un addr = {};
  if (options_.socket_path.empty() ||
      options_.socket_path.size() >= sizeof(addr.sun_path)) {
    *error = "--socket: path must be 1.." + std::to_string(sizeof(addr.sun_path) - 1) +
             " bytes, got " + std::to_string(options_.socket_path.size());
    return false;
  }
  // A vanished peer mid-write must surface as EPIPE from send(), never
  // kill the process; WriteFrame already sends MSG_NOSIGNAL, this covers
  // any other fd the process writes.
  std::signal(SIGPIPE, SIG_IGN);

  // A leftover socket file fails the bind, but blind unlinking would
  // hijack a RUNNING daemon's socket. Probe first: only a dead file
  // (crashed daemon) is replaced.
  struct stat existing = {};
  if (::lstat(options_.socket_path.c_str(), &existing) == 0) {
    if (!S_ISSOCK(existing.st_mode)) {
      *error = "'" + options_.socket_path + "' exists and is not a socket; refusing to replace it";
      return false;
    }
    if (SocketAnswers(options_.socket_path)) {
      *error = "a daemon is already listening on '" + options_.socket_path + "'";
      return false;
    }
    ::unlink(options_.socket_path.c_str());
  }

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, options_.socket_path.c_str(), options_.socket_path.size() + 1);
  if (::bind(listen_fd_, reinterpret_cast<const struct sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = "cannot bind '" + options_.socket_path + "': " + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::listen(listen_fd_, 128) != 0) {
    *error = "cannot listen on '" + options_.socket_path + "': " + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }

  accept_thread_ = std::thread(&Daemon::AcceptLoop, this);
  const std::size_t workers = std::max<std::size_t>(options_.workers, 1);
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back(&Daemon::WorkerLoop, this);
  }
  return true;
}

void Daemon::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_.store(true, std::memory_order_relaxed);
  }
  queue_cv_.notify_all();
  shutdown_cv_.notify_all();
}

void Daemon::WaitForShutdown() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutdown_cv_.wait(lock, [this] { return stopping_.load(std::memory_order_relaxed); });
    if (drained_) return;  // another caller already tore down
  }
  // Teardown order matters: stop admitting (accept loop), finish parsing
  // (handlers -- anything they enqueued is still drained), drain the
  // queue (workers exit once it is empty), then release the socket.
  if (accept_thread_.joinable()) accept_thread_.join();
  ReapHandlers(/*all=*/true);
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(options_.socket_path.c_str());
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    drained_ = true;
  }
  shutdown_cv_.notify_all();
}

void Daemon::AcceptLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    struct pollfd pfd = {};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, kAcceptPollMs);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) continue;
    failpoint::Injection injection;
    if (failpoint::Check(failpoint::Site::kDaemonAccept, &injection)) {
      // Model a transient accept() failure (EMFILE, ECONNABORTED): this
      // connection is lost but the loop keeps serving. Drain the pending
      // connection so poll() does not re-report it forever.
      const int dropped = ::accept(listen_fd_, nullptr, nullptr);
      if (dropped >= 0) ::close(dropped);
      continue;
    }
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    std::size_t live = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      handlers_.emplace_back(&Daemon::HandleConnection, this, fd);
      live = handlers_.size();
    }
    // Handlers are short-lived (one frame in, at most one frame out);
    // reap in batches so the vector cannot grow without bound under a
    // connection flood.
    if (live >= 32) ReapHandlers(/*all=*/false);
  }
}

void Daemon::ReapHandlers(bool all) {
  std::vector<std::thread> reaped;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    reaped.swap(handlers_);
  }
  // Join OUTSIDE the lock: handlers take mutex_ to enqueue.
  for (std::thread& handler : reaped) {
    if (handler.joinable()) handler.join();
  }
  (void)all;
}

void Daemon::HandleConnection(int fd) {
  const int deadline_ms = static_cast<int>(options_.io_timeout_ms);
  Frame request;
  std::string error;
  if (!ReadFrame(fd, &request, &error, &stopping_, deadline_ms)) {
    ReplyBestEffort(fd, ErrorFrame({PipelineErrorCode::kUsage, "", error}), deadline_ms);
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.rejected_error;
    ::close(fd);
    return;
  }

  if (request.verb == "ping") {
    ReplyBestEffort(fd, Frame{"ok", EncodeKvPayload({{"status", "ok"}})}, deadline_ms);
    ::close(fd);
    return;
  }
  if (request.verb == "stats") {
    const Stats s = stats();
    std::map<std::string, std::string> kv;
    kv["accepted"] = std::to_string(s.accepted);
    kv["completed"] = std::to_string(s.completed);
    kv["rejected-busy"] = std::to_string(s.rejected_busy);
    kv["rejected-error"] = std::to_string(s.rejected_error);
    kv["expired"] = std::to_string(s.expired);
    kv["failed"] = std::to_string(s.failed);
    kv["max-queue-depth"] = std::to_string(s.max_queue_depth);
    kv["cache-hits"] = std::to_string(s.datasets.hits);
    kv["cache-misses"] = std::to_string(s.datasets.misses);
    kv["bypassed-paged"] = std::to_string(s.datasets.bypassed_paged);
    kv["artifact-hits"] = std::to_string(s.artifacts.hits);
    kv["artifact-misses"] = std::to_string(s.artifacts.misses);
    kv["queue-depth"] = std::to_string(options_.queue_depth);
    kv["workers"] = std::to_string(std::max<std::size_t>(options_.workers, 1));
    ReplyBestEffort(fd, Frame{"ok", EncodeKvPayload(kv)}, deadline_ms);
    ::close(fd);
    return;
  }
  if (request.verb == "shutdown") {
    // Reply before stopping so the client sees an ack, not a reset.
    ReplyBestEffort(fd, Frame{"ok", EncodeKvPayload({{"status", "stopping"}})}, deadline_ms);
    ::close(fd);
    Stop();
    return;
  }
  if (request.verb != "job") {
    ReplyBestEffort(fd, ErrorFrame(UsageError("", "unknown request verb '" + request.verb + "'")),
                    deadline_ms);
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.rejected_error;
    ::close(fd);
    return;
  }

  Expected<JobSpec, PipelineError> spec = ParseJobSpec(request.payload);
  if (spec.ok()) {
    // Resolve at admission: a usage error replies immediately instead of
    // wasting a queue slot to fail at run time.
    Expected<ResolvedJobSpec, PipelineError> resolved = ResolveJobSpec(spec.value());
    if (!resolved.ok()) spec = resolved.error();
  }
  if (!spec.ok()) {
    ReplyBestEffort(fd, ErrorFrame(spec.error()), deadline_ms);
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.rejected_error;
    ::close(fd);
    return;
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_.load(std::memory_order_relaxed)) {
      ReplyBestEffort(
          fd, ErrorFrame({PipelineErrorCode::kUnavailable, "", "daemon is shutting down"}),
          deadline_ms);
      ++stats_.rejected_error;
      ::close(fd);
      return;
    }
    if (queue_.size() >= options_.queue_depth) {
      // Explicit backpressure: a full queue REPLIES, never hangs the
      // client or silently drops the job.
      std::map<std::string, std::string> kv;
      kv["error"] =
          "admission queue is full (" + std::to_string(queue_.size()) + " jobs waiting)";
      kv["retry-after-ms"] = std::to_string(options_.retry_after_ms);
      kv["exit-code"] = std::to_string(ExitCodeFor(PipelineErrorCode::kUnavailable));
      ReplyBestEffort(fd, Frame{"busy", EncodeKvPayload(kv)}, deadline_ms);
      ++stats_.rejected_busy;
      ::close(fd);
      return;
    }
    PendingJob job;
    job.spec = std::move(spec.value());
    job.seq = next_seq_++;
    job.deadline_at_ms =
        job.spec.deadline_ms == 0 ? 0 : MonotonicMs() + static_cast<std::int64_t>(job.spec.deadline_ms);
    job.fd = fd;  // ownership moves to the worker that replies
    queue_.push_back(std::move(job));
    ++stats_.accepted;
    stats_.max_queue_depth = std::max<std::uint64_t>(stats_.max_queue_depth, queue_.size());
  }
  queue_cv_.notify_one();
}

bool Daemon::Dequeue(PendingJob* job) {
  std::unique_lock<std::mutex> lock(mutex_);
  queue_cv_.wait(lock, [this] {
    return !queue_.empty() || stopping_.load(std::memory_order_relaxed);
  });
  if (queue_.empty()) return false;  // stopping and drained

  // Priority desc, then deadline asc (0 = none = last), then arrival.
  std::size_t best = 0;
  for (std::size_t i = 1; i < queue_.size(); ++i) {
    const PendingJob& a = queue_[i];
    const PendingJob& b = queue_[best];
    if (a.spec.priority != b.spec.priority) {
      if (a.spec.priority > b.spec.priority) best = i;
      continue;
    }
    const std::int64_t da = a.deadline_at_ms == 0 ? INT64_MAX : a.deadline_at_ms;
    const std::int64_t db = b.deadline_at_ms == 0 ? INT64_MAX : b.deadline_at_ms;
    if (da != db) {
      if (da < db) best = i;
      continue;
    }
    if (a.seq < b.seq) best = i;
  }
  *job = std::move(queue_[best]);
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(best));
  return true;
}

void Daemon::WorkerLoop() {
  PendingJob job;
  while (Dequeue(&job)) RunJob(std::move(job));
}

void Daemon::RunJob(PendingJob job) {
  const int deadline_ms = static_cast<int>(options_.io_timeout_ms);
  if (job.deadline_at_ms != 0 && MonotonicMs() > job.deadline_at_ms) {
    ReplyBestEffort(job.fd, ErrorFrame({PipelineErrorCode::kUnavailable, "deadline-ms",
                                        "deadline expired before the job was scheduled"}),
                    deadline_ms);
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.expired;
    ::close(job.fd);
    return;
  }

  // Worker isolation boundary: whatever one job does -- a typed engine
  // error, an IoFailure that slipped past the engine's catch, any other
  // exception -- becomes an error REPLY on this job's connection, and the
  // worker goes back to the queue. One poisoned job must never take the
  // daemon down.
  std::string notices;
  Expected<ExecuteSummary, PipelineError> summary = [&]() -> Expected<ExecuteSummary, PipelineError> {
    try {
      return engine_.Execute(job.spec, &notices);
    } catch (const std::exception& failure) {
      return IoError(failure.what());
    } catch (...) {
      return IoError("job failed with an unknown error");
    }
  }();
  if (!summary.ok()) {
    ReplyBestEffort(job.fd, ErrorFrame(summary.error()), deadline_ms);
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.failed;
    ::close(job.fd);
    return;
  }

  std::uint64_t completed_seq = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    completed_seq = stats_.completed++;
  }
  std::map<std::string, std::string> kv;
  kv["exit-code"] = std::to_string(summary->exit_code);
  kv["jobs"] = std::to_string(summary->job_count);
  kv["infeasible"] = std::to_string(summary->infeasible);
  kv["threads"] = std::to_string(summary->threads);
  kv["cache-hits"] = std::to_string(summary->cache_hits);
  kv["cache-misses"] = std::to_string(summary->cache_misses);
  kv["artifact-hits"] = std::to_string(summary->artifact_hits);
  kv["artifact-misses"] = std::to_string(summary->artifact_misses);
  kv["completed-seq"] = std::to_string(completed_seq);
  kv["out"] = job.spec.out;
  std::size_t notice_index = 0;
  std::string_view rest = notices;
  while (!rest.empty()) {
    const std::size_t eol = rest.find('\n');
    std::string_view line = rest.substr(0, eol);
    rest.remove_prefix(eol == std::string_view::npos ? rest.size() : eol + 1);
    if (line.empty()) continue;
    kv["notice-" + std::to_string(notice_index++)] = std::string(line);
  }
  ReplyBestEffort(job.fd, Frame{"ok", EncodeKvPayload(kv)}, deadline_ms);
  ::close(job.fd);
}

Daemon::Stats Daemon::stats() const {
  Stats copy;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    copy = stats_;
  }
  // The cache counts are authoritative from the engine (they also cover
  // lookups from jobs still in flight).
  Engine& engine = const_cast<Daemon*>(this)->engine_;
  copy.datasets = engine.dataset_cache().stats();
  copy.artifacts = engine.artifact_cache().stats();
  return copy;
}

}  // namespace ldv
