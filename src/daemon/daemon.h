#ifndef LDIV_DAEMON_DAEMON_H_
#define LDIV_DAEMON_DAEMON_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "engine/job_spec.h"

namespace ldv {

struct DaemonOptions {
  /// Unix-domain socket path. Start probes an existing socket file with a
  /// connect: a stale one (crashed daemon) is unlinked and replaced, a
  /// live one is a startup error -- never silently hijacked. The daemon
  /// removes its own file at shutdown.
  std::string socket_path;
  /// Admission-queue depth. A job arriving when `queue_depth` jobs are
  /// already waiting gets a `busy` reply (with retry-after-ms) instead of
  /// queueing -- bounded memory and explicit backpressure by design.
  std::size_t queue_depth = 16;
  /// Worker threads draining the queue. Budgets (threads, memory) are
  /// process-global, so Engine::Execute serializes solves internally;
  /// extra workers overlap job parsing/reply I/O, not anonymization.
  std::size_t workers = 1;
  /// DatasetCache capacity for the daemon's engine.
  std::uint64_t cache_bytes = 256u << 20;
  /// ArtifactCache capacity (memoized GroupedTable builds + Hilbert row
  /// orders shared across requests). kArtifactCacheAuto = engine default;
  /// 0 disables cross-request artifact reuse.
  std::uint64_t artifact_cache_bytes = kArtifactCacheAuto;
  /// The retry hint carried in `busy` replies.
  std::uint32_t retry_after_ms = 100;
  /// Per-connection I/O patience: how long a peer may send nothing while
  /// the daemon waits on its frame (ReadFrame's silence budget) and how
  /// long a reply write may stall on a peer that stops draining its
  /// socket. 0 = unbounded (tests of slow paths set it small).
  std::uint32_t io_timeout_ms = 10000;
};

/// The `ldivd` anonymization daemon: accepts serialized JobSpecs over a
/// unix socket, runs them through one shared Engine (so repeated inputs
/// hit the DatasetCache), and replies with per-job result metadata. See
/// daemon/protocol.h for the wire format.
///
/// Threading: an accept loop spawns one short-lived handler per
/// connection; handlers parse the request and either reply directly
/// (stats/ping/errors/busy) or enqueue the job with its connection fd,
/// whose ownership passes to the worker that will run the job and write
/// the reply. Dequeue order is priority (desc), then deadline (asc, 0 =
/// none = last), then arrival. A job whose deadline has passed at
/// dequeue time gets an error reply without running.
///
/// Shutdown (Stop or a `shutdown` request) is graceful: stop accepting,
/// drain every queued job, join the workers, unlink the socket. Nothing
/// accepted is ever dropped without a reply.
class Daemon {
 public:
  explicit Daemon(DaemonOptions options);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Binds the socket and starts the accept loop and workers. Returns
  /// false with a one-line reason (bad path, bind failure) on error.
  bool Start(std::string* error);

  /// Blocks until a shutdown request (or Stop from another thread) has
  /// fully drained the daemon.
  void WaitForShutdown();

  /// Initiates graceful shutdown; idempotent, callable from any thread
  /// (including a signal-watcher).
  void Stop();

  struct Stats {
    std::uint64_t accepted = 0;         // jobs admitted to the queue
    std::uint64_t completed = 0;        // jobs run to a reply
    std::uint64_t rejected_busy = 0;    // busy replies (queue full)
    std::uint64_t rejected_error = 0;   // malformed requests
    std::uint64_t expired = 0;          // deadline passed before dequeue
    std::uint64_t failed = 0;           // accepted jobs that ran to an error reply
    std::uint64_t max_queue_depth = 0;  // high-water mark of waiting jobs
    ContentCache::Stats datasets;       // the engine's DatasetCache
    ContentCache::Stats artifacts;      // the engine's ArtifactCache
  };
  Stats stats() const;

  Engine& engine() { return engine_; }

 private:
  struct PendingJob {
    JobSpec spec;
    std::uint64_t seq = 0;  // admission order, the final tie-breaker
    std::int64_t deadline_at_ms = 0;  // absolute monotonic ms; 0 = none
    int fd = -1;  // owned: the worker replies on it and closes it
  };

  void AcceptLoop();
  void HandleConnection(int fd);
  void WorkerLoop();
  // Pops the best runnable job; false when stopping and drained.
  bool Dequeue(PendingJob* job);
  void RunJob(PendingJob job);
  void ReapHandlers(bool all);

  DaemonOptions options_;
  Engine engine_;
  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};

  mutable std::mutex mutex_;
  std::condition_variable queue_cv_;     // workers wait here
  std::condition_variable shutdown_cv_;  // WaitForShutdown waits here
  std::deque<PendingJob> queue_;
  std::uint64_t next_seq_ = 0;
  bool drained_ = false;
  Stats stats_;

  std::thread accept_thread_;
  std::vector<std::thread> workers_;
  std::vector<std::thread> handlers_;  // guarded by mutex_
};

}  // namespace ldv

#endif  // LDIV_DAEMON_DAEMON_H_
