// lr90::EngineServer -- a thread-safe, multi-client serving layer over the
// Engine, turning the library's single-threaded facade into something that
// takes concurrent traffic.
//
//   EngineServer server({.engine = {.backend = BackendKind::kHost}});
//   std::future<RunResult> f = server.submit(RankRequest{&list});
//   RunResult r = f.get();              // typed Status, never throws on
//                                       // rejection -- kUnavailable instead
//   server.shutdown();                  // graceful: drains, then joins
//
// Architecture (see docs/ARCHITECTURE.md):
//
//   clients --submit--> BoundedQueue --pop_batch--> workers --> WorkspacePool
//      futures <-------- promises fulfilled per result <-- Engine::run_batch_each
//
//   * Each submit() enqueues a job (request + promise) onto a bounded MPMC
//     queue; back-pressure blocks producers when full (or rejects with
//     StatusCode::kUnavailable when reject_when_full is set).
//   * A fixed pool of worker threads pops jobs. While the queue is shallow
//     each worker takes one job (lowest latency); once the depth exceeds
//     batch_threshold it coalesces up to max_batch jobs and runs them as
//     one Engine::run_batch_each call -- adaptive micro-batching, paying
//     one queue critical section and one engine lease per batch. Identical
//     requests inside a batch collapse into a single engine run (hot-key
//     traffic runs the work once per batch, not once per client).
//   * Engines (and their warmed-up Workspaces) come from a WorkspacePool:
//     zero scratch allocations in steady state, observable via stats().
//   * shutdown() closes the queue, lets workers drain every queued job,
//     and joins; shutdown_now() fails queued-but-unstarted jobs with
//     kUnavailable instead. Submissions racing with either resolve to a
//     kUnavailable future -- typed propagation, no exceptions, no deadlock.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "serve/queue.hpp"
#include "serve/slab_cache.hpp"
#include "serve/snapshot.hpp"
#include "serve/workspace_pool.hpp"

namespace lr90::serve {

/// Configuration of an EngineServer.
struct ServerOptions {
  /// Per-worker engine configuration (backend, threads, verification...).
  /// A host-backend engine left at threads = 0 is resolved to threads = 1:
  /// a server gets its parallelism from the worker pool (one engine per
  /// worker), and the host default of all-cores-per-engine would
  /// oversubscribe the machine workers^2-fold under load. Set threads
  /// explicitly for intra-request parallelism on top: each worker then
  /// keeps its own persistent team of threads - 1 helpers
  /// (host_exec::run_team).
  EngineOptions engine;
  /// Worker threads (each with its own pooled engine); 0 = one per
  /// hardware thread.
  unsigned workers = 0;
  /// Bounded request-queue capacity; a full queue back-pressures clients.
  std::size_t queue_capacity = 1024;
  /// Micro-batching trigger: coalesce once the queue depth exceeds this.
  std::size_t batch_threshold = 1;
  /// Largest number of requests coalesced into one run_batch call.
  std::size_t max_batch = 64;
  /// When true, submit() on a full queue resolves immediately to
  /// StatusCode::kUnavailable instead of blocking for a slot.
  bool reject_when_full = false;
  /// Request collapsing: identical requests inside one micro-batch (same
  /// LinkedList object, same rank/op/method) share a single engine run and
  /// each receive a copy of its result. Semantically invisible -- Engine
  /// runs are deterministic (the workspace RNG is reseeded from the
  /// options' seed every run), so N identical requests produce bit-
  /// identical answers either way -- but under hot-key traffic (many
  /// clients asking about the same list) it multiplies aggregate
  /// throughput: the work runs once per batch instead of once per client.
  bool collapse_duplicates = true;
  /// Byte budget of the shared packed-slab cache (snapshot-addressed
  /// requests only; serve/slab_cache.hpp). 0 disables slab caching.
  std::size_t slab_cache_bytes = std::size_t{64} << 20;
  /// Byte budget of the memoized-result cache (snapshot-addressed
  /// requests only). 0 disables result memoization.
  std::size_t result_cache_bytes = std::size_t{64} << 20;
  /// Root directory for out-of-core shard spill files of
  /// snapshot-addressed requests. When non-empty, every snapshot job
  /// carries the generation-stamped spill directory
  /// shard::snapshot_spill_dir(root, id, gen), so sharded runs KEEP their
  /// shard files across requests (repeat runs reuse matching headers
  /// instead of rewriting); update_snapshot()/drop_snapshot() remove
  /// every generation's directory of the id alongside the cache
  /// invalidation. Empty (the default) leaves sharded runs on ephemeral
  /// per-run temp directories.
  std::string shard_spill_root;
};

/// A request addressed to a server-registered immutable snapshot
/// (EngineServer::register_snapshot) instead of a caller-owned list.
/// Pinning `generation` requests exactly that generation -- superseded
/// pins are rejected with StatusCode::kStaleGeneration carrying the
/// current generation in RunStats::snapshot_generation; generation 0
/// means "whatever is current". Snapshot requests are what the
/// cross-request caches serve: hot keys in steady state do zero packs
/// (slab cache) and zero engine runs (result memoization).
struct SnapshotRequest {
  std::uint64_t snapshot_id = 0;  ///< handle from register_snapshot()
  std::uint64_t generation = 0;   ///< pinned generation; 0 = current
  bool rank = true;               ///< rank (true) or scan (false)
  ScanOp op = ScanOp::kPlus;      ///< the scan's operator; ignored for rank
  Method method = Method::kAuto;  ///< algorithm; kAuto = Planner's pick
  std::uint32_t deadline_ms = 0;  ///< relative deadline; 0 = none
};

/// Serving counters, monotonic since construction (or since the last
/// EngineServer::reset_stats()).
struct ServerStats {
  std::uint64_t submitted = 0;   ///< jobs accepted into the queue
  std::uint64_t rejected = 0;    ///< submits resolved kUnavailable
  std::uint64_t completed = 0;   ///< jobs whose promise was fulfilled
  std::uint64_t batches = 0;     ///< run_batch_each calls issued
  std::uint64_t coalesced = 0;   ///< jobs that shared a batch (size > 1)
  std::uint64_t collapsed = 0;   ///< jobs served by another job's run
  std::uint64_t peak_batch = 0;  ///< largest batch observed
  /// Deepest request-queue backlog seen at any submit (BoundedQueue
  /// size_hwm): the congestion high-water behind capacity planning and
  /// the net layer's RETRY_AFTER hint.
  std::uint64_t queue_depth_hwm = 0;
  std::uint64_t rank_requests = 0;  ///< accepted jobs that were ranks
  std::uint64_t scan_requests = 0;  ///< accepted jobs that were scans
  /// Largest per-request host worker-thread count observed in any result
  /// (RunStats::host_threads): together with `workers()` this is the
  /// intra-request x inter-request parallelism the server actually ran
  /// (bench/serve_throughput reports the product).
  std::uint64_t intra_threads_peak = 0;
  // How the host walked the list in each completed run
  // (RunStats::kernel_tier; runs that never reached the host kernels --
  // empty lists, result-cache hits -- count nowhere), surfaced as tier_*
  // rows in the wire STATS text.
  std::uint64_t tier_legacy_runs = 0;  ///< serial walk / shard walks
  std::uint64_t tier_packed_runs = 0;  ///< packed multi-cursor kernels
  std::uint64_t tier_simd_runs = 0;  ///< Always 0: kept for lr90bench.
  PoolStats pool;                ///< aggregated workspace counters

  // Snapshot / cross-request-cache counters (snapshot-addressed requests
  // only). The hit/miss/eviction tallies are cumulative since the last
  // reset_stats(); the resident figures are occupancy gauges that follow
  // the caches' actual content (reset_stats does NOT flush a warmed
  // cache). Result-cache hits are answered inline at submit() and never
  // enter the queue, so they appear in result_hits but not in
  // submitted/completed.
  std::uint64_t slab_hits = 0;         ///< slab-cache lookup hits
  std::uint64_t slab_misses = 0;       ///< slab-cache lookup misses
  std::uint64_t slab_evictions = 0;    ///< slab entries dropped
  std::uint64_t result_hits = 0;       ///< memoized results served
  std::uint64_t result_misses = 0;     ///< memoization lookup misses
  std::uint64_t result_evictions = 0;  ///< memoized entries dropped
  std::uint64_t cache_resident_bytes = 0;    ///< both caches' bytes (gauge)
  std::uint64_t cache_resident_entries = 0;  ///< both caches' count (gauge)
  std::uint64_t snapshots_live = 0;     ///< registered snapshots (gauge)
  std::uint64_t snapshot_updates = 0;   ///< update_snapshot() generations
  std::uint64_t stale_rejections = 0;   ///< kStaleGeneration rejections

  // Out-of-core sharding aggregates across every completed run
  // (RunStats::shard_*): how often the sharded tier engaged and how hard
  // the byte budget squeezed it.
  std::uint64_t sharded_runs = 0;        ///< runs that took the shard path
  std::uint64_t shard_spills = 0;        ///< shard evictions under budget
  std::uint64_t shard_prefetch_hits = 0; ///< shards consumed pre-faulted

  // Failure-model counters (the hardened paths; see ARCHITECTURE.md
  // "Failure model"). All are degradations or typed rejections the server
  // survived, never aborts.
  std::uint64_t shard_corrupt_slabs = 0;  ///< slabs failing integrity
  std::uint64_t shard_repacks = 0;        ///< slabs rewritten from source
  std::uint64_t shard_degraded = 0;       ///< shards served resident (spill down)
  /// Spill-dir unlink/rmdir failures other than ENOENT during snapshot
  /// update/drop reclamation (leaked spill space an operator should see).
  std::uint64_t spill_reclaim_failures = 0;
  /// Jobs answered kDeadlineExceeded because their deadline passed while
  /// they were still queued (the work never ran).
  std::uint64_t deadline_expired = 0;
};

/// Thread-safe multi-client server over pooled Engines. All public methods
/// may be called concurrently from any thread.
class EngineServer {
 public:
  /// Starts the worker pool immediately.
  explicit EngineServer(ServerOptions opt = {});
  /// Graceful: equivalent to shutdown().
  ~EngineServer();

  EngineServer(const EngineServer&) = delete;             ///< not copyable
  EngineServer& operator=(const EngineServer&) = delete;  ///< not copyable

  /// Submits a rank request; the future resolves when a worker ran it (or
  /// immediately, with StatusCode::kUnavailable, if rejected).
  std::future<RunResult> submit(const RankRequest& req);
  /// Submits a scan under any registered operator -- ScanRequest and
  /// OpRequest are one type (same contract as the rank overload).
  /// Collapsing keys on the operator identity: only jobs with the same
  /// list, method, AND ScanOp share one engine run.
  std::future<RunResult> submit(const ScanRequest& req);
  /// Submits a unified request (same contract as the rank overload).
  std::future<RunResult> submit(Request req);
  /// Callback flavour of submit() for callers that must never block on a
  /// future -- the network event loop. `done` is invoked exactly once
  /// with the result: from a worker thread on completion, or inline from
  /// this call on rejection (full queue / shutdown, a kUnavailable
  /// result). The callback must be cheap and non-blocking (it runs on a
  /// worker's batch path); hand heavy work to another thread.
  void submit(Request req, std::function<void(RunResult&&)> done);

  // -- snapshot-addressed serving (the cross-request cache path) ---------

  /// Registers `list` as an immutable server-owned snapshot (generation
  /// 1) and fills `out` with its handle. Validates the list first when
  /// the engine options request input validation; malformed lists are
  /// rejected with kInvalidInput and nothing is registered.
  Status register_snapshot(LinkedList list, SnapshotHandle& out);
  /// Replaces snapshot `id`'s list, bumps its generation, invalidates
  /// every cached artifact of the id, and fills `out` with the new
  /// handle. After this returns, no request observes the old bytes as
  /// current: in-flight runs against the old generation finish coherently
  /// on them, new requests resolve to the new generation, and pinned
  /// old-generation requests are rejected as stale.
  Status update_snapshot(std::uint64_t id, LinkedList list,
                         SnapshotHandle& out);
  /// Retires snapshot `id` and drops its cached artifacts. Returns false
  /// if `id` is unknown. In-flight runs keep the old bytes alive.
  bool drop_snapshot(std::uint64_t id);
  /// Submits a snapshot-addressed request. A memoized result is answered
  /// inline (the future is already resolved on return); otherwise the
  /// job is queued like any other, carrying the pinned snapshot list and
  /// any cached slab. Stale pins and unknown ids resolve immediately to
  /// kStaleGeneration / kInvalidInput.
  std::future<RunResult> submit(const SnapshotRequest& req);
  /// Callback flavour of the snapshot submit (same contract as the
  /// Request callback overload; inline resolutions invoke `done` from
  /// this call).
  void submit(const SnapshotRequest& req,
              std::function<void(RunResult&&)> done);

  /// Stops accepting work, drains every queued job, joins the workers.
  /// Idempotent; concurrent callers all block until the drain finishes.
  void shutdown();
  /// Stops accepting work, fails queued-but-unstarted jobs with
  /// StatusCode::kUnavailable, joins the workers. Idempotent.
  void shutdown_now();

  /// True while the server accepts work; false once shutdown has begun
  /// (new submissions resolve to StatusCode::kUnavailable from then on).
  bool accepting() const { return !queue_.closed(); }
  /// Instantaneous queued-job count (telemetry; racy by nature).
  std::size_t queue_depth() const { return queue_.size(); }
  /// Number of worker threads serving this instance.
  std::size_t workers() const { return threads_.size(); }
  /// Snapshot of the serving counters.
  ServerStats stats() const;
  /// Zeroes every serving counter, including the pooled workspace
  /// allocation/reuse counters (which were monotonic-only before this
  /// existed) -- warmed buffers keep their capacity, so a reset never
  /// reintroduces allocations. Call at a quiescent point (no in-flight
  /// jobs); counts racing the reset may be lost, never corrupted.
  void reset_stats();
  /// The options the server was built with (workers resolved to >= 1).
  const ServerOptions& options() const { return opt_; }

 private:
  /// One queued unit of work: the request plus how to answer it -- a
  /// promise feeding the client's future, or (callback submissions) a
  /// completion function invoked in its place.
  struct Job {
    Request req;                     ///< what to run
    std::promise<RunResult> result;  ///< how to answer (future flavour)
    std::function<void(RunResult&&)> done;  ///< how to answer (callback)
    /// Snapshot jobs pin their immutable list here (req.list aliases it),
    /// so the bytes outlive update()/drop() races.
    std::shared_ptr<const LinkedList> pinned;
    std::uint64_t snapshot_id = 0;  ///< 0 = not a snapshot job
    std::uint64_t snapshot_generation = 0;  ///< generation req.list is
    /// Absolute expiry stamped at submit from req.deadline_ms (time_point
    /// max = no deadline). Workers answer kDeadlineExceeded without
    /// running when a popped job is already past it.
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max();

    /// Answers with `r` (consumed). Exactly one fulfil per job.
    void fulfill(RunResult&& r) {
      if (done) {
        done(std::move(r));
      } else {
        result.set_value(std::move(r));
      }
    }
    /// Answers with a copy of `r` (collapsed-duplicate fan-out).
    void fulfill_copy(const RunResult& r) {
      if (done) {
        done(RunResult(r));
      } else {
        result.set_value(r);
      }
    }
  };

  std::future<RunResult> submit_job(Job job, bool has_future);
  std::future<RunResult> submit_snapshot(const SnapshotRequest& req,
                                         std::function<void(RunResult&&)> done,
                                         bool has_future);
  void finish_snapshot_run(const Job& job, const Request& req, RunResult& r,
                           Engine& engine);
  void worker_loop();
  void join_workers(bool drain);

  ServerOptions opt_;            ///< resolved configuration
  BoundedQueue<Job> queue_;      ///< clients push, workers pop
  WorkspacePool pool_;           ///< one warmed engine per running batch
  SnapshotRegistry registry_;    ///< immutable generation-stamped lists
  /// Cross-request packed slabs per (snapshot, generation, ones-flag).
  LruCache<std::shared_ptr<const PackedSlab>> slab_cache_;
  /// Memoized results per (snapshot, generation, request shape).
  LruCache<std::shared_ptr<const RunResult>> result_cache_;
  std::vector<std::thread> threads_;  ///< the worker pool

  std::atomic<std::uint64_t> submitted_{0};   ///< accepted jobs
  std::atomic<std::uint64_t> rejected_{0};    ///< kUnavailable resolutions
  std::atomic<std::uint64_t> completed_{0};   ///< fulfilled promises
  std::atomic<std::uint64_t> batches_{0};     ///< engine batch calls
  std::atomic<std::uint64_t> coalesced_{0};   ///< jobs in shared batches
  std::atomic<std::uint64_t> collapsed_{0};   ///< duplicate jobs collapsed
  std::atomic<std::uint64_t> peak_batch_{0};  ///< largest batch seen
  std::atomic<std::uint64_t> intra_threads_peak_{0};  ///< max host_threads
  std::atomic<std::uint64_t> tier_legacy_runs_{0};  ///< kLegacy results
  std::atomic<std::uint64_t> tier_packed_runs_{0};  ///< kPackedCursors results
  std::atomic<std::uint64_t> rank_requests_{0};  ///< accepted rank jobs
  std::atomic<std::uint64_t> scan_requests_{0};  ///< accepted scan jobs
  std::atomic<std::uint64_t> snapshot_updates_{0};  ///< update_snapshot()s
  std::atomic<std::uint64_t> stale_rejections_{0};  ///< stale-pin rejects
  std::atomic<std::uint64_t> sharded_runs_{0};      ///< shard-path runs
  std::atomic<std::uint64_t> shard_spills_{0};      ///< budget evictions
  std::atomic<std::uint64_t> shard_prefetch_hits_{0};  ///< warm shard loads
  std::atomic<std::uint64_t> shard_corrupt_slabs_{0};  ///< integrity misses
  std::atomic<std::uint64_t> shard_repacks_{0};        ///< slab rewrites
  std::atomic<std::uint64_t> shard_degraded_{0};       ///< resident fallbacks
  std::atomic<std::uint64_t> spill_reclaim_failures_{0};  ///< leaked spills
  std::atomic<std::uint64_t> deadline_expired_{0};  ///< expired in queue

  std::mutex shutdown_mu_;        ///< serializes shutdown paths
  bool joined_ = false;           ///< workers already joined
};

}  // namespace lr90::serve

namespace lr90 {
/// The serving layer's primary types, re-exported at the library root.
using serve::EngineServer;
using serve::ServerOptions;
using serve::ServerStats;
using serve::SnapshotHandle;
using serve::SnapshotRequest;
}  // namespace lr90
