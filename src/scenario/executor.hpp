// Deterministic parallel fan-out of measurement tasks over worker-private
// Network replicas.
//
// Real measurement campaigns run vantage points concurrently; the paper's
// pipeline is embarrassingly parallel at the (endpoint, domain, protocol)
// grain. The executor makes that parallelism *deterministic*: every task
// is hermetic — before it runs, the worker's replica is reset to an epoch
// derived purely from the task's identity (via `Rng::fork()` substreams),
// so the result is a function of the task alone. Scheduling order, thread
// count and cursor interleaving can never leak into results, which is what
// lets the golden tests assert byte-identical JSON for 1, 2, 4, ... threads.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "core/thread_pool.hpp"
#include "netsim/engine.hpp"

namespace cen::scenario {

/// Resolve a PipelineOptions::threads value to a concrete worker count:
/// -1 (or any negative) = one worker per hardware thread, >= 1 = exactly
/// that many. 0 is the caller's serial-path sentinel and never reaches
/// the executor; it resolves to 1 defensively.
int resolve_threads(int requested);

/// Order-free identity hash of a hermetic task: FNV-1a over the domain
/// mixed with the endpoint and a small stage/protocol tag. Deliberately
/// not std::hash (implementation-defined) — seeds must be stable across
/// platforms and standard libraries.
std::uint64_t task_key(std::uint32_t endpoint, std::string_view domain,
                       std::uint64_t tag);

/// The domain-dependent half of task_key (FNV-1a over the bytes). Fan-outs
/// iterate endpoints x domains, so hashing each domain once and combining
/// with task_key_hashed() replaces O(endpoints x domains) string hashes
/// with O(domains).
std::uint64_t domain_hash(std::string_view domain);

/// task_key() with the domain hash precomputed. Identity:
/// task_key(e, d, t) == task_key_hashed(e, domain_hash(d), t) for all
/// inputs — locked by tests/test_parallel.cpp.
std::uint64_t task_key_hashed(std::uint32_t endpoint, std::uint64_t domain_hash,
                              std::uint64_t tag);

/// Substream seeds for an ordered task list. A base generator seeded from
/// (network seed, stage salt) is forked once per slot — the fork chain
/// encodes the task's position — and each fork's first draw is folded
/// with the task's identity key. Depends only on the list, never on how
/// the tasks are later scheduled.
std::vector<std::uint64_t> derive_task_seeds(std::uint64_t network_seed,
                                             std::uint64_t stage_salt,
                                             const std::vector<std::uint64_t>& keys);

/// Executor overhead accounting (host-clock — wall domain only). clone_ns
/// is always measured (one-time, construction); reset_ns is only sampled
/// when perf tracking is enabled, so the default hot loop takes no
/// per-task timestamps.
struct ExecutorPerf {
  std::atomic<std::uint64_t> clone_ns{0};  // replica construction (total)
  std::atomic<std::uint64_t> reset_ns{0};  // summed reset_epoch time
  std::atomic<std::uint64_t> tasks{0};     // tasks executed
  std::atomic<std::uint64_t> batches{0};   // chunks dispatched
};

class ParallelExecutor {
 public:
  /// Tasks claimed per dispatch (batched epochs): one cursor bump and one
  /// replica-pointer load per batch instead of per task. Purely a
  /// scheduling granularity — every task still gets its own hermetic
  /// sub-epoch (reset_epoch is a cheap RNG re-seed + dirty-state
  /// rollback), so results are byte-identical for ANY batch size.
  static constexpr std::size_t kDefaultBatch = 16;

  /// Clone one replica of `prototype` per worker. The prototype is only
  /// read during construction; afterwards workers touch only their own
  /// replica.
  ParallelExecutor(const sim::Network& prototype, int threads);

  int threads() const { return pool_.size(); }

  /// Attach (or detach with nullptr) a PoolStats sink on the underlying
  /// pool. Must not be called while a run() is in flight.
  void set_stats(PoolStats* stats) { pool_.set_stats(stats); }

  /// Override the batch size (0 is clamped to 1). Affects scheduling
  /// only, never results.
  void set_batch(std::size_t batch) { batch_ = batch == 0 ? 1 : batch; }
  std::size_t batch() const { return batch_; }

  /// Enable per-task reset_epoch timing (disabled by default; the
  /// --perf-report path turns it on).
  void set_perf_tracking(bool enabled) { perf_tracking_ = enabled; }
  const ExecutorPerf& perf() const { return perf_; }

  /// Aggregate ECMP path-cache statistics over all worker replicas
  /// (scheduling-dependent — wall-domain reporting only).
  std::uint64_t path_cache_hits() const;
  std::uint64_t path_cache_misses() const;
  /// Whole-graph BFS runs over all replicas: one per (replica, source).
  std::uint64_t path_searches() const;

  /// Run one hermetic task per seed: task i executes fn(replica, i) on a
  /// worker-private replica freshly reset_epoch(seeds[i]). fn must write
  /// its result into a caller-owned per-index slot (no shared mutable
  /// state). Blocks until every task completed.
  void run(const std::vector<std::uint64_t>& seeds,
           const std::function<void(sim::Network&, std::size_t)>& fn);

 private:
  ThreadPool pool_;
  std::vector<std::unique_ptr<sim::Network>> replicas_;
  std::size_t batch_ = kDefaultBatch;
  bool perf_tracking_ = false;
  ExecutorPerf perf_;
};

}  // namespace cen::scenario
