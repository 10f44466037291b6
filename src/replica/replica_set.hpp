// ReplicaSet — one shard's replication group: a primary ModelRegistry, N-1
// followers fed by WAL shipping, a quorum-ack commit rule, and a heartbeat
// failover monitor. This is the tentpole of the replicated serving tier.
//
// ## Topology
//
// Node 0 starts as primary (term 1). Every node keeps a stream log (its
// RegistryWal — durable when Options::dir is set, in-memory otherwise). The
// primary's relay ships log records to each follower over a per-follower
// ShipTransport; each follower's Applier enforces the stream discipline
// (applier.hpp). `pump()` runs one replication round; `tick()` advances the
// failure-detector clock. Both are driven by the host loop (bench, tests,
// CLI) — the subsystem owns no threads, which is what makes the chaos grid
// deterministic.
//
// ## The prefix property (why failover cannot diverge)
//
// A follower's log is forced to the primary's stream coordinates: snapshot
// install resets it to (generation, 0), and afterwards the applier appends
// EXACTLY the shipped records in seq order — followers never append
// anything of their own (even recovery republishes without logging, see
// ModelRegistry). Hence every live follower's log is a byte prefix of the
// true stream. Failover promotes the follower with the MOST stream —
// max (applied epoch, generation, next_seq) — so every other live
// follower's log is a prefix of the NEW primary's log too, and shipping
// simply resumes from their cursors. No Raft-style divergence repair is
// needed under the single-failure model (only the primary dies).
//
// ## Commit rule and the read contract
//
// A published epoch is *pending* until at least min(ack_replicas, live
// followers) followers have applied it; then it is *committed*. Reads
// aimed at the primary serve the newest COMMITTED model — never a
// pending one — so an epoch that dies with its primary was never served
// and can be silently reassigned by the successor. Reads aimed at a
// follower serve the follower's own applied model (safe: that replica
// holds the bytes; an epoch applied anywhere is, by the prefix property,
// content-identical everywhere it appears) — unless it lags the committed
// epoch by more than Options::staleness_bound, in which case the read
// redirects to the committed model and is counted. During a failover
// window reads keep being served from the retained committed model:
// availability for reads, unavailability for writes (insert/publish return
// nullopt until promotion).
//
// ## Failure model
//
// Channel faults (drop/duplicate/reorder/corrupt) and primary SIGKILL, via
// fault sites — `replica.primary.kill` is consulted on each heartbeat, so a
// seeded FaultPlan decides when the primary dies. One failure at a time;
// deposed primaries do not rejoin (their durable WAL can still be audited
// offline, which tests/test_replica_chaos.cpp does). Term fencing keeps a
// dead primary's in-flight frames from rewriting anyone after promotion.
#pragma once

#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "replica/applier.hpp"
#include "replica/relay.hpp"
#include "replica/wal_ship.hpp"
#include "serve/cluster_model.hpp"
#include "serve/model_registry.hpp"

namespace sdb::replica {

class ReplicaSet {
 public:
  struct Options {
    size_t replicas = 3;
    /// Max epochs a follower read may lag the committed epoch before the
    /// read redirects to the committed model.
    u64 staleness_bound = 4;
    /// Ticks without a primary heartbeat before a follower is promoted.
    u64 heartbeat_timeout = 3;
    /// Followers that must apply an epoch before it commits (clamped to
    /// the live follower count; 0 = commit on publish, primary-only).
    size_t ack_replicas = 1;
    size_t batch_records = 64;    ///< stream records per shipped frame
    size_t pipeline_batches = 2;  ///< frames in flight per pump per follower
    /// Durable node WALs under `<dir>/node_<i>` (empty = in-memory logs).
    std::string dir;
    /// Per-node registry settings (role/wal_dir/replicated are overridden).
    serve::ModelRegistry::Config registry;
  };

  /// One routed read. `epoch` is the epoch of the model that answered;
  /// `redirected` marks reads the preferred replica could not serve within
  /// the staleness contract (served from the committed model instead).
  struct ClassifyResult {
    ClusterId cluster = kNoise;
    u64 epoch = 0;
    bool redirected = false;
  };

  ReplicaSet(Options options, int dim);

  /// --- writes (routed to the primary as single-op apply_batch calls;
  /// nullopt while failed over) ---
  [[nodiscard]] std::optional<PointId> insert(std::span<const double> coords);
  bool try_remove(PointId id);
  [[nodiscard]] std::optional<u64> publish();
  /// Compact the primary's log into a snapshot generation (lagging
  /// followers will catch up via the snapshot handshake).
  [[nodiscard]] std::optional<u64> compact();

  /// --- replication / failure-detection driver ---
  /// One replication round: ship to every live follower, drain and apply
  /// every channel, advance the commit watermark.
  void pump();
  /// One failure-detector beat: heartbeat the primary (or let the
  /// `replica.primary.kill` fault site kill it) and promote a follower once
  /// the heartbeat has been silent past the timeout.
  void tick();
  /// Simulate SIGKILL of the primary process: its in-memory registry is
  /// gone mid-stream, no goodbye. (Its durable WAL, if any, stays on disk.)
  void kill_primary();

  /// --- reads (lock-free; any thread, concurrent with the driver) ---
  [[nodiscard]] ClassifyResult classify(std::span<const double> point,
                                        size_t preferred_node) const;
  [[nodiscard]] u64 committed_epoch() const {
    return committed_epoch_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::shared_ptr<const serve::ClusterModel> committed_model()
      const {
    return committed_model_.load(std::memory_order_acquire);
  }

  /// --- observability / test surface ---
  [[nodiscard]] size_t replicas() const { return nodes_.size(); }
  [[nodiscard]] size_t primary_index() const {
    return primary_index_.load(std::memory_order_acquire);
  }
  [[nodiscard]] bool has_live_primary() const;
  [[nodiscard]] bool alive(size_t node) const;
  [[nodiscard]] u64 term() const;
  [[nodiscard]] u64 failovers() const {
    return failovers_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] u64 stale_redirects() const {
    return stale_redirects_.load(std::memory_order_relaxed);
  }
  /// The node's registry (null when the node is dead).
  [[nodiscard]] std::shared_ptr<serve::ModelRegistry> node_registry(
      size_t node) const;
  [[nodiscard]] Applier::Stats applier_stats(size_t node) const;
  [[nodiscard]] ShipTransport::Stats transport_stats(size_t node) const;
  [[nodiscard]] std::string node_dir(size_t node) const;

 private:
  struct Node {
    std::atomic<std::shared_ptr<serve::ModelRegistry>> registry{nullptr};
    std::unique_ptr<Applier> applier;  ///< null on the primary
    ShipTransport transport;           ///< primary -> this follower
    std::atomic<bool> alive{true};
  };
  struct PendingEpoch {
    u64 epoch = 0;
    std::shared_ptr<const serve::ClusterModel> model;
  };

  void note_publishes_locked();
  void advance_commits_locked();
  void kill_primary_locked();
  void maybe_promote_locked();
  [[nodiscard]] std::shared_ptr<serve::ModelRegistry> live_primary_locked()
      const;

  Options options_;
  int dim_;
  mutable std::mutex mu_;  // guards the driver/write side + pending_
  std::vector<std::unique_ptr<Node>> nodes_;
  std::unique_ptr<Relay> relay_;  ///< null while no live primary
  u64 term_ = 1;
  u64 now_ = 0;
  u64 last_primary_heartbeat_ = 0;
  /// Published-but-not-yet-quorum-acked epochs, oldest first.
  std::deque<PendingEpoch> pending_;
  u64 last_noted_epoch_ = 0;

  std::atomic<size_t> primary_index_{0};
  std::atomic<u64> committed_epoch_{0};
  std::atomic<std::shared_ptr<const serve::ClusterModel>> committed_model_;
  std::atomic<u64> failovers_{0};
  mutable std::atomic<u64> stale_redirects_{0};
};

}  // namespace sdb::replica
