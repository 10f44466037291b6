#include "replica/replica_set.hpp"

#include <algorithm>
#include <tuple>

#include "fault/injection.hpp"

namespace sdb::replica {

namespace {
using Op = dbscan::IncrementalDbscan::BatchOp;
}  // namespace

ReplicaSet::ReplicaSet(Options options, int dim)
    : options_(std::move(options)), dim_(dim) {
  SDB_CHECK(options_.replicas >= 1, "a replica set needs at least one node");
  nodes_.reserve(options_.replicas);
  for (size_t i = 0; i < options_.replicas; ++i) {
    serve::ModelRegistry::Config cfg = options_.registry;
    cfg.replicated = true;
    cfg.role = i == 0 ? serve::RegistryRole::kPrimary
                      : serve::RegistryRole::kFollower;
    cfg.wal_dir = node_dir(i);
    auto node = std::make_unique<Node>();
    auto registry = std::make_shared<serve::ModelRegistry>(cfg, dim);
    if (i != 0) node->applier = std::make_unique<Applier>(registry);
    node->registry.store(registry, std::memory_order_release);
    nodes_.push_back(std::move(node));
  }
  std::shared_ptr<serve::ModelRegistry> primary =
      nodes_[0]->registry.load(std::memory_order_relaxed);
  relay_ = std::make_unique<Relay>(primary, term_, options_.batch_records,
                                   options_.pipeline_batches);
  // The construction epoch (1, the empty model — or the recovered committed
  // epoch when restarting over durable WALs) is committed by definition:
  // its kPublish marker is the stream's own base, deterministic for every
  // node that replays it.
  const u64 e = primary->epoch();
  committed_epoch_.store(e, std::memory_order_release);
  committed_model_.store(primary->model(), std::memory_order_release);
  last_noted_epoch_ = e;
}

std::string ReplicaSet::node_dir(size_t node) const {
  if (options_.dir.empty()) return std::string();
  return options_.dir + "/node_" + std::to_string(node);
}

std::shared_ptr<serve::ModelRegistry> ReplicaSet::live_primary_locked() const {
  const Node& n = *nodes_[primary_index_.load(std::memory_order_relaxed)];
  if (!n.alive.load(std::memory_order_relaxed)) return nullptr;
  return n.registry.load(std::memory_order_relaxed);
}

std::optional<PointId> ReplicaSet::insert(std::span<const double> coords) {
  const std::scoped_lock lock(mu_);
  std::shared_ptr<serve::ModelRegistry> primary = live_primary_locked();
  if (primary == nullptr) return std::nullopt;
  const Op op = Op::make_insert(coords);
  const PointId id = primary->apply_batch({&op, 1})[0].id;
  note_publishes_locked();  // publish_every cadence may have fired
  return id;
}

bool ReplicaSet::try_remove(PointId id) {
  const std::scoped_lock lock(mu_);
  std::shared_ptr<serve::ModelRegistry> primary = live_primary_locked();
  if (primary == nullptr) return false;
  const Op op = Op::make_remove(id);
  const bool removed = primary->apply_batch({&op, 1})[0].applied;
  note_publishes_locked();
  return removed;
}

std::optional<u64> ReplicaSet::publish() {
  const std::scoped_lock lock(mu_);
  std::shared_ptr<serve::ModelRegistry> primary = live_primary_locked();
  if (primary == nullptr) return std::nullopt;
  const u64 e = primary->publish();
  note_publishes_locked();
  return e;
}

std::optional<u64> ReplicaSet::compact() {
  const std::scoped_lock lock(mu_);
  std::shared_ptr<serve::ModelRegistry> primary = live_primary_locked();
  if (primary == nullptr) return std::nullopt;
  const u64 e = primary->compact();
  note_publishes_locked();
  return e;
}

void ReplicaSet::note_publishes_locked() {
  std::shared_ptr<serve::ModelRegistry> primary = live_primary_locked();
  if (primary == nullptr) return;
  // Epochs are sequential, so at most a handful are new since last noted;
  // each pending entry retains the exact model published at that epoch
  // (the registry only exposes the newest, and commit must install the
  // model MATCHING the committed epoch, not whatever is newest by then).
  const u64 e = primary->epoch();
  if (e > last_noted_epoch_) {
    // Only the newest model is observable; intermediate epochs (publish
    // cadence firing more than once between notes cannot happen — every
    // write notes) would be a bookkeeping bug.
    SDB_CHECK(e == last_noted_epoch_ + 1,
              "missed a publish between replication notes");
    pending_.push_back(PendingEpoch{e, primary->model()});
    last_noted_epoch_ = e;
  }
}

void ReplicaSet::pump() {
  const std::scoped_lock lock(mu_);
  const size_t primary_idx = primary_index_.load(std::memory_order_relaxed);
  const bool primary_live =
      nodes_[primary_idx]->alive.load(std::memory_order_relaxed);
  for (size_t i = 0; i < nodes_.size(); ++i) {
    Node& node = *nodes_[i];
    if (i == primary_idx || !node.alive.load(std::memory_order_relaxed)) {
      continue;
    }
    if (primary_live && relay_ != nullptr) {
      relay_->pump(*node.applier, node.transport);
    }
    // Drain the channel even with the primary dead: frames already in
    // flight are valid prefix data (or get term-fenced after promotion).
    while (std::optional<std::vector<char>> frame = node.transport.receive()) {
      node.applier->offer(*frame);
    }
  }
  advance_commits_locked();
}

void ReplicaSet::advance_commits_locked() {
  size_t live_followers = 0;
  const size_t primary_idx = primary_index_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (i != primary_idx && nodes_[i]->alive.load(std::memory_order_relaxed)) {
      ++live_followers;
    }
  }
  const size_t required = std::min(options_.ack_replicas, live_followers);
  while (!pending_.empty()) {
    const PendingEpoch& p = pending_.front();
    size_t acks = 0;
    for (size_t i = 0; i < nodes_.size(); ++i) {
      if (i == primary_idx || !nodes_[i]->alive.load(std::memory_order_relaxed))
        continue;
      if (nodes_[i]->applier->applied_epoch() >= p.epoch) ++acks;
    }
    if (acks < required) break;
    committed_epoch_.store(p.epoch, std::memory_order_release);
    committed_model_.store(p.model, std::memory_order_release);
    pending_.pop_front();
  }
}

void ReplicaSet::tick() {
  const std::scoped_lock lock(mu_);
  ++now_;
  const size_t primary_idx = primary_index_.load(std::memory_order_relaxed);
  if (nodes_[primary_idx]->alive.load(std::memory_order_relaxed)) {
    if (SDB_INJECT("replica.primary.kill")) {
      kill_primary_locked();
    } else {
      last_primary_heartbeat_ = now_;
    }
    return;
  }
  if (now_ - last_primary_heartbeat_ > options_.heartbeat_timeout) {
    maybe_promote_locked();
  }
}

void ReplicaSet::kill_primary() {
  const std::scoped_lock lock(mu_);
  kill_primary_locked();
}

void ReplicaSet::kill_primary_locked() {
  Node& n = *nodes_[primary_index_.load(std::memory_order_relaxed)];
  if (!n.alive.load(std::memory_order_relaxed)) return;
  // SIGKILL semantics: the process is gone mid-stream. In-flight frames it
  // already sent stay in the transports (the network does not die with the
  // sender); its durable WAL stays on disk. Readers holding the old
  // registry's model finish on it (RCU); new reads see the null and
  // redirect to the committed model.
  n.alive.store(false, std::memory_order_relaxed);
  n.registry.store(nullptr, std::memory_order_release);
  relay_.reset();
}

void ReplicaSet::maybe_promote_locked() {
  // Promote the live follower with the most stream: max (applied epoch,
  // generation, next_seq). By the prefix property every other live
  // follower's log is a prefix of the winner's, so shipping resumes from
  // their cursors with no divergence repair.
  size_t best = nodes_.size();
  std::tuple<u64, u64, u64> best_pos{0, 0, 0};
  const size_t primary_idx = primary_index_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < nodes_.size(); ++i) {
    Node& node = *nodes_[i];
    if (i == primary_idx || !node.alive.load(std::memory_order_relaxed)) {
      continue;
    }
    const serve::ModelRegistry::StreamCursor cur = node.applier->cursor();
    const std::tuple<u64, u64, u64> pos{node.applier->applied_epoch(),
                                        cur.generation, cur.next_seq};
    if (best == nodes_.size() || pos > best_pos) {
      best = i;
      best_pos = pos;
    }
  }
  if (best == nodes_.size()) return;  // nobody left to promote

  Node& winner = *nodes_[best];
  std::shared_ptr<serve::ModelRegistry> registry =
      winner.registry.load(std::memory_order_relaxed);
  const u64 epoch = registry->promote_to_primary();
  ++term_;  // fences the dead primary's still-in-flight frames
  winner.applier.reset();
  winner.transport.clear();
  relay_ = std::make_unique<Relay>(registry, term_, options_.batch_records,
                                   options_.pipeline_batches);
  primary_index_.store(best, std::memory_order_release);
  last_primary_heartbeat_ = now_;
  failovers_.fetch_add(1, std::memory_order_relaxed);
  // Everything the winner applied is now the authoritative history; its
  // epoch can only be >= the committed watermark (the winner is the max
  // follower, and committed required a follower ack). Epochs the dead
  // primary published beyond this were never committed, never served
  // (primary reads serve the committed model), and are silently reassigned
  // by the new primary's future publishes.
  pending_.clear();
  if (epoch >= committed_epoch_.load(std::memory_order_relaxed)) {
    committed_epoch_.store(epoch, std::memory_order_release);
    committed_model_.store(registry->model(), std::memory_order_release);
  }
  last_noted_epoch_ = epoch;
}

ReplicaSet::ClassifyResult ReplicaSet::classify(std::span<const double> point,
                                                size_t preferred_node) const {
  const size_t n = preferred_node % nodes_.size();
  const u64 committed = committed_epoch_.load(std::memory_order_acquire);
  // Primary-targeted reads serve the committed model: a pending epoch may
  // die un-replicated with its primary, and an epoch that was never served
  // can be safely reassigned after failover.
  const bool to_primary = n == primary_index_.load(std::memory_order_acquire);
  std::shared_ptr<serve::ModelRegistry> registry =
      to_primary ? nullptr : nodes_[n]->registry.load(std::memory_order_acquire);
  if (registry != nullptr) {
    std::shared_ptr<const serve::ClusterModel> model = registry->model();
    if (committed <= model->epoch() + options_.staleness_bound) {
      return ClassifyResult{model->classify(point), model->epoch(), false};
    }
  }
  // Dead node, primary target, or staleness bound exceeded: serve the
  // committed model (always present, retained across failovers).
  stale_redirects_.fetch_add(!to_primary, std::memory_order_relaxed);
  std::shared_ptr<const serve::ClusterModel> model =
      committed_model_.load(std::memory_order_acquire);
  return ClassifyResult{model->classify(point), model->epoch(), !to_primary};
}

bool ReplicaSet::has_live_primary() const {
  return nodes_[primary_index_.load(std::memory_order_acquire)]->alive.load(
      std::memory_order_acquire);
}

bool ReplicaSet::alive(size_t node) const {
  return nodes_[node]->alive.load(std::memory_order_acquire);
}

u64 ReplicaSet::term() const {
  const std::scoped_lock lock(mu_);
  return term_;
}

std::shared_ptr<serve::ModelRegistry> ReplicaSet::node_registry(
    size_t node) const {
  return nodes_[node]->registry.load(std::memory_order_acquire);
}

Applier::Stats ReplicaSet::applier_stats(size_t node) const {
  const std::scoped_lock lock(mu_);
  return nodes_[node]->applier != nullptr ? nodes_[node]->applier->stats()
                                          : Applier::Stats{};
}

ShipTransport::Stats ReplicaSet::transport_stats(size_t node) const {
  const std::scoped_lock lock(mu_);
  return nodes_[node]->transport.stats();
}

}  // namespace sdb::replica
