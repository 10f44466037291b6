#include "stream/ingest_pipeline.hpp"

#include <algorithm>

#include "fault/injection.hpp"

namespace sdb::stream {

using dbscan::IncrementalDbscan;

const char* rung_name(LadderRung rung) {
  switch (rung) {
    case LadderRung::kHealthy: return "healthy";
    case LadderRung::kPressured: return "pressured";
    case LadderRung::kDegraded: return "degraded";
    case LadderRung::kShedding: return "shedding";
  }
  return "?";
}

IngestPipeline::IngestPipeline(serve::ModelRegistry& registry, Config config)
    : registry_(registry),
      config_(std::move(config)),
      base_rebuild_threshold_(registry.rebuild_threshold()) {
  SDB_CHECK(config_.queue_capacity > 0, "queue capacity must be positive");
  SDB_CHECK(config_.batch_max > 0, "batch_max must be positive");
  SDB_CHECK(config_.publish_every_batches > 0 &&
                config_.pressured_publish_every > 0,
            "publish cadences must be positive");
  SDB_CHECK(config_.lag_capacity > 0.0, "lag_capacity must be positive");
  SDB_CHECK(config_.pressured_enter <= config_.degraded_enter &&
                config_.degraded_enter <= config_.shedding_enter,
            "enter watermarks must be non-decreasing up the ladder");
  SDB_CHECK(config_.pressured_exit < config_.pressured_enter &&
                config_.degraded_exit < config_.degraded_enter &&
                config_.shedding_exit < config_.shedding_enter,
            "exit watermarks must sit below their enter watermarks");
  SDB_CHECK(config_.degraded_core_fraction > 0.0 &&
                config_.degraded_core_fraction <= 1.0,
            "degraded_core_fraction must be in (0, 1]");
  batcher_ = std::thread(&IngestPipeline::batcher_main, this);
}

IngestPipeline::~IngestPipeline() { stop(); }

SubmitResult IngestPipeline::submit_insert(std::span<const double> coords) {
  SDB_CHECK(static_cast<int>(coords.size()) == registry_.dim(),
            "submit_insert: dimension mismatch");
  return submit(IncrementalDbscan::BatchOp::make_insert(coords));
}

SubmitResult IngestPipeline::submit_remove(PointId id) {
  // Invalid/stale ids are acknowledged applied=false at apply time — a
  // malformed client write must not be able to kill the pipeline.
  return submit(IncrementalDbscan::BatchOp::make_remove(id));
}

SubmitResult IngestPipeline::submit(IncrementalDbscan::BatchOp op) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  const std::scoped_lock lock(mu_);
  // Pressure may have built while the batcher is mid-epoch (or stalled by a
  // fault): escalation is evaluated at admission so shedding engages at its
  // watermark, not at queue-full.
  maybe_escalate_locked(batch_seq_);
  SubmitResult result;
  result.rung = rung_.load(std::memory_order_relaxed);
  if (stopping_ || result.rung == LadderRung::kShedding ||
      queue_.size() >= config_.queue_capacity) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    result.retry_after_ms = config_.retry_after_ms;
    return result;
  }
  result.accepted = true;
  result.ticket = next_ticket_++;
  queue_.push_back(Pending{std::move(op), result.ticket});
  const u64 depth = queue_.size();
  u64 prev = max_queue_depth_.load(std::memory_order_relaxed);
  while (depth > prev && !max_queue_depth_.compare_exchange_weak(
                             prev, depth, std::memory_order_relaxed)) {
  }
  accepted_.fetch_add(1, std::memory_order_relaxed);
  cv_.notify_one();
  return result;
}

void IngestPipeline::batcher_main() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    const auto ready = [this] {
      return stopping_ || drain_requested_ || !queue_.empty();
    };
    // While lag is pending or the ladder is engaged, wake on a timer even
    // with an empty queue: an idle pipeline must still publish trailing lag
    // (a skipped publish must not strand the ladder at a high rung) and
    // walk back down to healthy.
    if (lag_.load(std::memory_order_relaxed) > 0 ||
        rung_.load(std::memory_order_relaxed) != LadderRung::kHealthy) {
      cv_.wait_for(lock, std::chrono::microseconds(config_.batch_deadline_us),
                   ready);
    } else {
      cv_.wait(lock, ready);
    }
    if (queue_.empty()) {
      const bool barrier = drain_requested_ || stopping_;
      lock.unlock();
      if (lag_.load(std::memory_order_relaxed) > 0) {
        if (barrier) {
          // drain/stop is the explicit barrier: fault plans do not gate it.
          publish_now();
        } else if (SDB_INJECT("stream.publish.delay")) {
          publish_skips_.fetch_add(1, std::memory_order_relaxed);
        } else {
          publish_now();
        }
      }
      lock.lock();
      recover_and_republish(lock, batch_seq_);
      // Re-check emptiness: submits may have landed while unlocked.
      if (queue_.empty()) {
        if (drain_requested_) {
          drain_requested_ = false;
          cv_drained_.notify_all();
        }
        if (stopping_) return;
      }
      continue;
    }
    // Fault: bounded batcher stall — queue depth builds while we sleep,
    // which is how chaos runs push the ladder up without a real overload.
    lock.unlock();
    if (SDB_INJECT("stream.queue.stall")) {
      stalls_.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(
          std::chrono::microseconds(config_.stall_micros));
    }
    lock.lock();
    // Form a micro-epoch: take what is queued, up to the rung's cap; when
    // short of the cap, wait out the deadline for more to coalesce.
    const size_t cap = batch_cap();
    const auto deadline =
        Clock::now() + std::chrono::microseconds(config_.batch_deadline_us);
    std::vector<Pending> batch;
    batch.reserve(std::min(cap, queue_.size()));
    for (;;) {
      while (!queue_.empty() && batch.size() < cap) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      if (batch.size() >= cap || stopping_ || drain_requested_) break;
      const bool woke = cv_.wait_until(lock, deadline, [this] {
        return stopping_ || drain_requested_ || !queue_.empty();
      });
      if (!woke) break;  // deadline: ship the partial micro-epoch
    }
    if (batch.empty()) continue;
    const u64 seq = ++batch_seq_;
    applying_ = true;
    lock.unlock();
    apply_one_batch(seq, std::move(batch));
    lock.lock();
    maybe_escalate_locked(seq);
    recover_and_republish(lock, seq);
    applying_ = false;
    cv_drained_.notify_all();
  }
}

void IngestPipeline::apply_one_batch(u64 seq, std::vector<Pending> batch) {
  batched_ops_.fetch_add(batch.size(), std::memory_order_relaxed);
  if (SDB_INJECT("stream.batch.drop")) {
    // NACK the whole micro-epoch BEFORE anything is applied: every op acks
    // dropped=true so producers resubmit. An acknowledged (applied) write
    // can never be dropped — the fault gate sits strictly upstream of the
    // registry.
    dropped_batches_.fetch_add(1, std::memory_order_relaxed);
    nacked_.fetch_add(batch.size(), std::memory_order_relaxed);
    if (config_.on_ack) {
      const u64 epoch = registry_.epoch();
      for (Pending& pending : batch) {
        Ack ack;
        ack.ticket = pending.ticket;
        ack.batch_seq = seq;
        ack.dropped = true;
        ack.op = std::move(pending.op);
        ack.id = ack.op.kind == IncrementalDbscan::BatchOp::Kind::kRemove
                     ? ack.op.id
                     : -1;
        ack.epoch = epoch;
        config_.on_ack(ack);
      }
    }
    return;
  }
  std::vector<IncrementalDbscan::BatchOp> ops;
  ops.reserve(batch.size());
  for (Pending& pending : batch) ops.push_back(std::move(pending.op));
  const std::vector<IncrementalDbscan::BatchResult> results =
      registry_.apply_batch(ops);
  batches_.fetch_add(1, std::memory_order_relaxed);
  u64 applied_count = 0;
  for (const IncrementalDbscan::BatchResult& r : results) {
    if (r.applied) ++applied_count;
  }
  lag_.fetch_add(applied_count, std::memory_order_relaxed);
  acked_.fetch_add(applied_count, std::memory_order_relaxed);
  nacked_.fetch_add(batch.size() - applied_count, std::memory_order_relaxed);
  if (config_.on_ack) {
    // Canonical apply order: the micro-epoch's inserts first (op order),
    // then its removes — replaying acked micro-epochs through apply_batch
    // reproduces the registry's state bit-exactly.
    const u64 epoch = registry_.epoch();
    for (int pass = 0; pass < 2; ++pass) {
      for (size_t i = 0; i < ops.size(); ++i) {
        const bool is_insert =
            ops[i].kind == IncrementalDbscan::BatchOp::Kind::kInsert;
        if (is_insert != (pass == 0)) continue;
        Ack ack;
        ack.ticket = batch[i].ticket;
        ack.batch_seq = seq;
        ack.applied = results[i].applied;
        ack.op = std::move(ops[i]);
        ack.id = results[i].id;
        ack.epoch = epoch;
        config_.on_ack(ack);
      }
    }
  }
  // A micro-epoch that changed nothing (every op an invalid remove) does
  // not count toward the cadence: publishing would rebuild an identical
  // model under a new epoch.
  if (applied_count > 0 && ++batches_since_publish_ >= publish_cadence()) {
    if (SDB_INJECT("stream.publish.delay")) {
      // Skip the due publish: readers keep the stale epoch and the lag
      // watermark grows until the ladder reacts or the plan lifts.
      publish_skips_.fetch_add(1, std::memory_order_relaxed);
    } else {
      publish_now();
      batches_since_publish_ = 0;
    }
  }
}

void IngestPipeline::publish_now() {
  registry_.publish();
  lag_.store(0, std::memory_order_relaxed);  // batcher-thread only
  publishes_.fetch_add(1, std::memory_order_relaxed);
}

void IngestPipeline::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drain_requested_ = true;
  cv_.notify_all();
  cv_drained_.wait(lock, [this] {
    return queue_.empty() && !applying_ && !drain_requested_;
  });
}

void IngestPipeline::stop() {
  {
    const std::scoped_lock lock(mu_);
    if (stopping_) {
      // Second stop: the batcher is already gone or going; fall through to
      // the (idempotent) join.
    }
    stopping_ = true;
  }
  cv_.notify_all();
  if (batcher_.joinable()) batcher_.join();
}

double IngestPipeline::pressure_locked() const {
  const double queue_fraction =
      static_cast<double>(queue_.size()) /
      static_cast<double>(config_.queue_capacity);
  const double lag_fraction =
      static_cast<double>(lag_.load(std::memory_order_relaxed)) /
      config_.lag_capacity;
  return std::max(queue_fraction, lag_fraction);
}

double IngestPipeline::enter_watermark(LadderRung rung) const {
  switch (rung) {
    case LadderRung::kHealthy: return 0.0;
    case LadderRung::kPressured: return config_.pressured_enter;
    case LadderRung::kDegraded: return config_.degraded_enter;
    case LadderRung::kShedding: return config_.shedding_enter;
  }
  return 0.0;
}

double IngestPipeline::exit_watermark(LadderRung rung) const {
  switch (rung) {
    case LadderRung::kHealthy: return 0.0;
    case LadderRung::kPressured: return config_.pressured_exit;
    case LadderRung::kDegraded: return config_.degraded_exit;
    case LadderRung::kShedding: return config_.shedding_exit;
  }
  return 0.0;
}

void IngestPipeline::maybe_escalate_locked(u64 batch_seq) {
  const double pressure = pressure_locked();
  LadderRung current = rung_.load(std::memory_order_relaxed);
  LadderRung target = current;
  for (u32 r = static_cast<u32>(current) + 1; r < kLadderRungs; ++r) {
    if (pressure >= enter_watermark(static_cast<LadderRung>(r))) {
      target = static_cast<LadderRung>(r);
    }
  }
  // Jump straight to the demanded rung, one edge at a time so every rung's
  // enter action runs and every edge emits its own event.
  while (static_cast<u32>(current) < static_cast<u32>(target)) {
    const LadderRung next =
        static_cast<LadderRung>(static_cast<u32>(current) + 1);
    switch (next) {
      case LadderRung::kPressured:
        registry_.set_rebuild_threshold(base_rebuild_threshold_ *
                                        config_.deferred_rebuild_factor);
        break;
      case LadderRung::kDegraded:
        registry_.set_core_sample_fraction(config_.degraded_core_fraction);
        break;
      default:
        break;  // kShedding: pure admission gate, no registry knob
    }
    record_transition_locked(current, next, batch_seq, pressure);
    rung_.store(next, std::memory_order_release);
    current = next;
  }
}

void IngestPipeline::recover_and_republish(std::unique_lock<std::mutex>& lock,
                                           u64 batch_seq) {
  if (!maybe_recover_locked(batch_seq)) return;
  // Leaving kDegraded restored the full core fraction, but the serving
  // snapshot is still the subsampled one, and an idle pipeline publishes
  // only trailing lag: publish a full-fraction snapshot now, outside mu_
  // like every other publish. `applying_` (or the pending drain request)
  // keeps drain() waiting until it is out.
  lock.unlock();
  publish_now();
  lock.lock();
}

bool IngestPipeline::maybe_recover_locked(u64 batch_seq) {
  bool left_degraded = false;
  for (;;) {
    const LadderRung current = rung_.load(std::memory_order_relaxed);
    if (current == LadderRung::kHealthy) return left_degraded;
    const double pressure = pressure_locked();
    const bool idle =
        queue_.empty() && lag_.load(std::memory_order_relaxed) == 0;
    if (!idle && pressure > exit_watermark(current)) return left_degraded;
    const LadderRung next =
        static_cast<LadderRung>(static_cast<u32>(current) - 1);
    switch (current) {
      case LadderRung::kPressured:
        registry_.set_rebuild_threshold(base_rebuild_threshold_);
        break;
      case LadderRung::kDegraded:
        registry_.set_core_sample_fraction(1.0);
        left_degraded = true;
        break;
      default:
        break;
    }
    record_transition_locked(current, next, batch_seq, pressure);
    rung_.store(next, std::memory_order_release);
    // One rung per evaluation under load; a fully idle pipeline walks all
    // the way back to healthy.
    if (!idle) return left_degraded;
  }
}

void IngestPipeline::record_transition_locked(LadderRung from, LadderRung to,
                                              u64 batch_seq, double pressure) {
  if (static_cast<u32>(to) > static_cast<u32>(from)) {
    transitions_up_.fetch_add(1, std::memory_order_relaxed);
  } else {
    transitions_down_.fetch_add(1, std::memory_order_relaxed);
  }
  rung_entries_[static_cast<size_t>(to)].fetch_add(1,
                                                   std::memory_order_relaxed);
  LadderTransition event;
  event.from = from;
  event.to = to;
  event.seq = ++transition_seq_;
  event.batch_seq = batch_seq;
  event.queue_depth = queue_.size();
  event.lag = lag_.load(std::memory_order_relaxed);
  event.pressure = pressure;
  // Bounded event log: the counters stay exact forever; the structured log
  // keeps the first 4096 transitions (plenty for any real incident window).
  if (transitions_.size() < 4096) transitions_.push_back(event);
  if (config_.on_transition) config_.on_transition(event);
}

size_t IngestPipeline::batch_cap() const {
  const LadderRung rung = rung_.load(std::memory_order_relaxed);
  return rung >= LadderRung::kPressured
             ? config_.batch_max * config_.pressured_batch_factor
             : config_.batch_max;
}

u64 IngestPipeline::publish_cadence() const {
  const LadderRung rung = rung_.load(std::memory_order_relaxed);
  return rung >= LadderRung::kPressured ? config_.pressured_publish_every
                                        : config_.publish_every_batches;
}

StreamMetrics IngestPipeline::metrics() const {
  StreamMetrics m;
  m.submitted = submitted_.load(std::memory_order_relaxed);
  m.accepted = accepted_.load(std::memory_order_relaxed);
  m.shed = shed_.load(std::memory_order_relaxed);
  m.acked = acked_.load(std::memory_order_relaxed);
  m.nacked = nacked_.load(std::memory_order_relaxed);
  m.batches = batches_.load(std::memory_order_relaxed);
  m.batched_ops = batched_ops_.load(std::memory_order_relaxed);
  m.dropped_batches = dropped_batches_.load(std::memory_order_relaxed);
  m.publishes = publishes_.load(std::memory_order_relaxed);
  m.publish_skips = publish_skips_.load(std::memory_order_relaxed);
  m.stalls = stalls_.load(std::memory_order_relaxed);
  m.transitions_up = transitions_up_.load(std::memory_order_relaxed);
  m.transitions_down = transitions_down_.load(std::memory_order_relaxed);
  for (size_t r = 0; r < kLadderRungs; ++r) {
    m.rung_entries[r] = rung_entries_[r].load(std::memory_order_relaxed);
  }
  m.max_queue_depth = max_queue_depth_.load(std::memory_order_relaxed);
  m.lag = lag_.load(std::memory_order_relaxed);
  m.rung = rung_.load(std::memory_order_relaxed);
  {
    const std::scoped_lock lock(mu_);
    m.queue_depth = queue_.size();
  }
  return m;
}

std::vector<LadderTransition> IngestPipeline::transitions() const {
  const std::scoped_lock lock(mu_);
  return transitions_;
}

}  // namespace sdb::stream
