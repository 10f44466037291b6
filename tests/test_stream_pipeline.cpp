// IngestPipeline behavior: micro-epoch batching, ack-stream exactness, the
// degradation ladder (engage under a stalled batcher, recover to healthy,
// restore the deferred-rebuild threshold), shedding backpressure with reads
// still served, and degraded-snapshot surfacing through QueryEngine.
//
// The ladder tests drive overload deterministically with the
// stream.queue.stall fault site (the batcher sleeps while a tight producer
// loop outruns it) instead of relying on scheduler luck. Run under TSan/ASan
// via the `sanitize` label.
#include "stream/ingest_pipeline.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "fault/fault_plan.hpp"
#include "serve/query_engine.hpp"
#include "util/rng.hpp"

#include "serve_write_ops.hpp"

namespace sdb::stream {
namespace {

using dbscan::IncrementalDbscan;
using BatchOp = IncrementalDbscan::BatchOp;

serve::ModelRegistry::Config registry_config(size_t rebuild_threshold = 64) {
  serve::ModelRegistry::Config cfg;
  cfg.params = dbscan::DbscanParams{0.4, 4};
  cfg.rebuild_threshold = rebuild_threshold;
  cfg.publish_every = 0;  // the pipeline owns the epoch cadence
  return cfg;
}

/// Thread-safe ack recorder preserving arrival (= canonical apply) order.
struct AckLog {
  std::mutex mu;
  std::vector<Ack> acks;

  IngestPipeline::Config attach(IngestPipeline::Config cfg) {
    cfg.on_ack = [this](const Ack& ack) {
      const std::scoped_lock lock(mu);
      acks.push_back(ack);
    };
    return cfg;
  }
  std::vector<Ack> snapshot() {
    const std::scoped_lock lock(mu);
    return acks;
  }
};

std::vector<double> random_point(Rng& rng) {
  return {rng.uniform(0.0, 4.0), rng.uniform(0.0, 4.0)};
}

TEST(StreamPipeline, CoalescesIntoMicroEpochs) {
  serve::ModelRegistry registry(registry_config(), 2);
  IngestPipeline::Config cfg;
  cfg.batch_max = 64;
  cfg.batch_deadline_us = 2000;
  IngestPipeline pipeline(registry, cfg);

  Rng rng(11);
  const size_t kOps = 600;
  for (size_t i = 0; i < kOps; ++i) {
    const auto r = pipeline.submit_insert(random_point(rng));
    ASSERT_TRUE(r.accepted);
    ASSERT_GT(r.ticket, 0u);
  }
  pipeline.drain();
  const StreamMetrics m = pipeline.metrics();
  EXPECT_EQ(m.accepted, kOps);
  EXPECT_EQ(m.batched_ops, kOps);
  EXPECT_EQ(m.acked, kOps);
  EXPECT_EQ(m.shed, 0u);
  // Coalescing happened: far fewer micro-epochs than ops.
  EXPECT_LT(m.batches, kOps);
  EXPECT_GE(m.publishes, 1u);
  EXPECT_EQ(m.lag, 0u);
  EXPECT_EQ(m.queue_depth, 0u);
  EXPECT_EQ(pipeline.rung(), LadderRung::kHealthy);
  // The drained state is visible to readers.
  EXPECT_EQ(registry.model()->summary().total_points, kOps);
  EXPECT_EQ(registry.active_points(), kOps);
}

// The ack stream IS the state: replaying each acked micro-epoch (acks arrive
// in canonical apply order) through a control IncrementalDbscan reproduces
// the registry's data plane bit-exactly.
TEST(StreamPipeline, AckReplayReproducesStateDigest) {
  serve::ModelRegistry registry(registry_config(), 2);
  AckLog log;
  IngestPipeline::Config cfg;
  cfg.batch_max = 32;
  cfg.batch_deadline_us = 500;
  IngestPipeline piped(registry, log.attach(cfg));

  Rng rng(29);
  std::vector<PointId> live;
  // Phase 1: seed inserts, drain so every id is acked and known.
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(piped.submit_insert(random_point(rng)).accepted);
  }
  piped.drain();
  for (const Ack& ack : log.snapshot()) {
    ASSERT_TRUE(ack.applied);
    live.push_back(ack.id);
  }
  // Phase 2: mixed churn — removes of known ids (including a double-remove
  // and a never-issued id, which must ack applied=false) plus new inserts.
  for (int i = 0; i < 300; ++i) {
    if (!live.empty() && rng.chance(0.45)) {
      const size_t pick = rng.uniform_index(live.size());
      ASSERT_TRUE(piped.submit_remove(live[pick]).accepted);
      live.erase(live.begin() + static_cast<i64>(pick));
    } else {
      ASSERT_TRUE(piped.submit_insert(random_point(rng)).accepted);
    }
  }
  ASSERT_TRUE(piped.submit_remove(999999).accepted);  // never issued
  piped.drain();
  piped.stop();

  const std::vector<Ack> acks = log.snapshot();
  EXPECT_EQ(acks.size(), piped.metrics().accepted);
  // Group by micro-epoch and replay in canonical order.
  IncrementalDbscan::Config inc_cfg;
  inc_cfg.params = registry_config().params;
  inc_cfg.rebuild_threshold = 16;  // digest is rebuild-timing independent
  IncrementalDbscan control(inc_cfg, 2);
  std::map<u64, std::vector<BatchOp>> epochs;
  u64 invalid_acks = 0;
  for (const Ack& ack : acks) {
    EXPECT_FALSE(ack.dropped);  // no fault plan installed
    if (!ack.applied) {
      ++invalid_acks;
      continue;
    }
    epochs[ack.batch_seq].push_back(ack.op);
  }
  EXPECT_GE(invalid_acks, 1u);  // the never-issued remove
  for (auto& [seq, ops] : epochs) control.apply_batch(ops);
  EXPECT_EQ(control.digest(), registry.state_digest());
  EXPECT_EQ(control.active_size(), registry.active_points());
}

TEST(StreamPipeline, LadderEngagesUnderStallAndRestoresRebuildThreshold) {
  const size_t kBaseThreshold = 16;
  serve::ModelRegistry registry(registry_config(kBaseThreshold), 2);
  IngestPipeline::Config cfg;
  cfg.queue_capacity = 64;
  cfg.batch_max = 4;
  cfg.batch_deadline_us = 200;
  cfg.lag_capacity = 1e9;  // isolate the queue-depth watermark
  cfg.stall_micros = 4000;
  cfg.deferred_rebuild_factor = 8;
  IngestPipeline pipeline(registry, cfg);

  fault::ScopedFaultPlan chaos("seed=3;stream.queue.stall");
  Rng rng(7);
  // A tight producer loop outruns the stalled batcher (<= 4 ops per >= 4ms):
  // the queue fills, pressure crosses the pressured watermark.
  int submitted = 0;
  for (int i = 0; i < 4000 && pipeline.rung() < LadderRung::kPressured; ++i) {
    pipeline.submit_insert(random_point(rng));
    ++submitted;
  }
  ASSERT_GE(pipeline.rung(), LadderRung::kPressured) << "after " << submitted;
  // The deferred-rebuild rung raised the registry threshold.
  EXPECT_EQ(registry.rebuild_threshold(),
            kBaseThreshold * cfg.deferred_rebuild_factor);
  const StreamMetrics mid = pipeline.metrics();
  EXPECT_GE(mid.rung_entries[static_cast<size_t>(LadderRung::kPressured)], 1u);
  EXPECT_GE(mid.transitions_up, 1u);

  // Load stops; drain lets the ladder walk back down to healthy and restore
  // the threshold (the satellite: deferred rebuilds resume after recovery).
  pipeline.drain();
  EXPECT_EQ(pipeline.rung(), LadderRung::kHealthy);
  EXPECT_EQ(registry.rebuild_threshold(), kBaseThreshold);
  const StreamMetrics after = pipeline.metrics();
  EXPECT_GE(after.transitions_down, after.transitions_up);
  EXPECT_GT(after.stalls, 0u);
  EXPECT_EQ(after.lag, 0u);
  // Every transition edge was recorded as a structured event.
  const auto events = pipeline.transitions();
  EXPECT_EQ(events.size(), after.transitions_up + after.transitions_down);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i + 1);
    EXPECT_EQ(std::abs(static_cast<int>(events[i].to) -
                       static_cast<int>(events[i].from)),
              1);  // always single edges
  }
}

TEST(StreamPipeline, SheddingRejectsWritesWhileReadsKeepServing) {
  serve::ModelRegistry registry(registry_config(), 2);
  // Publish a non-empty snapshot BEFORE the overload so reads have data.
  Rng rng(13);
  for (int i = 0; i < 64; ++i) insert_one(registry, random_point(rng));
  registry.publish();
  const u64 pre_epoch = registry.epoch();
  const auto pre_model = registry.model();

  IngestPipeline::Config cfg;
  cfg.queue_capacity = 32;
  cfg.batch_max = 2;
  cfg.batch_deadline_us = 200;
  cfg.lag_capacity = 1e9;
  cfg.stall_micros = 8000;
  cfg.retry_after_ms = 7.5;
  IngestPipeline pipeline(registry, cfg);

  fault::ScopedFaultPlan chaos("seed=5;stream.queue.stall");
  SubmitResult rejected;
  for (int i = 0; i < 4000; ++i) {
    const auto r = pipeline.submit_insert(random_point(rng));
    if (!r.accepted) {
      rejected = r;
      break;
    }
  }
  ASSERT_FALSE(rejected.accepted);
  EXPECT_EQ(rejected.rung, LadderRung::kShedding);
  EXPECT_DOUBLE_EQ(rejected.retry_after_ms, 7.5);
  EXPECT_GT(pipeline.metrics().shed, 0u);
  // Reads are untouched: the last published epoch still answers.
  const auto model = registry.model();
  EXPECT_GE(model->epoch(), pre_epoch);
  const std::vector<double> q{2.0, 2.0};
  EXPECT_EQ(pre_model->classify(q), pre_model->classify(q));
  EXPECT_GE(model->summary().total_points, 64u);

  // Recovery: load lifts, ladder descends, writes are accepted again.
  pipeline.drain();
  EXPECT_EQ(pipeline.rung(), LadderRung::kHealthy);
  EXPECT_TRUE(pipeline.submit_insert(random_point(rng)).accepted);
  pipeline.drain();
}

TEST(StreamPipeline, DegradedRungPublishesSubsampledSnapshots) {
  serve::ModelRegistry registry(registry_config(), 2);
  Rng rng(17);
  for (int i = 0; i < 200; ++i) insert_one(registry, random_point(rng));
  registry.publish();
  ASSERT_FALSE(registry.model()->degraded());

  IngestPipeline::Config cfg;
  cfg.queue_capacity = 48;
  cfg.batch_max = 2;
  cfg.batch_deadline_us = 200;
  cfg.lag_capacity = 1e9;
  cfg.stall_micros = 6000;
  cfg.degraded_core_fraction = 0.5;
  IngestPipeline pipeline(registry, cfg);

  {
    fault::ScopedFaultPlan chaos("seed=9;stream.queue.stall");
    for (int i = 0; i < 4000 && pipeline.rung() < LadderRung::kDegraded; ++i) {
      pipeline.submit_insert(random_point(rng));
    }
    ASSERT_GE(pipeline.rung(), LadderRung::kDegraded);
    EXPECT_DOUBLE_EQ(registry.core_sample_fraction(), 0.5);
    // The drain-time publish happens while the fraction knob may still be
    // degraded, then the ladder recovers and restores exactness. Draining
    // INSIDE the plan scope also quiesces the batcher before the plan
    // lifts — ScopedFaultPlan's contract is that the plan outlives every
    // in-flight SDB_INJECT call, and the batcher stops injecting only once
    // it parks (empty queue, zero lag, healthy rung).
    pipeline.drain();
  }
  EXPECT_EQ(pipeline.rung(), LadderRung::kHealthy);
  EXPECT_DOUBLE_EQ(registry.core_sample_fraction(), 1.0);

  // Force a degraded publish deterministically to pin down the surfacing
  // path end to end (ladder timing decides whether drain's publish caught
  // the degraded window above).
  registry.set_core_sample_fraction(0.5);
  registry.publish();
  ASSERT_TRUE(registry.model()->degraded());
  EXPECT_DOUBLE_EQ(registry.model()->core_sample_fraction(), 0.5);

  serve::QueryEngine::Config qcfg;
  qcfg.threads = 1;
  serve::QueryEngine engine(registry, qcfg);
  serve::Request req;
  req.type = serve::RequestType::kClassify;
  req.point = {2.0, 2.0};
  serve::Reply reply = engine.execute(req);
  EXPECT_TRUE(reply.degraded_model);  // surfaced to callers on every read

  // Exact publish clears the flag.
  registry.set_core_sample_fraction(1.0);
  registry.publish();
  reply = engine.execute(req);
  EXPECT_FALSE(reply.degraded_model);
  EXPECT_FALSE(registry.model()->degraded());

  // The metrics counter saw the degraded reads (execute() bypasses
  // admission but not completion accounting — count via try_submit).
  ASSERT_TRUE(registry.model());
  registry.set_core_sample_fraction(0.5);
  registry.publish();
  std::atomic<int> done{0};
  engine.try_submit(req, [&](const serve::Reply& r) {
    EXPECT_TRUE(r.degraded_model);
    done.fetch_add(1);
  });
  engine.drain();
  EXPECT_EQ(done.load(), 1);
  EXPECT_GE(engine.metrics().degraded_model_reads, 1u);
}

TEST(StreamPipeline, LeavingDegradedRepublishesFullSnapshot) {
  serve::ModelRegistry registry(registry_config(), 2);
  Rng rng(23);
  for (int i = 0; i < 200; ++i) insert_one(registry, random_point(rng));
  registry.publish();

  IngestPipeline::Config cfg;
  cfg.queue_capacity = 48;
  cfg.batch_max = 2;
  cfg.batch_deadline_us = 200;
  cfg.lag_capacity = 1e9;
  cfg.stall_micros = 6000;
  cfg.degraded_core_fraction = 0.5;
  // Negative exit watermarks: the ladder steps down only once the pipeline
  // is idle (empty queue, no lag), after its last data publish — the
  // publish made while still degraded. Only the republish on leaving
  // kDegraded can replace that subsampled snapshot.
  cfg.pressured_exit = -1.0;
  cfg.degraded_exit = -1.0;
  cfg.shedding_exit = -1.0;
  IngestPipeline pipeline(registry, cfg);
  {
    fault::ScopedFaultPlan chaos("seed=9;stream.queue.stall");
    for (int i = 0; i < 4000 && pipeline.rung() < LadderRung::kDegraded; ++i) {
      pipeline.submit_insert(random_point(rng));
    }
    ASSERT_GE(pipeline.rung(), LadderRung::kDegraded);
    pipeline.drain();  // inside the plan scope: see the test above
  }
  EXPECT_EQ(pipeline.rung(), LadderRung::kHealthy);
  EXPECT_DOUBLE_EQ(registry.core_sample_fraction(), 1.0);
  EXPECT_FALSE(registry.model()->degraded());
  EXPECT_DOUBLE_EQ(registry.model()->core_sample_fraction(), 1.0);
  EXPECT_EQ(pipeline.metrics().lag, 0u);
}

TEST(StreamPipeline, NoOpMicroEpochDoesNotPublish) {
  serve::ModelRegistry registry(registry_config(), 2);
  IngestPipeline::Config cfg;
  cfg.publish_every_batches = 1;
  IngestPipeline pipeline(registry, cfg);
  Rng rng(29);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(pipeline.submit_insert(random_point(rng)).accepted);
  }
  pipeline.drain();
  const u64 epoch = registry.epoch();
  const StreamMetrics before = pipeline.metrics();
  ASSERT_GE(before.publishes, 1u);

  // A micro-epoch of removes of ids that never existed applies nothing: no
  // model rebuild, no epoch bump, however often the cadence asks.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(pipeline.submit_remove(1000000 + i).accepted);
  }
  pipeline.drain();
  const StreamMetrics after = pipeline.metrics();
  EXPECT_GT(after.batches, before.batches);
  EXPECT_EQ(after.nacked, before.nacked + 3);
  EXPECT_EQ(after.publishes, before.publishes);
  EXPECT_EQ(registry.epoch(), epoch);
}

TEST(StreamPipeline, StopShedsFurtherSubmitsAndIsIdempotent) {
  serve::ModelRegistry registry(registry_config(), 2);
  IngestPipeline::Config cfg;
  IngestPipeline pipeline(registry, cfg);
  Rng rng(19);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(pipeline.submit_insert(random_point(rng)).accepted);
  }
  pipeline.stop();
  pipeline.stop();  // idempotent
  // Stop drained the queue and published the trailing lag.
  EXPECT_EQ(registry.active_points(), 50u);
  EXPECT_EQ(registry.model()->summary().total_points, 50u);
  EXPECT_FALSE(pipeline.submit_insert(random_point(rng)).accepted);
}

}  // namespace
}  // namespace sdb::stream
