// ModelRegistry + QueryEngine concurrency and behavior.
//
// The registry test is the RCU torture loop: N reader threads classify
// against whatever snapshot is current while one writer inserts/removes and
// publishes epochs. Every reader answer must be consistent with SOME
// published snapshot — guaranteed here by re-asking the exact snapshot the
// reader held (immutability means the recomputation must reproduce the
// recorded answer even long after newer epochs replaced it). Run this
// binary under TSan (cmake -DSDB_SANITIZE=thread, ctest -L sanitize) to
// machine-check the read path for data races.
#include "serve/model_registry.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <bit>
#include <filesystem>
#include <random>
#include <thread>

#include "serve/query_engine.hpp"
#include "serve_write_ops.hpp"
#include "synth/generators.hpp"
#include "util/rng.hpp"

namespace sdb::serve {
namespace {

ModelRegistry::Config small_config(double eps = 0.08, i64 minpts = 4,
                                   u64 publish_every = 16) {
  ModelRegistry::Config cfg;
  cfg.params = dbscan::DbscanParams{eps, minpts};
  cfg.publish_every = publish_every;
  return cfg;
}

TEST(ServeRegistry, StartsWithEmptySnapshot) {
  ModelRegistry registry(small_config(), 2);
  const auto model = registry.model();
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(model->summary().total_points, 0u);
  EXPECT_EQ(registry.epoch(), 1u);  // the construction-time publish
  const std::vector<double> q{0.1, 0.2};
  EXPECT_EQ(model->classify(q), kNoise);
}

TEST(ServeRegistry, EpochCadencePublishes) {
  ModelRegistry registry(small_config(0.08, 4, /*publish_every=*/8), 2);
  const u64 start = registry.epoch();
  Rng rng(5);
  for (int i = 0; i < 17; ++i) {
    const std::vector<double> p{rng.uniform(), rng.uniform()};
    insert_one(registry, p);
  }
  // 17 mutations at cadence 8 -> exactly 2 automatic publishes.
  EXPECT_EQ(registry.epoch(), start + 2);
  const u64 manual = registry.publish();
  EXPECT_EQ(manual, start + 3);
  EXPECT_EQ(registry.model()->epoch(), manual);
  EXPECT_EQ(registry.model()->summary().total_points, 17u);
}

TEST(ServeRegistry, EpochSemanticsAtCadenceBoundaries) {
  // Table-driven boundary sweep: for each cadence c, drive exactly 0, c-1,
  // c and c+1 mutations and pin down (a) how many automatic publishes
  // happened, (b) that the published snapshot contains exactly the first
  // floor(m/c)*c mutations — no torn snapshot exposing a partial epoch —
  // and (c) that staleness is bounded by one epoch (< c mutations).
  for (const u64 cadence : {u64{1}, u64{4}, u64{8}, u64{64}}) {
    for (const u64 offset : {u64{0}, cadence - 1, cadence, cadence + 1}) {
      const u64 mutations = offset;
      ModelRegistry registry(small_config(0.08, 4, cadence), 2);
      const u64 start = registry.epoch();  // construction-time publish
      Rng rng(100 + cadence);
      for (u64 i = 0; i < mutations; ++i) {
        const std::vector<double> p{rng.uniform(), rng.uniform()};
        insert_one(registry, p);
      }
      const u64 expected_publishes = mutations / cadence;
      EXPECT_EQ(registry.epoch(), start + expected_publishes)
          << "cadence=" << cadence << " mutations=" << mutations;
      const auto snapshot = registry.model();
      // The snapshot a reader grabs is the one the epoch counter names.
      EXPECT_EQ(snapshot->epoch(), registry.epoch());
      // No torn epoch: the snapshot holds exactly the mutations of its
      // epoch boundary, never a prefix of an unpublished batch.
      EXPECT_EQ(snapshot->summary().total_points,
                expected_publishes * cadence)
          << "cadence=" << cadence << " mutations=" << mutations;
      // Staleness beyond one epoch is impossible by construction.
      EXPECT_LT(mutations - snapshot->summary().total_points, cadence);
      // Catching up manually publishes the remainder.
      registry.publish();
      EXPECT_EQ(registry.model()->summary().total_points, mutations);
    }
  }
}

TEST(ServeRegistry, BootstrapMatchesIncrementalSemantics) {
  Rng rng(11);
  const PointSet points = synth::blobs_2d(400, 3, 0.05, 40, rng);
  ModelRegistry registry(small_config(0.05, 5, 0), 2);
  registry.bootstrap(points);
  const auto model = registry.model();
  EXPECT_EQ(model->summary().total_points, points.size());
  EXPECT_GT(model->summary().num_clusters, 0u);
  EXPECT_GT(model->core_count(), 0u);
}

TEST(ServeRegistry, RemoveInvalidIdsRejected) {
  ModelRegistry registry(small_config(), 2);
  EXPECT_FALSE(remove_one(registry, -1));
  EXPECT_FALSE(remove_one(registry, 0));
  const std::vector<double> p{0.0, 0.0};
  const PointId id = insert_one(registry, p);
  EXPECT_TRUE(remove_one(registry, id));
  EXPECT_FALSE(remove_one(registry, id));  // already removed
}

/// FNV-1a over 64-bit words.
struct Fnv {
  u64 h = 0xcbf29ce484222325ull;
  void add(u64 v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
};

/// Drives a fixed write sequence at d=2 from an mt19937_64 seed (whose
/// output the standard fixes) through single-op batches, and hashes every
/// outcome, the epoch after each op, the final state digest and tallies,
/// and every WAL record. Small rebuild and publish cadences make kd-tree
/// rebuilds, tombstone reclaims and cadence publishes all fire.
u64 write_stream_digest(ModelRegistry::Config cfg) {
  cfg.params = dbscan::DbscanParams{0.08, 4};
  cfg.rebuild_threshold = 8;
  cfg.publish_every = 5;
  ModelRegistry registry(cfg, 2);
  std::mt19937_64 engine(20260);
  Fnv fnv;
  auto insert = [&] {
    const std::vector<double> p{static_cast<double>(engine() >> 11) * 0x1p-53,
                                static_cast<double>(engine() >> 11) * 0x1p-53};
    const PointId id = insert_one(registry, p);
    fnv.add(static_cast<u64>(id));
    fnv.add(registry.epoch());
    return id;
  };
  auto remove = [&](PointId id) {
    const bool applied = remove_one(registry, id);
    fnv.add(applied ? 1 : 0);
    fnv.add(registry.epoch());
    return applied;
  };
  std::vector<PointId> live;
  for (int i = 0; i < 300; ++i) live.push_back(insert());
  for (int i = 0; i < 150; ++i) {
    const size_t pick = engine() % live.size();
    const PointId id = live[pick];
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    EXPECT_TRUE(remove(id));
    if (i % 50 == 0) {
      EXPECT_FALSE(remove(id));         // double remove
      EXPECT_FALSE(remove(-1));         // malformed id
      EXPECT_FALSE(remove(1'000'000));  // never issued
    }
  }
  for (int i = 0; i < 40; ++i) insert();
  fnv.add(registry.state_digest());
  fnv.add(registry.epoch());
  fnv.add(registry.mutations());
  fnv.add(registry.publishes());
  if (registry.wal() != nullptr) {
    for (const WalRecord& rec : registry.wal()->records()) {
      fnv.add(static_cast<u64>(rec.type));
      fnv.add(rec.coords.size());
      for (const double x : rec.coords) fnv.add(std::bit_cast<u64>(x));
      fnv.add(static_cast<u64>(rec.point_id));
      fnv.add(rec.epoch);
    }
  }
  return fnv.h;
}

TEST(ServeRegistry, OneOpBatchesMatchParentDigest) {
  // Pinned to the values the registry's former per-op insert/try_remove
  // produced: single-op batches must evolve the state, the epochs, the
  // tallies and the WAL record stream exactly as those calls did.
  ModelRegistry::Config in_memory;
  EXPECT_EQ(write_stream_digest(in_memory), 0xba57ac0c8e193338ull);

  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("sdb_registry_digest_p" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  ModelRegistry::Config durable;
  durable.wal_dir = dir;
  EXPECT_EQ(write_stream_digest(durable), 0x9a5f12bb12ef2ec1ull);
  std::filesystem::remove_all(dir);

  ModelRegistry::Config replicated;
  replicated.replicated = true;
  EXPECT_EQ(write_stream_digest(replicated), 0x9a5f12bb12ef2ec1ull);
}

// The satellite-task test: N readers, one mutating/publishing writer.
TEST(ServeRegistry, ConcurrentReadersSeeConsistentSnapshots) {
  constexpr int kReaders = 4;
  constexpr int kQueriesPerReader = 2000;
  constexpr int kWriterMutations = 600;

  ModelRegistry registry(small_config(0.08, 4, /*publish_every=*/25), 2);
  // Seed enough structure that classify answers are non-trivial.
  {
    Rng rng(23);
    const PointSet seed_points = synth::blobs_2d(300, 3, 0.05, 30, rng);
    registry.bootstrap(seed_points);
  }

  struct Observation {
    std::shared_ptr<const ClusterModel> model;
    std::vector<double> query;
    ClusterId answer;
  };

  std::atomic<bool> writer_done{false};
  std::vector<std::vector<Observation>> observations(kReaders);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(100 + static_cast<u64>(r));
      auto& obs = observations[static_cast<size_t>(r)];
      obs.reserve(kQueriesPerReader);
      u64 last_epoch = 0;
      for (int q = 0; q < kQueriesPerReader; ++q) {
        const std::shared_ptr<const ClusterModel> model = registry.model();
        ASSERT_NE(model, nullptr);
        // Epochs can only move forward for any single reader.
        ASSERT_GE(model->epoch(), last_epoch);
        last_epoch = model->epoch();
        std::vector<double> query{rng.uniform(), rng.uniform()};
        const ClusterId answer = model->classify(query);
        // The answer must be valid for THIS snapshot.
        ASSERT_TRUE(answer == kNoise ||
                    (answer >= 0 &&
                     static_cast<u64>(answer) < model->num_clusters()));
        if (q % 16 == 0) {  // keep memory bounded; sample observations
          obs.push_back({model, std::move(query), answer});
        }
      }
    });
  }

  std::thread writer([&] {
    Rng rng(999);
    std::vector<PointId> live;
    for (int m = 0; m < kWriterMutations; ++m) {
      if (!live.empty() && rng.chance(0.25)) {
        const size_t pick = rng.uniform_index(live.size());
        remove_one(registry, live[pick]);
        live.erase(live.begin() + static_cast<long>(pick));
      } else {
        const std::vector<double> p{rng.uniform(), rng.uniform()};
        live.push_back(insert_one(registry, p));
      }
    }
    writer_done.store(true);
  });

  for (auto& t : readers) t.join();
  writer.join();

  // Replay: every recorded answer must be reproducible against the exact
  // snapshot that produced it (torn/mutated snapshots would diverge).
  u64 replayed = 0;
  for (const auto& reader_obs : observations) {
    for (const Observation& o : reader_obs) {
      ASSERT_EQ(o.model->classify(o.query), o.answer);
      ++replayed;
    }
  }
  EXPECT_GT(replayed, 0u);
  EXPECT_TRUE(writer_done.load());
  EXPECT_GT(registry.publishes(), 1u);
}

// --- QueryEngine ---

struct EngineFixture {
  ModelRegistry registry;
  EngineFixture() : registry(small_config(0.05, 5, 0), 2) {
    Rng rng(7);
    const PointSet points = synth::blobs_2d(500, 4, 0.05, 50, rng);
    registry.bootstrap(points);
  }
};

TEST(ServeEngine, ClassifyLookupInsertRemoveRoundTrip) {
  EngineFixture fx;
  QueryEngine::Config cfg;
  cfg.threads = 2;
  QueryEngine engine(fx.registry, cfg);

  // Synchronous execute covers both verbs.
  Request classify;
  classify.type = RequestType::kClassify;
  classify.point = {0.5, 0.5};
  const Reply c = engine.execute(classify);
  EXPECT_EQ(c.status, ReplyStatus::kOk);

  Request lookup;
  lookup.type = RequestType::kLookup;
  lookup.id = 0;
  const Reply l = engine.execute(lookup);
  EXPECT_EQ(l.status, ReplyStatus::kOk);
  EXPECT_EQ(l.label, fx.registry.model()->label_of(0));

  Request bad;
  bad.type = RequestType::kClassify;
  bad.point = {1.0, 2.0, 3.0};  // wrong dimension
  EXPECT_EQ(engine.execute(bad).status, ReplyStatus::kInvalid);

  // Well-formed but unknown id -> kNotFound; malformed (negative) -> kInvalid.
  Request bad_lookup;
  bad_lookup.type = RequestType::kLookup;
  bad_lookup.id = 1'000'000;
  EXPECT_EQ(engine.execute(bad_lookup).status, ReplyStatus::kNotFound);
  bad_lookup.id = -7;
  EXPECT_EQ(engine.execute(bad_lookup).status, ReplyStatus::kInvalid);
}

TEST(ServeEngine, AsyncSubmitDeliversReplies) {
  EngineFixture fx;
  QueryEngine::Config cfg;
  cfg.threads = 2;
  cfg.queue_capacity = 4096;
  QueryEngine engine(fx.registry, cfg);

  constexpr int kN = 500;
  std::atomic<int> ok{0};
  Rng rng(31);
  for (int i = 0; i < kN; ++i) {
    Request req;
    req.type = RequestType::kClassify;
    req.point = {rng.uniform(), rng.uniform()};
    ASSERT_TRUE(engine.try_submit(std::move(req), [&](const Reply& reply) {
      if (reply.status == ReplyStatus::kOk) ok.fetch_add(1);
    }));
  }
  engine.drain();
  EXPECT_EQ(ok.load(), kN);
  const auto m = engine.metrics();
  EXPECT_EQ(m.accepted, static_cast<u64>(kN));
  EXPECT_EQ(m.completed, static_cast<u64>(kN));
  EXPECT_EQ(m.shed, 0u);
  EXPECT_EQ(m.latency.total(), static_cast<u64>(kN));
  EXPECT_GT(m.latency.quantile_micros(0.99),
            0.0);  // histogram actually recorded
}

TEST(ServeEngine, BackpressureShedsWithOverloaded) {
  EngineFixture fx;
  QueryEngine::Config cfg;
  cfg.threads = 1;
  cfg.queue_capacity = 4;  // tiny queue to force shedding deterministically
  QueryEngine engine(fx.registry, cfg);

  // Block the single worker so the queue cannot drain.
  std::atomic<bool> release{false};
  Request gate;
  gate.type = RequestType::kClassify;
  gate.point = {0.5, 0.5};
  ASSERT_TRUE(engine.try_submit(gate, [&](const Reply&) {
    while (!release.load()) std::this_thread::yield();
  }));

  // Fill the remaining capacity, then everything further must shed.
  int admitted = 0;
  int shed = 0;
  std::atomic<int> overloaded_replies{0};
  for (int i = 0; i < 64; ++i) {
    Request req;
    req.type = RequestType::kClassify;
    req.point = {0.1, 0.1};
    const bool in = engine.try_submit(req, [&](const Reply& reply) {
      if (reply.status == ReplyStatus::kOverloaded) {
        overloaded_replies.fetch_add(1);
      }
    });
    (in ? admitted : shed) += 1;
  }
  EXPECT_GT(shed, 0);
  EXPECT_LE(admitted, 4);
  EXPECT_EQ(overloaded_replies.load(), shed);
  release.store(true);
  engine.drain();
  const auto m = engine.metrics();
  EXPECT_EQ(m.shed, static_cast<u64>(shed));
  EXPECT_GT(m.shed_rate(), 0.0);
}

TEST(ServeEngine, CacheHitsOnRepeatedQueriesAndInvalidatesOnPublish) {
  EngineFixture fx;
  QueryEngine::Config cfg;
  cfg.threads = 1;
  QueryEngine engine(fx.registry, cfg);

  Request req;
  req.type = RequestType::kClassify;
  req.point = {0.42, 0.42};
  const Reply first = engine.execute(req);
  EXPECT_FALSE(first.cache_hit);
  const Reply second = engine.execute(req);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.label, first.label);

  // A publish bumps the epoch; the cached entry must not serve stale data.
  fx.registry.publish();
  const Reply third = engine.execute(req);
  EXPECT_FALSE(third.cache_hit);
  EXPECT_EQ(third.epoch, first.epoch + 1);
  EXPECT_EQ(third.label, first.label);  // model content unchanged

  const auto m = engine.metrics();
  EXPECT_EQ(m.cache_hits, 1u);
  EXPECT_EQ(m.cache_misses, 2u);
}

TEST(ServeEngine, BatchSubmitAdmitsUpToCapacity) {
  EngineFixture fx;
  QueryEngine::Config cfg;
  cfg.threads = 1;
  cfg.queue_capacity = 8;
  QueryEngine engine(fx.registry, cfg);

  // Admission of a batch is one atomic reservation, so with nothing in
  // flight a 32-request batch against capacity 8 admits exactly 8.
  std::vector<Request> batch(32);
  for (auto& r : batch) {
    r.type = RequestType::kClassify;
    r.point = {0.3, 0.3};
  }
  std::atomic<int> done{0};
  const size_t admitted = engine.try_submit_batch(
      std::move(batch), [&](const Reply&) { done.fetch_add(1); });
  EXPECT_EQ(admitted, 8u);
  engine.drain();
  EXPECT_EQ(done.load(), static_cast<int>(admitted));
  const auto m = engine.metrics();
  EXPECT_EQ(m.shed, 32 - admitted);
  EXPECT_EQ(m.completed, admitted);
}

}  // namespace
}  // namespace sdb::serve
