#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/em_trainer.h"
#include "core/state_snapshot.h"
#include "parallel/segmenter.h"
#include "parallel/shard_executor.h"
#include "test_util.h"

namespace cpd {
namespace {

CpdConfig BaseConfig() {
  CpdConfig config;
  config.num_communities = 4;
  config.num_topics = 6;
  config.em_iterations = 6;
  config.gibbs_sweeps_per_em = 2;
  config.nu_iterations = 30;
  config.seed = 9;
  return config;
}

// Builds a delta that moves every document in [begin, end) to a random new
// (community, topic) pair, diffed against `base`'s current assignments —
// the same construction a shard performs after its sweep.
CounterDelta MakeDelta(const SocialGraph& graph, const ModelState& base,
                       size_t begin, size_t end, uint64_t seed) {
  CounterDelta delta;
  Rng rng(seed);
  for (size_t d = begin; d < end && d < graph.num_documents(); ++d) {
    const DocId doc = static_cast<DocId>(d);
    const int32_t c_new = static_cast<int32_t>(
        rng.NextUint64(static_cast<uint64_t>(base.num_communities)));
    const int32_t z_new = static_cast<int32_t>(
        rng.NextUint64(static_cast<uint64_t>(base.num_topics)));
    delta.RecordMove(graph.document(doc), doc, base.doc_community[d],
                     base.doc_topic[d], c_new, z_new, base.num_communities,
                     base.num_topics, base.vocab_size);
  }
  return delta;
}

void ExpectSameCounters(const ModelState& a, const ModelState& b) {
  EXPECT_EQ(a.doc_topic, b.doc_topic);
  EXPECT_EQ(a.doc_community, b.doc_community);
  EXPECT_EQ(a.n_uc, b.n_uc);
  EXPECT_EQ(a.n_u, b.n_u);
  EXPECT_EQ(a.n_cz, b.n_cz);
  EXPECT_EQ(a.n_c, b.n_c);
  EXPECT_EQ(a.n_zw, b.n_zw);
  EXPECT_EQ(a.n_z, b.n_z);
}

TEST(CounterDeltaTest, MergeIsAssociativeAndCommutative) {
  const SynthResult data = testing::MakeTinyGraph(17);
  const CpdConfig config = BaseConfig();
  ModelState base(data.graph, config);
  Rng rng(3);
  base.InitializeRandom(data.graph, &rng);
  base.RebuildCounts(data.graph);

  // Three deltas over disjoint document ranges (as shards produce them).
  const size_t third = data.graph.num_documents() / 3;
  const CounterDelta a =
      MakeDelta(data.graph, base, 0, third, 21);
  const CounterDelta b =
      MakeDelta(data.graph, base, third, 2 * third, 22);
  const CounterDelta c =
      MakeDelta(data.graph, base, 2 * third, data.graph.num_documents(), 23);

  // (a + b) + c
  CounterDelta left;
  left.Merge(a);
  left.Merge(b);
  CounterDelta left_total;
  left_total.Merge(left);
  left_total.Merge(c);
  // a + (b + c)
  CounterDelta right_inner;
  right_inner.Merge(b);
  right_inner.Merge(c);
  CounterDelta right_total;
  right_total.Merge(a);
  right_total.Merge(right_inner);
  // c + a + b (a rotated order, exercising commutativity).
  CounterDelta rotated;
  rotated.Merge(c);
  rotated.Merge(a);
  rotated.Merge(b);

  ModelState s1 = base, s2 = base, s3 = base;
  left_total.ApplyTo(&s1);
  right_total.ApplyTo(&s2);
  rotated.ApplyTo(&s3);
  ExpectSameCounters(s1, s2);
  ExpectSameCounters(s1, s3);
  EXPECT_EQ(left_total.NumDocMoves(), a.NumDocMoves() + b.NumDocMoves() +
                                          c.NumDocMoves());
}

TEST(CounterDeltaTest, ApplyMatchesRebuildFromAssignments) {
  const SynthResult data = testing::MakeTinyGraph(18);
  const CpdConfig config = BaseConfig();
  ModelState base(data.graph, config);
  Rng rng(4);
  base.InitializeRandom(data.graph, &rng);
  base.RebuildCounts(data.graph);

  CounterDelta delta =
      MakeDelta(data.graph, base, 0, data.graph.num_documents(), 31);
  ModelState applied = base;
  delta.ApplyTo(&applied);

  // Incrementally applied counters must equal a from-scratch rebuild of the
  // post-move assignments.
  ModelState rebuilt = applied;
  rebuilt.RebuildCounts(data.graph);
  ExpectSameCounters(applied, rebuilt);
}

TEST(CounterDeltaTest, NoopMovesProduceEmptyDelta) {
  const SynthResult data = testing::MakeTinyGraph(19);
  const CpdConfig config = BaseConfig();
  ModelState base(data.graph, config);
  Rng rng(5);
  base.InitializeRandom(data.graph, &rng);
  base.RebuildCounts(data.graph);

  CounterDelta delta;
  for (size_t d = 0; d < data.graph.num_documents(); ++d) {
    const DocId doc = static_cast<DocId>(d);
    delta.RecordMove(data.graph.document(doc), doc, base.doc_community[d],
                     base.doc_topic[d], base.doc_community[d],
                     base.doc_topic[d], base.num_communities, base.num_topics,
                     base.vocab_size);
  }
  EXPECT_TRUE(delta.Empty());
  EXPECT_EQ(delta.NonzeroEntries(), 0u);
}

TEST(StateSnapshotTest, CaptureRestoreRoundTrips) {
  const SynthResult data = testing::MakeTinyGraph(20);
  const CpdConfig config = BaseConfig();
  ModelState master(data.graph, config);
  Rng rng(6);
  master.InitializeRandom(data.graph, &rng);
  master.RebuildCounts(data.graph);

  StateSnapshot snapshot;
  EXPECT_FALSE(snapshot.captured());
  snapshot.CaptureFrom(master);
  EXPECT_TRUE(snapshot.captured());

  ModelState working(data.graph, config);
  snapshot.RestoreTo(&working);
  ExpectSameCounters(master, working);
  EXPECT_EQ(master.lambda, working.lambda);
  EXPECT_EQ(master.delta, working.delta);
  EXPECT_EQ(master.eta, working.eta);
  EXPECT_EQ(master.weights, working.weights);
  for (size_t d = 0; d < data.graph.num_documents(); ++d) {
    EXPECT_EQ(snapshot.TopicOf(static_cast<DocId>(d)), master.doc_topic[d]);
    EXPECT_EQ(snapshot.CommunityOf(static_cast<DocId>(d)),
              master.doc_community[d]);
  }
}

// The acceptance bar of the refactor: with the same seed and shard count,
// serial and pooled dispatch produce bit-identical post-merge counters —
// RNG streams attach to shards, snapshots freeze reads, and delta merging
// is exact integer addition.
void ExpectSerialPooledIdentical(int num_shards, SamplerMode mode) {
  const SynthResult data = testing::MakeTinyGraph(42);

  CpdConfig serial_config = BaseConfig();
  serial_config.sampler_mode = mode;
  serial_config.num_shards = num_shards;
  serial_config.executor_mode = ExecutorMode::kSerial;
  EmTrainer serial(data.graph, serial_config);
  ASSERT_TRUE(serial.Train().ok());

  CpdConfig pooled_config = serial_config;
  pooled_config.executor_mode = ExecutorMode::kPooled;
  pooled_config.num_threads = 4;
  EmTrainer pooled(data.graph, pooled_config);
  ASSERT_TRUE(pooled.Train().ok());

  ExpectSameCounters(serial.state(), pooled.state());
  // The stat totals are summed over shards: equal whatever the dispatch
  // (dense runs report zeros, so equality is the assertion).
  EXPECT_EQ(serial.stats().eta_collapse_hits, pooled.stats().eta_collapse_hits);
  EXPECT_EQ(serial.stats().eta_collapse_misses,
            pooled.stats().eta_collapse_misses);
  const MhStats& serial_mh = serial.stats().mh;
  const MhStats& pooled_mh = pooled.stats().mh;
  EXPECT_EQ(serial_mh.topic_proposals, pooled_mh.topic_proposals);
  EXPECT_EQ(serial_mh.topic_accepts, pooled_mh.topic_accepts);
  EXPECT_EQ(serial_mh.community_proposals, pooled_mh.community_proposals);
  EXPECT_EQ(serial_mh.community_accepts, pooled_mh.community_accepts);
  EXPECT_EQ(serial.state().lambda, pooled.state().lambda);
  EXPECT_EQ(serial.state().delta, pooled.state().delta);
  EXPECT_EQ(serial.state().eta, pooled.state().eta);
  EXPECT_EQ(serial.state().weights, pooled.state().weights);
  ASSERT_EQ(serial.stats().link_log_likelihood.size(),
            pooled.stats().link_log_likelihood.size());
  for (size_t i = 0; i < serial.stats().link_log_likelihood.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial.stats().link_log_likelihood[i],
                     pooled.stats().link_log_likelihood[i]);
  }
}

TEST(ShardExecutorTest, SerialAndPooledBitIdenticalOneShard) {
  ExpectSerialPooledIdentical(1, SamplerMode::kSparse);
}

TEST(ShardExecutorTest, SerialAndPooledBitIdenticalFourShards) {
  ExpectSerialPooledIdentical(4, SamplerMode::kSparse);
}

TEST(ShardExecutorTest, SerialAndPooledBitIdenticalDense) {
  ExpectSerialPooledIdentical(4, SamplerMode::kDense);
}

// Counter invariants survive the snapshot/merge loop: after training, the
// incrementally merged master counters equal a from-scratch rebuild.
TEST(ShardExecutorTest, MergedCountersStayConsistent) {
  const SynthResult data = testing::MakeTinyGraph(43);
  CpdConfig config = BaseConfig();
  config.num_threads = 4;
  EmTrainer trainer(data.graph, config);
  ASSERT_TRUE(trainer.Train().ok());

  ModelState rebuilt = trainer.state();
  rebuilt.RebuildCounts(data.graph);
  ExpectSameCounters(trainer.state(), rebuilt);
  EXPECT_GT(trainer.stats().delta_doc_moves, 0u);
  EXPECT_GE(trainer.stats().merge_seconds, 0.0);
}

// N shards under serial dispatch isolate the shard *semantics* (stale
// snapshot reads within a sweep) from threading: quality must stay in the
// same regime as the single-shard sequential reference.
TEST(ShardExecutorTest, MultiShardMatchesSequentialQuality) {
  const SynthResult data = testing::MakeTinyGraph(44);

  CpdConfig reference_config = BaseConfig();
  reference_config.num_shards = 1;
  EmTrainer reference(data.graph, reference_config);
  ASSERT_TRUE(reference.Train().ok());

  CpdConfig sharded_config = BaseConfig();
  sharded_config.num_shards = 4;
  sharded_config.executor_mode = ExecutorMode::kSerial;
  EmTrainer sharded(data.graph, sharded_config);
  ASSERT_TRUE(sharded.Train().ok());

  const double ref_ll = reference.stats().link_log_likelihood.back();
  const double sharded_ll = sharded.stats().link_log_likelihood.back();
  EXPECT_LT(std::fabs(sharded_ll - ref_ll) / std::fabs(ref_ll), 0.2);
}

TEST(ShardExecutorTest, CollapseCacheCountsHitsAndPreservesQuality) {
  const SynthResult data = testing::MakeTinyGraph(45);

  CpdConfig cached_config = BaseConfig();
  cached_config.cache_eta_collapse = true;
  EmTrainer cached(data.graph, cached_config);
  ASSERT_TRUE(cached.Train().ok());
  // Diffusion links share endpoints, so a training run must register hits.
  EXPECT_GT(cached.stats().eta_collapse_hits, 0);
  EXPECT_GT(cached.stats().eta_collapse_misses, 0);

  CpdConfig uncached_config = BaseConfig();
  uncached_config.cache_eta_collapse = false;
  EmTrainer uncached(data.graph, uncached_config);
  ASSERT_TRUE(uncached.Train().ok());
  EXPECT_EQ(uncached.stats().eta_collapse_hits, 0);
  EXPECT_EQ(uncached.stats().eta_collapse_misses, 0);

  const double cached_ll = cached.stats().link_log_likelihood.back();
  const double uncached_ll = uncached.stats().link_log_likelihood.back();
  EXPECT_LT(std::fabs(cached_ll - uncached_ll) / std::fabs(uncached_ll), 0.2);
}

// MH counters accumulate inside the private shard samplers and the trainer
// sums them into TrainStats::mh after every E-step: on a joint sparse run
// every document makes mh_steps topic and mh_steps community proposals per
// sweep, whatever the shard count.
TEST(ShardExecutorTest, TrainStatsCountEveryShardMhProposal) {
  const SynthResult data = testing::MakeTinyGraph(48);
  for (const int shards : {1, 2, 4}) {
    CpdConfig config = BaseConfig();
    config.sampler_mode = SamplerMode::kSparse;
    config.executor_mode = ExecutorMode::kPooled;
    config.num_threads = 4;
    config.num_shards = shards;
    EmTrainer trainer(data.graph, config);
    ASSERT_TRUE(trainer.Train().ok());
    const int64_t expected = int64_t{config.em_iterations} *
                             config.gibbs_sweeps_per_em *
                             static_cast<int64_t>(data.graph.num_documents()) *
                             config.mh_steps;
    const MhStats& stats = trainer.stats().mh;
    EXPECT_EQ(stats.topic_proposals, expected) << shards << " shards";
    EXPECT_EQ(stats.community_proposals, expected) << shards << " shards";
    EXPECT_GT(stats.TopicAcceptRate(), 0.0) << shards << " shards";
  }
}

TEST(ShardExecutorTest, TrivialPlanCoversAllUsersInOrder) {
  const SynthResult data = testing::MakeTinyGraph(46);
  const ThreadPlan plan = TrivialThreadPlan(data.graph, WorkloadCostModel());
  ASSERT_EQ(plan.users_per_thread.size(), 1u);
  ASSERT_EQ(plan.users_per_thread[0].size(), data.graph.num_users());
  for (size_t u = 0; u < data.graph.num_users(); ++u) {
    EXPECT_EQ(plan.users_per_thread[0][u], static_cast<UserId>(u));
  }
  EXPECT_GT(plan.allocation.thread_workload[0], 0.0);
}

TEST(ShardExecutorTest, ExecutorAccessorAndShardTimings) {
  const SynthResult data = testing::MakeTinyGraph(47);
  CpdConfig config = BaseConfig();
  config.num_threads = 2;
  EmTrainer trainer(data.graph, config);
  ASSERT_TRUE(trainer.Initialize().ok());
  EXPECT_EQ(trainer.executor(), nullptr);  // Built lazily by the first EStep.
  ASSERT_TRUE(trainer.EStep().ok());
  ASSERT_NE(trainer.executor(), nullptr);
  EXPECT_EQ(trainer.executor()->num_shards(), 2);
  EXPECT_EQ(trainer.stats().thread_actual_seconds.size(), 2u);
}

}  // namespace
}  // namespace cpd
