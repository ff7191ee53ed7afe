#ifndef CPD_PARALLEL_SHARD_EXECUTOR_H_
#define CPD_PARALLEL_SHARD_EXECUTOR_H_

/// \file shard_executor.h
/// Dispatch seam of the snapshot/delta E-step (§4.3 refactored): the trainer
/// freezes the master ModelState into a StateSnapshot, hands the executor
/// the snapshot plus kernel flags, and gets back one CounterDelta per shard
/// to merge. Shards are the ThreadPlan's user lists (LDA segmentation +
/// knapsack allocation, Eq. 17).
///
/// Everything a shard's sweep needs lives in one ShardRunner: the per-shard
/// RNG streams, the working slots (private ModelState + GibbsSampler over
/// one shared alias-proposal table set), the sweep itself (Run) and the
/// per-shard augmentation link range. Every executor drives that runner:
/// the local executor runs shards on the calling thread or its pool, the
/// distributed coordinator (src/dist) keeps the streams, augmentation and
/// totals while each cpd_worker calls Run. Because streams attach to
/// shards, not threads or processes, serial, pooled and distributed runs
/// with the same seed and shard count produce bit-identical counters.

#include <memory>
#include <span>
#include <vector>

#include "core/diffusion_features.h"
#include "core/gibbs_sampler.h"
#include "core/model_config.h"
#include "core/state_snapshot.h"
#include "graph/social_graph.h"
#include "parallel/segmenter.h"
#include "util/status.h"

namespace cpd::obs {
class TraceRecorder;
}  // namespace cpd::obs

namespace cpd {

class ThreadPool;

/// The one implementation of a shard's sweep and of the per-shard state
/// around it. A slot is one reusable working set; a shard fully restores it
/// from the snapshot first, so slot identity never affects results.
class ShardRunner {
 public:
  /// `num_slots` working sets bound to `graph` (0 for a coordinator that
  /// samples nowhere). Graph and caches must outlive the runner.
  ShardRunner(const SocialGraph& graph, const CpdConfig& config,
              const LinkCaches& caches, size_t num_shards, size_t num_slots);
  ~ShardRunner();

  size_t num_shards() const { return streams_.size(); }
  size_t num_slots() const { return slots_.size(); }
  /// Shard `shard`'s RNG stream, split in shard order from the config seed.
  Rng& stream(size_t shard) { return streams_[shard]; }

  /// Sparse mode: rebuilds the shared stale proposal tables once per sweep
  /// from the snapshot counts, sharded over `pool` when non-null.
  void RebuildTables(const StateSnapshot& snapshot, ThreadPool* pool);

  /// The shard sweep on slot `slot`: restores the snapshot's sweep state
  /// (parameters only when their version changed), sets `flags`, sweeps
  /// `users` drawing from `rng` and records every document's move into
  /// `delta`. Empty `users` leave the slot and `rng` untouched.
  void Run(size_t slot, std::span<const UserId> users,
           const StateSnapshot& snapshot, const KernelFlags& flags, Rng* rng,
           CounterDelta* delta);

  /// Phase 2 for shard `shard`: Polya-Gamma augmentation of its disjoint
  /// contiguous range of friendship/diffusion links directly on the master
  /// sampler's merged state, with the shard's stream. Race-free across
  /// shards without atomics; the wall time adds to shard_seconds().
  void Augment(size_t shard, GibbsSampler* master);

  /// Per-shard wall-clock accumulated since ResetTimings() (Fig. 11 data).
  const std::vector<double>& shard_seconds() const { return shard_seconds_; }
  void AddShardSeconds(size_t shard, double seconds) {
    shard_seconds_[shard] += seconds;
  }
  void ResetTimings();

  /// Adds counters measured elsewhere (a worker's shard result).
  void AddStats(const MhStats& mh, const CollapseCacheStats& collapse) {
    mh_ += mh;
    collapse_ += collapse;
  }
  /// Return and clear the totals, every slot sampler's counters included.
  MhStats ConsumeMhStats();
  CollapseCacheStats ConsumeCollapseCacheStats();

 private:
  struct Slot;

  const SocialGraph& graph_;
  const CpdConfig config_;  ///< By value: slot samplers keep references.
  SparseSamplerTables tables_;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<Rng> streams_;
  std::vector<double> shard_seconds_;
  MhStats mh_;
  CollapseCacheStats collapse_;
};

/// Cumulative transport counters of a distributed executor (src/dist), null
/// for in-process executors. Folded into TrainStats after every E-step.
struct DistTransportStats {
  int workers_connected = 0;  ///< Sessions established at startup.
  int workers_lost = 0;       ///< Disconnects + deadline kills since startup.
  int64_t shards_redispatched = 0;
  int64_t sweeps = 0;
  uint64_t bytes_out = 0;
  uint64_t bytes_in = 0;
  /// Coordinator-side encode + decode time (snapshot out, deltas in).
  double serialize_seconds = 0.0;
  /// Time the coordinator spent blocked waiting for shard results.
  double wait_seconds = 0.0;
};

/// An E-step executor over one ShardRunner; subclasses differ only in where
/// the shards sample.
class ShardExecutor {
 public:
  virtual ~ShardExecutor() = default;

  int num_shards() const { return static_cast<int>(runner_.num_shards()); }

  /// Phase 1 of a sweep: every shard restores its private working state
  /// from `snapshot`, sweeps its users and emits the sparse diff of its
  /// moves. `deltas` is resized to num_shards(); the master state is never
  /// touched.
  virtual Status SampleShards(const StateSnapshot& snapshot,
                              const KernelFlags& flags,
                              std::vector<CounterDelta>* deltas) = 0;

  /// Phase 2 of a sweep: ShardRunner::Augment for every shard.
  virtual Status SweepAugmentation(GibbsSampler* master_sampler) = 0;

  const std::vector<double>& shard_seconds() const {
    return runner_.shard_seconds();
  }
  void ResetTimings() { runner_.ResetTimings(); }

  /// Sum and clear the shards' collapse-memo and MH acceptance counters
  /// (the trainer adds them to TrainStats after every E-step).
  CollapseCacheStats ConsumeCollapseCacheStats() {
    return runner_.ConsumeCollapseCacheStats();
  }
  MhStats ConsumeMhStats() { return runner_.ConsumeMhStats(); }

  /// Cumulative transport counters; non-null only for the distributed
  /// executor.
  virtual const DistTransportStats* transport_stats() const { return nullptr; }

  /// Installs the trainer's trace recorder (null = tracing off, the
  /// default). Executors with per-worker structure (src/dist) emit their
  /// own rows into it; the local executor relies on the trainer's
  /// per-sweep spans and ignores it.
  virtual void SetTraceRecorder(obs::TraceRecorder* /*recorder*/) {}

 protected:
  ShardExecutor(const SocialGraph& graph, const CpdConfig& config,
                const LinkCaches& caches, size_t num_shards, size_t num_slots)
      : runner_(graph, config, caches, num_shards, num_slots) {}

  ShardRunner runner_;
};

/// Builds the local executor over the given shard plan: kSerial runs the
/// shards on the calling thread, kPooled (or kAuto with num_threads > 1)
/// over a pool of `config.num_threads` workers.
std::unique_ptr<ShardExecutor> MakeShardExecutor(const SocialGraph& graph,
                                                 const CpdConfig& config,
                                                 const LinkCaches& caches,
                                                 ThreadPlan plan);

}  // namespace cpd

#endif  // CPD_PARALLEL_SHARD_EXECUTOR_H_
