#ifndef CPD_CORE_EM_TRAINER_H_
#define CPD_CORE_EM_TRAINER_H_

/// \file em_trainer.h
/// Variational EM for CPD (paper Alg. 1). The E-step is pure orchestration
/// of the snapshot/delta protocol (§4.3 refactored): per sweep it freezes
/// the master ModelState into a StateSnapshot, dispatches the shard plan
/// (LDA segmentation + knapsack allocation) through a ShardExecutor, folds
/// the returned CounterDeltas together, applies them to the master, and
/// runs the Polya-Gamma augmentation over disjoint link ranges. The M-step
/// re-estimates eta from the merged assignments and fits the factor weights
/// by logistic regression with negative sampling.

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/gibbs_sampler.h"
#include "core/model_config.h"
#include "core/model_state.h"
#include "core/state_snapshot.h"
#include "graph/social_graph.h"
#include "obs/trace.h"
#include "parallel/shard_executor.h"

namespace cpd {

/// Timing/diagnostic record of one training run.
struct TrainStats {
  std::vector<double> link_log_likelihood;  ///< Per EM iteration.
  double e_step_seconds = 0.0;
  double m_step_seconds = 0.0;
  double total_seconds = 0.0;
  /// Snapshot/delta E-step diagnostics: seconds capturing snapshots,
  /// seconds applying CounterDeltas, and the delta volume (documents that
  /// moved, nonzero sparse counter diffs — summed per shard) merged so far.
  double snapshot_seconds = 0.0;
  double merge_seconds = 0.0;
  size_t delta_doc_moves = 0;
  size_t delta_entries = 0;
  /// Eta/theta endpoint-collapse memo counters (cache_eta_collapse).
  int64_t eta_collapse_hits = 0;
  int64_t eta_collapse_misses = 0;
  /// Sparse-backend MH proposal/accept totals, summed over every shard
  /// sweep of the run (zeros under the dense backend).
  MhStats mh;
  /// Per-shard estimated workload and measured time of the last E-step
  /// (Fig. 11 data). One entry per shard (== per thread by default).
  std::vector<double> thread_estimated_workload;
  std::vector<double> thread_actual_seconds;
  size_t num_segments = 0;
  /// Distributed-executor transport counters (cumulative over the run; all
  /// zero for in-process executors). Mirrors DistTransportStats.
  int dist_workers_connected = 0;
  int dist_workers_lost = 0;
  int64_t dist_shards_redispatched = 0;
  uint64_t dist_bytes_out = 0;
  uint64_t dist_bytes_in = 0;
  double dist_serialize_seconds = 0.0;
  double dist_wait_seconds = 0.0;
};

/// Inputs of a warm-started (incremental) training run over a graph that
/// grew from a previously trained one: the first prev_doc_topic.size()
/// documents of the trainer's graph carry their previous assignments, new
/// documents are initialized from the sparse sampler's prior proposal
/// distributions, and only `touched_users` are resampled in the bounded
/// warm sweeps (streaming ingest, see src/ingest).
struct WarmStartOptions {
  /// Previous assignments, indexed by DocId; both spans must have the same
  /// size <= the graph's document count (base DocIds are append-stable).
  std::span<const int32_t> prev_doc_topic;
  std::span<const int32_t> prev_doc_community;

  /// Users whose evidence changed; only the shards' intersection with this
  /// set is resampled in warm sweeps. Empty = resample nobody (a degenerate
  /// batch — say, only a user-count bump — must stay cheap and must never
  /// rewrite untouched assignments; list every user explicitly for a warm
  /// full sweep). Polya-Gamma augmentation always refreshes every link.
  std::span<const UserId> touched_users;

  /// Previous M-step parameters to seed the first warm E-step (empty spans
  /// keep the cold defaults). Shapes must match the config (|C|^2 |Z| and
  /// kNumDiffusionWeights).
  std::span<const double> prev_eta;
  std::span<const double> prev_weights;

  /// Bounded EM iterations (each = gibbs_sweeps_per_em sweeps + one M-step).
  int warm_iterations = 2;
};

class EmTrainer {
 public:
  /// Graph must outlive the trainer.
  EmTrainer(const SocialGraph& graph, const CpdConfig& config);

  /// Replacement executor constructor for tests (e.g. a distributed
  /// coordinator over in-process socketpair workers with fault hooks). Must
  /// be installed before the first EStep/WarmStart builds the executor.
  using ExecutorFactory = std::function<StatusOr<std::unique_ptr<ShardExecutor>>(
      const SocialGraph&, const CpdConfig&, const LinkCaches&, ThreadPlan)>;
  void SetExecutorFactoryForTest(ExecutorFactory factory) {
    executor_factory_ = std::move(factory);
  }

  /// Runs Alg. 1 end to end (handles the "no joint modeling" two-phase
  /// schedule when config.ablation.joint_profiling is false).
  Status Train();

  /// Warm-started incremental run (streaming ingest): restores previous
  /// assignments, initializes new rows by sampling the sparse prior
  /// proposals (c ~ n_uc[u][.] + rho, then z ~ n_cz[c][.] + alpha, counters
  /// advancing as rows land so later rows see earlier ones), then runs
  /// `warm_iterations` bounded EM iterations whose E-step sweeps only the
  /// shards' touched users through the regular ShardExecutor protocol —
  /// serial and pooled dispatch stay bit-identical for the same seed and
  /// shard count. Replaces Initialize()+Train(); always joint (no two-phase
  /// schedule: communities are already detected, this is maintenance).
  Status WarmStart(const WarmStartOptions& options);

  /// Pieces exposed for the scalability benchmarks (Fig. 10): one E-step /
  /// M-step at a time. Initialize() must be called first.
  Status Initialize();
  Status EStep();
  void MStep();

  const ModelState& state() const { return *state_; }
  ModelState* mutable_state() { return state_.get(); }
  const TrainStats& stats() const { return stats_; }
  const LinkCaches& caches() const { return *caches_; }
  GibbsSampler* sampler() { return sampler_.get(); }
  /// The shard executor (null until the first EStep builds it).
  ShardExecutor* executor() { return executor_.get(); }
  /// The trace recorder (null unless config.trace_out is set). Spans
  /// accumulate across EStep/MStep calls; Train()/WarmStart() write the
  /// file at the end of the run.
  obs::TraceRecorder* trace_recorder() { return trace_.get(); }

 private:
  void UpdateEta();
  void TrainDiffusionWeights(Rng* rng);
  Status EnsureExecutor();
  /// Dispatches on ResolvedExecutorMode(): the src/dist coordinator for
  /// kDistributed (which can fail to connect), MakeShardExecutor otherwise,
  /// or the test-injected factory when one is set.
  StatusOr<std::unique_ptr<ShardExecutor>> BuildExecutor(ThreadPlan plan);
  /// Folds the executor's cumulative transport counters into stats_.
  void UpdateTransportStats();
  /// The shard plan EnsureExecutor/WarmStart build their executor over
  /// (TrivialThreadPlan for one shard, LDA segmentation + knapsack else).
  StatusOr<ThreadPlan> BuildPlan();

  const SocialGraph& graph_;
  CpdConfig config_;
  std::unique_ptr<LinkCaches> caches_;
  std::unique_ptr<ModelState> state_;
  std::unique_ptr<GibbsSampler> sampler_;
  Rng rng_;
  TrainStats stats_;
  bool initialized_ = false;
  /// Kernel switches of every shard sweep; Train() flips them for the "no
  /// joint modeling" two-phase schedule.
  KernelFlags flags_;

  // Snapshot/delta E-step plumbing (executor lazily built on first EStep;
  // snapshot and delta buffers reused across sweeps).
  std::unique_ptr<ShardExecutor> executor_;
  StateSnapshot snapshot_;
  std::vector<CounterDelta> deltas_;
  ExecutorFactory executor_factory_;

  /// Writes the accumulated trace to config.trace_out (no-op when tracing
  /// is off); logs a Warning instead of failing the run on IO errors.
  void FlushTrace();

  std::unique_ptr<obs::TraceRecorder> trace_;
  int64_t trace_sweep_ = 0;   ///< Global sweep index across EM iterations.
  int64_t trace_e_step_ = 0;  ///< E-step index for span args.
};

}  // namespace cpd

#endif  // CPD_CORE_EM_TRAINER_H_
