#include "parallel/shard_executor.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <optional>
#include <utility>

#include "parallel/thread_pool.h"
#include "util/logging.h"
#include "util/timer.h"

namespace cpd {

struct ShardRunner::Slot {
  Slot(const SocialGraph& graph, const CpdConfig& config,
       const LinkCaches& caches)
      : working(graph, config), sampler(graph, config, caches, &working) {}
  ModelState working;
  GibbsSampler sampler;
  /// Last StateSnapshot::parameters_version() restored into `working`;
  /// lets Run skip the O(|C|^2 |Z|) parameter copy within an E-step
  /// (eta/weights/popularity only change in the M-step).
  uint64_t params_version = 0;
};

ShardRunner::ShardRunner(const SocialGraph& graph, const CpdConfig& config,
                         const LinkCaches& caches, size_t num_shards,
                         size_t num_slots)
    : graph_(graph), config_(config), shard_seconds_(num_shards, 0.0) {
  CPD_CHECK_GE(num_shards, 1u);
  Rng seeder(config_.seed + 7919);
  streams_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) streams_.push_back(seeder.Split());
  slots_.reserve(num_slots);
  for (size_t i = 0; i < num_slots; ++i) {
    slots_.push_back(std::make_unique<Slot>(graph, config_, caches));
    slots_.back()->sampler.UseExternalSparseTables(&tables_);
  }
}

ShardRunner::~ShardRunner() = default;

void ShardRunner::RebuildTables(const StateSnapshot& snapshot,
                                ThreadPool* pool) {
  if (config_.sampler_mode == SamplerMode::kSparse) {
    tables_.Rebuild(snapshot, pool);
  }
}

void ShardRunner::Run(size_t slot_index, std::span<const UserId> users,
                      const StateSnapshot& snapshot, const KernelFlags& flags,
                      Rng* rng, CounterDelta* delta) {
  delta->Clear();
  if (users.empty()) return;
  Slot& slot = *slots_[slot_index];
  snapshot.RestoreSweepStateTo(&slot.working);
  if (slot.params_version != snapshot.parameters_version()) {
    snapshot.RestoreParametersTo(&slot.working);
    slot.params_version = snapshot.parameters_version();
  }
  slot.sampler.set_flags(flags);
  slot.sampler.SweepUsers(users, rng);
  for (UserId u : users) {
    for (DocId d : graph_.DocumentsOf(u)) {
      const size_t di = static_cast<size_t>(d);
      delta->RecordMove(graph_.document(d), d, snapshot.CommunityOf(d),
                        snapshot.TopicOf(d), slot.working.doc_community[di],
                        slot.working.doc_topic[di], config_.num_communities,
                        config_.num_topics, slot.working.vocab_size);
    }
  }
}

void ShardRunner::Augment(size_t shard, GibbsSampler* master) {
  WallTimer timer;
  const size_t nf = graph_.num_friendship_links();
  const size_t ne = graph_.num_diffusion_links();
  const size_t shards = num_shards();
  master->SweepFriendshipAugmentation(nf * shard / shards,
                                      nf * (shard + 1) / shards,
                                      &streams_[shard]);
  master->SweepDiffusionAugmentation(ne * shard / shards,
                                     ne * (shard + 1) / shards,
                                     &streams_[shard]);
  shard_seconds_[shard] += timer.ElapsedSeconds();
}

void ShardRunner::ResetTimings() {
  shard_seconds_.assign(shard_seconds_.size(), 0.0);
}

MhStats ShardRunner::ConsumeMhStats() {
  MhStats total = mh_;
  for (const auto& slot : slots_) {
    total += slot->sampler.mh_stats();
    slot->sampler.ResetMhStats();
  }
  mh_ = MhStats();
  return total;
}

CollapseCacheStats ShardRunner::ConsumeCollapseCacheStats() {
  CollapseCacheStats total = collapse_;
  for (const auto& slot : slots_) {
    total += slot->sampler.collapse_cache_stats();
    slot->sampler.ResetCollapseCacheStats();
  }
  collapse_ = CollapseCacheStats();
  return total;
}

namespace {

/// Runs the shards in-process: on the calling thread with one slot, or on a
/// pool with one slot per worker (at most that many shards run at once, so
/// memory scales with threads, not shards).
class LocalExecutor final : public ShardExecutor {
 public:
  LocalExecutor(const SocialGraph& graph, const CpdConfig& config,
                const LinkCaches& caches, ThreadPlan plan, size_t threads)
      : ShardExecutor(graph, config, caches, plan.users_per_thread.size(),
                      std::min(threads, plan.users_per_thread.size())),
        plan_(std::move(plan)) {
    if (threads > 1) pool_.emplace(threads);
  }

  Status SampleShards(const StateSnapshot& snapshot, const KernelFlags& flags,
                      std::vector<CounterDelta>* deltas) override {
    CPD_CHECK(snapshot.captured());
    deltas->resize(runner_.num_shards());
    runner_.RebuildTables(snapshot, pool_ ? &*pool_ : nullptr);
    ForEachShard([&](size_t slot, size_t shard) {
      WallTimer timer;
      runner_.Run(slot, plan_.users_per_thread[shard], snapshot, flags,
                  &runner_.stream(shard), &(*deltas)[shard]);
      runner_.AddShardSeconds(shard, timer.ElapsedSeconds());
    });
    return Status::OK();
  }

  Status SweepAugmentation(GibbsSampler* master_sampler) override {
    ForEachShard([&](size_t /*slot*/, size_t shard) {
      runner_.Augment(shard, master_sampler);
    });
    return Status::OK();
  }

 private:
  /// Runs fn(slot, shard) for every shard: each slot's task claims shards
  /// in order until none is left, so no two shards share a slot at once.
  void ForEachShard(const std::function<void(size_t, size_t)>& fn) {
    std::atomic<size_t> next{0};
    const auto drain = [&](size_t slot) {
      for (size_t s; (s = next.fetch_add(1)) < runner_.num_shards();) {
        fn(slot, s);
      }
    };
    if (!pool_) return drain(0);
    ParallelFor(&*pool_, runner_.num_slots(), drain);
  }

  const ThreadPlan plan_;
  std::optional<ThreadPool> pool_;
};

}  // namespace

std::unique_ptr<ShardExecutor> MakeShardExecutor(const SocialGraph& graph,
                                                 const CpdConfig& config,
                                                 const LinkCaches& caches,
                                                 ThreadPlan plan) {
  // Distributed executors are built through MakeDistributedExecutor
  // (src/dist): connecting can fail, so it returns StatusOr.
  CPD_CHECK(config.ResolvedExecutorMode() != ExecutorMode::kDistributed);
  const int threads =
      config.ResolvedExecutorMode() == ExecutorMode::kPooled
          ? std::max(1, config.num_threads)
          : 1;
  return std::make_unique<LocalExecutor>(graph, config, caches,
                                         std::move(plan),
                                         static_cast<size_t>(threads));
}

}  // namespace cpd
