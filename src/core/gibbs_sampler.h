#ifndef CPD_CORE_GIBBS_SAMPLER_H_
#define CPD_CORE_GIBBS_SAMPLER_H_

/// \file gibbs_sampler.h
/// Collapsed Gibbs sampler with Polya-Gamma augmentation for CPD
/// (paper §4.1, Eqs. 13-16). There is one sweep protocol: a sampler owns
/// one ModelState and sweeps it from one thread with plain counter updates.
/// The parallel E-step of §4.3 gets its parallelism from
/// shards, not from shared counters: each ShardRunner slot binds one
/// sampler to a private working state restored from a StateSnapshot, and
/// the trainer merges the shards' CounterDeltas (parallel/shard_executor.h).
///
/// Two interchangeable E-step backends (CpdConfig::sampler_mode):
///  - kDense: exact conditional scan over every candidate topic/community in
///    log space. O(|Z|) resp. O(|C|) heavy log/exp evaluations per document.
///    Reference implementation; bit-for-bit the seed behavior.
///  - kSparse: the conditional is decomposed into a dense prior term served
///    by stale Walker alias tables (SparseSamplerTables, rebuilt once per
///    sweep) and sparse count terms iterated over nonzero entries only, with
///    a Metropolis-Hastings acceptance step correcting for proposal
///    staleness (LightLDA-style cycle proposals). Amortized cost per
///    document is O(len + links) per MH step instead of O(|Z| * len) /
///    O(|C| * links); the stationary distribution is identical.

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/diffusion_features.h"
#include "core/model_config.h"
#include "core/model_state.h"
#include "graph/social_graph.h"
#include "sampling/alias_table.h"
#include "sampling/polya_gamma.h"
#include "util/rng.h"

namespace cpd {

class StateSnapshot;
class ThreadPool;

/// Stale alias proposal tables for the sparse E-step. Rebuilt once per sweep
/// from the current counts and read-only until the next rebuild; the MH
/// correction in the sparse kernels uses AliasTable::Probability() (the
/// build-time distribution) so staleness costs acceptance rate, never
/// correctness.
struct SparseSamplerTables {
  /// community_topic[c] draws z with q_c(z) proportional to n_cz[c][z] +
  /// alpha — the community-prior proposal of the topic conditional (Eq. 13).
  std::vector<AliasTable> community_topic;

  /// word_topic[w] draws z with q_w(z) proportional to n_zw[z][w] + beta —
  /// the word proposal (cycled with the prior proposal, as in LightLDA).
  std::vector<AliasTable> word_topic;

  bool ready() const { return !community_topic.empty(); }

  /// Rebuilds every table serially from the state's current counts (the
  /// sampler's own tables, at the start of SweepDocuments).
  void Rebuild(const ModelState& state);

  /// Same rebuild, reading the frozen counts of a StateSnapshot directly and
  /// sharded over `pool` when non-null — the shard executors use this once
  /// per sweep so no working state has to be materialized for the tables.
  void Rebuild(const StateSnapshot& snapshot, ThreadPool* pool);
};

/// Metropolis-Hastings diagnostics of the sparse sampler. Self-proposals
/// count as accepted (they are); rates near zero indicate pathologically
/// stale tables, rates near one a near-exact proposal.
struct MhStats {
  int64_t topic_proposals = 0;
  int64_t topic_accepts = 0;
  int64_t community_proposals = 0;
  int64_t community_accepts = 0;

  double TopicAcceptRate() const {
    return topic_proposals > 0
               ? static_cast<double>(topic_accepts) /
                     static_cast<double>(topic_proposals)
               : 0.0;
  }
  double CommunityAcceptRate() const {
    return community_proposals > 0
               ? static_cast<double>(community_accepts) /
                     static_cast<double>(community_proposals)
               : 0.0;
  }
  MhStats& operator+=(const MhStats& other) {
    topic_proposals += other.topic_proposals;
    topic_accepts += other.topic_accepts;
    community_proposals += other.community_proposals;
    community_accepts += other.community_accepts;
    return *this;
  }
};

/// Switches of the "no joint modeling" two-phase schedule: phase A detects
/// communities from friendship links only (content and diffusion excluded
/// from the community weights), phase B freezes communities. The trainer
/// owns the schedule's flags and hands them to every shard sweep.
struct KernelFlags {
  bool freeze_communities = false;
  bool community_uses_content = true;
  bool community_uses_diffusion = true;
};

/// Hit/miss counters of the per-sweep eta/theta endpoint-collapse memo (the
/// diffusion-link community term; see CpdConfig::cache_eta_collapse).
struct CollapseCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  double HitRate() const {
    const int64_t total = hits + misses;
    return total > 0 ? static_cast<double>(hits) / static_cast<double>(total)
                     : 0.0;
  }
  CollapseCacheStats& operator+=(const CollapseCacheStats& other) {
    hits += other.hits;
    misses += other.misses;
    return *this;
  }
};

class GibbsSampler {
 public:
  /// The sampler keeps references; graph/caches must outlive it and state is
  /// mutated in place.
  GibbsSampler(const SocialGraph& graph, const CpdConfig& config,
               const LinkCaches& caches, ModelState* state);

  /// One full sweep: resamples z_ui and c_ui for every document (Alg. 1
  /// steps 4-6). In sparse mode the internal alias tables are rebuilt first
  /// (unless external tables are in use).
  void SweepDocuments(Rng* rng);

  /// Sweeps only the documents of the given users, in order. In sparse mode
  /// the active tables must be ready (SweepDocuments or an executor rebuilds
  /// them once per sweep).
  void SweepUsers(std::span<const UserId> users, Rng* rng);

  /// Resamples every lambda_uv ~ PG(1, pihat_u . pihat_v) (Eq. 15),
  /// optionally restricted to a range of link indices [begin, end).
  void SweepFriendshipAugmentation(Rng* rng);
  void SweepFriendshipAugmentation(size_t begin, size_t end, Rng* rng);

  /// Resamples every delta_ij ~ PG(1, w_ij) (Eq. 16), optionally restricted
  /// to a range of link indices.
  void SweepDiffusionAugmentation(Rng* rng);
  void SweepDiffusionAugmentation(size_t begin, size_t end, Rng* rng);

  /// Points the sparse kernels at an externally owned, already-rebuilt table
  /// set. The shard executors rebuild one table set per sweep from the
  /// snapshot counts and share it read-only across every shard sampler
  /// (staleness is MH-corrected, exactly like the single-sampler case).
  /// Pass nullptr to fall back to the internally owned tables.
  void UseExternalSparseTables(const SparseSamplerTables* tables) {
    external_tables_ = tables;
  }

  /// Per-sweep collapse-memo counters (aggregated into TrainStats).
  const CollapseCacheStats& collapse_cache_stats() const { return collapse_; }
  void ResetCollapseCacheStats() { collapse_ = CollapseCacheStats(); }

  /// MH acceptance counters since the last reset (sparse mode only; the
  /// trainer sums its shard samplers' into TrainStats::mh).
  const MhStats& mh_stats() const { return mh_; }
  void ResetMhStats() { mh_ = MhStats(); }

  /// w_ij of Eq. 5 (or the Eq. 3 energy under the no-heterogeneity
  /// ablation) for diffusion link index e under the current state.
  double DiffusionEnergy(size_t e) const;

  /// pihat_u . pihat_v for friendship link index f.
  double FriendshipEnergy(size_t f) const;

  /// Sum over observed links of log sigmoid(energy) — a training diagnostic
  /// (increases as the model fits the links).
  double LinkLogLikelihood() const;

  /// The two-phase schedule's switches the kernels obey (default: joint).
  void set_flags(const KernelFlags& flags) { flags_ = flags; }
  const KernelFlags& flags() const { return flags_; }

 private:
  /// log psi(w, x) = w/2 - x w^2 / 2 (the PG mixture kernel, Eq. 7).
  static double LogPsi(double w, double x) { return 0.5 * w - 0.5 * x * w * w; }

  /// Energy of a diffusion link given explicit endpoint users/topic; used by
  /// both DiffusionEnergy and candidate evaluation.
  double LinkEnergyParts(UserId u, UserId v, int z, int32_t time, size_t e,
                         double community_score) const;

  /// Per-document kernels: the exact dense scan and the alias + MH sparse
  /// backend of the topic (Eq. 13) and community (Eq. 14) conditionals.
  void ResampleTopicDense(DocId d, Rng* rng);
  void ResampleCommunityDense(DocId d, Rng* rng);
  void ResampleTopicSparse(DocId d, Rng* rng);
  void ResampleCommunitySparse(DocId d, Rng* rng);

  /// Shared counter bookkeeping: adds `by` (+1 or -1) times one document's
  /// contribution to the topic-side (n_cz, n_c, n_zw, n_z) or community-side
  /// (n_uc through the row cache, n_u, n_cz, n_c) counters.
  void BumpDocTopicCounts(const Document& doc, int32_t c, int32_t z,
                          int32_t by);
  void BumpDocCommunityCounts(UserId u, int32_t c, int32_t z, int32_t by);

  /// Exact (current-counts) unnormalized log conditional of topic z for
  /// document d in community c — the MH target of the sparse topic kernel.
  double TopicLogWeight(DocId d, const Document& doc, int32_t c, int z) const;

  /// Shared candidate-vector math of the community conditional (Eq. 14),
  /// used identically by the dense scan and the sparse MH evaluator so the
  /// two backends cannot diverge. Both fill out[0..|C|) with the
  /// candidate-indexed term of one link and return base = sum_c q[c]*out[c],
  /// the candidate-independent part of the shifted-membership dot.
  ///
  /// Membership-dot links (friendship, or diffusion under the
  /// no-heterogeneity ablation): out[c] = pihat_{other,c}.
  double FillMembershipVector(UserId other, const double* q,
                              double* out) const;

  /// Heterogeneous diffusion links: computes the eta endpoint collapse
  ///   source side: out[c]  = th[c]  sum_c' eta[c][c'][z_e] th[c'] pio[c']
  ///   target side: out[c'] = th[c'] sum_c  eta[c][c'][z_e] th[c]  pio[c]
  /// where th[.] = ThetaHat(., z_e) and pio is the fixed endpoint's
  /// membership — O(|C|^2) per call.
  void ComputeEtaCollapse(UserId other, int z_e, bool is_source,
                          double* out) const;

  /// Cached front end of ComputeEtaCollapse: within a sweep the collapse is
  /// keyed by (other, z_e, is_source), so repeated links sharing the key
  /// cost an O(|C|) lookup instead of the O(|C|^2) recompute. The returned
  /// pointer (|C| doubles) is valid until the next call. Cached values go
  /// stale as the sweep moves counts and the staleness is NOT MH-corrected
  /// (it enters the MH target) — an AD-LDA-class approximation, so the
  /// memo is only active inside *sparse* sweeps with
  /// config.cache_eta_collapse set; dense kernels and direct calls always
  /// get a fresh exact computation.
  const double* CollapsedEtaVector(UserId other, int z_e, bool is_source);

  /// The table set the sparse kernels read (external when shared by an
  /// executor, internal otherwise).
  const SparseSamplerTables& active_tables() const {
    return external_tables_ != nullptr ? *external_tables_ : tables_;
  }

  /// Activates (sparse mode + config flag) and clears the collapse memo for
  /// one sweep; SweepUsers resets collapse_cache_active_ when it ends.
  void BeginCollapseMemoSweep();

  const SocialGraph& graph_;
  const CpdConfig& config_;
  const LinkCaches& caches_;
  ModelState* state_;
  PolyaGammaSampler pg_;

  SparseSamplerTables tables_;
  const SparseSamplerTables* external_tables_ = nullptr;

  // Per-sweep eta/theta collapse memo (key -> offset of a |C|-vector in
  // collapse_vectors_). Cleared at sweep start.
  std::unordered_map<uint64_t, size_t> collapse_index_;
  std::vector<double> collapse_vectors_;
  bool collapse_cache_active_ = false;
  CollapseCacheStats collapse_;

  MhStats mh_;
  KernelFlags flags_;
};

}  // namespace cpd

#endif  // CPD_CORE_GIBBS_SAMPLER_H_
