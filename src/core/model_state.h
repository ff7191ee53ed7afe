#ifndef CPD_CORE_MODEL_STATE_H_
#define CPD_CORE_MODEL_STATE_H_

/// \file model_state.h
/// Mutable inference state of the CPD sampler: topic/community assignments
/// per document, the collapsed count matrices of §4.1, the Polya-Gamma
/// augmentation variables, and the model parameters eta / nu / factor
/// weights. Data members are public by design — the Gibbs sampler and the
/// M-step are performance-critical and operate on the raw arrays.
///
/// In the snapshot/delta E-step (§4.3, state_snapshot.h) there is one
/// master ModelState owned by the trainer plus one private working copy per
/// executor slot; StateSnapshot freezes the master's mutable arrays per
/// sweep and restores them into the working copies, and the master advances
/// only by merged CounterDeltas.

#include <cstdint>
#include <span>
#include <vector>

#include "core/diffusion_features.h"
#include "core/model_config.h"
#include "graph/social_graph.h"
#include "util/rng.h"

namespace cpd {

/// Index of the learned factor weights (the logistic regression of the
/// M-step learns "how much each factor contributes", §3.1): the community
/// term c_bar^T eta_bar, the popularity term n_tz, four user features, bias.
inline constexpr int kWeightEta = 0;
inline constexpr int kWeightPopularity = 1;
inline constexpr int kWeightFeature0 = 2;  // .. kWeightFeature0+3
inline constexpr int kWeightBias = kWeightFeature0 + kNumUserFeatures;
inline constexpr int kNumDiffusionWeights = kWeightBias + 1;

/// One nonzero entry of a count row (index into the row + its count).
struct SparseCount {
  int32_t index = 0;
  int32_t count = 0;
  friend bool operator==(const SparseCount&, const SparseCount&) = default;
};

struct ModelState {
  ModelState(const SocialGraph& graph, const CpdConfig& config);

  /// CSR word-histogram view of every document, built once at construction.
  /// The sparse sampler evaluates the Dirichlet-multinomial word term over
  /// unique words (O(distinct) instead of the dense path's O(len^2)
  /// repeated-word rescans).
  struct DocWordView {
    std::vector<size_t> offsets;       ///< num_documents + 1.
    std::vector<SparseCount> entries;  ///< (word, multiplicity) runs.
    std::span<const SparseCount> Row(DocId d) const {
      return std::span<const SparseCount>(entries)
          .subspan(offsets[static_cast<size_t>(d)],
                   offsets[static_cast<size_t>(d) + 1] -
                       offsets[static_cast<size_t>(d)]);
    }
  };

  /// Random initial assignments; topics are drawn per document. Communities
  /// are drawn per document by default; with per_user_communities all of a
  /// user's documents start in one random community. The per-user start
  /// matters for friendship-only detection ("no joint" phase A): uniform
  /// per-document draws leave every pihat_u near-uniform, a symmetric fixed
  /// point where the friendship energy (Eq. 3) has no gradient. The joint
  /// model prefers the per-document start (content breaks symmetry first;
  /// block starts create sticky wrong commitments under a sparse rho).
  /// Counters are NOT built; call RebuildCounts afterwards.
  void InitializeRandom(const SocialGraph& graph, Rng* rng,
                        bool per_user_communities = false);

  /// Recomputes all count matrices from the current assignments (used by
  /// tests to verify sampler invariants and by the parallel driver after
  /// merging).
  void RebuildCounts(const SocialGraph& graph);

  /// Adds one document's contribution (assigned community c, topic z) to
  /// every counter — the replay step of RebuildCounts and of a warm start.
  /// A bulk write: it bypasses the n_uc row cache, so callers invalidate.
  void AddDocumentCounts(const Document& doc, int32_t c, int32_t z);

  // ----- sizes -----
  int num_communities = 0;
  int num_topics = 0;
  size_t num_users = 0;
  size_t num_documents = 0;
  size_t vocab_size = 0;
  double alpha = 0.0;
  double rho = 0.0;
  double beta = 0.0;

  // ----- assignments (per document) -----
  std::vector<int32_t> doc_topic;      ///< z_ui
  std::vector<int32_t> doc_community;  ///< c_ui

  // ----- sparse count views (sparse E-step, §4.3 perf work) -----
  /// Per-document word histograms (immutable once built).
  DocWordView doc_words;

  /// Appends the nonzero entries of user u's community row n_uc[u][.] to
  /// *out* (cleared first). A plain row scan; tests check the cached
  /// UserCommunityRow, which the sparse sampler reads, against it.
  void NonzeroUserCommunities(UserId u, std::vector<SparseCount>* out) const;

  /// Cached variant of NonzeroUserCommunities: the row is scanned once and
  /// then patched incrementally by BumpUserCommunity, so a user's later
  /// documents in the same sweep pay O(k_u) instead of O(|C|). The view is
  /// valid until the next BumpUserCommunity/invalidation for this user; the
  /// entry order is scan order plus appended re-entries (any order is a
  /// correct categorical support, and the order is deterministic). Not
  /// thread-safe: a row belongs to the one sampler sweeping this state (every
  /// sweep is shard-local and single-threaded).
  std::span<const SparseCount> UserCommunityRow(UserId u);

  /// Write-through n_uc update: adjusts the counter and, if user u's cached
  /// row is live, patches it in place (erasing emptied entries, appending
  /// new ones). Every sampler n_uc mutation must go through here;
  /// bulk writers (RebuildCounts, snapshot restore, delta apply) instead
  /// invalidate the affected rows.
  void BumpUserCommunity(UserId u, int32_t c, int32_t delta);

  /// Drops every cached row (bulk n_uc rewrite) or only the given users'
  /// rows (sweep start for a shard's user span).
  void InvalidateUserCommunityRows();
  void InvalidateUserCommunityRows(std::span<const UserId> users);

  // ----- collapsed counters (Table 2 / §4.1) -----
  std::vector<int32_t> n_uc;  ///< |U|x|C|: docs of u assigned to community c.
  std::vector<int32_t> n_u;   ///< |U|: docs of u (constant once built).
  std::vector<int32_t> n_cz;  ///< |C|x|Z|: docs in community c with topic z.
  std::vector<int32_t> n_c;   ///< |C|: docs in community c.
  std::vector<int32_t> n_zw;  ///< |Z|x|W|: word w occurrences with topic z.
  std::vector<int64_t> n_z;   ///< |Z|: words assigned to topic z.

  // ----- Polya-Gamma augmentation -----
  std::vector<double> lambda;  ///< Per friendship link (Eq. 8/15).
  std::vector<double> delta;   ///< Per diffusion link (Eq. 9/16).

  // ----- model parameters -----
  std::vector<double> eta;      ///< |C|x|C|x|Z| diffusion profile tensor.
  std::vector<double> weights;  ///< kNumDiffusionWeights factor weights.

  /// Topic popularity n_tz; refreshed by the trainer.
  PopularityTable popularity;

  // ----- smoothed estimates -----
  /// pihat_{u,c} = (n_uc + rho) / (n_u + |C| rho).
  double PiHat(UserId u, int c) const {
    return (static_cast<double>(
                n_uc[static_cast<size_t>(u) * static_cast<size_t>(num_communities) +
                     static_cast<size_t>(c)]) +
            rho) /
           (static_cast<double>(n_u[static_cast<size_t>(u)]) +
            static_cast<double>(num_communities) * rho);
  }

  /// thetahat_{c,z} = (n_cz + alpha) / (n_c + |Z| alpha).
  double ThetaHat(int c, int z) const {
    return (static_cast<double>(
                n_cz[static_cast<size_t>(c) * static_cast<size_t>(num_topics) +
                     static_cast<size_t>(z)]) +
            alpha) /
           (static_cast<double>(n_c[static_cast<size_t>(c)]) +
            static_cast<double>(num_topics) * alpha);
  }

  /// phihat_{z,w} = (n_zw + beta) / (n_z + |W| beta).
  double PhiHat(int z, WordId w) const {
    return (static_cast<double>(n_zw[static_cast<size_t>(z) * vocab_size +
                                     static_cast<size_t>(w)]) +
            beta) /
           (static_cast<double>(n_z[static_cast<size_t>(z)]) +
            static_cast<double>(vocab_size) * beta);
  }

  double& EtaAt(int c, int c2, int z) {
    return eta[(static_cast<size_t>(c) * static_cast<size_t>(num_communities) +
                static_cast<size_t>(c2)) *
                   static_cast<size_t>(num_topics) +
               static_cast<size_t>(z)];
  }
  double EtaAt(int c, int c2, int z) const {
    return eta[(static_cast<size_t>(c) * static_cast<size_t>(num_communities) +
                static_cast<size_t>(c2)) *
                   static_cast<size_t>(num_topics) +
               static_cast<size_t>(z)];
  }

  /// pihat_u . pihat_v (Eq. 3 energy).
  double MembershipDot(UserId u, UserId v) const;

  // ----- n_uc row cache (see UserCommunityRow) -----
  /// Lazily allocated on first UserCommunityRow call; rows[u] is live iff
  /// row_valid[u]. Kept at the bottom: the sampler's hot arrays above keep
  /// their layout.
  std::vector<std::vector<SparseCount>> uc_row_cache;
  std::vector<uint8_t> uc_row_valid;

  /// The community-factor score S_eta = c_bar_ij^T eta_bar (Eq. 4) for users
  /// u (diffusing) and v (diffused) on topic z, under current estimates.
  double CommunityDiffusionScore(UserId u, UserId v, int z) const;
};

}  // namespace cpd

#endif  // CPD_CORE_MODEL_STATE_H_
