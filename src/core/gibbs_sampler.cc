#include "core/gibbs_sampler.h"

#include <cmath>

#include "core/state_snapshot.h"
#include "parallel/thread_pool.h"
#include "sampling/distributions.h"
#include "util/logging.h"
#include "util/math_util.h"

namespace cpd {

namespace {

// Shared body of the two Rebuild overloads: (re)builds the per-community
// and per-word alias tables from raw count arrays.
void RebuildTablesFromCounts(SparseSamplerTables* tables, const int32_t* n_cz,
                             const int32_t* n_zw, int kc, int kz, size_t vocab,
                             double alpha, double beta, ThreadPool* pool) {
  tables->community_topic.resize(static_cast<size_t>(kc));
  tables->word_topic.resize(vocab);

  const auto build_community = [tables, n_cz, kz, alpha](size_t c) {
    static thread_local std::vector<double> weights;
    weights.resize(static_cast<size_t>(kz));
    const size_t base = c * static_cast<size_t>(kz);
    for (int z = 0; z < kz; ++z) {
      weights[static_cast<size_t>(z)] =
          static_cast<double>(n_cz[base + static_cast<size_t>(z)]) + alpha;
    }
    tables->community_topic[c].Rebuild(weights);
  };
  const auto build_word = [tables, n_zw, kz, vocab, beta](size_t w) {
    static thread_local std::vector<double> weights;
    weights.resize(static_cast<size_t>(kz));
    for (int z = 0; z < kz; ++z) {
      weights[static_cast<size_t>(z)] =
          static_cast<double>(n_zw[static_cast<size_t>(z) * vocab + w]) + beta;
    }
    tables->word_topic[w].Rebuild(weights);
  };

  if (pool != nullptr && pool->num_threads() > 1) {
    // Shard whole table groups per worker; each alias rebuild is O(|Z|) so
    // chunking by index keeps the per-task overhead negligible.
    ParallelFor(pool, static_cast<size_t>(kc), build_community);
    ParallelFor(pool, vocab, build_word);
  } else {
    for (size_t c = 0; c < static_cast<size_t>(kc); ++c) build_community(c);
    for (size_t w = 0; w < vocab; ++w) build_word(w);
  }
}

}  // namespace

void SparseSamplerTables::Rebuild(const ModelState& state) {
  RebuildTablesFromCounts(this, state.n_cz.data(), state.n_zw.data(),
                          state.num_communities, state.num_topics,
                          state.vocab_size, state.alpha, state.beta, nullptr);
}

void SparseSamplerTables::Rebuild(const StateSnapshot& snapshot,
                                  ThreadPool* pool) {
  RebuildTablesFromCounts(this, snapshot.n_cz().data(), snapshot.n_zw().data(),
                          snapshot.num_communities(), snapshot.num_topics(),
                          snapshot.vocab_size(), snapshot.alpha(),
                          snapshot.beta(), pool);
}

GibbsSampler::GibbsSampler(const SocialGraph& graph, const CpdConfig& config,
                           const LinkCaches& caches, ModelState* state)
    : graph_(graph), config_(config), caches_(caches), state_(state) {
  CPD_CHECK(state != nullptr);
}

double GibbsSampler::LinkEnergyParts(UserId u, UserId v, int z, int32_t time,
                                     size_t e, double community_score) const {
  const ModelState& s = *state_;
  double w = s.weights[kWeightEta] * community_score + s.weights[kWeightBias];
  if (config_.ablation.topic_factor) {
    w += s.weights[kWeightPopularity] * s.popularity.Value(time, z);
  }
  if (config_.ablation.individual_factor) {
    double feats[kNumUserFeatures];
    const double* f = feats;
    if (e != static_cast<size_t>(-1)) {
      f = caches_.Features(e).data();
    } else {
      LinkCaches::ComputePairFeatures(graph_, u, v, feats);
    }
    for (int k = 0; k < kNumUserFeatures; ++k) {
      w += s.weights[kWeightFeature0 + k] * f[k];
    }
  }
  return w;
}

double GibbsSampler::DiffusionEnergy(size_t e) const {
  const ModelState& s = *state_;
  const DiffusionLink& link = graph_.diffusion_links()[e];
  const UserId u = graph_.document(link.i).user;
  const UserId v = graph_.document(link.j).user;
  if (!config_.ablation.heterogeneous_links) {
    // "No heterogeneity": diffusion links share the Eq. 3 friendship energy.
    return s.MembershipDot(u, v);
  }
  const int z = s.doc_topic[static_cast<size_t>(link.i)];
  const double score = s.CommunityDiffusionScore(u, v, z);
  return LinkEnergyParts(u, v, z, link.time, e, score);
}

double GibbsSampler::FriendshipEnergy(size_t f) const {
  const FriendshipLink& link = graph_.friendship_links()[f];
  return state_->MembershipDot(link.u, link.v);
}

double GibbsSampler::LinkLogLikelihood() const {
  double total = 0.0;
  if (config_.ablation.model_friendship) {
    for (size_t f = 0; f < graph_.num_friendship_links(); ++f) {
      total += -Log1pExp(-FriendshipEnergy(f));
    }
  }
  if (config_.ablation.model_diffusion) {
    for (size_t e = 0; e < graph_.num_diffusion_links(); ++e) {
      total += -Log1pExp(-DiffusionEnergy(e));
    }
  }
  return total;
}

void GibbsSampler::BumpDocTopicCounts(const Document& doc, int32_t c,
                                      int32_t z, int32_t by) {
  ModelState& s = *state_;
  const int kz = s.num_topics;
  const size_t vocab = s.vocab_size;
  s.n_cz[static_cast<size_t>(c) * kz + z] += by;
  s.n_c[static_cast<size_t>(c)] += by;
  for (WordId w : doc.words) {
    s.n_zw[static_cast<size_t>(z) * vocab + static_cast<size_t>(w)] += by;
  }
  s.n_z[static_cast<size_t>(z)] += by * static_cast<int64_t>(doc.words.size());
}

void GibbsSampler::BumpDocCommunityCounts(UserId u, int32_t c, int32_t z,
                                          int32_t by) {
  ModelState& s = *state_;
  const int kz = s.num_topics;
  s.BumpUserCommunity(u, c, by);
  s.n_u[static_cast<size_t>(u)] += by;
  s.n_cz[static_cast<size_t>(c) * kz + z] += by;
  s.n_c[static_cast<size_t>(c)] += by;
}

void GibbsSampler::ResampleTopicDense(DocId d, Rng* rng) {
  ModelState& s = *state_;
  const Document& doc = graph_.document(d);
  const UserId u = doc.user;
  const int kz = s.num_topics;
  const size_t vocab = s.vocab_size;
  const int32_t c = s.doc_community[static_cast<size_t>(d)];
  const int32_t z_old = s.doc_topic[static_cast<size_t>(d)];
  const size_t len = doc.words.size();

  // Exclude the document: topic-side counters only (community unchanged).
  BumpDocTopicCounts(doc, c, z_old, -1);

  static thread_local std::vector<double> logw;
  logw.assign(static_cast<size_t>(kz), 0.0);

  const double v_beta = static_cast<double>(vocab) * s.beta;
  for (int z = 0; z < kz; ++z) {
    // Community-topic term (denominator n_c is candidate-independent).
    double lw = std::log(
        static_cast<double>(s.n_cz[static_cast<size_t>(c) * kz + z]) + s.alpha);
    // Dirichlet-multinomial word term of Eq. 13 (single topic per document);
    // the inner "+ occurrences so far" handles repeated words.
    for (size_t k = 0; k < len; ++k) {
      int prev = 0;
      for (size_t k2 = 0; k2 < k; ++k2) {
        if (doc.words[k2] == doc.words[k]) ++prev;
      }
      lw += std::log(static_cast<double>(
                         s.n_zw[static_cast<size_t>(z) * vocab +
                                static_cast<size_t>(doc.words[k])]) +
                     s.beta + static_cast<double>(prev));
    }
    for (size_t j = 0; j < len; ++j) {
      lw -= std::log(static_cast<double>(s.n_z[static_cast<size_t>(z)]) + v_beta +
                     static_cast<double>(j));
    }
    logw[static_cast<size_t>(z)] = lw;
  }

  // Diffusion psi terms (Eq. 13's product over Lambda_i). Only links where
  // this document is the diffusing side depend on the candidate topic; links
  // where it is the diffused side keep the source document's topic.
  if (config_.ablation.model_diffusion && config_.ablation.heterogeneous_links &&
      flags_.community_uses_diffusion) {
    for (int32_t e_idx : graph_.DiffusionNeighbors(d)) {
      const DiffusionLink& link = graph_.diffusion_links()[static_cast<size_t>(e_idx)];
      if (link.i != d) continue;
      const UserId v = graph_.document(link.j).user;
      const double de = s.delta[static_cast<size_t>(e_idx)];
      for (int z = 0; z < kz; ++z) {
        const double score = s.CommunityDiffusionScore(u, v, z);
        const double w = LinkEnergyParts(u, v, z, link.time,
                                         static_cast<size_t>(e_idx), score);
        logw[static_cast<size_t>(z)] += LogPsi(w, de);
      }
    }
  }

  const int32_t z_new =
      static_cast<int32_t>(SampleCategoricalFromLog(logw, rng));
  s.doc_topic[static_cast<size_t>(d)] = z_new;
  BumpDocTopicCounts(doc, c, z_new, 1);
}

double GibbsSampler::TopicLogWeight(DocId d, const Document& doc, int32_t c,
                                    int z) const {
  const ModelState& s = *state_;
  const int kz = s.num_topics;
  const size_t vocab = s.vocab_size;
  const size_t len = doc.words.size();
  const double v_beta = static_cast<double>(vocab) * s.beta;

  double lw = std::log(
      static_cast<double>(s.n_cz[static_cast<size_t>(c) * kz + z]) + s.alpha);
  // Dirichlet-multinomial word term over unique words: the histogram form of
  // the dense path's "+ occurrences so far" product (same multiset, so the
  // same value without the O(len^2) rescan).
  for (const SparseCount& entry : s.doc_words.Row(d)) {
    const double base = static_cast<double>(
        s.n_zw[static_cast<size_t>(z) * vocab + static_cast<size_t>(entry.index)]);
    for (int i = 0; i < entry.count; ++i) {
      lw += std::log(base + s.beta + static_cast<double>(i));
    }
  }
  for (size_t j = 0; j < len; ++j) {
    lw -= std::log(static_cast<double>(s.n_z[static_cast<size_t>(z)]) + v_beta +
                   static_cast<double>(j));
  }

  if (config_.ablation.model_diffusion && config_.ablation.heterogeneous_links &&
      flags_.community_uses_diffusion) {
    const UserId u = doc.user;
    for (int32_t e_idx : graph_.DiffusionNeighbors(d)) {
      const DiffusionLink& link =
          graph_.diffusion_links()[static_cast<size_t>(e_idx)];
      if (link.i != d) continue;
      const UserId v = graph_.document(link.j).user;
      const double de = s.delta[static_cast<size_t>(e_idx)];
      const double score = s.CommunityDiffusionScore(u, v, z);
      const double w =
          LinkEnergyParts(u, v, z, link.time, static_cast<size_t>(e_idx), score);
      lw += LogPsi(w, de);
    }
  }
  return lw;
}

void GibbsSampler::ResampleTopicSparse(DocId d, Rng* rng) {
  CPD_CHECK(active_tables().ready());
  const SparseSamplerTables& tables = active_tables();
  ModelState& s = *state_;
  const Document& doc = graph_.document(d);
  const int32_t c = s.doc_community[static_cast<size_t>(d)];
  const int32_t z_old = s.doc_topic[static_cast<size_t>(d)];
  const size_t len = doc.words.size();

  BumpDocTopicCounts(doc, c, z_old, -1);

  // MH chain targeting the exact conditional, started at the current
  // assignment. Cycle proposals: even steps draw from the community-prior
  // table, odd steps from a random word's table. Both proposals have full
  // support (alpha/beta smoothing), so the chain is irreducible regardless
  // of staleness.
  int32_t z_cur = z_old;
  double lw_cur = TopicLogWeight(d, doc, c, z_cur);
  int64_t proposals = 0;
  int64_t accepts = 0;
  for (int step = 0; step < config_.mh_steps; ++step) {
    const bool word_proposal = (step % 2 == 1) && len > 0;
    const AliasTable& table =
        word_proposal
            ? tables.word_topic[static_cast<size_t>(
                  doc.words[static_cast<size_t>(rng->NextUint64(len))])]
            : tables.community_topic[static_cast<size_t>(c)];
    const int32_t z_prop = static_cast<int32_t>(table.Sample(rng));
    ++proposals;
    if (z_prop == z_cur) {
      ++accepts;
      continue;
    }
    const double lw_prop = TopicLogWeight(d, doc, c, z_prop);
    const double log_accept =
        lw_prop - lw_cur +
        std::log(table.Probability(static_cast<size_t>(z_cur))) -
        std::log(table.Probability(static_cast<size_t>(z_prop)));
    if (log_accept >= 0.0 || rng->NextDoubleOpen() < std::exp(log_accept)) {
      z_cur = z_prop;
      lw_cur = lw_prop;
      ++accepts;
    }
  }
  mh_.topic_proposals += proposals;
  mh_.topic_accepts += accepts;

  s.doc_topic[static_cast<size_t>(d)] = z_cur;
  BumpDocTopicCounts(doc, c, z_cur, 1);
}

double GibbsSampler::FillMembershipVector(UserId other, const double* q,
                                          double* out) const {
  const ModelState& s = *state_;
  const int kc = s.num_communities;
  const double other_denom =
      static_cast<double>(s.n_u[static_cast<size_t>(other)]) +
      static_cast<double>(kc) * s.rho;
  double base = 0.0;
  for (int c = 0; c < kc; ++c) {
    out[c] = (static_cast<double>(s.n_uc[static_cast<size_t>(other) * kc + c]) +
              s.rho) /
             other_denom;
    base += q[c] * out[c];
  }
  return base;
}

void GibbsSampler::ComputeEtaCollapse(UserId other, int z_e, bool is_source,
                                      double* out) const {
  const ModelState& s = *state_;
  const int kc = s.num_communities;
  static thread_local std::vector<double> pio, th;
  pio.resize(static_cast<size_t>(kc));
  th.resize(static_cast<size_t>(kc));
  const double other_denom =
      static_cast<double>(s.n_u[static_cast<size_t>(other)]) +
      static_cast<double>(kc) * s.rho;
  for (int c = 0; c < kc; ++c) {
    pio[static_cast<size_t>(c)] =
        (static_cast<double>(s.n_uc[static_cast<size_t>(other) * kc + c]) +
         s.rho) /
        other_denom;
    th[static_cast<size_t>(c)] = s.ThetaHat(c, z_e);
  }
  // a[c] collapses the fixed endpoint so each candidate costs O(1):
  //   source side: a[c]  = th[c]  sum_c' eta[c][c'][z_e] th[c'] pio[c']
  //   target side: a[c'] = th[c'] sum_c  eta[c][c'][z_e] th[c]  pio[c]
  if (is_source) {
    for (int c = 0; c < kc; ++c) {
      double inner = 0.0;
      for (int c2 = 0; c2 < kc; ++c2) {
        inner += s.EtaAt(c, c2, z_e) * th[static_cast<size_t>(c2)] *
                 pio[static_cast<size_t>(c2)];
      }
      out[c] = th[static_cast<size_t>(c)] * inner;
    }
  } else {
    for (int c2 = 0; c2 < kc; ++c2) {
      double inner = 0.0;
      for (int c = 0; c < kc; ++c) {
        inner += s.EtaAt(c, c2, z_e) * th[static_cast<size_t>(c)] *
                 pio[static_cast<size_t>(c)];
      }
      out[c2] = th[static_cast<size_t>(c2)] * inner;
    }
  }
}

namespace {

// Upper bound on memoized collapse keys per sampler per sweep: bounds the
// memo at kCollapseMemoMaxEntries * |C| doubles (e.g. ~10 MB at |C| = 20)
// on graphs with very many distinct (endpoint, topic, side) keys. Overflow
// keys fall back to the uncached exact computation.
constexpr size_t kCollapseMemoMaxEntries = 1 << 16;

}  // namespace

const double* GibbsSampler::CollapsedEtaVector(UserId other, int z_e,
                                               bool is_source) {
  const size_t kc = static_cast<size_t>(state_->num_communities);
  if (!collapse_cache_active_) {
    static thread_local std::vector<double> scratch;
    scratch.resize(kc);
    ComputeEtaCollapse(other, z_e, is_source, scratch.data());
    return scratch.data();
  }
  const uint64_t key = (static_cast<uint64_t>(other) *
                            static_cast<uint64_t>(state_->num_topics) +
                        static_cast<uint64_t>(z_e)) *
                           2ULL +
                       (is_source ? 1ULL : 0ULL);
  const auto it = collapse_index_.find(key);
  if (it != collapse_index_.end()) {
    ++collapse_.hits;
    return collapse_vectors_.data() + it->second;
  }
  ++collapse_.misses;
  if (collapse_index_.size() >= kCollapseMemoMaxEntries) {
    static thread_local std::vector<double> scratch;
    scratch.resize(kc);
    ComputeEtaCollapse(other, z_e, is_source, scratch.data());
    return scratch.data();
  }
  const size_t offset = collapse_vectors_.size();
  collapse_vectors_.resize(offset + kc);
  ComputeEtaCollapse(other, z_e, is_source, collapse_vectors_.data() + offset);
  collapse_index_.emplace(key, offset);
  return collapse_vectors_.data() + offset;
}

void GibbsSampler::ResampleCommunityDense(DocId d, Rng* rng) {
  if (flags_.freeze_communities) return;
  ModelState& s = *state_;
  const Document& doc = graph_.document(d);
  const UserId u = doc.user;
  const int kz = s.num_topics;
  const int kc = s.num_communities;
  const int32_t z = s.doc_topic[static_cast<size_t>(d)];
  const int32_t c_old = s.doc_community[static_cast<size_t>(d)];

  // Exclude the document: community-side counters.
  BumpDocCommunityCounts(u, c_old, z, -1);

  static thread_local std::vector<double> logw, q, pio;
  logw.assign(static_cast<size_t>(kc), 0.0);
  q.resize(static_cast<size_t>(kc));

  // pihat_u(candidate) = (q[c] + [c == candidate]) / denom_pi.
  const double denom_pi = static_cast<double>(s.n_u[static_cast<size_t>(u)]) + 1.0 +
                          static_cast<double>(kc) * s.rho;
  for (int c = 0; c < kc; ++c) {
    q[static_cast<size_t>(c)] =
        static_cast<double>(s.n_uc[static_cast<size_t>(u) * kc + c]) + s.rho;
    logw[static_cast<size_t>(c)] = std::log(q[static_cast<size_t>(c)]);
  }
  if (flags_.community_uses_content) {
    const double z_alpha = static_cast<double>(kz) * s.alpha;
    for (int c = 0; c < kc; ++c) {
      logw[static_cast<size_t>(c)] +=
          std::log(static_cast<double>(s.n_cz[static_cast<size_t>(c) * kz + z]) +
                   s.alpha) -
          std::log(static_cast<double>(s.n_c[static_cast<size_t>(c)]) + z_alpha);
    }
  }

  // Friendship psi terms over Lambda_u (Eq. 14). The candidate shifts one
  // coordinate of pihat_u; the neighbor's pihat is held at current counts.
  if (config_.ablation.model_friendship) {
    pio.resize(static_cast<size_t>(kc));
    for (int32_t f_idx : caches_.FriendLinksOf(u)) {
      const FriendshipLink& fl = graph_.friendship_links()[static_cast<size_t>(f_idx)];
      const UserId other = (fl.u == u) ? fl.v : fl.u;
      const double lam = s.lambda[static_cast<size_t>(f_idx)];
      const double base = FillMembershipVector(other, q.data(), pio.data());
      for (int cand = 0; cand < kc; ++cand) {
        const double dot = (base + pio[static_cast<size_t>(cand)]) / denom_pi;
        logw[static_cast<size_t>(cand)] += LogPsi(dot, lam);
      }
    }
  }

  // Diffusion psi terms over Lambda_i (Eq. 14).
  if (config_.ablation.model_diffusion && flags_.community_uses_diffusion) {
    pio.resize(static_cast<size_t>(kc));
    for (int32_t e_idx : graph_.DiffusionNeighbors(d)) {
      const DiffusionLink& link = graph_.diffusion_links()[static_cast<size_t>(e_idx)];
      const double de = s.delta[static_cast<size_t>(e_idx)];
      const bool is_source = (link.i == d);
      const UserId other = is_source ? graph_.document(link.j).user
                                     : graph_.document(link.i).user;

      if (!config_.ablation.heterogeneous_links) {
        // Ablated variant: diffusion links behave like friendship links.
        const double base = FillMembershipVector(other, q.data(), pio.data());
        for (int cand = 0; cand < kc; ++cand) {
          const double dot = (base + pio[static_cast<size_t>(cand)]) / denom_pi;
          logw[static_cast<size_t>(cand)] += LogPsi(dot, de);
        }
        continue;
      }

      // Link topic: the diffusing document's topic.
      const int z_e =
          is_source ? z : s.doc_topic[static_cast<size_t>(link.i)];
      const double* a = CollapsedEtaVector(other, z_e, is_source);
      double base = 0.0;
      for (int c = 0; c < kc; ++c) {
        base += q[static_cast<size_t>(c)] * a[c];
      }
      const UserId src_user = is_source ? u : other;
      const UserId dst_user = is_source ? other : u;
      const double const_part =
          LinkEnergyParts(src_user, dst_user, z_e, link.time,
                          static_cast<size_t>(e_idx), 0.0);
      const double w_eta = s.weights[kWeightEta];
      for (int cand = 0; cand < kc; ++cand) {
        const double score = (base + a[cand]) / denom_pi;
        const double w = const_part + w_eta * score;
        logw[static_cast<size_t>(cand)] += LogPsi(w, de);
      }
    }
  }

  const int32_t c_new =
      static_cast<int32_t>(SampleCategoricalFromLog(logw, rng));
  s.doc_community[static_cast<size_t>(d)] = c_new;
  BumpDocCommunityCounts(u, c_new, z, 1);
}

void GibbsSampler::ResampleCommunitySparse(DocId d, Rng* rng) {
  if (flags_.freeze_communities) return;
  ModelState& s = *state_;
  const Document& doc = graph_.document(d);
  const UserId u = doc.user;
  const int kz = s.num_topics;
  const int kc = s.num_communities;
  const int32_t z = s.doc_topic[static_cast<size_t>(d)];
  const int32_t c_old = s.doc_community[static_cast<size_t>(d)];

  BumpDocCommunityCounts(u, c_old, z, -1);

  // The conditional factors as  p(c) ∝ (n_uc[u][c] + rho) * R(c)  where R
  // collects the content term and the link psi terms. We propose directly
  // from the *fresh* prior factor — its sparse part is the user's nonzero
  // community row, its dense part is the flat rho mass — so the MH ratio
  // reduces to R(c_prop) / R(c_cur): no O(|C|) log/exp scan anywhere. The
  // write-through row cache serves the sparse part in O(k_u) after the
  // user's first document.
  const std::span<const SparseCount> nonzero = s.UserCommunityRow(u);
  const double sparse_mass = static_cast<double>(s.n_u[static_cast<size_t>(u)]);
  const double rho_mass = static_cast<double>(kc) * s.rho;
  const double denom_pi = sparse_mass + 1.0 + rho_mass;

  // q[c] = n_uc + rho (candidate-independent base masses for the link dots).
  static thread_local std::vector<double> q;
  q.resize(static_cast<size_t>(kc));
  for (int c = 0; c < kc; ++c) {
    q[static_cast<size_t>(c)] =
        static_cast<double>(s.n_uc[static_cast<size_t>(u) * kc + c]) + s.rho;
  }

  // Per-link candidate evaluators, precomputed once per document so each MH
  // candidate costs O(1) per link afterwards. `vec` holds the link's
  // candidate-indexed array (pio for membership-dot links, the collapsed a[]
  // for heterogeneous diffusion links) in one flat buffer.
  struct LinkEval {
    double base = 0.0;       // Candidate-independent part of the dot.
    double aug = 0.0;        // Polya-Gamma variable (lambda or delta).
    double const_part = 0.0; // Non-community energy terms (kind 1 only).
    double w_eta = 1.0;      // Eta weight (kind 1 only).
    size_t vec_offset = 0;   // Offset of this link's C-vector in `vecs`.
    bool heterogeneous = false;
  };
  static thread_local std::vector<LinkEval> links;
  static thread_local std::vector<double> vecs;
  links.clear();
  vecs.clear();

  const auto push_membership_link = [&](UserId other, double aug) {
    LinkEval ev;
    ev.aug = aug;
    ev.vec_offset = vecs.size();
    vecs.resize(vecs.size() + static_cast<size_t>(kc));
    ev.base = FillMembershipVector(other, q.data(), vecs.data() + ev.vec_offset);
    links.push_back(ev);
  };

  if (config_.ablation.model_friendship) {
    for (int32_t f_idx : caches_.FriendLinksOf(u)) {
      const FriendshipLink& fl =
          graph_.friendship_links()[static_cast<size_t>(f_idx)];
      const UserId other = (fl.u == u) ? fl.v : fl.u;
      push_membership_link(other, s.lambda[static_cast<size_t>(f_idx)]);
    }
  }

  if (config_.ablation.model_diffusion && flags_.community_uses_diffusion) {
    for (int32_t e_idx : graph_.DiffusionNeighbors(d)) {
      const DiffusionLink& link =
          graph_.diffusion_links()[static_cast<size_t>(e_idx)];
      const double de = s.delta[static_cast<size_t>(e_idx)];
      const bool is_source = (link.i == d);
      const UserId other = is_source ? graph_.document(link.j).user
                                     : graph_.document(link.i).user;
      if (!config_.ablation.heterogeneous_links) {
        push_membership_link(other, de);
        continue;
      }

      const int z_e = is_source ? z : s.doc_topic[static_cast<size_t>(link.i)];

      LinkEval ev;
      ev.heterogeneous = true;
      ev.aug = de;
      ev.vec_offset = vecs.size();
      vecs.resize(vecs.size() + static_cast<size_t>(kc));
      // Copy the (possibly memoized) collapse into the flat buffer — the
      // cache may grow while later links are evaluated, so the pointer must
      // not be retained.
      const double* a = CollapsedEtaVector(other, z_e, is_source);
      double base = 0.0;
      for (int c = 0; c < kc; ++c) {
        vecs[ev.vec_offset + static_cast<size_t>(c)] = a[c];
        base += q[static_cast<size_t>(c)] * a[c];
      }
      ev.base = base;
      const UserId src_user = is_source ? u : other;
      const UserId dst_user = is_source ? other : u;
      ev.const_part = LinkEnergyParts(src_user, dst_user, z_e, link.time,
                                      static_cast<size_t>(e_idx), 0.0);
      ev.w_eta = s.weights[kWeightEta];
      links.push_back(ev);
    }
  }

  const double z_alpha = static_cast<double>(kz) * s.alpha;
  const auto log_rest = [&](int cand) {
    double lw = 0.0;
    if (flags_.community_uses_content) {
      lw += std::log(
                static_cast<double>(s.n_cz[static_cast<size_t>(cand) * kz + z]) +
                s.alpha) -
            std::log(static_cast<double>(s.n_c[static_cast<size_t>(cand)]) +
                     z_alpha);
    }
    for (const LinkEval& ev : links) {
      const double val =
          (ev.base + vecs[ev.vec_offset + static_cast<size_t>(cand)]) / denom_pi;
      const double w =
          ev.heterogeneous ? ev.const_part + ev.w_eta * val : val;
      lw += LogPsi(w, ev.aug);
    }
    return lw;
  };

  const auto propose_from_prior = [&]() -> int32_t {
    const double r = rng->NextDouble() * (sparse_mass + rho_mass);
    if (r < sparse_mass) {
      double acc = 0.0;
      for (const SparseCount& entry : nonzero) {
        acc += static_cast<double>(entry.count);
        if (r < acc) return entry.index;
      }
      return nonzero.empty() ? 0 : nonzero.back().index;
    }
    return static_cast<int32_t>(rng->NextUint64(static_cast<uint64_t>(kc)));
  };

  int32_t c_cur = c_old;
  double lw_cur = log_rest(c_cur);
  int64_t proposals = 0;
  int64_t accepts = 0;
  for (int step = 0; step < config_.mh_steps; ++step) {
    const int32_t c_prop = propose_from_prior();
    ++proposals;
    if (c_prop == c_cur) {
      ++accepts;
      continue;
    }
    const double lw_prop = log_rest(c_prop);
    // Proposal ∝ fresh prior factor, which therefore cancels out of the MH
    // ratio: accept with min(1, R(c_prop)/R(c_cur)).
    const double log_accept = lw_prop - lw_cur;
    if (log_accept >= 0.0 || rng->NextDoubleOpen() < std::exp(log_accept)) {
      c_cur = c_prop;
      lw_cur = lw_prop;
      ++accepts;
    }
  }
  mh_.community_proposals += proposals;
  mh_.community_accepts += accepts;

  s.doc_community[static_cast<size_t>(d)] = c_cur;
  BumpDocCommunityCounts(u, c_cur, z, 1);
}

// The collapse memo tolerates within-sweep staleness: it feeds the
// community kernel's MH target, so the staleness is an uncorrected
// AD-LDA-class approximation, acceptable for the sparse backend but not for
// the dense exact-reference path.
void GibbsSampler::BeginCollapseMemoSweep() {
  collapse_cache_active_ = config_.cache_eta_collapse &&
                           config_.sampler_mode == SamplerMode::kSparse;
  collapse_index_.clear();
  collapse_vectors_.clear();
}

void GibbsSampler::SweepDocuments(Rng* rng) {
  if (config_.sampler_mode == SamplerMode::kSparse &&
      external_tables_ == nullptr) {
    tables_.Rebuild(*state_);
  }
  std::vector<UserId> users(graph_.num_users());
  for (size_t u = 0; u < users.size(); ++u) users[u] = static_cast<UserId>(u);
  SweepUsers(users, rng);
}

void GibbsSampler::SweepUsers(std::span<const UserId> users, Rng* rng) {
  BeginCollapseMemoSweep();
  // Counts may have been rewritten since the last sweep (snapshot restore,
  // delta merge); these users' n_uc rows are rebuilt lazily from scratch.
  state_->InvalidateUserCommunityRows(users);
  const bool sparse = config_.sampler_mode == SamplerMode::kSparse;
  for (UserId u : users) {
    for (DocId d : graph_.DocumentsOf(u)) {
      if (sparse) {
        ResampleTopicSparse(d, rng);
        ResampleCommunitySparse(d, rng);
      } else {
        ResampleTopicDense(d, rng);
        ResampleCommunityDense(d, rng);
      }
    }
  }
  collapse_cache_active_ = false;
}

void GibbsSampler::SweepFriendshipAugmentation(Rng* rng) {
  SweepFriendshipAugmentation(0, graph_.num_friendship_links(), rng);
}

void GibbsSampler::SweepFriendshipAugmentation(size_t begin, size_t end,
                                               Rng* rng) {
  if (!config_.ablation.model_friendship) return;
  for (size_t f = begin; f < end; ++f) {
    state_->lambda[f] = pg_.Sample(FriendshipEnergy(f), rng);
  }
}

void GibbsSampler::SweepDiffusionAugmentation(Rng* rng) {
  SweepDiffusionAugmentation(0, graph_.num_diffusion_links(), rng);
}

void GibbsSampler::SweepDiffusionAugmentation(size_t begin, size_t end, Rng* rng) {
  if (!config_.ablation.model_diffusion) return;
  for (size_t e = begin; e < end; ++e) {
    state_->delta[e] = pg_.Sample(DiffusionEnergy(e), rng);
  }
}

}  // namespace cpd
