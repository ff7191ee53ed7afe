#include "core/model_state.h"

#include <algorithm>

#include "util/logging.h"

namespace cpd {

ModelState::ModelState(const SocialGraph& graph, const CpdConfig& config)
    : num_communities(config.num_communities),
      num_topics(config.num_topics),
      num_users(graph.num_users()),
      num_documents(graph.num_documents()),
      vocab_size(graph.vocabulary_size()),
      alpha(config.ResolvedAlpha()),
      rho(config.ResolvedRho()),
      beta(config.beta),
      popularity(graph.num_time_bins(), config.num_topics,
                 config.popularity_mode) {
  doc_topic.assign(num_documents, 0);
  doc_community.assign(num_documents, 0);
  n_uc.assign(num_users * static_cast<size_t>(num_communities), 0);
  n_u.assign(num_users, 0);
  n_cz.assign(static_cast<size_t>(num_communities) * static_cast<size_t>(num_topics),
              0);
  n_c.assign(static_cast<size_t>(num_communities), 0);
  n_zw.assign(static_cast<size_t>(num_topics) * vocab_size, 0);
  n_z.assign(static_cast<size_t>(num_topics), 0);
  lambda.assign(graph.num_friendship_links(), 0.25);
  delta.assign(graph.num_diffusion_links(), 0.25);
  eta.assign(static_cast<size_t>(num_communities) *
                 static_cast<size_t>(num_communities) *
                 static_cast<size_t>(num_topics),
             1.0 / static_cast<double>(static_cast<size_t>(num_communities) *
                                       static_cast<size_t>(num_topics)));
  // Eq. 5's implicit unit coefficients on the community and popularity
  // factors; ablated factors are pinned to zero so they vanish both in the
  // Gibbs energies and in application-time scoring (Eq. 18). The individual
  // features (nu) start at zero and are learned in the M-step.
  weights.assign(kNumDiffusionWeights, 0.0);
  weights[kWeightEta] = 1.0;
  weights[kWeightPopularity] = config.ablation.topic_factor ? 1.0 : 0.0;

  // Per-document word histograms (run-length encode the sorted token list).
  doc_words.offsets.reserve(num_documents + 1);
  doc_words.offsets.push_back(0);
  std::vector<WordId> sorted;
  for (size_t d = 0; d < num_documents; ++d) {
    const Document& doc = graph.document(static_cast<DocId>(d));
    sorted.assign(doc.words.begin(), doc.words.end());
    std::sort(sorted.begin(), sorted.end());
    for (size_t k = 0; k < sorted.size();) {
      size_t run = k + 1;
      while (run < sorted.size() && sorted[run] == sorted[k]) ++run;
      doc_words.entries.push_back(
          {static_cast<int32_t>(sorted[k]), static_cast<int32_t>(run - k)});
      k = run;
    }
    doc_words.offsets.push_back(doc_words.entries.size());
  }
}

void ModelState::NonzeroUserCommunities(UserId u,
                                        std::vector<SparseCount>* out) const {
  out->clear();
  const size_t base = static_cast<size_t>(u) * static_cast<size_t>(num_communities);
  for (int c = 0; c < num_communities; ++c) {
    const int32_t count = n_uc[base + static_cast<size_t>(c)];
    if (count != 0) out->push_back({c, count});
  }
}

std::span<const SparseCount> ModelState::UserCommunityRow(UserId u) {
  if (uc_row_valid.empty()) {
    uc_row_cache.resize(num_users);
    uc_row_valid.assign(num_users, 0);
  }
  auto& row = uc_row_cache[static_cast<size_t>(u)];
  if (!uc_row_valid[static_cast<size_t>(u)]) {
    row.clear();
    const size_t base =
        static_cast<size_t>(u) * static_cast<size_t>(num_communities);
    for (int c = 0; c < num_communities; ++c) {
      const int32_t count = n_uc[base + static_cast<size_t>(c)];
      if (count != 0) row.push_back({c, count});
    }
    uc_row_valid[static_cast<size_t>(u)] = 1;
  }
  return row;
}

void ModelState::BumpUserCommunity(UserId u, int32_t c, int32_t delta) {
  const size_t slot =
      static_cast<size_t>(u) * static_cast<size_t>(num_communities) +
      static_cast<size_t>(c);
  n_uc[slot] += delta;
  if (uc_row_valid.empty() || !uc_row_valid[static_cast<size_t>(u)]) return;
  auto& row = uc_row_cache[static_cast<size_t>(u)];
  for (size_t i = 0; i < row.size(); ++i) {
    if (row[i].index != c) continue;
    row[i].count += delta;
    if (row[i].count == 0) row.erase(row.begin() + static_cast<long>(i));
    return;
  }
  if (n_uc[slot] != 0) row.push_back({c, n_uc[slot]});
}

void ModelState::InvalidateUserCommunityRows() {
  std::fill(uc_row_valid.begin(), uc_row_valid.end(), 0);
}

void ModelState::InvalidateUserCommunityRows(std::span<const UserId> users) {
  if (uc_row_valid.empty()) return;
  for (UserId u : users) uc_row_valid[static_cast<size_t>(u)] = 0;
}

void ModelState::InitializeRandom(const SocialGraph& graph, Rng* rng,
                                  bool per_user_communities) {
  for (size_t d = 0; d < num_documents; ++d) {
    doc_topic[d] =
        static_cast<int32_t>(rng->NextUint64(static_cast<uint64_t>(num_topics)));
  }
  if (per_user_communities) {
    for (size_t u = 0; u < num_users; ++u) {
      const int32_t c = static_cast<int32_t>(
          rng->NextUint64(static_cast<uint64_t>(num_communities)));
      for (DocId d : graph.DocumentsOf(static_cast<UserId>(u))) {
        doc_community[static_cast<size_t>(d)] = c;
      }
    }
  } else {
    for (size_t d = 0; d < num_documents; ++d) {
      doc_community[d] = static_cast<int32_t>(
          rng->NextUint64(static_cast<uint64_t>(num_communities)));
    }
  }
}

void ModelState::RebuildCounts(const SocialGraph& graph) {
  InvalidateUserCommunityRows();
  std::fill(n_uc.begin(), n_uc.end(), 0);
  std::fill(n_u.begin(), n_u.end(), 0);
  std::fill(n_cz.begin(), n_cz.end(), 0);
  std::fill(n_c.begin(), n_c.end(), 0);
  std::fill(n_zw.begin(), n_zw.end(), 0);
  std::fill(n_z.begin(), n_z.end(), 0);
  for (size_t d = 0; d < num_documents; ++d) {
    AddDocumentCounts(graph.document(static_cast<DocId>(d)), doc_community[d],
                      doc_topic[d]);
  }
}

void ModelState::AddDocumentCounts(const Document& doc, int32_t c, int32_t z) {
  CPD_DCHECK(z >= 0 && z < num_topics);
  CPD_DCHECK(c >= 0 && c < num_communities);
  ++n_uc[static_cast<size_t>(doc.user) * static_cast<size_t>(num_communities) +
         static_cast<size_t>(c)];
  ++n_u[static_cast<size_t>(doc.user)];
  ++n_cz[static_cast<size_t>(c) * static_cast<size_t>(num_topics) +
         static_cast<size_t>(z)];
  ++n_c[static_cast<size_t>(c)];
  for (WordId w : doc.words) {
    ++n_zw[static_cast<size_t>(z) * vocab_size + static_cast<size_t>(w)];
  }
  n_z[static_cast<size_t>(z)] += static_cast<int64_t>(doc.words.size());
}

double ModelState::MembershipDot(UserId u, UserId v) const {
  double dot = 0.0;
  for (int c = 0; c < num_communities; ++c) {
    dot += PiHat(u, c) * PiHat(v, c);
  }
  return dot;
}

double ModelState::CommunityDiffusionScore(UserId u, UserId v, int z) const {
  // sum_c sum_c' pihat_{u,c} thetahat_{c,z} eta_{c,c',z} thetahat_{c',z}
  //              pihat_{v,c'}  (Eq. 4, step 2).
  const int kc = num_communities;
  double score = 0.0;
  for (int c = 0; c < kc; ++c) {
    const double left = PiHat(u, c) * ThetaHat(c, z);
    if (left == 0.0) continue;
    double inner = 0.0;
    for (int c2 = 0; c2 < kc; ++c2) {
      inner += EtaAt(c, c2, z) * ThetaHat(c2, z) * PiHat(v, c2);
    }
    score += left * inner;
  }
  return score;
}

}  // namespace cpd
