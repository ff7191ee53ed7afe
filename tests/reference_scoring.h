#ifndef CPD_TESTS_REFERENCE_SCORING_H_
#define CPD_TESTS_REFERENCE_SCORING_H_

/// \file reference_scoring.h
/// The naive reference scorers for the four §5 queries — the test oracle
/// the serving QueryEngine is pinned against. They read only the trained
/// estimates (pi, theta, phi, eta), never the index's precomputed scoring
/// tables, and recompute every query-invariant factor per request:
///   - Eq. 19 ranking strides |q| full-vocab phi rows, logs per
///     (token, topic), and re-sums eta(c,c2,z) theta_c2[z] over c2;
///   - the document topic posterior strides phi the same way;
///   - the Eq. 4 community score multiplies eta * theta * pi_v in the loop;
///   - membership / top users fully sort pi instead of reading the
///     build-time top-k lists and postings.
/// The engine's tables mirror these accumulation orders exactly, so tests
/// compare with bitwise equality, not a tolerance.

#include <algorithm>
#include <cmath>
#include <span>
#include <type_traits>
#include <variant>
#include <vector>

#include "core/diffusion_features.h"
#include "core/model_state.h"
#include "graph/social_graph.h"
#include "serve/profile_index.h"
#include "serve/query_engine.h"
#include "util/math_util.h"
#include "util/status.h"
#include "util/string_util.h"

namespace cpd::testing {

class ReferenceScorer {
 public:
  explicit ReferenceScorer(const serve::ProfileIndex& index,
                           const SocialGraph* graph = nullptr)
      : index_(index), graph_(graph) {}

  /// pi_u fully sorted by (weight desc, community asc), first k entries.
  StatusOr<serve::MembershipResponse> Membership(
      const serve::MembershipRequest& request) const {
    CPD_RETURN_IF_ERROR(index_.CheckUser(request.user));
    if (request.top_k < 0) {
      return Status::InvalidArgument("membership top_k < 0");
    }
    const auto pi = index_.Membership(request.user);
    const std::vector<int> order = SortedCommunities(pi);
    const size_t listed = std::min<size_t>(
        order.size(), static_cast<size_t>(index_.membership_top_k()));
    const size_t k = request.top_k == 0
                         ? listed
                         : std::min(listed, static_cast<size_t>(request.top_k));
    serve::MembershipResponse response;
    for (size_t i = 0; i < k; ++i) {
      response.top.push_back(
          {order[i], pi[static_cast<size_t>(order[i])]});
    }
    if (request.include_distribution) {
      response.distribution.assign(pi.begin(), pi.end());
    }
    return response;
  }

  StatusOr<serve::RankCommunitiesResponse> RankCommunities(
      const serve::RankCommunitiesRequest& request) const {
    if (request.top_k < 0) return Status::InvalidArgument("rank top_k < 0");
    for (WordId w : request.words) CPD_RETURN_IF_ERROR(index_.CheckWord(w));
    const int kc = index_.num_communities();
    const int kz = index_.num_topics();

    std::vector<double> log_g(static_cast<size_t>(kz), 0.0);
    for (int z = 0; z < kz; ++z) {
      const auto phi = index_.TopicWords(z);
      double lg = 0.0;
      for (WordId w : request.words) {
        lg += std::log(std::max(phi[static_cast<size_t>(w)], 1e-300));
      }
      log_g[static_cast<size_t>(z)] = lg;
    }
    const double max_log = *std::max_element(log_g.begin(), log_g.end());
    std::vector<double> g(static_cast<size_t>(kz));
    for (int z = 0; z < kz; ++z) {
      g[static_cast<size_t>(z)] =
          std::exp(log_g[static_cast<size_t>(z)] - max_log);
    }

    std::vector<double> scores(static_cast<size_t>(kc), 0.0);
    for (int c = 0; c < kc; ++c) {
      double score = 0.0;
      for (int z = 0; z < kz; ++z) {
        double inner = 0.0;
        for (int c2 = 0; c2 < kc; ++c2) {
          inner += index_.Eta(c, c2, z) *
                   index_.ContentProfile(c2)[static_cast<size_t>(z)];
        }
        score += inner * g[static_cast<size_t>(z)];
      }
      scores[static_cast<size_t>(c)] = score;
    }

    // Full sort by (score desc, community asc).
    std::vector<int> order(static_cast<size_t>(kc));
    for (int c = 0; c < kc; ++c) order[static_cast<size_t>(c)] = c;
    std::sort(order.begin(), order.end(), [&scores](int a, int b) {
      const double sa = scores[static_cast<size_t>(a)];
      const double sb = scores[static_cast<size_t>(b)];
      if (sa != sb) return sa > sb;
      return a < b;
    });
    const size_t k = request.top_k == 0
                         ? static_cast<size_t>(kc)
                         : std::min(static_cast<size_t>(kc),
                                    static_cast<size_t>(request.top_k));

    serve::RankCommunitiesResponse response;
    response.ranked.resize(k);
    for (size_t i = 0; i < k; ++i) {
      const int c = order[i];
      serve::RankedCommunityEntry& entry = response.ranked[i];
      entry.community = c;
      entry.score = scores[static_cast<size_t>(c)];
      if (!request.include_topic_distribution) continue;
      entry.topic_distribution.assign(static_cast<size_t>(kz), 0.0);
      for (int z = 0; z < kz; ++z) {
        double inner = 0.0;
        for (int c2 = 0; c2 < kc; ++c2) {
          inner += index_.Eta(c, c2, z) *
                   index_.ContentProfile(c2)[static_cast<size_t>(z)];
        }
        entry.topic_distribution[static_cast<size_t>(z)] =
            inner * g[static_cast<size_t>(z)];
      }
      NormalizeInPlace(&entry.topic_distribution);
    }
    return response;
  }

  StatusOr<std::vector<double>> DocumentTopicPosterior(DocId document) const {
    if (graph_ == nullptr) {
      return Status::FailedPrecondition(
          "document topic posterior needs a bound social graph");
    }
    if (document < 0 ||
        static_cast<size_t>(document) >= graph_->num_documents()) {
      return Status::OutOfRange(
          StrFormat("document %d outside [0, %zu)", document,
                    graph_->num_documents()));
    }
    const Document& doc = graph_->document(document);
    CPD_RETURN_IF_ERROR(index_.CheckUser(doc.user));
    for (WordId w : doc.words) CPD_RETURN_IF_ERROR(index_.CheckWord(w));
    const int kz = index_.num_topics();
    const int kc = index_.num_communities();
    const auto pi_v = index_.Membership(doc.user);

    std::vector<double> log_post(static_cast<size_t>(kz), 0.0);
    for (int z = 0; z < kz; ++z) {
      double prior = 0.0;
      for (int c = 0; c < kc; ++c) {
        prior += pi_v[static_cast<size_t>(c)] *
                 index_.ContentProfile(c)[static_cast<size_t>(z)];
      }
      log_post[static_cast<size_t>(z)] = std::log(std::max(prior, 1e-300));
    }
    for (int z = 0; z < kz; ++z) {
      const auto phi = index_.TopicWords(z);
      double lp = log_post[static_cast<size_t>(z)];
      for (WordId w : doc.words) {
        lp += std::log(std::max(phi[static_cast<size_t>(w)], 1e-300));
      }
      log_post[static_cast<size_t>(z)] = lp;
    }
    SoftmaxInPlace(&log_post);
    return log_post;
  }

  double CommunityScore(UserId u, UserId v, int z) const {
    const auto pi_u = index_.Membership(u);
    const auto pi_v = index_.Membership(v);
    const int kc = index_.num_communities();
    double score = 0.0;
    for (int c = 0; c < kc; ++c) {
      const double left = pi_u[static_cast<size_t>(c)] *
                          index_.ContentProfile(c)[static_cast<size_t>(z)];
      if (left == 0.0) continue;
      double inner = 0.0;
      for (int c2 = 0; c2 < kc; ++c2) {
        inner += index_.Eta(c, c2, z) *
                 index_.ContentProfile(c2)[static_cast<size_t>(z)] *
                 pi_v[static_cast<size_t>(c2)];
      }
      score += left * inner;
    }
    return score;
  }

  StatusOr<serve::DiffusionResponse> Diffusion(
      const serve::DiffusionRequest& request) const {
    CPD_RETURN_IF_ERROR(index_.CheckUser(request.source));
    CPD_RETURN_IF_ERROR(index_.CheckUser(request.target));
    if (graph_ == nullptr) {
      return Status::FailedPrecondition(
          "diffusion queries need a bound social graph");
    }
    for (UserId u : {request.source, request.target}) {
      if (static_cast<size_t>(u) >= graph_->num_users()) {
        return Status::OutOfRange(
            StrFormat("user %d outside the bound graph's [0, %zu)", u,
                      graph_->num_users()));
      }
    }
    const auto pi_u = index_.Membership(request.source);
    const auto pi_v = index_.Membership(request.target);
    double dot = 0.0;
    for (size_t c = 0; c < pi_u.size(); ++c) dot += pi_u[c] * pi_v[c];
    serve::DiffusionResponse response;
    response.friendship_score = Sigmoid(dot);
    if (!index_.heterogeneous_links()) {
      response.probability = response.friendship_score;
      return response;
    }
    auto posterior = DocumentTopicPosterior(request.document);
    if (!posterior.ok()) return posterior.status();
    const auto weights = index_.DiffusionWeights();
    double features[kNumUserFeatures];
    LinkCaches::ComputePairFeatures(*graph_, request.source, request.target,
                                    features);
    double feature_part = weights[kWeightBias];
    for (int k = 0; k < kNumUserFeatures; ++k) {
      feature_part += weights[kWeightFeature0 + k] * features[k];
    }
    double probability = 0.0;
    for (int z = 0; z < index_.num_topics(); ++z) {
      const double w =
          weights[kWeightEta] *
              CommunityScore(request.source, request.target, z) +
          weights[kWeightPopularity] *
              index_.TopicPopularity(request.time_bin, z) +
          feature_part;
      probability += Sigmoid(w) * (*posterior)[static_cast<size_t>(z)];
    }
    response.probability = probability;
    return response;
  }

  /// Every user whose top-k list names the community, sorted by
  /// (pi_{u,c} desc, user asc), first k.
  StatusOr<serve::TopUsersResponse> TopUsers(
      const serve::TopUsersRequest& request) const {
    CPD_RETURN_IF_ERROR(index_.CheckCommunity(request.community));
    if (request.top_k < 0) {
      return Status::InvalidArgument("top_users top_k < 0");
    }
    const size_t c = static_cast<size_t>(request.community);
    const size_t listed = std::min<size_t>(
        static_cast<size_t>(index_.num_communities()),
        static_cast<size_t>(index_.membership_top_k()));
    std::vector<UserId> members;
    for (UserId u = 0; static_cast<size_t>(u) < index_.num_users(); ++u) {
      const std::vector<int> order = SortedCommunities(index_.Membership(u));
      if (std::find(order.begin(), order.begin() + static_cast<long>(listed),
                    request.community) !=
          order.begin() + static_cast<long>(listed)) {
        members.push_back(u);
      }
    }
    std::sort(members.begin(), members.end(), [this, c](UserId a, UserId b) {
      const double wa = index_.Membership(a)[c];
      const double wb = index_.Membership(b)[c];
      if (wa != wb) return wa > wb;
      return a < b;
    });
    const size_t k = request.top_k == 0
                         ? members.size()
                         : std::min(members.size(),
                                    static_cast<size_t>(request.top_k));
    serve::TopUsersResponse response;
    for (size_t i = 0; i < k; ++i) {
      response.users.push_back(members[i]);
      response.weights.push_back(index_.Membership(members[i])[c]);
    }
    return response;
  }

  StatusOr<serve::QueryResponse> Query(
      const serve::QueryRequest& request) const {
    return std::visit(
        [this](const auto& typed) -> StatusOr<serve::QueryResponse> {
          using T = std::decay_t<decltype(typed)>;
          if constexpr (std::is_same_v<T, serve::MembershipRequest>) {
            return Wrap(Membership(typed));
          } else if constexpr (std::is_same_v<T,
                                              serve::RankCommunitiesRequest>) {
            return Wrap(RankCommunities(typed));
          } else if constexpr (std::is_same_v<T, serve::DiffusionRequest>) {
            return Wrap(Diffusion(typed));
          } else {
            return Wrap(TopUsers(typed));
          }
        },
        request);
  }

 private:
  template <typename T>
  static StatusOr<serve::QueryResponse> Wrap(StatusOr<T> response) {
    if (!response.ok()) return response.status();
    return serve::QueryResponse(std::move(*response));
  }

  /// Community ids sorted by (pi desc, id asc).
  static std::vector<int> SortedCommunities(std::span<const double> pi) {
    std::vector<int> order(pi.size());
    for (size_t c = 0; c < pi.size(); ++c) order[c] = static_cast<int>(c);
    std::sort(order.begin(), order.end(), [pi](int a, int b) {
      const double wa = pi[static_cast<size_t>(a)];
      const double wb = pi[static_cast<size_t>(b)];
      if (wa != wb) return wa > wb;
      return a < b;
    });
    return order;
  }

  const serve::ProfileIndex& index_;
  const SocialGraph* graph_ = nullptr;
};

}  // namespace cpd::testing

#endif  // CPD_TESTS_REFERENCE_SCORING_H_
