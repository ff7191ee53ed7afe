#ifndef CPD_SERVE_QUERY_ENGINE_H_
#define CPD_SERVE_QUERY_ENGINE_H_

/// \file query_engine.h
/// Unified request/response query API over a ProfileIndex — the serving
/// seam of the library. The four §5 read workloads are typed requests:
///   MembershipRequest       -> who is user u (pi_u, top-k communities)?
///   RankCommunitiesRequest  -> Eq. 19: which communities diffuse query q?
///   DiffusionRequest        -> Eq. 18: will u diffuse v's document?
///   TopUsersRequest         -> strongest members of a community.
/// Every call returns StatusOr so malformed requests surface as typed
/// errors, never crashes; a future RPC/HTTP front end maps these 1:1.
/// The engine is immutable and thread-safe.
///
/// Diffusion queries additionally need the social graph (documents for the
/// topic posterior, degree features for the individual factor); bind one at
/// construction or get FailedPrecondition for DiffusionRequests.

#include <cstdint>
#include <variant>
#include <vector>

#include "serve/profile_index.h"
#include "util/status.h"

namespace cpd {
namespace serve {

// ----- requests -----

struct MembershipRequest {
  UserId user = -1;
  /// Entries of the precomputed top-k list to return (clamped to the
  /// index's membership_top_k); 0 returns the list in full.
  int top_k = 0;
  /// Also copy the full pi_u distribution into the response.
  bool include_distribution = false;
};

struct RankCommunitiesRequest {
  /// Conjunctive keyword query (word ids; callers tokenize via
  /// CommunityRanker::ParseQuery or a vocabulary lookup).
  std::vector<WordId> words;
  /// Communities to return (0 = all, ranked).
  int top_k = 0;
  /// Attach p(z | q, c) per returned community (Table 6's last column).
  bool include_topic_distribution = true;
};

struct DiffusionRequest {
  UserId source = -1;      ///< u, the candidate diffuser.
  UserId target = -1;      ///< v, the author being diffused.
  DocId document = -1;     ///< v's document (topic posterior input).
  int32_t time_bin = 0;    ///< t of Eq. 18.
};

struct TopUsersRequest {
  int community = -1;
  int top_k = 10;  ///< 0 = every posted member.
};

// ----- responses -----

struct MembershipResponse {
  std::vector<TopMembership> top;       ///< Descending weight.
  std::vector<double> distribution;     ///< pi_u if requested, else empty.
};

struct RankedCommunityEntry {
  int community = -1;
  double score = 0.0;                     ///< Eq. 19, unnormalized.
  std::vector<double> topic_distribution; ///< p(z | q, c), normalized.
};

struct RankCommunitiesResponse {
  std::vector<RankedCommunityEntry> ranked;  ///< Descending score.
};

struct DiffusionResponse {
  double probability = 0.0;       ///< Eq. 18.
  double friendship_score = 0.0;  ///< sigmoid(pi_u . pi_v), Eq. 3.
};

struct TopUsersResponse {
  std::vector<UserId> users;      ///< Descending membership weight.
  std::vector<double> weights;    ///< pi_{u,c}, parallel to users.
};

/// One request/response of any type (the front-end currency).
using QueryRequest = std::variant<MembershipRequest, RankCommunitiesRequest,
                                  DiffusionRequest, TopUsersRequest>;
using QueryResponse = std::variant<MembershipResponse, RankCommunitiesResponse,
                                   DiffusionResponse, TopUsersResponse>;

class QueryEngine {
 public:
  /// The index (and graph, when given) must outlive the engine. The graph
  /// enables DiffusionRequests; membership/ranking/top-users need none.
  explicit QueryEngine(const ProfileIndex& index,
                       const SocialGraph* graph = nullptr);

  const ProfileIndex& index() const { return index_; }

  // ----- single queries -----
  StatusOr<MembershipResponse> Membership(const MembershipRequest& request) const;
  StatusOr<RankCommunitiesResponse> RankCommunities(
      const RankCommunitiesRequest& request) const;
  StatusOr<DiffusionResponse> Diffusion(const DiffusionRequest& request) const;
  StatusOr<TopUsersResponse> TopUsers(const TopUsersRequest& request) const;

  /// Dispatches on the request's alternative.
  StatusOr<QueryResponse> Query(const QueryRequest& request) const;

  // ----- shared scoring kernels (the app adapters call these) -----
  /// p(z | d) ∝ (sum_c pi_{author,c} theta_{c,z}) prod_w phi_{z,w},
  /// normalized. Requires a bound graph.
  StatusOr<std::vector<double>> DocumentTopicPosterior(DocId document) const;

  /// The community-factor score S(u, v, z) of Eq. 4 under trained estimates.
  double CommunityScore(UserId u, UserId v, int z) const;

  /// sigmoid(pi_u . pi_v) (Eq. 3).
  double FriendshipScore(UserId u, UserId v) const;

 private:
  const ProfileIndex& index_;
  const SocialGraph* graph_ = nullptr;
};

}  // namespace serve
}  // namespace cpd

#endif  // CPD_SERVE_QUERY_ENGINE_H_
