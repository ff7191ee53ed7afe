// Engine-vs-oracle scoring equivalence: every query type the QueryEngine
// answers off the index's precomputed scoring tables must equal the naive
// reference kernels of reference_scoring.h. The table build mirrors the
// reference kernels' accumulation orders exactly, so the pin is bitwise
// equality, not a tolerance.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <variant>
#include <vector>

#include "artifact_test_util.h"
#include "core/cpd_model.h"
#include "core/model_artifact.h"
#include "core/model_state.h"
#include "serve/profile_index.h"
#include "serve/query_engine.h"
#include "reference_scoring.h"
#include "test_util.h"

namespace cpd {
namespace {

using serve::ProfileIndex;
using serve::QueryEngine;
using serve::QueryRequest;
using serve::QueryResponse;
using testing::ReferenceScorer;

class ScoringEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new SynthResult(testing::MakeTinyGraph(211));
    CpdConfig config;
    config.num_communities = 4;
    config.num_topics = 6;
    config.em_iterations = 5;
    config.seed = 23;
    auto model = CpdModel::Train(data_->graph, config);
    ASSERT_TRUE(model.ok()) << model.status().ToString();

    fast_ = new ProfileIndex(ProfileIndex::FromModel(*model));
  }
  static void TearDownTestSuite() {
    delete fast_;
    delete data_;
    fast_ = nullptr;
    data_ = nullptr;
  }

  /// The engine and the oracle answer `request` OK and the responses match
  /// bitwise.
  static void ExpectIdentical(const QueryEngine& fast,
                              const ReferenceScorer& reference,
                              const QueryRequest& request) {
    const auto expected = reference.Query(request);
    const auto actual = fast.Query(request);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    ASSERT_EQ(expected->index(), actual->index());
    if (const auto* m = std::get_if<serve::MembershipResponse>(&*expected)) {
      const auto& f = std::get<serve::MembershipResponse>(*actual);
      ASSERT_EQ(m->top.size(), f.top.size());
      for (size_t i = 0; i < m->top.size(); ++i) {
        EXPECT_EQ(m->top[i].community, f.top[i].community);
        EXPECT_EQ(m->top[i].weight, f.top[i].weight);
      }
      EXPECT_EQ(m->distribution, f.distribution);
    } else if (const auto* r =
                   std::get_if<serve::RankCommunitiesResponse>(&*expected)) {
      const auto& f = std::get<serve::RankCommunitiesResponse>(*actual);
      ASSERT_EQ(r->ranked.size(), f.ranked.size());
      for (size_t i = 0; i < r->ranked.size(); ++i) {
        EXPECT_EQ(r->ranked[i].community, f.ranked[i].community)
            << "rank position " << i;
        EXPECT_EQ(r->ranked[i].score, f.ranked[i].score)
            << "rank position " << i;
        EXPECT_EQ(r->ranked[i].topic_distribution,
                  f.ranked[i].topic_distribution)
            << "rank position " << i;
      }
    } else if (const auto* d =
                   std::get_if<serve::DiffusionResponse>(&*expected)) {
      const auto& f = std::get<serve::DiffusionResponse>(*actual);
      EXPECT_EQ(d->probability, f.probability);
      EXPECT_EQ(d->friendship_score, f.friendship_score);
    } else {
      const auto& t = std::get<serve::TopUsersResponse>(*expected);
      const auto& f = std::get<serve::TopUsersResponse>(*actual);
      EXPECT_EQ(t.users, f.users);
      EXPECT_EQ(t.weights, f.weights);
    }
  }

  static SynthResult* data_;
  static ProfileIndex* fast_;
};

SynthResult* ScoringEquivalenceTest::data_ = nullptr;
ProfileIndex* ScoringEquivalenceTest::fast_ = nullptr;

TEST_F(ScoringEquivalenceTest, ScoringTablesMatchTheirDefinitions) {
  // The tables really are what the kernels assume: M = sum_c2 G row,
  // G = eta * theta, log-phi rows = floored std::log of the phi columns.
  for (int c = 0; c < fast_->num_communities(); ++c) {
    for (int z = 0; z < fast_->num_topics(); ++z) {
      const auto row = fast_->EtaThetaRow(c, z);
      double total = 0.0;
      for (int c2 = 0; c2 < fast_->num_communities(); ++c2) {
        EXPECT_EQ(row[static_cast<size_t>(c2)],
                  fast_->Eta(c, c2, z) *
                      fast_->ContentProfile(c2)[static_cast<size_t>(z)]);
        total += row[static_cast<size_t>(c2)];
      }
      EXPECT_EQ(fast_->LinkContentRow(c)[static_cast<size_t>(z)], total);
    }
  }
  for (WordId w = 0; w < static_cast<WordId>(fast_->vocab_size()); w += 7) {
    const auto row = fast_->WordLogPhi(w);
    for (int z = 0; z < fast_->num_topics(); ++z) {
      EXPECT_EQ(row[static_cast<size_t>(z)],
                std::log(std::max(
                    fast_->TopicWords(z)[static_cast<size_t>(w)], 1e-300)));
    }
  }
}

TEST_F(ScoringEquivalenceTest, RankCommunitiesMatchesReference) {
  const QueryEngine fast(*fast_);
  const ReferenceScorer reference(*fast_);
  const WordId vocab = static_cast<WordId>(fast_->vocab_size());
  for (const bool include_distribution : {true, false}) {
    for (const int top_k : {0, 1, 2, 100}) {
      for (const std::vector<WordId>& words :
           {std::vector<WordId>{}, std::vector<WordId>{0},
            std::vector<WordId>{1, 2},
            std::vector<WordId>{static_cast<WordId>(vocab - 1), 3, 3, 5}}) {
        serve::RankCommunitiesRequest request;
        request.words = words;
        request.top_k = top_k;
        request.include_topic_distribution = include_distribution;
        ExpectIdentical(fast, reference, request);
      }
    }
  }
}

TEST_F(ScoringEquivalenceTest, RankSkipsTopicDistributionWhenNotRequested) {
  const QueryEngine engine(*fast_);
  serve::RankCommunitiesRequest request;
  request.words = {0, 1};
  request.include_topic_distribution = false;
  const auto response = engine.RankCommunities(request);
  ASSERT_TRUE(response.ok());
  for (const auto& entry : response->ranked) {
    EXPECT_TRUE(entry.topic_distribution.empty());
    EXPECT_EQ(entry.topic_distribution.capacity(), 0u)
        << "distribution buffer was allocated despite not being requested";
  }
}

TEST_F(ScoringEquivalenceTest, RankTopKEqualsFullSortPrefix) {
  const QueryEngine fast(*fast_);
  serve::RankCommunitiesRequest full;
  full.words = {2, 4};
  full.top_k = 0;
  const auto everything = fast.RankCommunities(full);
  ASSERT_TRUE(everything.ok());
  for (int top_k = 1; top_k <= fast_->num_communities(); ++top_k) {
    serve::RankCommunitiesRequest partial = full;
    partial.top_k = top_k;
    const auto prefix = fast.RankCommunities(partial);
    ASSERT_TRUE(prefix.ok());
    ASSERT_EQ(prefix->ranked.size(), static_cast<size_t>(top_k));
    for (int i = 0; i < top_k; ++i) {
      EXPECT_EQ(prefix->ranked[static_cast<size_t>(i)].community,
                everything->ranked[static_cast<size_t>(i)].community);
      EXPECT_EQ(prefix->ranked[static_cast<size_t>(i)].score,
                everything->ranked[static_cast<size_t>(i)].score);
    }
  }
}

/// Uniform estimates tie every community's score; the partial top-k must
/// keep the full sort's stable tie order (ascending community id).
TEST_F(ScoringEquivalenceTest, TopKTieBreakingIsStable) {
  ModelArtifact artifact;
  artifact.num_communities = 5;
  artifact.num_topics = 3;
  artifact.num_users = 2;
  artifact.vocab_size = 4;
  artifact.num_time_bins = 1;
  artifact.pi.assign(2 * 5, 1.0 / 5);
  artifact.theta.assign(5 * 3, 1.0 / 3);
  artifact.phi.assign(3 * 4, 1.0 / 4);
  artifact.eta.assign(5 * 5 * 3, 0.5);
  artifact.weights.assign(kNumDiffusionWeights, 0.0);
  artifact.popularity.assign(1 * 3, 1.0 / 3);
  auto index = testing::IndexFromArtifact(artifact);
  ASSERT_TRUE(index.ok());
  const QueryEngine engine(*index);
  serve::RankCommunitiesRequest request;
  request.words = {0, 1};
  request.top_k = 3;
  const auto response = engine.RankCommunities(request);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->ranked.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(response->ranked[static_cast<size_t>(i)].community, i);
  }
  ExpectIdentical(engine, ReferenceScorer(*index), request);
}

TEST_F(ScoringEquivalenceTest, MembershipAndTopUsersMatchReference) {
  const QueryEngine fast(*fast_);
  const ReferenceScorer reference(*fast_);
  for (UserId u = 0; u < 10; ++u) {
    serve::MembershipRequest request;
    request.user = u;
    request.top_k = static_cast<int>(u) % 5;
    request.include_distribution = (u % 2) == 0;
    ExpectIdentical(fast, reference, request);
  }
  for (int c = 0; c < fast_->num_communities(); ++c) {
    for (const int top_k : {0, 1, 7, 1000}) {
      serve::TopUsersRequest request;
      request.community = c;
      request.top_k = top_k;
      ExpectIdentical(fast, reference, request);
    }
  }
}

TEST_F(ScoringEquivalenceTest, TopUsersWeightsComeFromThePosting) {
  // The posted weights must equal the pi rows they were copied from.
  for (int c = 0; c < fast_->num_communities(); ++c) {
    const auto members = fast_->CommunityMembers(c);
    const auto weights = fast_->CommunityMemberWeights(c);
    ASSERT_EQ(members.size(), weights.size());
    for (size_t i = 0; i < members.size(); ++i) {
      EXPECT_EQ(weights[i],
                fast_->Membership(members[i])[static_cast<size_t>(c)]);
    }
  }
}

TEST_F(ScoringEquivalenceTest, DiffusionAndPosteriorMatchReference) {
  const QueryEngine fast(*fast_, &data_->graph);
  const ReferenceScorer reference(*fast_, &data_->graph);
  const auto& links = data_->graph.diffusion_links();
  ASSERT_FALSE(links.empty());
  for (size_t e = 0; e < std::min<size_t>(8, links.size()); ++e) {
    const DiffusionLink& link = links[e];
    serve::DiffusionRequest request;
    request.source = data_->graph.document(link.i).user;
    request.target = data_->graph.document(link.j).user;
    request.document = link.j;
    request.time_bin = link.time;
    ExpectIdentical(fast, reference, request);
  }
  for (DocId d = 0; d < 6; ++d) {
    const auto expected = reference.DocumentTopicPosterior(d);
    const auto actual = fast.DocumentTopicPosterior(d);
    ASSERT_TRUE(expected.ok());
    ASSERT_TRUE(actual.ok());
    EXPECT_EQ(*expected, *actual);
  }
  for (UserId u = 0; u < 6; ++u) {
    for (UserId v = 0; v < 6; ++v) {
      for (int z = 0; z < fast_->num_topics(); ++z) {
        EXPECT_EQ(fast.CommunityScore(u, v, z),
                  reference.CommunityScore(u, v, z));
      }
    }
  }
}

/// Degenerate requests behave identically in the engine and the oracle.
TEST_F(ScoringEquivalenceTest, DegenerateRequestsAgree) {
  const QueryEngine fast(*fast_);
  const ReferenceScorer reference(*fast_);
  serve::RankCommunitiesRequest bad_word;
  bad_word.words = {static_cast<WordId>(fast_->vocab_size())};
  EXPECT_EQ(fast.RankCommunities(bad_word).status().code(),
            reference.RankCommunities(bad_word).status().code());
  serve::RankCommunitiesRequest negative_k;
  negative_k.top_k = -1;
  EXPECT_EQ(fast.RankCommunities(negative_k).status().code(),
            StatusCode::kInvalidArgument);
  // Empty query, no distribution, huge k: the prior ranking, full length.
  serve::RankCommunitiesRequest empty;
  empty.top_k = 10000;
  empty.include_topic_distribution = false;
  ExpectIdentical(fast, reference, empty);
}

}  // namespace
}  // namespace cpd
