#include <gtest/gtest.h>

#include <cmath>

#include "core/cpd_model.h"
#include "core/gibbs_sampler.h"
#include "eval/metrics.h"
#include "test_util.h"

namespace cpd {
namespace {

// The GibbsSamplerTest suite drives the exact dense reference kernels
// regardless of the library default (now kSparse); SparseConfig() below opts
// back into the sparse backend explicitly.
CpdConfig DenseConfig() {
  CpdConfig cfg;
  cfg.sampler_mode = SamplerMode::kDense;
  return cfg;
}

struct Harness {
  explicit Harness(uint64_t seed = 5, CpdConfig cfg = DenseConfig())
      : result(testing::MakeTinyGraph(seed)),
        config(PrepareConfig(std::move(cfg))),
        caches(result.graph),
        state(result.graph, config),
        sampler(result.graph, config, caches, &state),
        rng(seed + 1) {
    state.InitializeRandom(result.graph, &rng);
    state.RebuildCounts(result.graph);
    state.popularity.Refresh(result.graph, state.doc_topic);
  }

  static CpdConfig PrepareConfig(CpdConfig cfg) {
    cfg.num_communities = 4;
    cfg.num_topics = 6;
    return cfg;
  }

  SynthResult result;
  CpdConfig config;
  LinkCaches caches;
  ModelState state;
  GibbsSampler sampler;
  Rng rng;
};

// Every counter equals a from-scratch rebuild from the assignments (the
// sampler's remove/add bookkeeping is exact).
void ExpectCountsMatchRebuild(const Harness& h) {
  ModelState fresh(h.result.graph, h.config);
  fresh.doc_topic = h.state.doc_topic;
  fresh.doc_community = h.state.doc_community;
  fresh.RebuildCounts(h.result.graph);
  EXPECT_EQ(fresh.n_uc, h.state.n_uc);
  EXPECT_EQ(fresh.n_cz, h.state.n_cz);
  EXPECT_EQ(fresh.n_zw, h.state.n_zw);
  EXPECT_EQ(fresh.n_z, h.state.n_z);
  EXPECT_EQ(fresh.n_c, h.state.n_c);
  EXPECT_EQ(fresh.n_u, h.state.n_u);
}

// A shard's sweep: SweepUsers over a subset of the users, reading tables
// built outside the sampler, as ShardRunner drives it. Counters must stay
// exact across repeated subset sweeps.
void ExpectSubsetSweepsKeepCountsConsistent(Harness& h) {
  SparseSamplerTables tables;
  tables.Rebuild(h.state);
  h.sampler.UseExternalSparseTables(&tables);
  std::vector<UserId> odd_users;
  for (size_t u = 1; u < h.result.graph.num_users(); u += 2) {
    odd_users.push_back(static_cast<UserId>(u));
  }
  for (int sweep = 0; sweep < 3; ++sweep) {
    h.sampler.SweepUsers(odd_users, &h.rng);
  }
  ExpectCountsMatchRebuild(h);
}

TEST(GibbsSamplerTest, CountsRemainConsistentAfterSweeps) {
  Harness h;
  for (int sweep = 0; sweep < 3; ++sweep) {
    h.sampler.SweepDocuments(&h.rng);
  }
  ExpectCountsMatchRebuild(h);
}

TEST(GibbsSamplerTest, AssignmentsStayInRange) {
  Harness h;
  h.sampler.SweepDocuments(&h.rng);
  for (size_t d = 0; d < h.state.num_documents; ++d) {
    EXPECT_GE(h.state.doc_topic[d], 0);
    EXPECT_LT(h.state.doc_topic[d], h.config.num_topics);
    EXPECT_GE(h.state.doc_community[d], 0);
    EXPECT_LT(h.state.doc_community[d], h.config.num_communities);
  }
}

TEST(GibbsSamplerTest, PolyaGammaSweepsProducePositiveFiniteValues) {
  Harness h;
  h.sampler.SweepFriendshipAugmentation(&h.rng);
  h.sampler.SweepDiffusionAugmentation(&h.rng);
  for (double lambda : h.state.lambda) {
    EXPECT_GT(lambda, 0.0);
    EXPECT_TRUE(std::isfinite(lambda));
  }
  for (double delta : h.state.delta) {
    EXPECT_GT(delta, 0.0);
    EXPECT_TRUE(std::isfinite(delta));
  }
}

TEST(GibbsSamplerTest, EnergiesAreFinite) {
  Harness h;
  h.sampler.SweepDocuments(&h.rng);
  for (size_t f = 0; f < h.result.graph.num_friendship_links(); ++f) {
    EXPECT_TRUE(std::isfinite(h.sampler.FriendshipEnergy(f)));
  }
  for (size_t e = 0; e < h.result.graph.num_diffusion_links(); ++e) {
    EXPECT_TRUE(std::isfinite(h.sampler.DiffusionEnergy(e)));
  }
  EXPECT_TRUE(std::isfinite(h.sampler.LinkLogLikelihood()));
}

TEST(GibbsSamplerTest, FreezeCommunitiesHoldsAssignments) {
  Harness h;
  h.sampler.set_flags({.freeze_communities = true});
  const std::vector<int32_t> before = h.state.doc_community;
  h.sampler.SweepDocuments(&h.rng);
  EXPECT_EQ(h.state.doc_community, before);
  // Topics still move.
}

TEST(GibbsSamplerTest, NoHeterogeneityEnergyIsMembershipDot) {
  CpdConfig cfg = DenseConfig();
  cfg.ablation.heterogeneous_links = false;
  Harness h(7, cfg);
  const DiffusionLink& link = h.result.graph.diffusion_links()[0];
  const UserId u = h.result.graph.document(link.i).user;
  const UserId v = h.result.graph.document(link.j).user;
  EXPECT_DOUBLE_EQ(h.sampler.DiffusionEnergy(0), h.state.MembershipDot(u, v));
}

TEST(GibbsSamplerTest, ModelFriendshipOffSkipsLambda) {
  CpdConfig cfg = DenseConfig();
  cfg.ablation.model_friendship = false;
  Harness h(8, cfg);
  const std::vector<double> before = h.state.lambda;
  h.sampler.SweepFriendshipAugmentation(&h.rng);
  EXPECT_EQ(h.state.lambda, before);
}

TEST(GibbsSamplerTest, SweepUsersTouchesOnlyGivenUsers) {
  Harness h;
  // Sweep only user 0's documents; other users' assignments must not change
  // ... their n_u entries must stay constant (assignments of other users may
  // be re-sampled only via their own docs).
  std::vector<int32_t> before_topics = h.state.doc_topic;
  const std::vector<UserId> users = {0};
  h.sampler.SweepUsers(users, &h.rng);
  for (size_t d = 0; d < h.state.num_documents; ++d) {
    if (h.result.graph.document(static_cast<DocId>(d)).user != 0) {
      EXPECT_EQ(h.state.doc_topic[d], before_topics[d]) << "doc " << d;
    }
  }
}

TEST(GibbsSamplerTest, SubsetSweepsKeepCountsConsistent) {
  Harness h;
  ExpectSubsetSweepsKeepCountsConsistent(h);
}

// ---------- sparse (alias + Metropolis-Hastings) backend ----------

CpdConfig SparseConfig() {
  CpdConfig cfg;
  cfg.sampler_mode = SamplerMode::kSparse;
  return cfg;
}

// The sparse kernels share the dense bookkeeping; counter invariants must
// survive sparse sweeps identically.
TEST(SparseGibbsTest, CountsRemainConsistentAfterSweeps) {
  Harness h(5, SparseConfig());
  for (int sweep = 0; sweep < 3; ++sweep) {
    h.sampler.SweepDocuments(&h.rng);
  }
  ExpectCountsMatchRebuild(h);
}

TEST(SparseGibbsTest, AssignmentsStayInRange) {
  Harness h(6, SparseConfig());
  for (int sweep = 0; sweep < 2; ++sweep) h.sampler.SweepDocuments(&h.rng);
  for (size_t d = 0; d < h.state.num_documents; ++d) {
    EXPECT_GE(h.state.doc_topic[d], 0);
    EXPECT_LT(h.state.doc_topic[d], h.config.num_topics);
    EXPECT_GE(h.state.doc_community[d], 0);
    EXPECT_LT(h.state.doc_community[d], h.config.num_communities);
  }
}

TEST(SparseGibbsTest, FreezeCommunitiesHoldsAssignments) {
  Harness h(9, SparseConfig());
  h.sampler.set_flags({.freeze_communities = true});
  const std::vector<int32_t> before = h.state.doc_community;
  h.sampler.SweepDocuments(&h.rng);
  EXPECT_EQ(h.state.doc_community, before);
}

TEST(SparseGibbsTest, SubsetSweepsKeepCountsConsistent) {
  Harness h(10, SparseConfig());
  ExpectSubsetSweepsKeepCountsConsistent(h);
}

// Acceptance-rate sanity: with per-sweep table rebuilds the stale proposals
// track the target closely, so acceptance must be well away from 0 (dead
// chain) and proposals must actually be counted. Self-proposals count as
// accepts, so rates are bounded by 1 from above trivially.
TEST(SparseGibbsTest, MhAcceptanceRatesAreSane) {
  Harness h(11, SparseConfig());
  for (int sweep = 0; sweep < 5; ++sweep) h.sampler.SweepDocuments(&h.rng);
  const MhStats stats = h.sampler.mh_stats();
  const int64_t docs = static_cast<int64_t>(h.state.num_documents);
  EXPECT_EQ(stats.topic_proposals, 5 * docs * h.config.mh_steps);
  EXPECT_EQ(stats.community_proposals, 5 * docs * h.config.mh_steps);
  EXPECT_GE(stats.topic_accepts, 0);
  EXPECT_LE(stats.topic_accepts, stats.topic_proposals);
  EXPECT_GT(stats.TopicAcceptRate(), 0.10);
  EXPECT_LE(stats.TopicAcceptRate(), 1.0);
  EXPECT_GT(stats.CommunityAcceptRate(), 0.10);
  EXPECT_LE(stats.CommunityAcceptRate(), 1.0);

  h.sampler.ResetMhStats();
  const MhStats cleared = h.sampler.mh_stats();
  EXPECT_EQ(cleared.topic_proposals, 0);
  EXPECT_EQ(cleared.community_accepts, 0);
}

// Dense kernels must not touch the MH counters.
TEST(GibbsSamplerTest, DenseModeLeavesMhCountersAtZero) {
  Harness h;
  h.sampler.SweepDocuments(&h.rng);
  const MhStats stats = h.sampler.mh_stats();
  EXPECT_EQ(stats.topic_proposals, 0);
  EXPECT_EQ(stats.community_proposals, 0);
}

// ---------- dense vs sparse statistical equivalence ----------

struct ModeMetrics {
  double per_link_ll = 0.0;    ///< Final link log-likelihood / #links.
  double perplexity = 0.0;     ///< Content perplexity under the profiles.
};

ModeMetrics TrainAndMeasure(const SocialGraph& graph, SamplerMode mode,
                            uint64_t seed) {
  CpdConfig config;
  config.num_communities = 4;
  config.num_topics = 6;
  config.em_iterations = 8;
  config.seed = seed;
  config.sampler_mode = mode;
  config.mh_steps = 4;
  auto model = CpdModel::Train(graph, config);
  CPD_CHECK(model.ok());

  ModeMetrics out;
  const size_t num_links =
      graph.num_friendship_links() + graph.num_diffusion_links();
  out.per_link_ll = model->stats().link_log_likelihood.back() /
                    static_cast<double>(num_links);

  std::vector<std::vector<double>> pi, theta, phi;
  for (size_t u = 0; u < graph.num_users(); ++u) {
    const auto row = model->Membership(static_cast<UserId>(u));
    pi.emplace_back(row.begin(), row.end());
  }
  for (int c = 0; c < config.num_communities; ++c) {
    const auto row = model->ContentProfile(c);
    theta.emplace_back(row.begin(), row.end());
  }
  for (int z = 0; z < config.num_topics; ++z) {
    const auto row = model->TopicWords(z);
    phi.emplace_back(row.begin(), row.end());
  }
  std::vector<DocId> docs(graph.num_documents());
  for (size_t d = 0; d < docs.size(); ++d) docs[d] = static_cast<DocId>(d);
  out.perplexity = ContentPerplexity(graph, docs, pi, theta, phi);
  return out;
}

// The two backends target the same posterior, so trained-model quality must
// agree within MCMC noise: compare seed-averaged content perplexity and
// per-link log-likelihood. (Exact per-draw agreement is impossible — the
// backends consume randomness differently.)
TEST(SparseGibbsTest, DenseAndSparseModesAgreeStatistically) {
  const SynthResult synth = testing::MakeTinyGraph(33);
  const std::vector<uint64_t> seeds = {1, 2, 3};
  double dense_ll = 0.0, sparse_ll = 0.0;
  double dense_ppl = 0.0, sparse_ppl = 0.0;
  for (uint64_t seed : seeds) {
    const ModeMetrics dense =
        TrainAndMeasure(synth.graph, SamplerMode::kDense, seed);
    const ModeMetrics sparse =
        TrainAndMeasure(synth.graph, SamplerMode::kSparse, seed);
    dense_ll += dense.per_link_ll;
    sparse_ll += sparse.per_link_ll;
    dense_ppl += dense.perplexity;
    sparse_ppl += sparse.perplexity;
  }
  const double n = static_cast<double>(seeds.size());
  dense_ll /= n;
  sparse_ll /= n;
  dense_ppl /= n;
  sparse_ppl /= n;

  // Both must actually fit: perplexity far below the uniform-vocabulary
  // baseline, link log-likelihood above log(0.5) (random-guess energy 0).
  const double uniform_ppl =
      static_cast<double>(synth.graph.vocabulary_size());
  EXPECT_LT(dense_ppl, 0.75 * uniform_ppl);
  EXPECT_LT(sparse_ppl, 0.75 * uniform_ppl);

  // Agreement within noise.
  EXPECT_NEAR(sparse_ppl / dense_ppl, 1.0, 0.15)
      << "dense ppl " << dense_ppl << " sparse ppl " << sparse_ppl;
  EXPECT_NEAR(sparse_ll / dense_ll, 1.0, 0.15)
      << "dense ll/link " << dense_ll << " sparse ll/link " << sparse_ll;
}

// With strongly separated planted content, topic sampling should settle:
// documents generated from the same planted topic end up sharing a sampled
// topic more often than chance.
TEST(GibbsSamplerTest, TopicsBecomeMoreCoherentThanRandom) {
  Harness h;
  for (int sweep = 0; sweep < 15; ++sweep) h.sampler.SweepDocuments(&h.rng);
  // Compare documents' words overlap within sampled topic groups: documents
  // with identical sampled topic should share vocabulary mass. Cheap proxy:
  // average number of docs per used topic must exceed uniform random spread
  // significantly (topics collapse onto planted clusters).
  std::vector<int> counts(static_cast<size_t>(h.config.num_topics), 0);
  for (int32_t z : h.state.doc_topic) ++counts[static_cast<size_t>(z)];
  int max_count = 0;
  for (int c : counts) max_count = std::max(max_count, c);
  const double uniform =
      static_cast<double>(h.state.num_documents) / h.config.num_topics;
  EXPECT_GT(max_count, uniform * 1.2);
}

}  // namespace
}  // namespace cpd
