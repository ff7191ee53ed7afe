// Streaming ingest: UpdateBatch codec + validation, merged-graph id
// stability, warm-start correctness (serial-vs-pooled bit identity,
// untouched-user invariance, counter consistency), warm-vs-cold quality
// parity, and the IngestPipeline's artifact chain.

#include "ingest/update_batch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/cpd_model.h"
#include "core/em_trainer.h"
#include "core/model_delta.h"
#include "eval/metrics.h"
#include "ingest/ingest_pipeline.h"
#include "serve/profile_index.h"
#include "serve/query_engine.h"
#include "test_util.h"
#include "util/file_util.h"
#include "util/json.h"

namespace cpd {
namespace {

using ingest::ApplyUpdate;
using ingest::IngestOptions;
using ingest::IngestPipeline;
using ingest::NewDocument;
using ingest::SampleUpdateBatch;
using ingest::SampleUpdateOptions;
using ingest::UpdateBatch;
using ingest::UpdateBatchFromJson;
using ingest::UpdateBatchToJson;

CpdConfig TinyConfig(uint64_t seed = 7) {
  CpdConfig config;
  config.num_communities = 4;
  config.num_topics = 6;
  config.em_iterations = 5;
  config.seed = seed;
  return config;
}

UpdateBatch TinyBatch(const SocialGraph& base, uint64_t seed = 5) {
  Rng rng(seed);
  SampleUpdateOptions options;
  options.new_users = 3;
  options.docs_per_user = 3;
  options.novel_words_per_doc = 1;
  options.friends_per_user = 2;
  options.diffusions = 3;
  options.time = base.num_time_bins() - 1;
  return SampleUpdateBatch(base, options, &rng);
}

// ----- wire codec -----

TEST(UpdateBatchJson, RoundTripsThroughTheWireForm) {
  const SocialGraph base = testing::MakeHandGraph();
  UpdateBatch batch = TinyBatch(base);
  batch.documents.push_back(
      {/*user=*/1, /*time=*/2, /*text=*/"raw text body", /*tokens=*/{}});
  const Json wire = UpdateBatchToJson(batch);
  auto parsed = UpdateBatchFromJson(wire);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->num_users, batch.num_users);
  ASSERT_EQ(parsed->documents.size(), batch.documents.size());
  for (size_t k = 0; k < batch.documents.size(); ++k) {
    EXPECT_EQ(parsed->documents[k].user, batch.documents[k].user);
    EXPECT_EQ(parsed->documents[k].time, batch.documents[k].time);
    EXPECT_EQ(parsed->documents[k].text, batch.documents[k].text);
    EXPECT_EQ(parsed->documents[k].tokens, batch.documents[k].tokens);
  }
  ASSERT_EQ(parsed->friendships.size(), batch.friendships.size());
  EXPECT_EQ(parsed->friendships[0], batch.friendships[0]);
  ASSERT_EQ(parsed->diffusions.size(), batch.diffusions.size());
  EXPECT_EQ(parsed->diffusions[0].i, batch.diffusions[0].i);
  EXPECT_EQ(parsed->diffusions[0].j, batch.diffusions[0].j);

  // A round trip through serialized bytes parses identically.
  auto reparsed = Json::Parse(wire.Dump());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_TRUE(UpdateBatchFromJson(*reparsed).ok());
}

TEST(UpdateBatchJson, RejectsMalformedBatches) {
  const auto parse = [](const char* text) {
    auto json = Json::Parse(text);
    CPD_CHECK(json.ok());
    return UpdateBatchFromJson(*json);
  };
  EXPECT_FALSE(parse(R"([1,2,3])").ok());  // Not an object.
  EXPECT_FALSE(parse(R"({"documents":[{"time":0,"text":"x y"}]})").ok())
      << "missing user must be rejected";
  EXPECT_FALSE(
      parse(R"({"documents":[{"user":0,"text":"a b","tokens":["a"]}]})").ok())
      << "text and tokens are mutually exclusive";
  EXPECT_FALSE(parse(R"({"documents":[{"user":0}]})").ok())
      << "one of text/tokens is required";
  EXPECT_FALSE(parse(R"({"documents":[{"user":0.5,"text":"a b"}]})").ok())
      << "fractional ids must be rejected";
  EXPECT_FALSE(parse(R"({"friendships":[{"u":1}]})").ok());
  EXPECT_FALSE(parse(R"({"diffusions":[{"i":1}]})").ok());
  EXPECT_FALSE(parse(R"({"num_users":-3})").ok());
  EXPECT_FALSE(parse(R"({"documents":[{"user":0,"tokens":[1,2]}]})").ok())
      << "tokens must be strings";
}

// ----- merged-graph rebuild -----

TEST(ApplyUpdate, MergesWithStableBaseIdsAndVocabGrowth) {
  const SocialGraph base = testing::MakeHandGraph();  // 4 users, 4 docs.
  UpdateBatch batch;
  batch.num_users = 6;  // Users 4 and 5 are new.
  batch.documents.push_back({4, 3, "", {"apple", "durian", "elderberry"}});
  batch.documents.push_back({0, 3, "", {"banana", "durian"}});
  batch.friendships.push_back({4, 0});
  batch.friendships.push_back({5, 4});   // New user with links only.
  batch.friendships.push_back({0, 1});   // Duplicate of a base link.
  batch.diffusions.push_back({4, 1, 3});  // Batch row 0 diffuses base doc 1.

  auto applied = ApplyUpdate(base, batch);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  const SocialGraph& merged = applied->graph;

  EXPECT_EQ(merged.num_users(), 6u);
  EXPECT_EQ(merged.num_documents(), 6u);
  // Base documents keep ids, authors, and word ids.
  for (DocId d = 0; d < 4; ++d) {
    EXPECT_EQ(merged.document(d).user, base.document(d).user);
    EXPECT_EQ(merged.document(d).words, base.document(d).words);
  }
  // Batch rows appended in order: ids 4 and 5.
  EXPECT_EQ(applied->batch_doc_ids, (std::vector<DocId>{4, 5}));
  EXPECT_EQ(merged.document(4).user, 4);
  // Vocabulary grew by exactly the two novel words, old ids intact.
  EXPECT_EQ(applied->counts.new_words, 2u);
  EXPECT_EQ(merged.corpus().vocabulary().Find("apple"),
            base.corpus().vocabulary().Find("apple"));
  EXPECT_NE(merged.corpus().vocabulary().Find("durian"), kInvalidWord);

  EXPECT_EQ(applied->counts.new_users, 2u);
  EXPECT_EQ(applied->counts.new_documents, 2u);
  EXPECT_EQ(applied->counts.new_friendships, 2u);  // The duplicate deduped.
  EXPECT_EQ(applied->counts.new_diffusions, 1u);
  // Diffusion row translated: merged doc 4 -> base doc 1.
  const DiffusionLink& added = merged.diffusion_links().back();
  EXPECT_EQ(added.i, 4);
  EXPECT_EQ(added.j, 1);
  // Touched: authors 4, 0 (docs), endpoints 4,0,5 (friendships), authors of
  // diffusion endpoints 4 and 1.
  EXPECT_EQ(applied->touched_users, (std::vector<UserId>{0, 1, 4, 5}));
}

TEST(ApplyUpdate, DroppedBatchRowsSkipTheirDiffusions) {
  const SocialGraph base = testing::MakeHandGraph();
  UpdateBatch batch;
  batch.num_users = 5;
  batch.documents.push_back({4, 0, "", {"apple"}});  // Below min length.
  batch.documents.push_back({4, 0, "", {"apple", "banana"}});
  batch.diffusions.push_back({4, 0, 1});  // Row 0: dropped -> skipped.
  batch.diffusions.push_back({5, 0, 1});  // Row 1: kept.
  auto applied = ApplyUpdate(base, batch);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied->batch_doc_ids,
            (std::vector<DocId>{Corpus::kInvalidDoc, 4}));
  EXPECT_EQ(applied->counts.dropped_documents, 1u);
  EXPECT_EQ(applied->counts.new_documents, 1u);
  EXPECT_EQ(applied->counts.new_diffusions, 1u);
}

TEST(ApplyUpdate, RejectsOutOfRangeReferences) {
  const SocialGraph base = testing::MakeHandGraph();
  {
    UpdateBatch batch;
    batch.num_users = 2;  // Shrinks the 4-user base.
    EXPECT_FALSE(ApplyUpdate(base, batch).ok());
  }
  {
    UpdateBatch batch;
    batch.documents.push_back({9, 0, "", {"a", "b"}});  // User 9 undeclared.
    EXPECT_FALSE(ApplyUpdate(base, batch).ok());
  }
  {
    UpdateBatch batch;
    batch.friendships.push_back({0, 99});
    EXPECT_FALSE(ApplyUpdate(base, batch).ok());
  }
  {
    UpdateBatch batch;
    batch.diffusions.push_back({99, 0, 0});  // Beyond base + batch rows.
    EXPECT_FALSE(ApplyUpdate(base, batch).ok());
  }
  {
    UpdateBatch batch;
    batch.diffusions.push_back({0, 1, -2});  // Negative time.
    EXPECT_FALSE(ApplyUpdate(base, batch).ok());
  }
  {
    UpdateBatch batch;
    batch.documents.push_back({0, -7, "", {"a", "b"}});  // Negative doc time.
    EXPECT_FALSE(ApplyUpdate(base, batch).ok());
  }
}

// ----- warm start -----

/// Cold-trains on `graph` and hands back the trainer (for its assignments).
std::unique_ptr<EmTrainer> ColdTrain(const SocialGraph& graph,
                                     const CpdConfig& config) {
  auto trainer = std::make_unique<EmTrainer>(graph, config);
  CPD_CHECK(trainer->Train().ok());
  return trainer;
}

TEST(ApplyUpdate, DocumentTimeBeyondEveryDiffusionBinTrainsSafely) {
  // num_time_bins derives from diffusion-link times only; a document
  // published in a later bin must read zero popularity, not out of bounds
  // (the M-step's negative sampling indexes the table by document time).
  const SynthResult data = testing::MakeTinyGraph(263);
  UpdateBatch batch;
  batch.num_users = data.graph.num_users() + 1;
  batch.documents.push_back({static_cast<UserId>(data.graph.num_users()),
                             data.graph.num_time_bins() + 50,
                             "",
                             {"late", "arrival", "post"}});
  auto applied = ApplyUpdate(data.graph, batch);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();

  CpdConfig config = TinyConfig(59);
  auto cold = ColdTrain(data.graph, config);
  EmTrainer trainer(applied->graph, config);
  WarmStartOptions options;
  options.prev_doc_topic = cold->state().doc_topic;
  options.prev_doc_community = cold->state().doc_community;
  options.touched_users = applied->touched_users;
  options.warm_iterations = 1;
  EXPECT_TRUE(trainer.WarmStart(options).ok());
}

TEST(WarmStart, DegenerateBatchWithNoTouchedUsersRewritesNothing) {
  // A pure user-count bump yields an empty touched set: the warm sweeps
  // must resample nobody (not silently fall back to a full sweep).
  const SynthResult data = testing::MakeTinyGraph(269);
  CpdConfig config = TinyConfig(61);
  auto cold = ColdTrain(data.graph, config);
  const std::vector<int32_t> prev_topic = cold->state().doc_topic;
  const std::vector<int32_t> prev_community = cold->state().doc_community;

  UpdateBatch batch;
  batch.num_users = data.graph.num_users() + 1;
  auto applied = ApplyUpdate(data.graph, batch);
  ASSERT_TRUE(applied.ok());
  ASSERT_TRUE(applied->touched_users.empty());

  EmTrainer trainer(applied->graph, config);
  WarmStartOptions options;
  options.prev_doc_topic = prev_topic;
  options.prev_doc_community = prev_community;
  options.touched_users = applied->touched_users;
  options.warm_iterations = 1;
  ASSERT_TRUE(trainer.WarmStart(options).ok());
  EXPECT_EQ(trainer.state().doc_topic, prev_topic);
  EXPECT_EQ(trainer.state().doc_community, prev_community);
}

TEST(WarmStart, SerialAndPooledAreBitIdentical) {
  const SynthResult data = testing::MakeTinyGraph(211);
  CpdConfig config = TinyConfig(31);
  auto cold = ColdTrain(data.graph, config);

  const UpdateBatch batch = TinyBatch(data.graph, 17);
  auto applied = ApplyUpdate(data.graph, batch);
  ASSERT_TRUE(applied.ok());

  const auto warm_run = [&](ExecutorMode mode, int threads) {
    CpdConfig warm_config = config;
    warm_config.executor_mode = mode;
    warm_config.num_threads = threads;
    warm_config.num_shards = 2;  // Same shard count across modes.
    EmTrainer trainer(applied->graph, warm_config);
    WarmStartOptions options;
    options.prev_doc_topic = cold->state().doc_topic;
    options.prev_doc_community = cold->state().doc_community;
    options.touched_users = applied->touched_users;
    options.warm_iterations = 2;
    CPD_CHECK(trainer.WarmStart(options).ok());
    return std::make_pair(trainer.state().doc_topic,
                          trainer.state().doc_community);
  };
  const auto serial = warm_run(ExecutorMode::kSerial, 1);
  const auto pooled = warm_run(ExecutorMode::kPooled, 2);
  EXPECT_EQ(serial.first, pooled.first) << "topic assignments diverged";
  EXPECT_EQ(serial.second, pooled.second) << "community assignments diverged";
}

TEST(WarmStart, UntouchedUsersKeepTheirAssignmentsAndCountersStayExact) {
  const SynthResult data = testing::MakeTinyGraph(223);
  CpdConfig config = TinyConfig(37);
  auto cold = ColdTrain(data.graph, config);
  const std::vector<int32_t> prev_topic = cold->state().doc_topic;
  const std::vector<int32_t> prev_community = cold->state().doc_community;

  const UpdateBatch batch = TinyBatch(data.graph, 19);
  auto applied = ApplyUpdate(data.graph, batch);
  ASSERT_TRUE(applied.ok());

  EmTrainer trainer(applied->graph, config);
  WarmStartOptions options;
  options.prev_doc_topic = prev_topic;
  options.prev_doc_community = prev_community;
  options.touched_users = applied->touched_users;
  options.warm_iterations = 2;
  ASSERT_TRUE(trainer.WarmStart(options).ok());

  // Documents of untouched users were never resampled.
  const auto touched_set = [&](UserId u) {
    return std::binary_search(applied->touched_users.begin(),
                              applied->touched_users.end(), u);
  };
  size_t untouched_docs = 0;
  for (size_t d = 0; d < data.graph.num_documents(); ++d) {
    const UserId author = applied->graph.document(static_cast<DocId>(d)).user;
    if (touched_set(author)) continue;
    ++untouched_docs;
    EXPECT_EQ(trainer.state().doc_topic[d], prev_topic[d]) << "doc " << d;
    EXPECT_EQ(trainer.state().doc_community[d], prev_community[d])
        << "doc " << d;
  }
  ASSERT_GT(untouched_docs, 0u) << "fixture must leave some users untouched";

  // The warm-start counters (incremental init + delta merges) match a from-
  // scratch rebuild over the final assignments exactly.
  ModelState rebuilt(applied->graph, config);
  rebuilt.doc_topic = trainer.state().doc_topic;
  rebuilt.doc_community = trainer.state().doc_community;
  rebuilt.RebuildCounts(applied->graph);
  EXPECT_EQ(trainer.state().n_uc, rebuilt.n_uc);
  EXPECT_EQ(trainer.state().n_cz, rebuilt.n_cz);
  EXPECT_EQ(trainer.state().n_zw, rebuilt.n_zw);
  EXPECT_EQ(trainer.state().n_z, rebuilt.n_z);
  EXPECT_EQ(trainer.state().n_c, rebuilt.n_c);
  EXPECT_EQ(trainer.state().n_u, rebuilt.n_u);
}

TEST(WarmStart, RejectsMismatchedInputs) {
  const SynthResult data = testing::MakeTinyGraph(229);
  const CpdConfig config = TinyConfig();
  const size_t docs = data.graph.num_documents();
  {
    EmTrainer trainer(data.graph, config);
    WarmStartOptions options;
    std::vector<int32_t> topic(docs + 5, 0), community(docs + 5, 0);
    options.prev_doc_topic = topic;
    options.prev_doc_community = community;
    EXPECT_FALSE(trainer.WarmStart(options).ok())
        << "more previous assignments than documents";
  }
  {
    EmTrainer trainer(data.graph, config);
    WarmStartOptions options;
    std::vector<int32_t> topic(docs, 0), community(docs, 99);  // |C| is 4.
    options.prev_doc_topic = topic;
    options.prev_doc_community = community;
    EXPECT_FALSE(trainer.WarmStart(options).ok())
        << "out-of-range community assignment";
  }
  {
    EmTrainer trainer(data.graph, config);
    WarmStartOptions options;
    std::vector<int32_t> topic(docs, 0), community(docs, 0);
    std::vector<double> eta(3, 0.1);  // Wrong shape.
    options.prev_doc_topic = topic;
    options.prev_doc_community = community;
    options.prev_eta = eta;
    EXPECT_FALSE(trainer.WarmStart(options).ok()) << "eta shape mismatch";
  }
}

// ----- warm-vs-cold quality -----

double Perplexity(const SocialGraph& graph, const CpdModel& model) {
  std::vector<std::vector<double>> pi(model.num_users());
  for (size_t u = 0; u < model.num_users(); ++u) {
    const auto row = model.Membership(static_cast<UserId>(u));
    pi[u].assign(row.begin(), row.end());
  }
  std::vector<std::vector<double>> theta(
      static_cast<size_t>(model.num_communities()));
  for (int c = 0; c < model.num_communities(); ++c) {
    const auto row = model.ContentProfile(c);
    theta[static_cast<size_t>(c)].assign(row.begin(), row.end());
  }
  std::vector<std::vector<double>> phi(
      static_cast<size_t>(model.num_topics()));
  for (int z = 0; z < model.num_topics(); ++z) {
    const auto row = model.TopicWords(z);
    phi[static_cast<size_t>(z)].assign(row.begin(), row.end());
  }
  std::vector<DocId> docs(graph.num_documents());
  for (size_t d = 0; d < docs.size(); ++d) docs[d] = static_cast<DocId>(d);
  return ContentPerplexity(graph, docs, pi, theta, phi);
}

TEST(WarmStart, QualityIsWithinToleranceOfAColdRetrainOnTheMergedCorpus) {
  const SynthResult data = testing::MakeTinyGraph(233);
  CpdConfig config = TinyConfig(41);
  auto base_model = CpdModel::Train(data.graph, config);
  ASSERT_TRUE(base_model.ok());

  const UpdateBatch batch = TinyBatch(data.graph, 23);
  auto graph_alias = std::shared_ptr<const SocialGraph>(
      &data.graph, [](const SocialGraph*) {});
  IngestOptions options;
  options.config = config;
  options.warm_iterations = 2;
  auto pipeline = IngestPipeline::Create(graph_alias, *base_model, options);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();

  const std::string artifact =
      ::testing::TempDir() + "/ingest_quality.cpdb";
  auto result = (*pipeline)->Ingest(batch, artifact);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto warm_model = (*pipeline)->model();
  const auto merged = (*pipeline)->graph();

  auto cold_model = CpdModel::Train(*merged, config);
  ASSERT_TRUE(cold_model.ok());

  const double warm_ppl = Perplexity(*merged, *warm_model);
  const double cold_ppl = Perplexity(*merged, *cold_model);
  EXPECT_LT(warm_ppl, cold_ppl * 1.25)
      << "warm perplexity " << warm_ppl << " vs cold " << cold_ppl;

  const double warm_ll = result->link_log_likelihood;
  const double cold_ll = cold_model->stats().link_log_likelihood.back();
  ASSERT_LT(cold_ll, 0.0);
  EXPECT_GT(warm_ll, cold_ll * 1.25)  // LLs are negative: 25% slack.
      << "warm link LL " << warm_ll << " vs cold " << cold_ll;
  std::filesystem::remove(artifact);
}

// ----- pipeline chain -----

TEST(IngestPipeline, SequentialIngestsProduceLoadableGrowingArtifacts) {
  const SynthResult data = testing::MakeTinyGraph(239);
  CpdConfig config = TinyConfig(43);
  auto base_model = CpdModel::Train(data.graph, config);
  ASSERT_TRUE(base_model.ok());
  const size_t base_users = data.graph.num_users();
  const size_t base_vocab = data.graph.vocabulary_size();

  auto graph_alias = std::shared_ptr<const SocialGraph>(
      &data.graph, [](const SocialGraph*) {});
  IngestOptions options;
  options.config = config;
  options.warm_iterations = 1;
  options.artifact_base = ::testing::TempDir() + "/ingest_chain";
  auto pipeline = IngestPipeline::Create(graph_alias, *base_model, options);
  ASSERT_TRUE(pipeline.ok());
  EXPECT_EQ((*pipeline)->sequence(), 0u);

  // Two consecutive batches; the second builds on the first's merged graph.
  std::vector<std::string> artifacts;
  for (const uint64_t seed : {29u, 31u}) {
    const UpdateBatch batch = TinyBatch(*(*pipeline)->graph(), seed);
    auto result = (*pipeline)->Ingest(batch);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    artifacts.push_back(result->artifact_path);
  }
  EXPECT_EQ((*pipeline)->sequence(), 2u);
  EXPECT_EQ(artifacts[0], options.artifact_base + ".g1.cpdb");
  EXPECT_EQ(artifacts[1], options.artifact_base + ".g2.cpdb");
  EXPECT_EQ((*pipeline)->graph()->num_users(), base_users + 6);
  EXPECT_GT((*pipeline)->graph()->vocabulary_size(), base_vocab);

  // The final artifact serves membership for a user that did not exist in
  // the base graph (the end-to-end "previously-unknown user" guarantee).
  auto bundle = serve::LoadModelBundle(artifacts[1], {});
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  ASSERT_NE(bundle->vocabulary, nullptr) << "v2 artifact bundles the vocab";
  EXPECT_EQ(bundle->index.num_users(), base_users + 6);
  serve::QueryEngine engine(bundle->index);
  serve::MembershipRequest request;
  request.user = static_cast<UserId>(base_users + 5);  // Newest user.
  request.top_k = 2;
  auto response = engine.Membership(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_FALSE(response->top.empty());

  // A failed batch leaves the live state untouched.
  UpdateBatch bad;
  bad.documents.push_back({-5, 0, "", {"a", "b"}});
  EXPECT_FALSE((*pipeline)->Ingest(bad).ok());
  EXPECT_EQ((*pipeline)->sequence(), 2u);

  for (const std::string& path : artifacts) std::filesystem::remove(path);
}

// A batch whose diffusions use a later time bin grows T. The popularity
// matrix ships whole in every .cpdd, so the delta carries the new bin:
// applied to the previous generation it reproduces the written .cpdb bit for
// bit, and a copy-on-write overlay serves the new bin's popularity.
TEST(IngestPipeline, DeltaCarriesALaterTimeBin) {
  const SynthResult data = testing::MakeTinyGraph(257);
  CpdConfig config = TinyConfig(61);
  auto base_model = CpdModel::Train(data.graph, config);
  ASSERT_TRUE(base_model.ok());
  auto graph_alias = std::shared_ptr<const SocialGraph>(
      &data.graph, [](const SocialGraph*) {});
  IngestOptions options;
  options.config = config;
  options.warm_iterations = 1;
  options.artifact_base = ::testing::TempDir() + "/ingest_later_bin";
  options.write_delta = true;
  auto pipeline = IngestPipeline::Create(graph_alias, *base_model, options);
  ASSERT_TRUE(pipeline.ok());

  // Generation 1 stays inside the base's bins; generation 2's documents
  // and diffusions use the bin after the last one.
  const int32_t base_bins = data.graph.num_time_bins();
  auto first = (*pipeline)->Ingest(TinyBatch(*(*pipeline)->graph(), 29));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  Rng rng(31);
  SampleUpdateOptions later;
  later.new_users = 3;
  later.diffusions = 3;
  later.time = base_bins;
  auto second = (*pipeline)->Ingest(
      SampleUpdateBatch(*(*pipeline)->graph(), later, &rng));
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ASSERT_FALSE(second->delta_path.empty());
  ASSERT_EQ((*pipeline)->graph()->num_time_bins(), base_bins + 1);

  auto base = ReadModelArtifact(first->artifact_path);
  auto delta = ReadModelDelta(second->delta_path);
  auto written = ReadFileToString(second->artifact_path);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  EXPECT_EQ(base->num_time_bins, base_bins);
  EXPECT_EQ(delta->num_time_bins, base_bins + 1);
  auto applied = ApplyModelDelta(*base, *delta);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  auto encoded = EncodeModelArtifact(*applied, options.artifact);
  ASSERT_TRUE(encoded.ok());
  EXPECT_TRUE(*encoded == *written) << "applied delta != written .cpdb";

  auto mapped = MappedModelArtifact::Open(first->artifact_path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  auto overlay = serve::ProfileIndex::FromMappedWithDelta(
      *mapped, std::make_shared<const ModelDelta>(*delta));
  ASSERT_TRUE(overlay.ok()) << overlay.status().ToString();
  auto full = serve::ProfileIndex::LoadFromFile(second->artifact_path);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ASSERT_EQ(overlay->num_time_bins(), base_bins + 1);
  double new_bin_mass = 0.0;
  for (int z = 0; z < config.num_topics; ++z) {
    EXPECT_EQ(overlay->TopicPopularity(base_bins, z),
              full->TopicPopularity(base_bins, z))
        << "topic " << z;
    new_bin_mass += overlay->TopicPopularity(base_bins, z);
  }
  EXPECT_GT(new_bin_mass, 0.0);

  // T never shrinks: a delta back to the old T does not patch the new
  // generation.
  ModelDelta shrinking = *delta;
  shrinking.base_generation = applied->generation;
  shrinking.generation = applied->generation + 1;
  shrinking.base_num_users = applied->num_users;
  shrinking.base_vocab_size = applied->vocab_size;
  shrinking.appended_words.clear();
  shrinking.num_time_bins = base_bins;
  shrinking.popularity.resize(
      static_cast<size_t>(base_bins) * static_cast<size_t>(config.num_topics));
  ASSERT_TRUE(shrinking.Validate().ok());
  EXPECT_EQ(ApplyModelDelta(*applied, shrinking).status().code(),
            StatusCode::kInvalidArgument);

  for (const auto* result : {&*first, &*second}) {
    std::filesystem::remove(result->artifact_path);
    std::filesystem::remove(result->delta_path);
  }
}

TEST(IngestPipeline, CreateRejectsMismatchedModelGraphOrConfig) {
  const SynthResult data = testing::MakeTinyGraph(241);
  CpdConfig config = TinyConfig(47);
  auto model = CpdModel::Train(data.graph, config);
  ASSERT_TRUE(model.ok());
  auto graph_alias = std::shared_ptr<const SocialGraph>(
      &data.graph, [](const SocialGraph*) {});
  {
    IngestOptions options;
    options.config = config;
    options.config.num_communities = 9;  // Model was trained with 4.
    EXPECT_FALSE(IngestPipeline::Create(graph_alias, *model, options).ok());
  }
  {
    const SocialGraph other = testing::MakeHandGraph();
    auto other_alias = std::shared_ptr<const SocialGraph>(
        &other, [](const SocialGraph*) {});
    IngestOptions options;
    options.config = config;
    EXPECT_FALSE(IngestPipeline::Create(other_alias, *model, options).ok());
  }
}

TEST(ReconstructAssignments, ProducesValidRangesDeterministically) {
  const SynthResult data = testing::MakeTinyGraph(251);
  CpdConfig config = TinyConfig(53);
  auto model = CpdModel::Train(data.graph, config);
  ASSERT_TRUE(model.ok());
  const auto a = ingest::ReconstructAssignments(data.graph, *model, 99);
  const auto b = ingest::ReconstructAssignments(data.graph, *model, 99);
  ASSERT_EQ(a.doc_topic.size(), data.graph.num_documents());
  EXPECT_EQ(a.doc_topic, b.doc_topic) << "same seed, same reconstruction";
  EXPECT_EQ(a.doc_community, b.doc_community);
  for (size_t d = 0; d < a.doc_topic.size(); ++d) {
    ASSERT_GE(a.doc_topic[d], 0);
    ASSERT_LT(a.doc_topic[d], config.num_topics);
    ASSERT_GE(a.doc_community[d], 0);
    ASSERT_LT(a.doc_community[d], config.num_communities);
  }
}

}  // namespace
}  // namespace cpd
