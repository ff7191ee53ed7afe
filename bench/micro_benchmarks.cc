// Engineering micro-benchmarks (google-benchmark): throughput of the hot
// inference kernels — Polya-Gamma sampling, categorical draws, alias tables,
// Gibbs document sweeps (dense and sparse backends) and PG augmentation
// sweeps, LDA iterations. Not a paper figure; guards against performance
// regressions in the samplers that dominate Alg. 1's E-step.
//
// Besides the google-benchmark registry, a bare invocation (or one with
// CPD_WRITE_SAMPLER_JSON set) finishes with BENCH_sampler.json in the
// working directory, or $CPD_BENCH_JSON_DIR: dense-vs-sparse document-sweep
// tokens/sec over K ∈ {10, 50, 200} topics. The E-step layers (snapshot,
// shard sampling, merge, transport) are measured end to end by
// `cpdbench train` / `cpdbench train_dist`.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>

#include "bench_common.h"
#include "core/em_trainer.h"
#include "core/gibbs_sampler.h"
#include "sampling/alias_table.h"
#include "sampling/distributions.h"
#include "sampling/polya_gamma.h"
#include "synth/generator.h"
#include "synth/synth_config.h"
#include "topic/lda.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/timer.h"

namespace cpd {
namespace {

SynthConfig MicroConfig() {
  SynthConfig config;
  config.num_users = 200;
  config.num_communities = 8;
  config.num_topics = 10;
  config.background_vocab = 500;
  config.docs_per_user_mean = 5.0;
  config.seed = 7171;
  return config;
}

const SynthResult& MicroData() {
  static const SynthResult* kData = [] {
    auto result = GenerateSocialGraph(MicroConfig());
    CPD_CHECK(result.ok());
    return new SynthResult(std::move(*result));
  }();
  return *kData;
}

void BM_PolyaGammaSample(benchmark::State& state) {
  PolyaGammaSampler sampler;
  Rng rng(1);
  const double c = static_cast<double>(state.range(0)) / 10.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Sample(c, &rng));
  }
}
BENCHMARK(BM_PolyaGammaSample)->Arg(0)->Arg(10)->Arg(40)->Arg(160);

void BM_SampleCategoricalFromLog(benchmark::State& state) {
  Rng rng(2);
  std::vector<double> log_weights(static_cast<size_t>(state.range(0)));
  for (double& w : log_weights) w = -5.0 * rng.NextDouble();
  for (auto _ : state) {
    benchmark::DoNotOptimize(SampleCategoricalFromLog(log_weights, &rng));
  }
}
BENCHMARK(BM_SampleCategoricalFromLog)->Arg(8)->Arg(32)->Arg(128);

void BM_AliasTableSample(benchmark::State& state) {
  Rng rng(3);
  std::vector<double> weights(static_cast<size_t>(state.range(0)));
  for (double& w : weights) w = rng.NextDoubleOpen();
  AliasTable table(weights);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Sample(&rng));
  }
}
BENCHMARK(BM_AliasTableSample)->Arg(100)->Arg(10000);

// One document sweep at the given (sampler mode, K topics); items/sec is
// documents/sec. The dense-vs-sparse pairs at matched K are the regression
// guard for the sparse backend.
void GibbsDocumentSweepBenchmark(benchmark::State& state, SamplerMode mode) {
  const SynthResult& data = MicroData();
  CpdConfig config;
  config.num_communities = 8;
  config.num_topics = static_cast<int>(state.range(0));
  config.sampler_mode = mode;
  LinkCaches caches(data.graph);
  ModelState model_state(data.graph, config);
  Rng rng(4);
  model_state.InitializeRandom(data.graph, &rng);
  model_state.RebuildCounts(data.graph);
  model_state.popularity.Refresh(data.graph, model_state.doc_topic);
  GibbsSampler sampler(data.graph, config, caches, &model_state);
  for (auto _ : state) {
    sampler.SweepDocuments(&rng);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.graph.num_documents()));
}

void BM_GibbsDocumentSweepDense(benchmark::State& state) {
  GibbsDocumentSweepBenchmark(state, SamplerMode::kDense);
}
BENCHMARK(BM_GibbsDocumentSweepDense)->Arg(10)->Arg(50)->Arg(200);

void BM_GibbsDocumentSweepSparse(benchmark::State& state) {
  GibbsDocumentSweepBenchmark(state, SamplerMode::kSparse);
}
BENCHMARK(BM_GibbsDocumentSweepSparse)->Arg(10)->Arg(50)->Arg(200);

void BM_PolyaGammaAugmentationSweep(benchmark::State& state) {
  const SynthResult& data = MicroData();
  CpdConfig config;
  config.num_communities = 8;
  config.num_topics = 10;
  LinkCaches caches(data.graph);
  ModelState model_state(data.graph, config);
  Rng rng(5);
  model_state.InitializeRandom(data.graph, &rng);
  model_state.RebuildCounts(data.graph);
  model_state.popularity.Refresh(data.graph, model_state.doc_topic);
  GibbsSampler sampler(data.graph, config, caches, &model_state);
  for (auto _ : state) {
    sampler.SweepFriendshipAugmentation(&rng);
    sampler.SweepDiffusionAugmentation(&rng);
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(data.graph.num_friendship_links() +
                           data.graph.num_diffusion_links()));
}
BENCHMARK(BM_PolyaGammaAugmentationSweep);

void BM_LdaIteration(benchmark::State& state) {
  const SynthResult& data = MicroData();
  for (auto _ : state) {
    LdaConfig config;
    config.num_topics = 10;
    config.iterations = 1;
    auto model = LdaModel::Train(data.graph.corpus(), config);
    benchmark::DoNotOptimize(model.ok());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          data.graph.corpus().total_tokens());
}
BENCHMARK(BM_LdaIteration);

void BM_FullEmIteration(benchmark::State& state) {
  const SynthResult& data = MicroData();
  CpdConfig config;
  config.num_communities = 8;
  config.num_topics = 10;
  config.gibbs_sweeps_per_em = 1;
  config.nu_iterations = 20;
  config.num_threads = static_cast<int>(state.range(0));
  EmTrainer trainer(data.graph, config);
  CPD_CHECK(trainer.Initialize().ok());
  CPD_CHECK(trainer.EStep().ok());  // Warm-up (thread plan).
  for (auto _ : state) {
    CPD_CHECK(trainer.EStep().ok());
    trainer.MStep();
  }
}
BENCHMARK(BM_FullEmIteration)->Arg(1)->Arg(4);

// ---------- dense-vs-sparse sampler sweep -> BENCH_sampler.json ----------

double MeasureTokensPerSec(const SynthResult& data, SamplerMode mode, int k,
                           MhStats* mh_out) {
  CpdConfig config;
  config.num_communities = 8;
  config.num_topics = k;
  config.sampler_mode = mode;
  LinkCaches caches(data.graph);
  ModelState model_state(data.graph, config);
  Rng rng(4);
  model_state.InitializeRandom(data.graph, &rng);
  model_state.RebuildCounts(data.graph);
  model_state.popularity.Refresh(data.graph, model_state.doc_topic);
  GibbsSampler sampler(data.graph, config, caches, &model_state);
  sampler.SweepDocuments(&rng);  // Warm-up (tables, counts in cache).
  sampler.ResetMhStats();
  const int sweeps = 3;
  WallTimer timer;
  for (int i = 0; i < sweeps; ++i) sampler.SweepDocuments(&rng);
  const double seconds = timer.ElapsedSeconds();
  if (mh_out != nullptr) *mh_out = sampler.mh_stats();
  const double tokens = static_cast<double>(data.graph.corpus().total_tokens()) *
                        static_cast<double>(sweeps);
  return tokens / seconds;
}

void WriteSamplerSweepJson() {
  const SynthResult& data = MicroData();
  Json results = Json::MakeArray();
  for (int k : {10, 50, 200}) {
    const double dense =
        MeasureTokensPerSec(data, SamplerMode::kDense, k, nullptr);
    MhStats mh;
    const double sparse =
        MeasureTokensPerSec(data, SamplerMode::kSparse, k, &mh);
    std::printf("sampler sweep K=%-3d  dense %.0f tok/s  sparse %.0f tok/s  "
                "(%.2fx, topic acc %.2f, community acc %.2f)\n",
                k, dense, sparse, sparse / dense, mh.TopicAcceptRate(),
                mh.CommunityAcceptRate());
    Json row = Json::MakeObject();
    row.Set("num_topics", k);
    row.Set("dense_tokens_per_sec", dense);
    row.Set("sparse_tokens_per_sec", sparse);
    row.Set("speedup", sparse / dense);
    row.Set("topic_accept_rate", mh.TopicAcceptRate());
    row.Set("community_accept_rate", mh.CommunityAcceptRate());
    results.Append(std::move(row));
  }
  Json dataset = Json::MakeObject();
  dataset.Set("users", data.graph.num_users());
  dataset.Set("documents", data.graph.num_documents());
  dataset.Set("tokens", data.graph.corpus().total_tokens());
  dataset.Set("communities", 8);
  Json json = Json::MakeObject();
  json.Set("bench", "sampler_mode_sweep");
  json.Set("dataset", std::move(dataset));
  json.Set("results", std::move(results));
  bench::WriteBenchJson("BENCH_sampler.json", json);
}

}  // namespace
}  // namespace cpd

int main(int argc, char** argv) {
  // The JSON sweep trains real models, so it runs only on a
  // bare invocation (the regression-guard default) or when explicitly
  // requested — never for filtered/listing runs someone uses to poke at a
  // single micro-benchmark.
  const bool bare_invocation = (argc == 1);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (bare_invocation || std::getenv("CPD_WRITE_SAMPLER_JSON") != nullptr) {
    cpd::WriteSamplerSweepJson();
  }
  return 0;
}
