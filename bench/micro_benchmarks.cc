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

#include "core/em_trainer.h"
#include "core/gibbs_sampler.h"
#include "sampling/alias_table.h"
#include "sampling/distributions.h"
#include "sampling/polya_gamma.h"
#include "synth/generator.h"
#include "synth/synth_config.h"
#include "topic/lda.h"
#include "util/file_util.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/string_util.h"
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

struct SamplerSweepPoint {
  int num_topics = 0;
  double dense_tokens_per_sec = 0.0;
  double sparse_tokens_per_sec = 0.0;
  double topic_accept_rate = 0.0;
  double community_accept_rate = 0.0;
};

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
  std::vector<SamplerSweepPoint> points;
  for (int k : {10, 50, 200}) {
    SamplerSweepPoint point;
    point.num_topics = k;
    point.dense_tokens_per_sec =
        MeasureTokensPerSec(data, SamplerMode::kDense, k, nullptr);
    MhStats mh;
    point.sparse_tokens_per_sec =
        MeasureTokensPerSec(data, SamplerMode::kSparse, k, &mh);
    point.topic_accept_rate = mh.TopicAcceptRate();
    point.community_accept_rate = mh.CommunityAcceptRate();
    points.push_back(point);
    std::printf("sampler sweep K=%-3d  dense %.0f tok/s  sparse %.0f tok/s  "
                "(%.2fx, topic acc %.2f, community acc %.2f)\n",
                k, point.dense_tokens_per_sec, point.sparse_tokens_per_sec,
                point.sparse_tokens_per_sec / point.dense_tokens_per_sec,
                point.topic_accept_rate, point.community_accept_rate);
  }

  std::string json = "{\n  \"bench\": \"sampler_mode_sweep\",\n";
  json += StrFormat("  \"dataset\": {\"users\": %zu, \"documents\": %zu, "
                    "\"tokens\": %lld, \"communities\": 8},\n",
                    data.graph.num_users(), data.graph.num_documents(),
                    static_cast<long long>(data.graph.corpus().total_tokens()));
  json += "  \"results\": [\n";
  for (size_t i = 0; i < points.size(); ++i) {
    const SamplerSweepPoint& p = points[i];
    json += StrFormat(
        "    {\"num_topics\": %d, \"dense_tokens_per_sec\": %.1f, "
        "\"sparse_tokens_per_sec\": %.1f, \"speedup\": %.3f, "
        "\"topic_accept_rate\": %.4f, \"community_accept_rate\": %.4f}%s\n",
        p.num_topics, p.dense_tokens_per_sec, p.sparse_tokens_per_sec,
        p.sparse_tokens_per_sec / p.dense_tokens_per_sec, p.topic_accept_rate,
        p.community_accept_rate, i + 1 < points.size() ? "," : "");
  }
  json += "  ]\n}\n";

  const char* dir = std::getenv("CPD_BENCH_JSON_DIR");
  const std::string path =
      (dir != nullptr ? std::string(dir) + "/" : std::string()) +
      "BENCH_sampler.json";
  const Status status = WriteStringToFile(path, json);
  if (!status.ok()) {
    std::fprintf(stderr, "failed to write %s: %s\n", path.c_str(),
                 status.message().c_str());
  } else {
    std::printf("wrote %s\n", path.c_str());
  }
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
