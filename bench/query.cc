// Query-serving benchmark -> BENCH_query.json.
//
// Measures the read side the way a serving front end sees it, one run per
// preset:
//   - "twitter": a model trained on the Twitter-like preset, mixed workload
//     (membership / rank / diffusion / top_users) with the graph bound;
//   - "large": a synthetic K=200, |Z|=32, V=50k artifact at serving-realistic
//     dimensions (the kernels are what is measured, so the estimates are
//     random but properly normalized; no graph -> no diffusion share).
// Per run: index build time, per-type p50/p99 latency and sequential-loop
// throughput.
// A "load_modes" section writes the large preset as a v2 and a v3 .cpdb
// and times ProfileIndex::LoadFromFile on each: the "heap" row up-converts
// the v2 file into an owned v3 image (decode + encode copies), the "mmap"
// row maps the v3 file (zero-copy + stored-derived adoption). Rows carry
// RSS deltas, and the section emits "mmap_reload_speedup". Both rows
// include the heap-built scoring tables, which every reload pays.
//
// Follows the BENCH_sampler.json conventions: runs argument-free at a
// laptop-friendly scale, honors CPD_BENCH_JSON_DIR, appends nothing.

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <span>
#include <vector>

#include "../tests/artifact_test_util.h"  // The v2 writer is test-only.
#include "bench_common.h"
#include "core/model_artifact.h"
#include "serve/profile_index.h"
#include "serve/query_engine.h"
#include "util/file_util.h"
#include "util/rng.h"
#include "util/timer.h"

namespace cpd::bench {
namespace {

constexpr size_t kWorkload = 4000;

struct LatencySummary {
  double p50_us = 0.0;
  double p99_us = 0.0;
  size_t count = 0;
};

LatencySummary Summarize(std::vector<double>* latencies_us) {
  LatencySummary summary;
  summary.count = latencies_us->size();
  if (latencies_us->empty()) return summary;
  std::sort(latencies_us->begin(), latencies_us->end());
  summary.p50_us = (*latencies_us)[latencies_us->size() / 2];
  summary.p99_us = (*latencies_us)[latencies_us->size() * 99 / 100];
  return summary;
}

constexpr const char* kKindNames[4] = {"membership", "rank", "diffusion",
                                       "top_users"};

/// Mixed serving workload: mostly cheap membership lookups with a steady
/// stream of ranking / diffusion / roster queries. `graph == nullptr`
/// (artifact-only presets) folds the diffusion share into ranking.
std::vector<serve::QueryRequest> BuildWorkload(const SocialGraph* graph,
                                               const serve::ProfileIndex& index,
                                               size_t count, Rng* rng) {
  std::vector<serve::QueryRequest> requests;
  requests.reserve(count);
  const std::vector<DiffusionLink>* links =
      graph != nullptr ? &graph->diffusion_links() : nullptr;
  for (size_t i = 0; i < count; ++i) {
    const double pick = rng->NextDouble();
    if (pick < 0.55) {
      serve::MembershipRequest request;
      request.user = static_cast<UserId>(rng->NextUint64(index.num_users()));
      request.top_k = 5;
      requests.push_back(request);
    } else if (pick < 0.80 ||
               (pick < 0.90 && (links == nullptr || links->empty()))) {
      serve::RankCommunitiesRequest request;
      const size_t terms = 1 + rng->NextUint64(2);
      for (size_t t = 0; t < terms; ++t) {
        request.words.push_back(
            static_cast<WordId>(rng->NextUint64(index.vocab_size())));
      }
      request.top_k = 5;
      requests.push_back(request);
    } else if (pick < 0.90) {
      const DiffusionLink& link = (*links)[rng->NextUint64(links->size())];
      serve::DiffusionRequest request;
      request.source = graph->document(link.i).user;
      request.target = graph->document(link.j).user;
      request.document = link.j;
      request.time_bin = link.time;
      requests.push_back(request);
    } else {
      serve::TopUsersRequest request;
      request.community =
          static_cast<int>(rng->NextUint64(
              static_cast<uint64_t>(index.num_communities())));
      request.top_k = 10;
      requests.push_back(request);
    }
  }
  return requests;
}

/// One measured preset.
struct RunResult {
  const char* preset = "";
  double build_seconds = 0.0;
  double single_qps = 0.0;
  LatencySummary overall;
  std::array<LatencySummary, 4> per_kind;
  size_t workload_size = 0;
};

RunResult MeasureEngine(const char* preset, const serve::ProfileIndex& index,
                        const SocialGraph* graph, double build_seconds,
                        std::span<const serve::QueryRequest> workload) {
  const serve::QueryEngine engine(index, graph);

  // Warm-up: touch every matrix page once.
  for (size_t i = 0; i < std::min<size_t>(200, workload.size()); ++i) {
    CPD_CHECK(engine.Query(workload[i]).ok());
  }

  // Sequential-throughput pass: one timer around the plain loop, no
  // per-request instrumentation, so it carries no clock/push_back
  // overhead.
  WallTimer single_timer;
  for (const serve::QueryRequest& request : workload) {
    CPD_CHECK(engine.Query(request).ok());
  }
  const double single_seconds = single_timer.ElapsedSeconds();

  // Separate latency-sampling pass (per-request timers are fine here: the
  // percentiles describe single-query service time, not throughput).
  std::vector<double> all_us;
  std::array<std::vector<double>, 4> per_kind_us;
  all_us.reserve(workload.size());
  for (const serve::QueryRequest& request : workload) {
    WallTimer timer;
    const auto response = engine.Query(request);
    const double us = timer.ElapsedSeconds() * 1e6;
    CPD_CHECK(response.ok());
    all_us.push_back(us);
    per_kind_us[request.index()].push_back(us);
  }

  RunResult result;
  result.preset = preset;
  result.build_seconds = build_seconds;
  result.workload_size = workload.size();
  result.single_qps = static_cast<double>(workload.size()) / single_seconds;
  result.overall = Summarize(&all_us);
  for (size_t kind = 0; kind < per_kind_us.size(); ++kind) {
    result.per_kind[kind] = Summarize(&per_kind_us[kind]);
  }
  std::printf(
      "%-8s: single %.0f q/s p50 %.1fus p99 %.1fus | rank p50 %.1fus\n",
      preset, result.single_qps, result.overall.p50_us, result.overall.p99_us,
      result.per_kind[1].p50_us);
  return result;
}

/// Synthetic serving-scale artifact: K=200 communities, 32 topics, 50k
/// vocabulary. The kernels only see properly-normalized dense matrices, so
/// random estimates measure exactly what a trained model of these
/// dimensions would.
ModelArtifact MakeLargeArtifact(Rng* rng) {
  ModelArtifact artifact;
  artifact.num_communities = 200;
  artifact.num_topics = 32;
  artifact.num_users = 2000;
  artifact.vocab_size = 50000;
  artifact.num_time_bins = 8;
  const auto fill_rows = [rng](std::vector<double>* matrix, size_t rows,
                               size_t cols) {
    matrix->resize(rows * cols);
    for (size_t r = 0; r < rows; ++r) {
      double total = 0.0;
      for (size_t i = 0; i < cols; ++i) {
        const double v = 0.05 + rng->NextDouble();
        (*matrix)[r * cols + i] = v;
        total += v;
      }
      for (size_t i = 0; i < cols; ++i) (*matrix)[r * cols + i] /= total;
    }
  };
  const size_t kc = static_cast<size_t>(artifact.num_communities);
  const size_t kz = static_cast<size_t>(artifact.num_topics);
  fill_rows(&artifact.pi, artifact.num_users, kc);
  fill_rows(&artifact.theta, kc, kz);
  fill_rows(&artifact.phi, kz, artifact.vocab_size);
  fill_rows(&artifact.eta, kc * kc, kz);  // Row-normalized intensities.
  artifact.weights.assign(kNumDiffusionWeights, 0.1);
  fill_rows(&artifact.popularity,
            static_cast<size_t>(artifact.num_time_bins), kz);
  return artifact;
}

struct LoadModeResult {
  const char* mode = "";
  double reload_ms_best = 0.0;
  double reload_ms_mean = 0.0;
  long rss_delta_kb = 0;
};

// Times ProfileIndex::LoadFromFile on one file of the large preset,
// scoring-table build included; `mode` names the row ("heap" for the
// up-converted v2 file, "mmap" for the mapped v3 one).
LoadModeResult MeasureLoadMode(const std::string& artifact_path,
                               const char* mode, bool mapped) {
  constexpr int kReloadIters = 5;
  LoadModeResult result;
  result.mode = mode;
  const long rss_before_kb = CurrentRssKb();
  std::optional<serve::ProfileIndex> held;  // Keeps the last load resident.
  double best_ms = 0.0;
  double total_ms = 0.0;
  for (int i = 0; i < kReloadIters; ++i) {
    WallTimer timer;
    auto index = serve::ProfileIndex::LoadFromFile(artifact_path);
    const double ms = timer.ElapsedSeconds() * 1e3;
    CPD_CHECK(index.ok());
    CPD_CHECK(index->is_mmap_backed() == mapped);
    best_ms = (i == 0) ? ms : std::min(best_ms, ms);
    total_ms += ms;
    held.emplace(std::move(*index));
  }
  result.reload_ms_best = best_ms;
  result.reload_ms_mean = total_ms / kReloadIters;
  result.rss_delta_kb = CurrentRssKb() - rss_before_kb;
  return result;
}

std::string RunJson(const RunResult& run, bool last) {
  std::string json = StrFormat(
      "    {\"preset\": \"%s\",\n"
      "     \"index_build_seconds\": %.4f, \"workload_size\": %zu,\n",
      run.preset, run.build_seconds, run.workload_size);
  json += "     \"per_type_single_thread\": [\n";
  for (size_t kind = 0; kind < run.per_kind.size(); ++kind) {
    json += StrFormat(
        "       {\"type\": \"%s\", \"count\": %zu, \"p50_us\": %.2f, "
        "\"p99_us\": %.2f}%s\n",
        kKindNames[kind], run.per_kind[kind].count, run.per_kind[kind].p50_us,
        run.per_kind[kind].p99_us,
        kind + 1 < run.per_kind.size() ? "," : "");
  }
  json += "     ],\n";
  json += StrFormat(
      "     \"single_thread\": {\"queries_per_sec\": %.1f, \"p50_us\": %.2f, "
      "\"p99_us\": %.2f}}%s\n",
      run.single_qps, run.overall.p50_us, run.overall.p99_us,
      last ? "" : ",");
  return json;
}

void Run() {
  BenchScale scale = BenchScale::FromEnv();
  const BenchDataset& dataset = TwitterDataset(scale);
  PrintBenchHeader("Query serving (ProfileIndex + QueryEngine)", scale,
                   dataset);

  std::vector<RunResult> runs;

  // ----- "twitter" preset: trained model + bound graph -----
  CpdConfig config = BaseCpdConfig(scale);
  config.num_communities = 12;
  std::printf("training |C|=%d |Z|=%d T1=%d...\n", config.num_communities,
              config.num_topics, config.em_iterations);
  auto model = CpdModel::Train(dataset.data.graph, config);
  CPD_CHECK(model.ok());
  {
    Rng rng(20260731);
    WallTimer build_timer;
    const serve::ProfileIndex index = serve::ProfileIndex::FromModel(*model);
    const double build_seconds = build_timer.ElapsedSeconds();
    const std::vector<serve::QueryRequest> workload =
        BuildWorkload(&dataset.data.graph, index, kWorkload, &rng);
    runs.push_back(MeasureEngine("twitter", index, &dataset.data.graph,
                                 build_seconds, workload));
  }

  // ----- "large" preset: K=200, |Z|=32, V=50k synthetic artifact -----
  {
    Rng artifact_rng(20260807);
    const ModelArtifact artifact = MakeLargeArtifact(&artifact_rng);
    std::printf("large preset: |C|=%d |Z|=%d V=%llu U=%llu\n",
                artifact.num_communities, artifact.num_topics,
                static_cast<unsigned long long>(artifact.vocab_size),
                static_cast<unsigned long long>(artifact.num_users));
    Rng rng(20260808);
    WallTimer build_timer;
    auto bytes = EncodeModelArtifact(artifact);
    CPD_CHECK(bytes.ok());
    auto image = MappedModelArtifact::FromBytes(*bytes);
    CPD_CHECK(image.ok());
    auto index = serve::ProfileIndex::FromMapped(std::move(*image));
    const double build_seconds = build_timer.ElapsedSeconds();
    CPD_CHECK(index.ok());
    const std::vector<serve::QueryRequest> workload =
        BuildWorkload(nullptr, *index, kWorkload, &rng);
    runs.push_back(MeasureEngine("large", *index, /*graph=*/nullptr,
                                 build_seconds, workload));
  }

  // ----- load_modes: reload latency + RSS, v2 up-convert vs v3 mmap -----
  std::vector<LoadModeResult> load_modes;
  {
    Rng rng(20260809);
    const ModelArtifact artifact = MakeLargeArtifact(&rng);
    const char* tmpdir = std::getenv("TMPDIR");
    const std::string stem =
        (tmpdir != nullptr ? std::string(tmpdir) : std::string("/tmp")) +
        "/bench_query_large";
    const std::string v2_path = stem + "_v2.cpdb";
    const std::string v3_path = stem + ".cpdb";
    CPD_CHECK(WriteStringToFile(v2_path,
                                testing::EncodeLegacyArtifact(artifact, 2))
                  .ok());
    CPD_CHECK(WriteModelArtifact(v3_path, artifact).ok());
    load_modes.push_back(MeasureLoadMode(v2_path, "heap", /*mapped=*/false));
    load_modes.push_back(MeasureLoadMode(v3_path, "mmap", /*mapped=*/true));
    for (const LoadModeResult& r : load_modes) {
      std::printf("load_mode=%s reload best %.3fms mean %.3fms rss %+ldkB\n",
                  r.mode, r.reload_ms_best, r.reload_ms_mean, r.rss_delta_kb);
    }
    std::remove(v2_path.c_str());
    std::remove(v3_path.c_str());
  }
  double mmap_reload_speedup = 0.0;
  if (load_modes.size() == 2 && load_modes[1].reload_ms_best > 0.0) {
    mmap_reload_speedup =
        load_modes[0].reload_ms_best / load_modes[1].reload_ms_best;
  }
  std::printf("mmap reload speedup over v2 up-conversion: %.1fx\n",
              mmap_reload_speedup);

  std::string json = "{\n  \"bench\": \"query_serving\",\n";
  json += StrFormat(
      "  \"dataset\": {\"users\": %zu, \"documents\": %zu, "
      "\"communities\": %d, \"topics\": %d, \"vocab\": %zu},\n",
      dataset.data.graph.num_users(), dataset.data.graph.num_documents(),
      config.num_communities, config.num_topics,
      dataset.data.graph.vocabulary_size());
  json += StrFormat(
      "  \"large_preset\": {\"users\": 2000, \"communities\": 200, "
      "\"topics\": 32, \"vocab\": 50000},\n");
  json += StrFormat("  \"mmap_reload_speedup\": %.2f,\n", mmap_reload_speedup);
  json += "  \"load_modes\": [\n";
  for (size_t i = 0; i < load_modes.size(); ++i) {
    const LoadModeResult& r = load_modes[i];
    json += StrFormat(
        "    {\"load_mode\": \"%s\", \"reload_ms_best\": %.3f, "
        "\"reload_ms_mean\": %.3f, \"rss_delta_kb\": %ld}%s\n",
        r.mode, r.reload_ms_best, r.reload_ms_mean, r.rss_delta_kb,
        i + 1 < load_modes.size() ? "," : "");
  }
  json += "  ],\n";
  json += "  \"runs\": [\n";
  for (size_t i = 0; i < runs.size(); ++i) {
    json += RunJson(runs[i], i + 1 == runs.size());
  }
  json += "  ]\n}\n";

  const char* dir = std::getenv("CPD_BENCH_JSON_DIR");
  const std::string path =
      (dir != nullptr ? std::string(dir) + "/" : std::string()) +
      "BENCH_query.json";
  const Status status = WriteStringToFile(path, json);
  if (!status.ok()) {
    std::fprintf(stderr, "failed to write %s: %s\n", path.c_str(),
                 status.message().c_str());
  } else {
    std::printf("wrote %s\n", path.c_str());
  }
}

}  // namespace
}  // namespace cpd::bench

int main() {
  cpd::bench::Run();
  return 0;
}
