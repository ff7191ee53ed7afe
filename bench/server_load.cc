// HTTP serving-layer benchmark -> BENCH_server.json.
//
// Trains one model on the Twitter-like preset, saves a v3 ".cpdb" artifact
// (vocabulary bundled), serves it through the real stack (ModelRegistry +
// HttpServer + JSON endpoints on loopback), and drives a closed-loop load
// generator against POST /v1/query at 1 / 16 / 256 / 1024 connections.
//
// Levels whose fd appetite (client + server side) would cross the process
// RLIMIT_NOFILE are skipped with a note rather than failing half-connected.
//
// Every connection issues its next request as soon as the previous response
// lands. Reports per-level qps and client-side p50/p99 request latency,
// server-side p50/p99 reconstructed from the /metricsz query-latency
// histogram (scrape delta around the measured pass), plus a
// single-connection GET /healthz baseline that isolates transport cost
// (framing + JSON + loopback) from query cost. `--connections N` overrides
// the sweep with one custom level (e.g. 4096).
//
// The JSON records which image backing serves the index ("load_mode":
// "mmap" for a mapped v3 file) and a "reloads" section timing the full
// ModelRegistry reload path (artifact load + vocabulary + engine +
// load-then-swap) for the same model saved as v2 and up-converted into an
// owned image ("heap") vs saved as v3 and mapped ("mmap"), with RSS deltas.
//
// Follows the BENCH_query.json conventions: laptop-friendly scale, honors
// CPD_BENCH_JSON_DIR, records hardware_concurrency (a 1-core container
// cannot show concurrency gains; CI's multicore runners do).

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "../tests/artifact_test_util.h"  // The v2 writer is test-only.
#include "bench_common.h"
#include "core/model_artifact.h"
#include "obs/metrics.h"
#include "serve/profile_index.h"
#include "serve/query_engine.h"
#include "server/http_server.h"
#include "server/json_api.h"
#include "server/model_registry.h"
#include "util/file_util.h"
#include "util/rng.h"
#include "util/timer.h"

namespace cpd::bench {
namespace {

// Worker pool size; earlier BENCH_server.json files were measured with it.
constexpr int kServerThreads = 40;
constexpr size_t kRequestsPerLevel = 3000;

struct LevelResult {
  int connections = 0;
  size_t requests = 0;
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  /// Server-side handler latency over the same window, reconstructed from
  /// the /metricsz cpd_query_latency_us histogram (scrape delta around the
  /// measured pass). Client p50 - server p50 isolates the transport.
  double server_p50_us = 0.0;
  double server_p99_us = 0.0;
};

double Percentile(std::vector<double>* sorted_in_place, double fraction) {
  std::sort(sorted_in_place->begin(), sorted_in_place->end());
  const size_t index = static_cast<size_t>(
      static_cast<double>(sorted_in_place->size()) * fraction);
  return (*sorted_in_place)[std::min(index, sorted_in_place->size() - 1)];
}

/// Scrapes /metricsz and sums the cumulative cpd_query_latency_us bucket
/// counts position-wise across the query-type children (every histogram
/// shares the fixed bucket layout, so positions line up).
std::vector<uint64_t> ScrapeLatencyBuckets(int port) {
  auto client = server::HttpClient::Connect("127.0.0.1", port);
  CPD_CHECK(client.ok());
  auto response = client->RoundTrip("GET", "/metricsz");
  CPD_CHECK(response.ok());
  CPD_CHECK_EQ(response->status, 200);
  std::vector<uint64_t> buckets;
  constexpr const char* kPrefix = "cpd_query_latency_us_bucket{";
  size_t index = 0;
  size_t pos = 0;
  const std::string& body = response->body;
  while (pos < body.size()) {
    size_t eol = body.find('\n', pos);
    if (eol == std::string::npos) eol = body.size();
    const std::string_view line(&body[pos], eol - pos);
    if (line.rfind(kPrefix, 0) == 0) {
      const size_t space = line.rfind(' ');
      CPD_CHECK(space != std::string::npos);
      const uint64_t value = std::strtoull(line.data() + space + 1, nullptr, 10);
      if (index >= buckets.size()) buckets.resize(index + 1, 0);
      buckets[index] += value;
      ++index;
    } else {
      index = 0;  // A child's bucket lines are consecutive.
    }
    pos = eol + 1;
  }
  return buckets;
}

/// Server-side percentiles from the delta of two cumulative scrapes,
/// reusing the obs bucket-midpoint reconstruction.
obs::Histogram::Snapshot SnapshotFromScrapeDelta(
    const std::vector<uint64_t>& before, const std::vector<uint64_t>& after) {
  obs::Histogram::Snapshot snap;
  snap.buckets.resize(after.size());
  uint64_t prev = 0;
  for (size_t i = 0; i < after.size(); ++i) {
    const uint64_t cumulative =
        after[i] - (i < before.size() ? before[i] : 0);
    snap.buckets[i] = cumulative - prev;
    prev = cumulative;
  }
  snap.count = prev;
  return snap;
}

/// Pre-serialized mixed workload (same mix as bench_query's BuildWorkload,
/// already JSON so the generator measures the server, not the encoder).
std::vector<std::string> BuildWireWorkload(const SocialGraph& graph,
                                           const serve::ProfileIndex& index,
                                           size_t count, Rng* rng) {
  std::vector<std::string> bodies;
  bodies.reserve(count);
  const auto& links = graph.diffusion_links();
  for (size_t i = 0; i < count; ++i) {
    const double pick = rng->NextDouble();
    serve::QueryRequest request;
    if (pick < 0.55) {
      serve::MembershipRequest membership;
      membership.user = static_cast<UserId>(rng->NextUint64(graph.num_users()));
      membership.top_k = 5;
      request = membership;
    } else if (pick < 0.80) {
      serve::RankCommunitiesRequest rank;
      const size_t terms = 1 + rng->NextUint64(2);
      for (size_t t = 0; t < terms; ++t) {
        rank.words.push_back(
            static_cast<WordId>(rng->NextUint64(index.vocab_size())));
      }
      rank.top_k = 5;
      request = rank;
    } else if (pick < 0.90 && !links.empty()) {
      const DiffusionLink& link = links[rng->NextUint64(links.size())];
      serve::DiffusionRequest diffusion;
      diffusion.source = graph.document(link.i).user;
      diffusion.target = graph.document(link.j).user;
      diffusion.document = link.j;
      diffusion.time_bin = link.time;
      request = diffusion;
    } else {
      serve::TopUsersRequest top_users;
      top_users.community = static_cast<int>(
          rng->NextUint64(static_cast<uint64_t>(index.num_communities())));
      top_users.top_k = 10;
      request = top_users;
    }
    bodies.push_back(server::QueryRequestToJson(request).Dump());
  }
  return bodies;
}

/// Closed loop at one concurrency level: `connections` client threads, each
/// with its own keep-alive connection, splitting the workload evenly.
LevelResult RunLevel(int port, const std::vector<std::string>& workload,
                     int connections) {
  LevelResult result;
  result.connections = connections;
  // At least 8 requests per connection (cycling the workload) so the wide
  // levels measure steady-state serving, not just connection setup.
  const size_t per_connection = std::max<size_t>(
      workload.size() / static_cast<size_t>(connections), 8);
  result.requests = per_connection * static_cast<size_t>(connections);

  std::vector<std::vector<double>> latencies(
      static_cast<size_t>(connections));
  std::atomic<size_t> failures{0};
  WallTimer wall;
  std::vector<std::thread> clients;
  for (int c = 0; c < connections; ++c) {
    clients.emplace_back([&, c] {
      auto client = server::HttpClient::Connect("127.0.0.1", port);
      if (!client.ok()) {
        failures.fetch_add(per_connection);
        return;
      }
      auto& slot = latencies[static_cast<size_t>(c)];
      slot.reserve(per_connection);
      const size_t begin = static_cast<size_t>(c) * per_connection;
      for (size_t i = 0; i < per_connection; ++i) {
        WallTimer timer;
        auto response = client->RoundTrip(
            "POST", "/v1/query", workload[(begin + i) % workload.size()]);
        const double us = timer.ElapsedSeconds() * 1e6;
        if (!response.ok() || response->status != 200) {
          failures.fetch_add(1);
          continue;
        }
        slot.push_back(us);
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  const double seconds = wall.ElapsedSeconds();
  CPD_CHECK_EQ(failures.load(), 0u);

  std::vector<double> all;
  all.reserve(result.requests);
  for (const auto& slot : latencies) {
    all.insert(all.end(), slot.begin(), slot.end());
  }
  result.qps = static_cast<double>(result.requests) / seconds;
  result.p99_us = Percentile(&all, 0.99);
  result.p50_us = Percentile(&all, 0.50);
  return result;
}

void Run(int override_connections) {
  BenchScale scale = BenchScale::FromEnv();
  const BenchDataset& dataset = TwitterDataset(scale);
  PrintBenchHeader("HTTP serving layer (cpd_serve stack)", scale, dataset);

  CpdConfig config = BaseCpdConfig(scale);
  config.num_communities = 12;
  std::printf("training |C|=%d |Z|=%d T1=%d...\n", config.num_communities,
              config.num_topics, config.em_iterations);
  auto model = CpdModel::Train(dataset.data.graph, config);
  CPD_CHECK(model.ok());

  const std::string artifact_path =
      (std::filesystem::temp_directory_path() / "bench_server_load.cpdb")
          .string();
  CPD_CHECK(model
                ->SaveBinary(artifact_path,
                             &dataset.data.graph.corpus().vocabulary())
                .ok());

  // Non-owning alias: the cached dataset outlives the bench body.
  server::ModelRegistry registry(
      serve::ProfileIndexOptions{},
      std::shared_ptr<const SocialGraph>(&dataset.data.graph,
                                         [](const SocialGraph*) {}));
  CPD_CHECK(registry.LoadFrom(artifact_path).ok());

  // ----- reloads: full registry reload latency + RSS per backing -----
  // Measures the path /admin/reload exercises: artifact load, vocabulary,
  // engine rebuild, load-then-swap. Default serving options (scoring tables
  // on) so the numbers match what a production swap costs.
  struct ReloadResult {
    const char* mode = "";
    double reload_ms_best = 0.0;
    double reload_ms_mean = 0.0;
    long rss_delta_kb = 0;
  };
  std::vector<ReloadResult> reloads;
  const std::string v2_path = artifact_path + ".v2";
  {
    auto artifact = ReadModelArtifact(artifact_path);
    CPD_CHECK(artifact.ok());
    CPD_CHECK(WriteStringToFile(v2_path,
                                testing::EncodeLegacyArtifact(*artifact, 2))
                  .ok());
  }
  struct ReloadCase {
    const char* mode;
    const std::string* path;
    bool mapped;
  };
  for (const ReloadCase& reload :
       {ReloadCase{"heap", &v2_path, false},
        ReloadCase{"mmap", &artifact_path, true}}) {
    server::ModelRegistry probe(
        serve::ProfileIndexOptions{},
        std::shared_ptr<const SocialGraph>(&dataset.data.graph,
                                           [](const SocialGraph*) {}));
    ReloadResult result;
    result.mode = reload.mode;
    const long rss_before_kb = CurrentRssKb();
    constexpr int kReloadIters = 5;
    double best_ms = 0.0;
    double total_ms = 0.0;
    for (int i = 0; i < kReloadIters; ++i) {
      WallTimer timer;
      CPD_CHECK(probe.LoadFrom(*reload.path).ok());
      const double ms = timer.ElapsedSeconds() * 1e3;
      best_ms = (i == 0) ? ms : std::min(best_ms, ms);
      total_ms += ms;
    }
    CPD_CHECK(probe.Snapshot()->index.is_mmap_backed() == reload.mapped);
    result.reload_ms_best = best_ms;
    result.reload_ms_mean = total_ms / kReloadIters;
    result.rss_delta_kb = CurrentRssKb() - rss_before_kb;
    reloads.push_back(result);
    std::printf("reload load_mode=%s best %.3fms mean %.3fms rss %+ldkB\n",
                result.mode, result.reload_ms_best, result.reload_ms_mean,
                result.rss_delta_kb);
  }

  Rng rng(20260731);
  const std::vector<std::string> workload = BuildWireWorkload(
      dataset.data.graph, registry.Snapshot()->index, kRequestsPerLevel, &rng);

  std::vector<int> connection_levels = {1, 16, 256, 1024};
  if (override_connections > 0) connection_levels = {override_connections};

  // Every connection costs two fds in this process (client + server end);
  // drop levels a constrained RLIMIT_NOFILE could not carry half-connected.
  rlimit nofile{};
  if (getrlimit(RLIMIT_NOFILE, &nofile) == 0) {
    const rlim_t budget = nofile.rlim_cur;
    std::vector<int> kept;
    for (const int level : connection_levels) {
      if (static_cast<rlim_t>(level) * 2 + 64 <= budget) {
        kept.push_back(level);
      } else {
        std::printf("skipping %d connections (RLIMIT_NOFILE %llu too low)\n",
                    level, static_cast<unsigned long long>(budget));
      }
    }
    connection_levels = std::move(kept);
  }

  server::HttpServerOptions options;
  options.port = 0;
  options.threads = kServerThreads;
  options.max_connections = std::max(2048, override_connections * 2);
  options.max_inflight = 64;
  options.log_requests = false;  // The log would dominate the bench.
  server::ServiceStats stats;
  server::HttpServer http_server(options, stats.registry());
  server::RegisterCpdRoutes(&http_server, &registry, &stats);
  CPD_CHECK(http_server.Start().ok());
  const int port = http_server.port();

  // Transport-only baseline: /healthz round trips on one connection.
  auto warm = server::HttpClient::Connect("127.0.0.1", port);
  CPD_CHECK(warm.ok());
  for (int i = 0; i < 50; ++i) {
    CPD_CHECK(warm->RoundTrip("GET", "/healthz").ok());
  }
  warm->Close();
  auto client = server::HttpClient::Connect("127.0.0.1", port);
  CPD_CHECK(client.ok());
  std::vector<double> health_us;
  health_us.reserve(500);
  for (int i = 0; i < 500; ++i) {
    WallTimer timer;
    CPD_CHECK(client->RoundTrip("GET", "/healthz").ok());
    health_us.push_back(timer.ElapsedSeconds() * 1e6);
  }
  client->Close();
  const double health_p50 = Percentile(&health_us, 0.50);
  std::printf("transport baseline (GET /healthz): p50 %.1f us\n", health_p50);

  std::vector<LevelResult> levels;
  for (const int connections : connection_levels) {
    // Warm-up pass at this width, then the measured pass (with a breather
    // so the warm-up's closed connections finish their server-side
    // teardown and free capacity).
    RunLevel(port, workload, connections);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const std::vector<uint64_t> scrape_before = ScrapeLatencyBuckets(port);
    LevelResult result = RunLevel(port, workload, connections);
    const std::vector<uint64_t> scrape_after = ScrapeLatencyBuckets(port);
    const obs::Histogram::Snapshot server_side =
        SnapshotFromScrapeDelta(scrape_before, scrape_after);
    result.server_p50_us = server_side.Percentile(0.50);
    result.server_p99_us = server_side.Percentile(0.99);
    std::printf(
        "%4d connection%s: %7.0f req/sec   p50 %7.1f us   p99 %8.1f us   "
        "(server-side p50 %.1f / p99 %.1f us)\n",
        result.connections, result.connections == 1 ? " " : "s", result.qps,
        result.p50_us, result.p99_us, result.server_p50_us,
        result.server_p99_us);
    levels.push_back(result);
  }
  http_server.Stop();
  std::filesystem::remove(artifact_path);
  std::filesystem::remove(v2_path);

  std::string json = "{\n  \"bench\": \"server_load\",\n";
  json += StrFormat(
      "  \"dataset\": {\"users\": %zu, \"documents\": %zu, "
      "\"communities\": %d, \"topics\": %d},\n",
      dataset.data.graph.num_users(), dataset.data.graph.num_documents(),
      config.num_communities, config.num_topics);
  json += StrFormat("  \"hardware_concurrency\": %u,\n",
                    std::thread::hardware_concurrency());
  json += StrFormat("  \"server_threads\": %d,\n", kServerThreads);
  // Which image backing served the index for the whole sweep (the loader
  // maps v3 artifacts, so this is "mmap" unless the format regresses).
  json += StrFormat("  \"load_mode\": \"%s\",\n",
                    registry.Snapshot()->index.is_mmap_backed() ? "mmap"
                                                                : "heap");
  json += StrFormat("  \"healthz_p50_us\": %.2f,\n", health_p50);
  json += "  \"reloads\": [\n";
  for (size_t i = 0; i < reloads.size(); ++i) {
    json += StrFormat(
        "    {\"load_mode\": \"%s\", \"reload_ms_best\": %.3f, "
        "\"reload_ms_mean\": %.3f, \"rss_delta_kb\": %ld}%s\n",
        reloads[i].mode, reloads[i].reload_ms_best, reloads[i].reload_ms_mean,
        reloads[i].rss_delta_kb, i + 1 < reloads.size() ? "," : "");
  }
  json += "  ],\n";
  json += "  \"levels\": [\n";
  for (size_t i = 0; i < levels.size(); ++i) {
    json += StrFormat(
        "    {\"io_mode\": \"epoll\", \"connections\": %d, "
        "\"requests\": %zu, \"queries_per_sec\": %.1f, \"p50_us\": %.2f, "
        "\"p99_us\": %.2f, \"server_p50_us\": %.2f, "
        "\"server_p99_us\": %.2f}%s\n",
        levels[i].connections, levels[i].requests, levels[i].qps,
        levels[i].p50_us, levels[i].p99_us, levels[i].server_p50_us,
        levels[i].server_p99_us,
        i + 1 < levels.size() ? "," : "");
  }
  json += "  ]\n}\n";

  const char* dir = std::getenv("CPD_BENCH_JSON_DIR");
  const std::string path =
      (dir != nullptr ? std::string(dir) + "/" : std::string()) +
      "BENCH_server.json";
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

int main(int argc, char** argv) {
  int override_connections = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--connections") == 0 && i + 1 < argc) {
      override_connections = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr, "usage: %s [--connections N]\n", argv[0]);
      return 2;
    }
  }
  cpd::bench::Run(override_connections);
  return 0;
}
