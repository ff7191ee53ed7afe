// Differential suite over the two backings of a serving image: the v3 .cpdb
// file mapped, and the same estimates saved as v2 and up-converted into an
// owned heap image, must produce byte-identical HTTP responses for every
// query type, every error path, and the frozen-clock scrape views. Both are
// served from one path (each staged there by rename), and the delta chains
// start from generation 0, which a v2 file carries too. Also pins the
// delta-chain publication flow: a base patched through a .cpdd chain
// (copy-on-write over the image either way) must serve bitwise the same
// bytes as a full rebuild of the final generation, and a delta always
// patches the image being served, never the file now at its path.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "artifact_test_util.h"
#include "core/cpd_model.h"
#include "core/model_artifact.h"
#include "core/model_delta.h"
#include "obs/clock.h"
#include "serve/profile_index.h"
#include "server/http_server.h"
#include "server/json_api.h"
#include "server/model_registry.h"
#include "test_util.h"
#include "util/file_util.h"

namespace cpd {
namespace {

using server::HttpClient;
using server::HttpServer;
using server::HttpServerOptions;

constexpr const char* kHost = "127.0.0.1";

class MmapDifferentialTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new SynthResult(testing::MakeTinyGraph(223));
    CpdConfig config;
    config.num_communities = 4;
    config.num_topics = 6;
    config.em_iterations = 4;
    config.seed = 31;
    auto model = CpdModel::Train(data_->graph, config);
    CPD_CHECK(model.ok());
    model_ = new CpdModel(std::move(*model));

    const std::string dir = ::testing::TempDir();
    base_path_ = new std::string(dir + "/mmap_diff_g1.cpdb");
    CPD_CHECK(model_
                  ->SaveBinary(*base_path_,
                               &data_->graph.corpus().vocabulary(),
                               ArtifactWriteOptions{}, /*generation=*/1)
                  .ok());

    // The same estimates at generation 0, as v3 and as v2 (which cannot
    // carry a lineage stamp), so both backings can start one chain.
    auto decoded = ReadModelArtifact(*base_path_);
    CPD_CHECK(decoded.ok());
    ModelArtifact base = std::move(*decoded);
    base.generation = 0;
    v3_g0_path_ = new std::string(dir + "/mmap_diff_g0.cpdb");
    v2_path_ = new std::string(dir + "/mmap_diff_v2.cpdb");
    served_path_ = new std::string(dir + "/mmap_diff_served.cpdb");
    CPD_CHECK(WriteModelArtifact(*v3_g0_path_, base).ok());
    CPD_CHECK(WriteStringToFile(
                  *v2_path_, testing::EncodeLegacyArtifact(base, /*version=*/2))
                  .ok());

    // Fabricate a lineage the way ingest would: generation 2 retouches two
    // pi rows and perturbs every global estimate; generation 3 touches two
    // more rows, appends one user AND one vocabulary word (the COW
    // overlay's hardest case: pi growth + phi reshape + appended-word
    // vocabulary rebuild in one delta).
    const int c_width = base.num_communities;

    ModelArtifact gen2 = base;
    gen2.generation = 2;
    RotateRow(&gen2.pi, 1, c_width);
    RotateRow(&gen2.pi, 3, c_width);
    std::swap(gen2.theta[0], gen2.theta[1]);
    std::swap(gen2.phi[0], gen2.phi[1]);
    std::swap(gen2.eta[0], gen2.eta[1]);
    std::swap(gen2.weights[0], gen2.weights[1]);
    std::swap(gen2.popularity[0], gen2.popularity[1]);
    for (int64_t& frequency : gen2.vocab_frequencies) ++frequency;

    ModelArtifact gen3 = gen2;
    gen3.generation = 3;
    RotateRow(&gen3.pi, 0, c_width);
    RotateRow(&gen3.pi, 4, c_width);
    new_user_ = static_cast<int>(gen3.num_users);
    for (int c = 0; c < c_width; ++c) {
      gen3.pi.push_back(2.0 * (c_width - c) /
                        (c_width * (c_width + 1.0)));
    }
    gen3.num_users += 1;
    appended_word_ = static_cast<int>(gen3.vocab_size);
    std::vector<double> widened_phi;
    widened_phi.reserve(static_cast<size_t>(gen3.num_topics) *
                        (gen3.vocab_size + 1));
    for (int z = 0; z < gen3.num_topics; ++z) {
      const double* row = gen3.phi.data() + z * gen3.vocab_size;
      widened_phi.insert(widened_phi.end(), row, row + gen3.vocab_size);
      widened_phi.push_back(1e-3 * (z + 1));
    }
    gen3.phi = std::move(widened_phi);
    gen3.vocab_size += 1;
    gen3.vocab_words.push_back("zzz@appended");
    gen3.vocab_frequencies.push_back(4);
    std::swap(gen3.theta[2], gen3.theta[3]);
    std::swap(gen3.eta[2], gen3.eta[3]);
    std::swap(gen3.popularity[2], gen3.popularity[3]);
    CPD_CHECK(gen3.Validate().ok());

    auto delta02 = BuildModelDelta(base, gen2);
    CPD_CHECK(delta02.ok());
    auto delta23 = BuildModelDelta(gen2, gen3);
    CPD_CHECK(delta23.ok());
    delta02_path_ = new std::string(dir + "/mmap_diff_02.cpdd");
    delta23_path_ = new std::string(dir + "/mmap_diff_23.cpdd");
    full3_path_ = new std::string(dir + "/mmap_diff_g3.cpdb");
    full3_v2_path_ = new std::string(dir + "/mmap_diff_g3_v2.cpdb");
    CPD_CHECK(WriteModelDelta(*delta02_path_, *delta02).ok());
    CPD_CHECK(WriteModelDelta(*delta23_path_, *delta23).ok());
    CPD_CHECK(WriteModelArtifact(*full3_path_, gen3).ok());
    CPD_CHECK(WriteStringToFile(*full3_v2_path_,
                                testing::EncodeLegacyArtifact(gen3, 2))
                  .ok());
  }

  static void TearDownTestSuite() {
    delete model_;
    delete data_;
    for (std::string** path :
         {&base_path_, &v3_g0_path_, &v2_path_, &served_path_, &delta02_path_,
          &delta23_path_, &full3_path_, &full3_v2_path_}) {
      delete *path;
      *path = nullptr;
    }
    model_ = nullptr;
    data_ = nullptr;
  }

  /// One backing of the generation-0 lineage: the base the chain starts
  /// from and the full generation-3 artifact, in the same format.
  struct Backing {
    const std::string* base;
    const std::string* full3;
    bool mapped;
    uint64_t full3_generation;  ///< v2 cannot carry the stamp: 0.
  };
  /// The v2 up-converted image first, then the mapped v3 file.
  static std::vector<Backing> Backings() {
    return {{v2_path_, full3_v2_path_, false, 0},
            {v3_g0_path_, full3_path_, true, 3}};
  }

  /// Publishes a copy of `source` at `target` with an atomic rename, as a
  /// deploy would: an index already serving `target` keeps its image.
  static void StageAs(const std::string& source, const std::string& target) {
    auto bytes = ReadFileToString(source);
    CPD_CHECK(bytes.ok());
    const std::string staging = target + ".staging";
    CPD_CHECK(WriteStringToFile(staging, *bytes).ok());
    std::filesystem::rename(staging, target);
  }

  /// Rotates one matrix row left by one slot: values stay positive and the
  /// row sum is preserved, but the row is bitwise-different (the trained
  /// estimates are never uniform).
  static void RotateRow(std::vector<double>* matrix, size_t row, int width) {
    double* begin = matrix->data() + row * static_cast<size_t>(width);
    std::rotate(begin, begin + 1, begin + width);
  }

  /// Non-owning alias of the suite-cached graph (it outlives every test).
  static std::shared_ptr<const SocialGraph> SharedGraph() {
    return {&data_->graph, [](const SocialGraph*) {}};
  }

  static std::unique_ptr<server::ModelRegistry> MakeRegistry() {
    auto registry = std::make_unique<server::ModelRegistry>(
        serve::ProfileIndexOptions{}, SharedGraph());
    registry->SetClock([] { return int64_t{1754600000000}; });
    return registry;
  }

  struct Exchange {
    std::string method;
    std::string target;
    std::string body;
  };

  /// Query-only trace: all four query types, a batch with a per-slot
  /// error, the GET shortcuts, the delta-introduced user and word, and a
  /// keep-alive-safe error path. Deliberately free of /v1/models, /statsz,
  /// and /metricsz — those legitimately differ between a delta-chained
  /// registry and a fresh full load (load counters, source path).
  static std::vector<Exchange> QueryTrace() {
    return {
        {"POST", "/v1/query",
         R"({"type":"membership","user":1,"top_k":4,"include_distribution":true})"},
        {"POST", "/v1/query",
         R"({"type":"membership","user":3,"top_k":3,"include_distribution":true})"},
        {"POST", "/v1/query", R"({"type":"rank","words":[1,2],"top_k":3})"},
        {"POST", "/v1/query",
         R"({"type":"diffusion","source":0,"target":1,"document":1,"time_bin":2})"},
        {"POST", "/v1/query", R"({"type":"top_users","community":1,"top_k":5})"},
        {"POST", "/v1/query", R"({"type":"top_users","community":0,"top_k":3})"},
        {"POST", "/v1/query",
         R"({"batch":[{"type":"membership","user":0,"top_k":2},)"
         R"({"type":"membership","user":999999},)"
         R"({"type":"rank","words":[0],"top_k":2}]})"},
        {"GET", "/v1/membership/1?k=4&distribution=1", ""},
        // The user and word that only exist from generation 3 on (errors
        // before the chain lands; identical errors in both backings).
        {"POST", "/v1/query",
         R"({"type":"membership","user":)" + std::to_string(new_user_) +
             R"(,"top_k":3,"include_distribution":true})"},
        {"GET", "/v1/membership/" + std::to_string(new_user_) + "?k=3", ""},
        {"POST", "/v1/query",
         R"({"type":"rank","words":[)" + std::to_string(appended_word_) +
             R"(],"top_k":4})"},
        {"POST", "/v1/query", R"({"type":"membership","user":999999})"},
    };
  }

  /// Runs the trace against a pre-loaded registry over one keep-alive
  /// connection with frozen clocks; returns "status\nbody" per exchange.
  static std::vector<std::string> ServeTrace(
      server::ModelRegistry* registry, const std::vector<Exchange>& trace) {
    obs::SetClockForTest([]() -> int64_t { return 1754600000000; });
    HttpServerOptions options;
    options.port = 0;
    options.threads = 4;
    options.log_requests = false;
    server::ServiceStats stats;
    HttpServer http_server(options, stats.registry());
    server::RegisterCpdRoutes(&http_server, registry, &stats);
    CPD_CHECK(http_server.Start().ok());
    std::vector<std::string> results;
    auto client = HttpClient::Connect(kHost, http_server.port());
    CPD_CHECK(client.ok());
    for (const Exchange& exchange : trace) {
      auto response =
          client->RoundTrip(exchange.method, exchange.target, exchange.body);
      CPD_CHECK(response.ok());
      results.push_back(std::to_string(response->status) + "\n" +
                        response->body);
    }
    http_server.Stop();
    obs::SetClockForTest(nullptr);
    return results;
  }

  static SynthResult* data_;
  static CpdModel* model_;
  static std::string* base_path_;  ///< v3, generation 1.
  static std::string* v3_g0_path_;
  static std::string* v2_path_;
  static std::string* served_path_;  ///< Where StageAs publishes a base.
  static std::string* delta02_path_;
  static std::string* delta23_path_;
  static std::string* full3_path_;
  static std::string* full3_v2_path_;
  static int new_user_;
  static int appended_word_;
};

SynthResult* MmapDifferentialTest::data_ = nullptr;
CpdModel* MmapDifferentialTest::model_ = nullptr;
std::string* MmapDifferentialTest::base_path_ = nullptr;
std::string* MmapDifferentialTest::v3_g0_path_ = nullptr;
std::string* MmapDifferentialTest::v2_path_ = nullptr;
std::string* MmapDifferentialTest::served_path_ = nullptr;
std::string* MmapDifferentialTest::delta02_path_ = nullptr;
std::string* MmapDifferentialTest::delta23_path_ = nullptr;
std::string* MmapDifferentialTest::full3_path_ = nullptr;
std::string* MmapDifferentialTest::full3_v2_path_ = nullptr;
int MmapDifferentialTest::new_user_ = 0;
int MmapDifferentialTest::appended_word_ = 0;

TEST_F(MmapDifferentialTest, CanonicalTraceIsByteIdenticalAcrossLoadModes) {
  // One set of estimates, two backings, plus the scrape views: both
  // registries did exactly one load, from one path, with frozen clocks, so
  // /statsz and /metricsz must match raw too — the wire never betrays
  // which backing holds the spans.
  std::vector<Exchange> trace = QueryTrace();
  trace.push_back({"GET", "/v1/models", ""});
  trace.push_back({"GET", "/metricsz", ""});
  trace.push_back({"GET", "/statsz", ""});

  StageAs(*v2_path_, *served_path_);
  auto heap = MakeRegistry();
  ASSERT_TRUE(heap->LoadFrom(*served_path_).ok());
  ASSERT_FALSE(heap->Snapshot()->index.is_mmap_backed());
  StageAs(*base_path_, *served_path_);
  auto mapped = MakeRegistry();
  ASSERT_TRUE(mapped->LoadFrom(*served_path_).ok());
  ASSERT_TRUE(mapped->Snapshot()->index.is_mmap_backed());
  EXPECT_EQ(mapped->Snapshot()->index.artifact_generation(), 1u);

  const std::vector<std::string> heap_results = ServeTrace(heap.get(), trace);
  const std::vector<std::string> mmap_results =
      ServeTrace(mapped.get(), trace);
  ASSERT_EQ(heap_results.size(), mmap_results.size());
  for (size_t i = 0; i < heap_results.size(); ++i) {
    EXPECT_EQ(heap_results[i], mmap_results[i])
        << trace[i].method << " " << trace[i].target << " " << trace[i].body;
  }
}

TEST_F(MmapDifferentialTest, AutoModeMapsV3AndFallsBackForLegacy) {
  // A failed load must leave nothing serving (load-then-swap): a v3 file
  // cut short is refused by the mapping reader and the legacy decoder.
  auto bytes = ReadFileToString(*base_path_);
  ASSERT_TRUE(bytes.ok());
  const std::string cut_path = ::testing::TempDir() + "/mmap_diff_cut.cpdb";
  ASSERT_TRUE(WriteStringToFile(cut_path, bytes->substr(0, 100)).ok());
  auto strict = MakeRegistry();
  const Status refused = strict->LoadFrom(cut_path);
  EXPECT_EQ(refused.code(), StatusCode::kOutOfRange) << refused.ToString();
  EXPECT_EQ(strict->Snapshot(), nullptr);
  EXPECT_EQ(strict->reload_failures(), 1u);
  ASSERT_TRUE(strict->LoadFrom(*base_path_).ok());
  EXPECT_TRUE(strict->Snapshot()->index.is_mmap_backed());

  // The loader maps the v3 file and up-converts the v2 one into an owned
  // image; both serve.
  auto automatic = MakeRegistry();
  ASSERT_TRUE(automatic->LoadFrom(*base_path_).ok());
  EXPECT_TRUE(automatic->Snapshot()->index.is_mmap_backed());
  ASSERT_TRUE(automatic->LoadFrom(*v2_path_).ok());
  EXPECT_FALSE(automatic->Snapshot()->index.is_mmap_backed());
}

TEST_F(MmapDifferentialTest, DeltaChainMatchesFullRebuildBitwise) {
  const std::vector<Exchange> trace = QueryTrace();
  std::vector<std::vector<std::string>> chained;
  std::vector<std::vector<std::string>> rebuilt;
  std::vector<std::string> pre_chain;

  for (const Backing& backing : Backings()) {
    StageAs(*backing.base, *served_path_);
    auto chain = MakeRegistry();
    ASSERT_TRUE(chain->LoadFrom(*served_path_).ok());
    if (!backing.mapped) {
      pre_chain = ServeTrace(chain.get(), trace);
    }
    ASSERT_TRUE(chain->LoadDeltaFrom(*delta02_path_).ok());
    ASSERT_TRUE(chain->LoadDeltaFrom(*delta23_path_).ok());
    const auto snapshot = chain->Snapshot();
    EXPECT_EQ(snapshot->index.is_mmap_backed(), backing.mapped);
    EXPECT_EQ(snapshot->index.artifact_generation(), 3u);
    EXPECT_EQ(snapshot->delta_path, *delta23_path_);
    chained.push_back(ServeTrace(chain.get(), trace));

    auto full = MakeRegistry();
    ASSERT_TRUE(full->LoadFrom(*backing.full3).ok());
    EXPECT_EQ(full->Snapshot()->index.artifact_generation(),
              backing.full3_generation);
    rebuilt.push_back(ServeTrace(full.get(), trace));
  }

  ASSERT_EQ(chained.size(), 2u);
  ASSERT_EQ(rebuilt.size(), 2u);
  for (size_t i = 0; i < trace.size(); ++i) {
    // COW overlay == full artifact, over either backing: four ways to
    // reach generation 3, one set of response bytes.
    EXPECT_EQ(chained[0][i], chained[1][i])
        << "chain heap vs mmap: " << trace[i].target << " " << trace[i].body;
    EXPECT_EQ(rebuilt[0][i], rebuilt[1][i])
        << "full heap vs mmap: " << trace[i].target << " " << trace[i].body;
    EXPECT_EQ(chained[0][i], rebuilt[0][i])
        << "chain vs full rebuild: " << trace[i].target << " "
        << trace[i].body;
  }

  // The chain genuinely moved the estimates (user 1's pi row was rotated
  // in generation 2), and genuinely grew the model: the user and word that
  // 404'd against the base resolve after the chain lands.
  EXPECT_NE(pre_chain[0], chained[0][0]);
  EXPECT_NE(pre_chain[8], chained[0][8]);
  EXPECT_EQ(chained[0][8].substr(0, 3), "200");
  EXPECT_EQ(chained[0][10].substr(0, 3), "200");
}

TEST_F(MmapDifferentialTest, AdminReloadDeltaIsByteIdenticalAcrossLoadModes) {
  // The same chain, driven over the wire: POST /admin/reload {"delta":...}
  // twice, with the queries interleaved, then every delta-specific error
  // path, then the scrape views. Both registries walk identical load
  // sequences, so even /metricsz and /statsz must compare raw.
  std::vector<Exchange> trace;
  trace.push_back(
      {"POST", "/admin/reload", R"({"delta":")" + *delta02_path_ + R"("})"});
  trace.push_back(
      {"POST", "/v1/query",
       R"({"type":"membership","user":1,"top_k":4,"include_distribution":true})"});
  trace.push_back(
      {"POST", "/admin/reload", R"({"delta":")" + *delta23_path_ + R"("})"});
  for (Exchange& exchange : QueryTrace()) trace.push_back(std::move(exchange));
  // "path" and "delta" are mutually exclusive -> 400, nothing swaps.
  trace.push_back({"POST", "/admin/reload",
                   R"({"path":")" + *full3_path_ + R"(","delta":")" +
                       *delta02_path_ + R"("})"});
  // Replaying a consumed delta -> 500 (it patches generation 0, the
  // registry serves generation 3); the old model keeps serving.
  trace.push_back(
      {"POST", "/admin/reload", R"({"delta":")" + *delta02_path_ + R"("})"});
  // A delta against a name that never loaded -> 409 FailedPrecondition.
  trace.push_back({"POST", "/admin/reload",
                   R"({"model":"ghost","delta":")" + *delta02_path_ + R"("})"});
  trace.push_back({"GET", "/v1/models", ""});
  trace.push_back({"GET", "/metricsz", ""});
  trace.push_back({"GET", "/statsz", ""});

  std::vector<std::vector<std::string>> results;
  for (const Backing& backing : Backings()) {
    StageAs(*backing.base, *served_path_);
    auto registry = MakeRegistry();
    ASSERT_TRUE(registry->LoadFrom(*served_path_).ok());
    results.push_back(ServeTrace(registry.get(), trace));
    const auto snapshot = registry->Snapshot();
    EXPECT_EQ(snapshot->index.artifact_generation(), 3u);
    EXPECT_EQ(snapshot->index.is_mmap_backed(), backing.mapped);
  }

  ASSERT_EQ(results.size(), 2u);
  for (size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(results[0][i], results[1][i])
        << trace[i].method << " " << trace[i].target << " " << trace[i].body;
  }
  // The reload responses publish the lineage: registry load counter 2 then
  // 3, each naming the delta it applied.
  EXPECT_EQ(results[0][0].substr(0, 3), "200");
  EXPECT_NE(results[0][0].find("\"generation\":2"), std::string::npos);
  EXPECT_NE(results[0][0].find(*delta02_path_), std::string::npos);
  EXPECT_EQ(results[0][2].substr(0, 3), "200");
  EXPECT_NE(results[0][2].find("\"generation\":3"), std::string::npos);
  const size_t tail = trace.size();
  EXPECT_EQ(results[0][tail - 6].substr(0, 3), "400");  // path+delta clash.
  EXPECT_EQ(results[0][tail - 5].substr(0, 3), "500");  // stale delta base.
  EXPECT_EQ(results[0][tail - 4].substr(0, 3), "409");  // ghost model.
}

TEST_F(MmapDifferentialTest, DeltaPatchesTheServedBaseNotTheFileOnDisk) {
  // A v2 base carries generation 0, and so does any other v2 file, so the
  // lineage check cannot tell the loaded base from whatever sits at its
  // path later. The delta must patch the estimates being served: the
  // oracle is ApplyModelDelta over the original, served from its own file.
  auto original = ReadModelArtifact(*v2_path_);
  ASSERT_TRUE(original.ok()) << original.status().ToString();
  auto delta = ReadModelDelta(*delta02_path_);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  auto patched = ApplyModelDelta(*original, *delta);
  ASSERT_TRUE(patched.ok()) << patched.status().ToString();
  const std::string oracle_path =
      ::testing::TempDir() + "/mmap_diff_oracle.cpdb";
  ASSERT_TRUE(WriteModelArtifact(oracle_path, *patched).ok());
  const std::vector<Exchange> trace = QueryTrace();
  auto oracle = MakeRegistry();
  ASSERT_TRUE(oracle->LoadFrom(oracle_path).ok());
  const std::vector<std::string> expected = ServeTrace(oracle.get(), trace);

  // A different model of the same dimensions: every pi row rotated, the
  // word distributions swapped.
  ModelArtifact other = *original;
  for (size_t u = 0; u < other.num_users; ++u) {
    RotateRow(&other.pi, u, other.num_communities);
  }
  std::reverse(other.phi.begin(), other.phi.end());
  const std::string other_path = ::testing::TempDir() + "/mmap_diff_other";
  ASSERT_TRUE(WriteStringToFile(other_path,
                                testing::EncodeLegacyArtifact(other, 2))
                  .ok());

  for (const bool deleted : {false, true}) {
    SCOPED_TRACE(deleted ? "base file deleted" : "base file replaced");
    StageAs(*v2_path_, *served_path_);
    auto registry = MakeRegistry();
    ASSERT_TRUE(registry->LoadFrom(*served_path_).ok());
    if (deleted) {
      ASSERT_TRUE(std::filesystem::remove(*served_path_));
    } else {
      StageAs(other_path, *served_path_);
    }
    const Status applied = registry->LoadDeltaFrom(*delta02_path_);
    ASSERT_TRUE(applied.ok()) << applied.ToString();
    const std::vector<std::string> served = ServeTrace(registry.get(), trace);
    ASSERT_EQ(served.size(), expected.size());
    for (size_t i = 0; i < trace.size(); ++i) {
      EXPECT_EQ(served[i], expected[i])
          << trace[i].method << " " << trace[i].target << " "
          << trace[i].body;
    }
  }
}

}  // namespace
}  // namespace cpd
