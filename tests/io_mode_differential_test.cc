// Wire golden suite for the HTTP serving stack: every reply is compared
// with a reference that does not come from the server under test.
//   - Query, batch and membership bodies: the in-process QueryEngine's
//     response serialized through QueryResponseToJson.
//   - Error envelopes, /healthz and /v1/models: literal bytes (both clocks
//     are frozen and the artifact path is known).
//   - /metricsz and /statsz: parsed, with every transport and service
//     counter asserted exactly as the trace implies, and the exposition
//     checked for well-formed families; the raw bytes of the
//     whole trace, scrapes included, must also match across two fresh
//     servers.
//   - Framing errors: the raw reply (status line, headers, body) against a
//     literal golden string.
// Concurrent clients additionally exercise the event loop's cross-thread
// completion queue. (The file name predates the single I/O backend; it
// once compared two.)

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/cpd_model.h"
#include "obs/clock.h"
#include "serve/query_engine.h"
#include "server/http_server.h"
#include "server/json_api.h"
#include "server/model_registry.h"
#include "test_util.h"
#include "util/json.h"

namespace cpd {
namespace {

using server::HttpClient;
using server::HttpServer;
using server::HttpServerOptions;

constexpr const char* kHost = "127.0.0.1";
constexpr int64_t kFrozenMs = 1754500000000;

class WireGoldenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new SynthResult(testing::MakeTinyGraph(211));
    CpdConfig config;
    config.num_communities = 4;
    config.num_topics = 6;
    config.em_iterations = 4;
    config.seed = 29;
    auto model = CpdModel::Train(data_->graph, config);
    CPD_CHECK(model.ok());
    model_ = new CpdModel(std::move(*model));
    artifact_ = new std::string(::testing::TempDir() + "/io_mode_diff.cpdb");
    CPD_CHECK(model_
                  ->SaveBinary(*artifact_,
                               &data_->graph.corpus().vocabulary())
                  .ok());
  }
  static void TearDownTestSuite() {
    delete model_;
    delete data_;
    delete artifact_;
    model_ = nullptr;
    data_ = nullptr;
    artifact_ = nullptr;
  }

  /// Non-owning alias of the suite-cached graph (it outlives every test).
  static std::shared_ptr<const SocialGraph> SharedGraph() {
    return {&data_->graph, [](const SocialGraph*) {}};
  }

  struct Exchange {
    std::string method;
    std::string target;
    std::string body;
    int status = 200;
    /// Reference body; empty for the two scrapes (checked by parsing).
    std::string expected;
  };

  /// The in-process reference for one query: the engine's answer (or its
  /// typed error) serialized the way the endpoints serialize it.
  static Json EngineJson(const serve::QueryEngine& engine,
                         const serve::QueryRequest& request) {
    auto response = engine.Query(request);
    return response.ok() ? server::QueryResponseToJson(*response)
                         : server::StatusToJson(response.status());
  }

  static std::string Envelope(const std::string& code,
                              const std::string& message) {
    return R"({"error":{"code":")" + code + R"(","message":")" + message +
           R"("}})";
  }

  /// The canonical trace: all four query types, a batch with a per-slot
  /// error, the GET shortcuts, every keep-alive-safe error path, and the
  /// two scrapes last. `engine` supplies the query references.
  static std::vector<Exchange> CanonicalTrace(
      const serve::QueryEngine& engine) {
    serve::MembershipRequest member3;
    member3.user = 3;
    member3.top_k = 3;
    member3.include_distribution = true;
    serve::RankCommunitiesRequest rank;
    rank.words = {1, 2};
    rank.top_k = 3;
    serve::DiffusionRequest diffusion;
    diffusion.source = 0;
    diffusion.target = 1;
    diffusion.document = 1;
    diffusion.time_bin = 2;
    serve::TopUsersRequest top1;
    top1.community = 1;
    top1.top_k = 5;
    serve::MembershipRequest member0;
    member0.user = 0;
    serve::MembershipRequest ghost_user;
    ghost_user.user = 999999;
    serve::TopUsersRequest top0;
    top0.community = 0;
    top0.top_k = 2;
    serve::MembershipRequest member2;
    member2.user = 2;
    member2.top_k = 4;

    Json batch = Json::MakeArray();
    batch.Append(EngineJson(engine, member0));
    batch.Append(EngineJson(engine, ghost_user));
    batch.Append(EngineJson(engine, top0));
    Json batch_response = Json::MakeObject();
    batch_response.Set("responses", std::move(batch));

    const std::string& path = *artifact_;
    const std::string ghost_model =
        Envelope("Unavailable", "no model named 'ghost' loaded");
    return {
        {"POST", "/v1/query",
         R"({"type":"membership","user":3,"top_k":3,"include_distribution":true})",
         200, EngineJson(engine, member3).Dump()},
        {"POST", "/v1/query", R"({"type":"rank","words":[1,2],"top_k":3})",
         200, EngineJson(engine, rank).Dump()},
        {"POST", "/v1/query",
         R"({"type":"diffusion","source":0,"target":1,"document":1,"time_bin":2})",
         200, EngineJson(engine, diffusion).Dump()},
        {"POST", "/v1/query", R"({"type":"top_users","community":1,"top_k":5})",
         200, EngineJson(engine, top1).Dump()},
        {"POST", "/v1/query",
         R"({"batch":[{"type":"membership","user":0},)"
         R"({"type":"membership","user":999999},)"
         R"({"type":"top_users","community":0,"top_k":2}]})",
         200, batch_response.Dump()},
        {"GET", "/v1/membership/3?k=3&distribution=1", "", 200,
         EngineJson(engine, member3).Dump()},
        {"GET", "/v1/models", "", 200,
         R"({"models":[{"name":"default","generation":1,"loaded_unix_ms":)" +
             std::to_string(kFrozenMs) + R"(,"path":")" + path + R"("}]})"},
        {"POST", "/v1/models/default/query",
         R"({"type":"membership","user":2,"top_k":4})", 200,
         EngineJson(engine, member2).Dump()},
        {"GET", "/v1/models/default/membership/2?k=4", "", 200,
         EngineJson(engine, member2).Dump()},
        {"GET", "/healthz", "", 200,
         R"({"status":"serving","generation":1,"model":")" + path + R"("})"},
        // Typed error paths (the connection stays alive; framing errors
        // are exercised separately over raw sockets).
        {"POST", "/v1/query", "this is not json", 400,
         Envelope("InvalidArgument",
                  "JSON parse error at byte 0: unexpected character 't'")},
        {"POST", "/v1/query", R"({"type":"bogus"})", 400,
         Envelope("InvalidArgument",
                  "unknown query type 'bogus' "
                  "(membership|rank|diffusion|top_users)")},
        {"POST", "/v1/query", R"({"user":3})", 400,
         Envelope("InvalidArgument",
                  "missing field 'type' "
                  "(membership|rank|diffusion|top_users)")},
        {"POST", "/v1/query", R"({"type":"membership","user":999999})", 404,
         Envelope("OutOfRange", "user 999999 outside [0, 60)")},
        {"POST", "/v1/query", R"({"type":"membership","user":4294967299})",
         400,
         Envelope("InvalidArgument",
                  "field 'user' is outside the 32-bit integer range")},
        {"GET", "/no/such/endpoint", "", 404,
         Envelope("NotFound", "no such endpoint")},
        {"GET", "/v1/membership/notanumber", "", 400,
         Envelope("InvalidArgument",
                  "user path segment must be a 32-bit integer: notanumber")},
        {"POST", "/v1/models/ghost/query", R"({"type":"membership","user":0})",
         503, ghost_model},
        {"GET", "/v1/models/ghost/membership/0", "", 503, ghost_model},
        {"POST", "/admin/ingest", "{}", 409,
         Envelope("FailedPrecondition",
                  "ingest disabled: cpd_serve was started without the "
                  "training graph (--users/--docs/--friends/--diffusion)")},
        {"POST", "/admin/reload", R"({"model":""})", 400,
         Envelope("InvalidArgument", "field 'model' must not be empty")},
        {"GET", "/metricsz", "", 200, ""},
        {"GET", "/statsz", "", 200, ""},
    };
  }

  /// One exchange as received: status, headers (sorted by the client's
  /// map) and body.
  static std::string Raw(const server::HttpResponse& response) {
    std::string raw = std::to_string(response.status) + "\n";
    for (const auto& [name, value] : response.headers) {
      raw += name + ": " + value + "\n";
    }
    return raw + "\n" + response.body;
  }

  /// Runs the trace through a fresh server over one keep-alive connection
  /// with both clocks frozen (every recorded duration is exactly 0, so the
  /// scrapes are byte-deterministic).
  static std::vector<server::HttpResponse> RunTrace(
      const std::vector<Exchange>& trace) {
    server::ModelRegistry registry(serve::ProfileIndexOptions{},
                                   SharedGraph());
    registry.SetClock([] { return kFrozenMs; });
    obs::SetClockForTest([]() -> int64_t { return kFrozenMs; });
    CPD_CHECK(registry.LoadFrom(*artifact_).ok());
    HttpServerOptions options;
    options.port = 0;
    options.threads = 8;
    options.log_requests = false;
    server::ServiceStats stats;
    HttpServer http_server(options, stats.registry());
    server::RegisterCpdRoutes(&http_server, &registry, &stats);
    CPD_CHECK(http_server.Start().ok());

    std::vector<server::HttpResponse> results;
    auto client = HttpClient::Connect(kHost, http_server.port());
    CPD_CHECK(client.ok());
    for (const Exchange& exchange : trace) {
      auto response =
          client->RoundTrip(exchange.method, exchange.target, exchange.body);
      CPD_CHECK(response.ok());
      results.push_back(std::move(*response));
    }
    http_server.Stop();
    obs::SetClockForTest(nullptr);
    return results;
  }

  /// The value of one exposition series ("name{labels}"), or -1 if absent.
  static int64_t Series(const std::string& exposition,
                        const std::string& series) {
    const std::string needle = "\n" + series + " ";
    const size_t at = exposition.find(needle);
    if (at == std::string::npos) return -1;
    return std::strtoll(exposition.c_str() + at + needle.size(), nullptr,
                        10);
  }

  /// Prometheus text-format structure: every family has exactly one
  /// "# HELP" followed by exactly one "# TYPE", no family appears twice,
  /// and every sample line belongs to the family whose "# TYPE" it follows
  /// (for a histogram: name_bucket, name_sum, name_count).
  static void ExpectWellFormedExposition(const std::string& exposition) {
    std::set<std::string> families;
    std::string helped;  // Family whose "# HELP" awaits its "# TYPE".
    std::string family;  // Family whose samples may follow.
    std::string type;
    std::istringstream lines(exposition);
    std::string line;
    while (std::getline(lines, line)) {
      std::istringstream fields(line);
      std::string hash, keyword, name;
      if (line.rfind("# HELP ", 0) == 0) {
        fields >> hash >> keyword >> name;
        EXPECT_TRUE(helped.empty()) << "# HELP " << helped << " has no # TYPE";
        EXPECT_TRUE(families.insert(name).second)
            << "family " << name << " appears twice";
        helped = name;
        family.clear();
      } else if (line.rfind("# TYPE ", 0) == 0) {
        fields >> hash >> keyword >> name >> type;
        EXPECT_EQ(name, helped) << "# TYPE without its # HELP: " << line;
        family = helped;
        helped.clear();
      } else {
        name = line.substr(0, line.find_first_of("{ "));
        const bool in_family =
            type == "histogram"
                ? name == family + "_bucket" || name == family + "_sum" ||
                      name == family + "_count"
                : name == family;
        EXPECT_TRUE(!family.empty() && in_family)
            << "sample outside its family: " << line;
      }
    }
    EXPECT_TRUE(helped.empty()) << "# HELP " << helped << " has no # TYPE";
  }

  /// A non-negative integer field of a parsed /statsz object, or -1.
  static int64_t Field(const Json& object, const char* key) {
    const Json* value = object.Find(key);
    return value == nullptr ? -1 : static_cast<int64_t>(value->number());
  }

  /// Sends raw bytes over a fresh socket and reads to EOF (framing errors
  /// always close, so the full reply — status line, headers, body — comes
  /// back verbatim).
  static std::string RawRoundTrip(int port, const std::string& bytes) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    CPD_CHECK(fd >= 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    CPD_CHECK(::inet_pton(AF_INET, kHost, &addr.sin_addr) == 1);
    CPD_CHECK(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)) == 0);
    // MSG_NOSIGNAL + tolerated short writes: the server may answer and
    // close before consuming the whole probe.
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) break;
      sent += static_cast<size_t>(n);
    }
    std::string response;
    char chunk[4096];
    ssize_t n;
    while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
      response.append(chunk, static_cast<size_t>(n));
    }
    ::close(fd);
    return response;
  }

  static SynthResult* data_;
  static CpdModel* model_;
  static std::string* artifact_;
};

SynthResult* WireGoldenTest::data_ = nullptr;
CpdModel* WireGoldenTest::model_ = nullptr;
std::string* WireGoldenTest::artifact_ = nullptr;

TEST_F(WireGoldenTest, CanonicalTraceMatchesIndependentReferences) {
  server::ModelRegistry reference(serve::ProfileIndexOptions{},
                                  SharedGraph());
  ASSERT_TRUE(reference.LoadFrom(*artifact_).ok());
  const std::vector<Exchange> trace =
      CanonicalTrace(*reference.Snapshot()->engine);
  const std::vector<server::HttpResponse> first = RunTrace(trace);
  const std::vector<server::HttpResponse> second = RunTrace(trace);
  ASSERT_EQ(first.size(), trace.size());
  ASSERT_EQ(second.size(), trace.size());

  // Fresh servers are deterministic end to end: ids, counters, scrapes.
  for (size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(Raw(first[i]), Raw(second[i]))
        << trace[i].method << " " << trace[i].target;
  }

  // Each non-scrape reply against its reference, and the status classes
  // the transport must have counted by the time of the scrapes.
  const size_t metricsz = trace.size() - 2;
  const size_t statsz = trace.size() - 1;
  int64_t class_2xx = 0;
  int64_t class_4xx = 0;
  int64_t class_5xx = 0;
  for (size_t i = 0; i < metricsz; ++i) {
    EXPECT_EQ(first[i].status, trace[i].status)
        << trace[i].method << " " << trace[i].target << " " << trace[i].body;
    EXPECT_EQ(first[i].body, trace[i].expected)
        << trace[i].method << " " << trace[i].target << " " << trace[i].body;
    const int status = trace[i].status;
    ++(status < 300 ? class_2xx : status < 500 ? class_4xx : class_5xx);
  }
  // 7 single queries answered (exchanges 0-3, 5, 7, 8), 2 batch slots, and
  // 5 typed query failures (the batch's bad slot, bogus type, missing
  // type, unknown user, 64-bit user); latency samples per type cover the
  // single queries and the batch's good slots.
  constexpr int64_t kQueries = 7;
  constexpr int64_t kBatchQueries = 2;
  constexpr int64_t kQueryErrors = 5;
  const std::pair<const char*, int64_t> kLatencyCounts[] = {
      {"membership", 5}, {"rank", 1}, {"diffusion", 1}, {"top_users", 2}};

  // /metricsz: its own request is parsed and queued but not yet answered.
  ASSERT_EQ(first[metricsz].status, 200);
  const std::string& exposition = first[metricsz].body;
  ExpectWellFormedExposition(exposition);
  const int64_t requests = static_cast<int64_t>(metricsz) + 1;
  EXPECT_EQ(Series(exposition, "cpd_http_requests_total"), requests);
  EXPECT_EQ(Series(exposition, R"(cpd_http_responses_total{class="2xx"})"),
            class_2xx);
  EXPECT_EQ(Series(exposition, R"(cpd_http_responses_total{class="4xx"})"),
            class_4xx);
  EXPECT_EQ(Series(exposition, R"(cpd_http_responses_total{class="5xx"})"),
            class_5xx);
  EXPECT_EQ(Series(exposition, "cpd_http_connections_accepted_total"), 1);
  EXPECT_EQ(Series(exposition, "cpd_http_connections_rejected_total"), 0);
  EXPECT_EQ(Series(exposition, "cpd_http_rejected_429_total"), 0);
  EXPECT_EQ(Series(exposition, "cpd_http_deadline_504_total"), 0);
  EXPECT_EQ(
      Series(exposition, R"(cpd_service_queries_total{model="default"})"),
      kQueries);
  EXPECT_EQ(Series(exposition,
                   R"(cpd_service_batch_queries_total{model="default"})"),
            kBatchQueries);
  EXPECT_EQ(Series(exposition,
                   R"(cpd_service_query_errors_total{model="default"})"),
            kQueryErrors);
  for (const auto& [type, count] : kLatencyCounts) {
    EXPECT_EQ(Series(exposition, std::string("cpd_query_latency_us_count{"
                                             "query_type=\"") +
                                     type + "\"}"),
              count)
        << type;
  }
  // One queue_wait sample per dispatched request (the scrape's included),
  // one write sample per response written (the scrape's still pending).
  EXPECT_EQ(
      Series(exposition, R"(cpd_request_stage_us_count{stage="queue_wait"})"),
      requests);
  EXPECT_EQ(Series(exposition, R"(cpd_request_stage_us_count{stage="write"})"),
            class_2xx + class_4xx + class_5xx);
  EXPECT_EQ(requests - 1, class_2xx + class_4xx + class_5xx);

  // /statsz: one request later, and the /metricsz reply now counted.
  ASSERT_EQ(first[statsz].status, 200);
  auto stats = Json::Parse(first[statsz].body);
  ASSERT_TRUE(stats.ok()) << first[statsz].body;
  const Json* transport = stats->Find("server");
  const Json* service = stats->Find("service");
  ASSERT_NE(transport, nullptr);
  ASSERT_NE(service, nullptr);
  EXPECT_EQ(Field(*transport, "requests"), requests + 1);
  EXPECT_EQ(Field(*transport, "responses_2xx"), class_2xx + 1);
  EXPECT_EQ(Field(*transport, "responses_4xx"), class_4xx);
  EXPECT_EQ(Field(*transport, "responses_5xx"), class_5xx);
  EXPECT_EQ(Field(*transport, "connections_accepted"), 1);
  EXPECT_EQ(Field(*transport, "connections_rejected"), 0);
  EXPECT_EQ(Field(*transport, "rejected_429"), 0);
  EXPECT_EQ(Field(*transport, "deadline_504"), 0);
  EXPECT_EQ(Field(*service, "queries"), kQueries);
  EXPECT_EQ(Field(*service, "batch_queries"), kBatchQueries);
  EXPECT_EQ(Field(*service, "query_errors"), kQueryErrors);
  const Json* latency = service->Find("latency");
  ASSERT_NE(latency, nullptr);
  for (const auto& [type, count] : kLatencyCounts) {
    const Json* entry = latency->Find(type);
    ASSERT_NE(entry, nullptr) << type;
    EXPECT_EQ(Field(*entry, "count"), count) << type;
  }
}

TEST_F(WireGoldenTest, ConcurrentQueriesAreByteIdentical) {
  server::ModelRegistry registry(serve::ProfileIndexOptions{}, SharedGraph());
  CPD_CHECK(registry.LoadFrom(*artifact_).ok());
  HttpServerOptions options;
  options.port = 0;
  options.threads = 12;
  options.log_requests = false;
  server::ServiceStats stats;
  HttpServer http_server(options, stats.registry());
  server::RegisterCpdRoutes(&http_server, &registry, &stats);
  ASSERT_TRUE(http_server.Start().ok());
  const int port = http_server.port();

  // Expected bytes per user, from the in-process engine.
  const auto snapshot = registry.Snapshot();
  std::vector<std::string> expected;
  for (int user = 0; user < 8; ++user) {
    serve::MembershipRequest request;
    request.user = user;
    request.top_k = 3;
    auto response = snapshot->engine->Query(serve::QueryRequest(request));
    CPD_CHECK(response.ok());
    expected.push_back(server::QueryResponseToJson(*response).Dump());
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 8; ++t) {
    clients.emplace_back([&, t] {
      auto client = HttpClient::Connect(kHost, port);
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      const std::string body =
          R"({"type":"membership","user":)" + std::to_string(t) +
          R"(,"top_k":3})";
      for (int i = 0; i < 40; ++i) {
        auto response = client->RoundTrip("POST", "/v1/query", body);
        if (!response.ok() || response->status != 200 ||
            response->body != expected[static_cast<size_t>(t)]) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(stats.registry()->CounterTotal("cpd_service_queries_total"),
            320u);
  http_server.Stop();
}

TEST_F(WireGoldenTest, FramingErrorRepliesAreByteIdentical) {
  const auto reply = [](const char* status, const std::string& body) {
    return std::string("HTTP/1.1 ") + status +
           "\r\nContent-Type: application/json\r\nContent-Length: " +
           std::to_string(body.size()) +
           "\r\nConnection: close\r\n\r\n" + body;
  };
  const std::vector<std::pair<std::string, std::string>> probes = {
      {"THIS IS NOT HTTP\r\n\r\n",
       reply("400 Bad Request",
             R"({"error":{"code":"InvalidArgument",)"
             R"("message":"unsupported HTTP version 'NOT HTTP'"}})")},
      {"GET /healthz HTTP/1.1\r\nHost: x\r\nContent-Length: nope\r\n\r\n",
       reply("400 Bad Request",
             R"({"error":{"code":"InvalidArgument",)"
             R"("message":"malformed Content-Length"}})")},
      // Declared body over the cap: 413 from the head alone.
      {"POST /v1/query HTTP/1.1\r\nHost: x\r\nContent-Length: 99999999\r\n"
       "\r\n",
       reply("413 Payload Too Large",
             R"({"error":{"code":"OutOfRange",)"
             R"("message":"request body exceeds the size cap"}})")},
      // Head over the cap: 431 (the filler header crosses max_head_bytes;
      // small enough that one server read consumes the whole probe, so the
      // close is a clean FIN and never an RST racing the reply).
      {"GET /healthz HTTP/1.1\r\nX-Filler: " + std::string(1500, 'a') +
           "\r\n\r\n",
       reply("431 Request Header Fields Too Large",
             R"({"error":{"code":"OutOfRange",)"
             R"("message":"message head exceeds the size cap"}})")},
  };
  HttpServerOptions options;
  options.port = 0;
  options.threads = 4;
  options.max_head_bytes = 1024;
  options.log_requests = false;
  server::ServiceStats stats;
  HttpServer http_server(options, stats.registry());
  server::ModelRegistry registry(serve::ProfileIndexOptions{}, nullptr);
  CPD_CHECK(registry.LoadFrom(*artifact_).ok());
  server::RegisterCpdRoutes(&http_server, &registry, &stats);
  ASSERT_TRUE(http_server.Start().ok());
  for (size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(RawRoundTrip(http_server.port(), probes[i].first),
              probes[i].second)
        << "probe " << i;
  }
  http_server.Stop();
}

}  // namespace
}  // namespace cpd
