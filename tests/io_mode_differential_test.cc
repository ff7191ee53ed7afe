// Differential suite over the two I/O backends: the same request trace
// driven through --io_mode blocking and --io_mode epoll must produce
// byte-identical responses (bodies, statuses, and raw framing-error
// replies). Also pins the epoll-mode
// behavior of the admission/deadline/drain machinery that the blocking
// suite covers in http_server_test.cc.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/cpd_model.h"
#include "obs/clock.h"
#include "server/http_server.h"
#include "server/json_api.h"
#include "server/model_registry.h"
#include "test_util.h"
#include "util/json.h"

namespace cpd {
namespace {

using server::HttpClient;
using server::HttpRequest;
using server::HttpResponse;
using server::HttpServer;
using server::HttpServerOptions;
using server::IoMode;

constexpr const char* kHost = "127.0.0.1";

class IoModeDifferentialTest : public ::testing::Test {
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
  };

  /// The canonical trace: all four query types, a batch with per-slot
  /// errors, the GET shortcuts, and every keep-alive-safe error path.
  static std::vector<Exchange> CanonicalTrace() {
    return {
        {"POST", "/v1/query",
         R"({"type":"membership","user":3,"top_k":3,"include_distribution":true})"},
        {"POST", "/v1/query", R"({"type":"rank","words":[1,2],"top_k":3})"},
        {"POST", "/v1/query",
         R"({"type":"diffusion","source":0,"target":1,"document":1,"time_bin":2})"},
        {"POST", "/v1/query", R"({"type":"top_users","community":1,"top_k":5})"},
        {"POST", "/v1/query",
         R"({"batch":[{"type":"membership","user":0},)"
         R"({"type":"membership","user":999999},)"
         R"({"type":"top_users","community":0,"top_k":2}]})"},
        {"GET", "/v1/membership/3?k=3&distribution=1", ""},
        {"GET", "/v1/models", ""},
        {"POST", "/v1/models/default/query",
         R"({"type":"membership","user":2,"top_k":4})"},
        {"GET", "/v1/models/default/membership/2?k=4", ""},
        {"GET", "/healthz", ""},
        // Typed error paths (connection stays alive; framing errors are
        // exercised separately over raw sockets).
        {"POST", "/v1/query", "this is not json"},
        {"POST", "/v1/query", R"({"type":"bogus"})"},
        {"POST", "/v1/query", R"({"user":3})"},
        {"POST", "/v1/query", R"({"type":"membership","user":999999})"},
        {"POST", "/v1/query", R"({"type":"membership","user":4294967299})"},
        {"GET", "/no/such/endpoint", ""},
        {"GET", "/v1/membership/notanumber", ""},
        {"POST", "/v1/models/ghost/query", R"({"type":"membership","user":0})"},
        {"GET", "/v1/models/ghost/membership/0", ""},
        {"POST", "/admin/ingest", "{}"},
        {"POST", "/admin/reload", R"({"model":""})"},
        // Last: the counters above are now identical in both modes, and the
        // obs clock is frozen (every recorded duration is exactly 0), so
        // both scrape views must match byte-for-byte too.
        {"GET", "/metricsz", ""},
        {"GET", "/statsz", ""},
    };
  }

  /// Runs the trace through a fresh server in `mode`; returns
  /// "status\nbody" per exchange, over one keep-alive connection.
  static std::vector<std::string> RunTrace(IoMode mode,
                                           const std::vector<Exchange>& trace) {
    server::ModelRegistry registry(serve::ProfileIndexOptions{},
                                   SharedGraph());
    registry.SetClock([] { return int64_t{1754500000000}; });
    // Freeze the obs clock too: every latency/stage duration records as
    // exactly 0, making /statsz and /metricsz byte-deterministic.
    obs::SetClockForTest([]() -> int64_t { return 1754500000000; });
    CPD_CHECK(registry.LoadFrom(*artifact_).ok());
    HttpServerOptions options;
    options.port = 0;
    options.threads = 8;
    options.io_mode = mode;
    options.log_requests = false;
    HttpServer http_server(options);
    server::ServiceStats stats;
    server::RegisterCpdRoutes(&http_server, &registry, &stats);
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

SynthResult* IoModeDifferentialTest::data_ = nullptr;
CpdModel* IoModeDifferentialTest::model_ = nullptr;
std::string* IoModeDifferentialTest::artifact_ = nullptr;

TEST_F(IoModeDifferentialTest, CanonicalTraceIsByteIdenticalAcrossIoModes) {
  // No latency scrubbing: the frozen obs clock makes every histogram
  // deterministic, so /statsz and /metricsz compare raw.
  const std::vector<Exchange> trace = CanonicalTrace();
  const std::vector<std::string> blocking =
      RunTrace(IoMode::kBlocking, trace);
  const std::vector<std::string> epoll = RunTrace(IoMode::kEpoll, trace);
  ASSERT_EQ(blocking.size(), epoll.size());
  for (size_t i = 0; i < blocking.size(); ++i) {
    EXPECT_EQ(blocking[i], epoll[i])
        << trace[i].method << " " << trace[i].target << " " << trace[i].body;
  }
}

// Concurrent writers against epoll: every worker hands its response back to
// the loop thread through the cross-thread completion queue, and each body
// must still equal the in-process engine's bytes.
TEST_F(IoModeDifferentialTest, ConcurrentQueriesAreByteIdentical) {
  server::ModelRegistry registry(serve::ProfileIndexOptions{}, SharedGraph());
  CPD_CHECK(registry.LoadFrom(*artifact_).ok());
  HttpServerOptions options;
  options.port = 0;
  options.threads = 12;
  options.io_mode = IoMode::kEpoll;
  options.log_requests = false;
  HttpServer http_server(options);
  server::ServiceStats stats;
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
  EXPECT_EQ(stats.queries(), 320u);
  http_server.Stop();
}

TEST_F(IoModeDifferentialTest, FramingErrorRepliesAreByteIdentical) {
  const std::vector<std::string> probes = {
      "THIS IS NOT HTTP\r\n\r\n",
      "GET /healthz HTTP/1.1\r\nHost: x\r\nContent-Length: nope\r\n\r\n",
      // Declared body over the cap: 413 from the head alone.
      "POST /v1/query HTTP/1.1\r\nHost: x\r\nContent-Length: 99999999\r\n\r\n",
      // Head over the cap: 431 (the filler header crosses max_head_bytes;
      // small enough that one server read consumes the whole probe, so the
      // close is a clean FIN and never an RST racing the reply).
      "GET /healthz HTTP/1.1\r\nX-Filler: " + std::string(1500, 'a') +
          "\r\n\r\n",
  };
  std::vector<std::vector<std::string>> replies;
  for (const auto io_mode : {IoMode::kBlocking, IoMode::kEpoll}) {
    HttpServerOptions options;
    options.port = 0;
    options.threads = 4;
    options.io_mode = io_mode;
    options.max_head_bytes = 1024;
    options.log_requests = false;
    HttpServer http_server(options);
    server::ModelRegistry registry(serve::ProfileIndexOptions{}, nullptr);
    CPD_CHECK(registry.LoadFrom(*artifact_).ok());
    server::ServiceStats stats;
    server::RegisterCpdRoutes(&http_server, &registry, &stats);
    ASSERT_TRUE(http_server.Start().ok());
    std::vector<std::string> mode_replies;
    for (const std::string& probe : probes) {
      mode_replies.push_back(RawRoundTrip(http_server.port(), probe));
    }
    replies.push_back(std::move(mode_replies));
    http_server.Stop();
  }
  ASSERT_EQ(replies.size(), 2u);
  for (size_t i = 0; i < probes.size(); ++i) {
    EXPECT_FALSE(replies[0][i].empty()) << "probe " << i;
    EXPECT_EQ(replies[0][i], replies[1][i]) << "probe " << i;
  }
}

// ----- epoll-mode admission, deadlines, drain -----

TEST_F(IoModeDifferentialTest, EpollOverloadGets429WithRetryAfter) {
  HttpServerOptions options;
  options.port = 0;
  options.threads = 4;
  options.io_mode = IoMode::kEpoll;
  options.max_inflight = 1;
  options.log_requests = false;
  HttpServer http_server(options);
  std::mutex mutex;
  std::condition_variable cv;
  bool handler_entered = false;
  bool release_handler = false;
  http_server.Handle("GET", "/block", [&](const HttpRequest&) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      handler_entered = true;
    }
    cv.notify_all();
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return release_handler; });
    HttpResponse response;
    response.body = "{\"blocked\":false}";
    return response;
  });
  ASSERT_TRUE(http_server.Start().ok());

  std::thread blocker([&] {
    auto client = HttpClient::Connect(kHost, http_server.port());
    ASSERT_TRUE(client.ok());
    auto response = client->RoundTrip("GET", "/block");
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->status, 200);
  });
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return handler_entered; });
  }

  auto prober = HttpClient::Connect(kHost, http_server.port());
  ASSERT_TRUE(prober.ok());
  auto rejected = prober->RoundTrip("GET", "/block");
  ASSERT_TRUE(rejected.ok());
  EXPECT_EQ(rejected->status, 429);
  EXPECT_EQ(rejected->headers.at("retry-after"), "1");
  EXPECT_NE(rejected->body.find("\"ResourceExhausted\""), std::string::npos);

  {
    std::lock_guard<std::mutex> lock(mutex);
    release_handler = true;
  }
  cv.notify_all();
  blocker.join();
  // The shed connection stays usable (epoll sheds the request, not the
  // connection) and serves normally once the slot frees up.
  auto after = prober->RoundTrip("GET", "/block");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->status, 200);
  EXPECT_GE(http_server.stats().rejected_429, 1u);
  http_server.Stop();
}

TEST_F(IoModeDifferentialTest, EpollConnectionFloodShedsAtTheAcceptEdge) {
  HttpServerOptions options;
  options.port = 0;
  options.threads = 4;
  options.io_mode = IoMode::kEpoll;
  options.max_connections = 2;
  options.log_requests = false;
  HttpServer http_server(options);
  http_server.Handle("GET", "/ping", [](const HttpRequest&) {
    HttpResponse response;
    response.body = "{}";
    return response;
  });
  ASSERT_TRUE(http_server.Start().ok());

  auto first = HttpClient::Connect(kHost, http_server.port());
  auto second = HttpClient::Connect(kHost, http_server.port());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(first->RoundTrip("GET", "/ping")->status, 200);
  ASSERT_EQ(second->RoundTrip("GET", "/ping")->status, 200);

  auto third = HttpClient::Connect(kHost, http_server.port());
  ASSERT_TRUE(third.ok());
  auto shed = third->RoundTrip("GET", "/ping");
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  EXPECT_EQ(shed->status, 429);
  EXPECT_FALSE(third->connected());  // 429-and-close at the accept edge.
  EXPECT_GE(http_server.stats().connections_rejected, 1u);
  http_server.Stop();
}

TEST_F(IoModeDifferentialTest, EpollSlowHandlerGets504) {
  HttpServerOptions options;
  options.port = 0;
  options.threads = 4;
  options.io_mode = IoMode::kEpoll;
  options.deadline_ms = 40;
  options.log_requests = false;
  HttpServer http_server(options);
  http_server.Handle("GET", "/slow", [](const HttpRequest&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    HttpResponse response;
    response.body = "{\"late\":true}";
    return response;
  });
  ASSERT_TRUE(http_server.Start().ok());
  auto client = HttpClient::Connect(kHost, http_server.port());
  ASSERT_TRUE(client.ok());
  auto slow = client->RoundTrip("GET", "/slow");
  ASSERT_TRUE(slow.ok());
  EXPECT_EQ(slow->status, 504);
  EXPECT_NE(slow->body.find("DeadlineExceeded"), std::string::npos);
  EXPECT_EQ(http_server.stats().deadline_504, 1u);
  http_server.Stop();
}

TEST_F(IoModeDifferentialTest, EpollStopDrainsInFlightRequests) {
  HttpServerOptions options;
  options.port = 0;
  options.threads = 4;
  options.io_mode = IoMode::kEpoll;
  options.log_requests = false;
  HttpServer http_server(options);
  std::atomic<bool> handler_entered{false};
  http_server.Handle("GET", "/slow", [&](const HttpRequest&) {
    handler_entered.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    HttpResponse response;
    response.body = "{\"drained\":true}";
    return response;
  });
  ASSERT_TRUE(http_server.Start().ok());
  const int port = http_server.port();

  std::thread in_flight([&] {
    auto client = HttpClient::Connect(kHost, port);
    ASSERT_TRUE(client.ok());
    auto response = client->RoundTrip("GET", "/slow");
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    // The in-flight request finishes with its real response; the server
    // closes the (draining) connection after writing it.
    EXPECT_EQ(response->status, 200);
    EXPECT_EQ(response->body, "{\"drained\":true}");
  });
  while (!handler_entered.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  http_server.Stop();  // Must block until the in-flight response is written.
  in_flight.join();
  EXPECT_FALSE(http_server.running());
  EXPECT_FALSE(HttpClient::Connect(kHost, port).ok());
}

}  // namespace
}  // namespace cpd
