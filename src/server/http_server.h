#ifndef CPD_SERVER_HTTP_SERVER_H_
#define CPD_SERVER_HTTP_SERVER_H_

/// \file http_server.h
/// Embedded HTTP/1.1 server: one epoll event-loop thread
/// (src/server/event_loop) multiplexes up to `max_connections`
/// non-blocking connections; fully-parsed requests are submitted to a
/// worker ThreadPool (`threads`), and workers post responses back to the
/// loop. Connection capacity is independent of the worker count, which is
/// what lets 256+ mostly-idle keep-alive connections share a handful of
/// workers. tests/io_mode_differential_test.cc pins the wire bytes.
///
/// Admission control is two-level and never blocks a client unboundedly:
///   - connection level: over `max_connections` (or out of file
///     descriptors) the accept edge replies 429 + Retry-After inline and
///     closes (nothing waits);
///   - request level: at most `max_inflight` requests execute at once;
///     excess requests on live connections get 429 + Retry-After without
///     tying up the handler path.
/// A per-request deadline (`deadline_ms`) turns over-budget handlers into
/// 504s. Stop() is graceful: in-flight requests finish and their responses
/// are written before the workers are joined (the hot-reload test drives
/// traffic through a swap and a drain and expects zero failed requests).
/// Every non-2xx body this layer renders is the unified error envelope
/// (MakeErrorResponse in server/http.h).
///
/// Metrics: the server is constructed on a registry (the ServiceStats one,
/// in a CPD stack) and records every transport counter (TransportCounters()
/// below) and cpd_request_stage_us{stage=queue_wait|write} there, so
/// /metricsz and /statsz read the transport from the same source as the
/// service numbers.
///
/// Routing: exact segments or "{param}" captures ("/v1/membership/{user}"),
/// matched per-method; handlers run on worker threads and must be
/// thread-safe. This layer knows nothing about models — src/server/json_api
/// registers the CPD endpoints on top.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "server/event_loop.h"
#include "server/http.h"
#include "util/status.h"

namespace cpd {
class ThreadPool;
}  // namespace cpd

namespace cpd::server {

struct HttpServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;             ///< 0 = ephemeral (tests/bench read port()).
  int threads = 4;          ///< Worker pool size.
  int max_connections = 1024;    ///< Open-connection cap (excess -> 429).
  int max_inflight = 64;    ///< Requests executing at once (excess -> 429).
  int deadline_ms = 0;      ///< Per-request budget (0 = none; over -> 504).
  int retry_after_seconds = 1;   ///< Advertised on every 429.
  int idle_timeout_ms = 30000;   ///< Close idle connections (0 = never).
  size_t max_head_bytes = 64 * 1024;
  size_t max_body_bytes = 4 * 1024 * 1024;
  bool log_requests = true;  ///< One CPD_LOG(Info) line per request.
  /// Requests slower than this (read-to-dispatch-done, microseconds) also
  /// log one Warning line with the per-stage breakdown (request.timing).
  /// 0 disables the slow-request log.
  int64_t slow_request_us = 0;
};

/// One transport counter HttpServer keeps in its metrics registry: the
/// /statsz "server" field it is read back as, its family, its HELP text,
/// and (for the cpd_http_responses_total children) its class label.
struct TransportCounter {
  const char* field;
  const char* family;
  const char* help;
  const char* response_class;  ///< nullptr: the family has no labels.
};

/// The transport counters, in /statsz "server" order.
std::span<const TransportCounter> TransportCounters();

class HttpServer : private EventLoopHandler {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  /// `metrics` (non-null, outliving the server) receives every transport
  /// counter and the cpd_request_stage_us{stage=queue_wait|write}
  /// histogram; a server stack shares it with its ServiceStats.
  HttpServer(HttpServerOptions options, obs::MetricsRegistry* metrics);
  ~HttpServer();  ///< Calls Stop().

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Registers a handler for `method` + `pattern`. Pattern segments are
  /// literal or "{name}" captures bound into request.path_params. First
  /// registered match wins; call before Start().
  void Handle(const std::string& method, const std::string& pattern,
              Handler handler);

  /// Binds, listens, and spawns the event loop + worker pool.
  Status Start();

  /// Port actually bound (after Start; useful with options.port = 0).
  int port() const { return port_; }

  /// Graceful shutdown: stops accepting, lets in-flight requests finish and
  /// write their responses, then joins everything. Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  obs::MetricsRegistry* metrics() const { return metrics_; }

 private:
  struct Route {
    std::string method;
    std::vector<std::string> segments;  ///< "{name}" segments capture.
    Handler handler;
  };

  /// Routes + admission + deadline around one parsed request (mutated only
  /// to attach path_params). Returns the response to write (always exactly
  /// one response per request).
  HttpResponse Dispatch(HttpRequest* request);
  const Route* MatchRoute(const std::string& method, const std::string& path,
                          std::map<std::string, std::string>* params) const;
  HttpResponse Render429() const;
  void CountResponse(int status);

  // EventLoopHandler: requests hop from the loop thread onto the worker
  // pool and their responses hop back via CompleteRequest.
  void OnRequest(uint64_t token, HttpRequest request) override;
  HttpResponse OnConnectionShed() override;
  HttpResponse OnFramingError(const Status& error, int http_status) override;
  void OnConnectionAccepted() override;
  void OnResponseWritten(double micros) override;

  /// The access-log line (+ slow-request Warning when the request exceeded
  /// options_.slow_request_us).
  void LogRequest(const HttpRequest& request, const HttpResponse& response,
                  double total_us);

  HttpServerOptions options_;
  std::vector<Route> routes_;
  obs::MetricsRegistry* metrics_;
  /// Handles into metrics_, indexed like TransportCounters().
  std::vector<obs::Counter*> counters_;
  obs::Histogram* queue_wait_us_;
  obs::Histogram* write_us_;
  std::atomic<uint64_t> next_trace_id_{0};

  int listen_fd_ = -1;
  int port_ = 0;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<EventLoop> event_loop_;

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<int> inflight_{0};

};

}  // namespace cpd::server

#endif  // CPD_SERVER_HTTP_SERVER_H_
