#ifndef CPD_SERVER_EVENT_LOOP_H_
#define CPD_SERVER_EVENT_LOOP_H_

/// \file event_loop.h
/// The I/O backend of HttpServer: one epoll loop thread multiplexes every
/// connection through readiness-driven state machines
/// (read -> parse -> dispatch -> write), so 16 -> 10k keep-alive
/// connections stop costing a blocked thread each. The loop never runs
/// request handlers: a fully-parsed request is handed to the
/// EventLoopHandler (HttpServer routes it onto the worker ThreadPool) with
/// an opaque token, and the worker posts the response back with
/// CompleteRequest(token, ...) — a wake via eventfd, demultiplexed to the
/// right connection on the loop thread. Tokens outlive their connection
/// safely: a completion for a connection that died mid-handler is dropped.
///
/// Connection state machine (per fd, loop thread only):
///   reading   — EPOLLIN armed; bytes feed an incremental RequestParser.
///               A framing error queues the 4xx envelope and closes after
///               the write; a complete request disarms EPOLLIN (no
///               pipelined execution: one request in flight per
///               connection, responses in order) and dispatches.
///   in flight — awaiting CompleteRequest; reads stay disarmed, peer
///               close/reset is remembered and handled at completion.
///   writing   — serialized response drains via EPOLLOUT on short writes;
///               when it empties, either close (Connection: close,
///               framing error, draining) or re-arm EPOLLIN — buffered
///               pipelined bytes are parsed immediately.
///
/// Graceful drain: Stop() stops accepting, closes idle connections, lets
/// in-flight requests finish and write their responses, and force-closes
/// stragglers after 10 s.
///
/// Admission at the accept edge is capacity-based (max_connections — the
/// loop does not spend a thread per connection, so the bound is a memory
/// cap, not the pool size); over-cap accepts get the handler's serialized
/// 429 and are closed. Running out of file descriptors sheds the same way:
/// the loop holds one spare descriptor, and on EMFILE/ENFILE it closes the
/// spare, accepts, sends the 429, closes, and reopens the spare, so the
/// level-triggered listener never spins on a connection it cannot take.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/http.h"
#include "util/status.h"

namespace cpd::server {

/// HttpServer's side of the seam: routing, admission, counters, and the
/// worker pool. All methods are invoked on the loop thread.
class EventLoopHandler {
 public:
  virtual ~EventLoopHandler() = default;

  /// One fully-parsed request. The implementation must eventually call
  /// EventLoop::CompleteRequest(token, ...) exactly once, from any thread.
  virtual void OnRequest(uint64_t token, HttpRequest request) = 0;

  /// Renders the accept-edge shed response (429 + Retry-After) and counts
  /// the rejection.
  virtual HttpResponse OnConnectionShed() = 0;

  /// Renders the response for a framing error (400/413/431) and counts it.
  virtual HttpResponse OnFramingError(const Status& error,
                                      int http_status) = 0;

  /// Counts an accepted connection.
  virtual void OnConnectionAccepted() = 0;

  /// One completion response fully flushed to the socket; `micros` is
  /// queued-for-write to last-byte-written (the "write" request stage).
  /// Framing-error and shed writes are not reported: one sample per
  /// dispatched request.
  virtual void OnResponseWritten(double /*micros*/) {}
};

struct EventLoopOptions {
  int max_connections = 1024;   ///< Accept-edge cap (excess -> 429).
  int idle_timeout_ms = 30000;  ///< Close idle reading connections (0 = off).
  size_t max_head_bytes = 64 * 1024;
  size_t max_body_bytes = 4 * 1024 * 1024;
  int drain_timeout_ms = 10000;  ///< Stop(): force-close stragglers after.
};

class EventLoop {
 public:
  /// `listen_fd` must already be bound + listening; the loop makes it
  /// non-blocking and owns its epoll registration (the caller still closes
  /// it after Stop()). `handler` must outlive the loop.
  EventLoop(int listen_fd, EventLoopOptions options,
            EventLoopHandler* handler);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Creates the epoll/eventfd pair and spawns the loop thread.
  Status Start();

  /// Graceful shutdown: stops accepting, drains in-flight requests and
  /// their response writes, force-closes after drain_timeout_ms, joins the
  /// loop thread. Idempotent.
  void Stop();

  /// Posts a response for `token` (thread-safe, any thread). `keep_alive`
  /// is the dispatch layer's verdict (client semantics + server drain);
  /// the loop still closes if the peer vanished meanwhile.
  void CompleteRequest(uint64_t token, HttpResponse response,
                       bool keep_alive);

 private:
  using Clock = std::chrono::steady_clock;

  /// Per-connection state machine; touched only by the loop thread.
  struct Connection {
    int fd = -1;
    uint64_t token = 0;
    RequestParser parser;
    std::string out;          ///< Serialized bytes not yet written.
    size_t out_offset = 0;
    uint32_t interest = 0;    ///< Currently-registered epoll events.
    bool in_flight = false;   ///< Dispatched, awaiting CompleteRequest.
    bool peer_closed = false; ///< Read side saw EOF/reset.
    bool close_after_write = false;
    int64_t write_start_us = -1;  ///< obs::NowMicros() at completion queue.
    Clock::time_point last_activity;

    Connection(int fd, uint64_t token, const EventLoopOptions& options)
        : fd(fd),
          token(token),
          parser(options.max_head_bytes, options.max_body_bytes),
          last_activity(Clock::now()) {}
  };

  struct Completion {
    uint64_t token = 0;
    HttpResponse response;
    bool keep_alive = false;
  };

  void Loop();
  void AcceptAll();
  /// The EMFILE/ENFILE path of AcceptAll: accepts one connection into the
  /// spare descriptor's slot, sheds it, and reopens the spare. False when
  /// nothing was accepted.
  bool ShedWithSpareFd();
  /// Writes the handler's accept-edge 429 (best effort) and closes `fd`.
  void Shed(int fd);
  void HandleReadable(Connection* connection);
  void HandleWritable(Connection* connection);
  void ProcessParsed(Connection* connection);
  void QueueWrite(Connection* connection, std::string bytes);
  void FlushWrites(Connection* connection);
  void DrainCompletions();
  void SetInterest(Connection* connection, uint32_t events);
  void CloseConnection(uint64_t token);
  void SweepIdle();
  void CloseIdleForDrain();
  void Wake();

  int listen_fd_;
  EventLoopOptions options_;
  EventLoopHandler* handler_;

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  int spare_fd_ = -1;  ///< Reserve descriptor released to shed on EMFILE.
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  Clock::time_point drain_deadline_{};  ///< Loop thread only.

  uint64_t next_token_ = 1;
  std::map<uint64_t, Connection> connections_;  ///< Loop thread only.

  std::mutex completions_mutex_;
  std::vector<Completion> completions_;
};

}  // namespace cpd::server

#endif  // CPD_SERVER_EVENT_LOOP_H_
