#ifndef CPDBENCH_PROC_H_
#define CPDBENCH_PROC_H_

// Child processes and a minimal HTTP/1.1 keep-alive client. The client is
// the benchmark's own (not the library's HttpClient) so that a change to
// the system's client code never changes the load generator.

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace cpdbench {

/// A spawned program whose stdout/stderr go to a log file. The destructor
/// stops it (SIGTERM, then SIGKILL after a grace period) and reaps it.
class ChildProcess {
 public:
  ChildProcess() = default;
  ~ChildProcess() { Stop(10.0); }
  ChildProcess(ChildProcess&& other) noexcept
      : pid_(other.pid_), exit_code_(other.exit_code_) {
    other.pid_ = -1;
  }
  ChildProcess& operator=(ChildProcess&& other) noexcept;
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  static cpd::StatusOr<ChildProcess> Spawn(const std::vector<std::string>& argv,
                                           const std::string& log_path);
  pid_t pid() const { return pid_; }
  /// False once the process has exited (it is then reaped).
  bool Running();
  /// SIGTERM, waits up to `grace_seconds`, then SIGKILL; returns the exit
  /// code (128 + signal when killed, -1 when nothing was running).
  int Stop(double grace_seconds);

 private:
  pid_t pid_ = -1;
  int exit_code_ = -1;
};

/// A loopback port that was free a moment ago.
int FreeLoopbackPort();

/// Pids of this process's live children running `command` (from /proc).
std::vector<pid_t> ChildPids(const std::string& command);

struct HttpReply {
  int status = 0;
  std::string body;
  std::string request_id;  ///< Echoed X-Request-Id ("" when absent).
  int64_t sent_us = 0;     ///< When the request's first byte was written.
  int64_t done_us = 0;     ///< When the response's last byte arrived.
};

/// One HTTP/1.1 request with a Content-Length body.
std::string FormatRequest(const std::string& method, const std::string& target,
                          const std::string& body,
                          const std::string& request_id);

enum class ParseOutcome { kIncomplete, kComplete, kMalformed };
/// Takes one complete response off the front of `buffer` (status, body,
/// X-Request-Id); `close_after` reports "Connection: close".
ParseOutcome TakeResponse(std::string* buffer, HttpReply* reply,
                          bool* close_after);

class HttpConnection {
 public:
  HttpConnection() = default;
  ~HttpConnection();
  HttpConnection(HttpConnection&& other) noexcept;
  HttpConnection& operator=(HttpConnection&& other) noexcept;
  HttpConnection(const HttpConnection&) = delete;
  HttpConnection& operator=(const HttpConnection&) = delete;

  static cpd::StatusOr<HttpConnection> Connect(int port);
  /// One request/response exchange; reconnects first if the previous
  /// response closed the connection.
  cpd::StatusOr<HttpReply> RoundTrip(const std::string& method,
                                     const std::string& target,
                                     const std::string& body = "",
                                     const std::string& request_id = "");

 private:
  void Close();
  int fd_ = -1;
  int port_ = 0;
  std::string buffer_;  ///< Bytes read past the previous response.
};

}  // namespace cpdbench

#endif  // CPDBENCH_PROC_H_
