#ifndef CPD_DIST_TRANSPORT_H_
#define CPD_DIST_TRANSPORT_H_

/// \file transport.h
/// Thin POSIX socket layer under the distributed E-step: framed send/recv
/// over connected stream sockets, loopback listen/accept/connect helpers,
/// and local worker-process spawning. Connection loss surfaces as
/// Status::Unavailable so the coordinator can tell "peer died" (re-dispatch)
/// apart from "peer sent garbage" (protocol error, InvalidArgument /
/// OutOfRange from the wire codec).

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "dist/wire.h"
#include "util/status.h"

namespace cpd::dist {

/// Writes exactly n bytes; Unavailable on EPIPE/reset.
Status SendAll(int fd, const void* data, size_t n);

/// Reads exactly n bytes; Unavailable on EOF or reset.
Status RecvAll(int fd, void* data, size_t n);

/// Frames `body` as `type` and writes it. On success adds the full frame
/// size to *bytes_out (may be null).
Status SendFrame(int fd, MsgType type, std::string_view body,
                 uint64_t* bytes_out = nullptr);

/// Reads one complete frame (header, then body). Adds the bytes read to
/// *bytes_in (may be null). Unavailable on connection loss, wire-codec
/// errors on malformed headers.
StatusOr<Frame> RecvFrame(int fd, uint64_t* bytes_in = nullptr);

/// Binds + listens on 127.0.0.1 with an OS-assigned port, returned through
/// *port. Returns the listening fd.
StatusOr<int> ListenOnLoopback(uint16_t* port);

/// Binds + listens on the given fixed port, all interfaces (the pre-started
/// cpd_worker --listen mode). Returns the listening fd.
StatusOr<int> ListenOnPort(uint16_t port);

/// Accepts one connection, waiting at most timeout_ms (DeadlineExceeded on
/// timeout; negative waits forever). The accepted socket has TCP_NODELAY
/// set.
StatusOr<int> AcceptWithTimeout(int listen_fd, int timeout_ms);

/// Connects to a numeric IPv4 "HOST:PORT" (the ParseIpv4Endpoint grammar).
/// TCP_NODELAY is set.
StatusOr<int> ConnectTo(const std::string& addr);

/// fork+exec of `binary --connect 127.0.0.1:<port> <extra_args...>`.
/// Returns the child pid; the child's stdin is /dev/null.
StatusOr<pid_t> SpawnWorkerProcess(const std::string& binary, uint16_t port,
                                   const std::vector<std::string>& extra_args);

}  // namespace cpd::dist

#endif  // CPD_DIST_TRANSPORT_H_
