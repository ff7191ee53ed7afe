#include "dist/transport.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>

#include "util/string_util.h"

namespace cpd::dist {

namespace {

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

/// Hard ceiling on a frame body; the largest legitimate message (the Setup
/// graph) is far below this, so anything bigger is a corrupt or hostile
/// length prefix, not data.
constexpr uint64_t kMaxFrameBody = uint64_t{1} << 33;  // 8 GiB

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

Status SendAll(int fd, const void* data, size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    // MSG_NOSIGNAL: a dead peer must surface as a Status, not SIGPIPE.
    const ssize_t written = ::send(fd, p, n, MSG_NOSIGNAL);
    if (written < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(Errno("send"));
    }
    p += written;
    n -= static_cast<size_t>(written);
  }
  return Status::OK();
}

Status RecvAll(int fd, void* data, size_t n) {
  char* p = static_cast<char*>(data);
  while (n > 0) {
    const ssize_t got = ::recv(fd, p, n, 0);
    if (got < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(Errno("recv"));
    }
    if (got == 0) return Status::Unavailable("connection closed by peer");
    p += got;
    n -= static_cast<size_t>(got);
  }
  return Status::OK();
}

Status SendFrame(int fd, MsgType type, std::string_view body,
                 uint64_t* bytes_out) {
  std::string frame;
  frame.reserve(kFrameHeaderBytes + body.size());
  AppendFrame(&frame, type, body);
  CPD_RETURN_IF_ERROR(SendAll(fd, frame.data(), frame.size()));
  if (bytes_out != nullptr) *bytes_out += frame.size();
  return Status::OK();
}

StatusOr<Frame> RecvFrame(int fd, uint64_t* bytes_in) {
  char header[kFrameHeaderBytes];
  CPD_RETURN_IF_ERROR(RecvAll(fd, header, sizeof(header)));
  auto decoded = DecodeFrameHeader(std::string_view(header, sizeof(header)));
  if (!decoded.ok()) return decoded.status();
  if (decoded->body_length > kMaxFrameBody) {
    return Status::InvalidArgument("wire: implausible frame body length " +
                                   std::to_string(decoded->body_length));
  }
  Frame frame;
  frame.type = decoded->type;
  frame.body.resize(decoded->body_length);
  if (decoded->body_length > 0) {
    CPD_RETURN_IF_ERROR(RecvAll(fd, frame.body.data(), frame.body.size()));
  }
  if (bytes_in != nullptr) {
    *bytes_in += kFrameHeaderBytes + frame.body.size();
  }
  return frame;
}

namespace {

StatusOr<int> ListenOn(uint32_t host_order_addr, uint16_t port,
                       uint16_t* bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Unavailable(Errno("socket"));
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(host_order_addr);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status s = Status::Unavailable(Errno("bind"));
    ::close(fd);
    return s;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    const Status s = Status::Unavailable(Errno("getsockname"));
    ::close(fd);
    return s;
  }
  if (::listen(fd, SOMAXCONN) != 0) {
    const Status s = Status::Unavailable(Errno("listen"));
    ::close(fd);
    return s;
  }
  if (bound_port != nullptr) *bound_port = ntohs(addr.sin_port);
  return fd;
}

}  // namespace

StatusOr<int> ListenOnLoopback(uint16_t* port) {
  return ListenOn(INADDR_LOOPBACK, 0, port);
}

StatusOr<int> ListenOnPort(uint16_t port) {
  return ListenOn(INADDR_ANY, port, nullptr);
}

StatusOr<int> AcceptWithTimeout(int listen_fd, int timeout_ms) {
  pollfd pfd{listen_fd, POLLIN, 0};
  for (;;) {
    const int r = ::poll(&pfd, 1, timeout_ms);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(Errno("poll"));
    }
    if (r == 0) {
      return Status::DeadlineExceeded("timed out waiting for a worker to connect");
    }
    break;
  }
  const int fd = ::accept(listen_fd, nullptr, nullptr);
  if (fd < 0) return Status::Unavailable(Errno("accept"));
  SetNoDelay(fd);
  return fd;
}

StatusOr<int> ConnectTo(const std::string& addr) {
  const auto endpoint = ParseIpv4Endpoint(addr);
  if (!endpoint.ok()) return endpoint.status();
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(endpoint->port);
  sa.sin_addr.s_addr = endpoint->address;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Unavailable(Errno("socket"));
  for (;;) {
    if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) == 0) break;
    if (errno == EINTR) continue;
    const Status s = Status::Unavailable(Errno("connect " + addr));
    ::close(fd);
    return s;
  }
  SetNoDelay(fd);
  return fd;
}

StatusOr<pid_t> SpawnWorkerProcess(const std::string& binary, uint16_t port,
                                   const std::vector<std::string>& extra_args) {
  if (::access(binary.c_str(), X_OK) != 0) {
    return Status::NotFound("worker binary not executable: " + binary);
  }
  const std::string connect_arg = "127.0.0.1:" + std::to_string(port);
  const pid_t pid = ::fork();
  if (pid < 0) return Status::Unavailable(Errno("fork"));
  if (pid == 0) {
    const int devnull = ::open("/dev/null", O_RDONLY);
    if (devnull >= 0) {
      ::dup2(devnull, STDIN_FILENO);
      ::close(devnull);
    }
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(binary.c_str()));
    static const char kConnect[] = "--connect";
    argv.push_back(const_cast<char*>(kConnect));
    argv.push_back(const_cast<char*>(connect_arg.c_str()));
    for (const std::string& a : extra_args) {
      argv.push_back(const_cast<char*>(a.c_str()));
    }
    argv.push_back(nullptr);
    ::execv(binary.c_str(), argv.data());
    _exit(127);
  }
  return pid;
}

}  // namespace cpd::dist
