#include "proc.h"

#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "bench_util.h"

namespace cpdbench {

ChildProcess& ChildProcess::operator=(ChildProcess&& other) noexcept {
  if (this != &other) {
    Stop(10.0);
    pid_ = other.pid_;
    exit_code_ = other.exit_code_;
    other.pid_ = -1;
  }
  return *this;
}

cpd::StatusOr<ChildProcess> ChildProcess::Spawn(
    const std::vector<std::string>& argv, const std::string& log_path) {
  if (argv.empty() || ::access(argv[0].c_str(), X_OK) != 0) {
    return cpd::Status::NotFound("not executable: " +
                                 (argv.empty() ? std::string() : argv[0]));
  }
  std::vector<char*> args;
  for (const std::string& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
  args.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) return cpd::Status::Unavailable("fork failed");
  if (pid == 0) {
    const int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (log >= 0) {
      ::dup2(log, STDOUT_FILENO);
      ::dup2(log, STDERR_FILENO);
      ::close(log);
    }
    const int devnull = ::open("/dev/null", O_RDONLY);
    if (devnull >= 0) {
      ::dup2(devnull, STDIN_FILENO);
      ::close(devnull);
    }
    ::execv(args[0], args.data());
    _exit(127);
  }
  ChildProcess child;
  child.pid_ = pid;
  return child;
}

bool ChildProcess::Running() {
  if (pid_ < 0) return false;
  int status = 0;
  const pid_t r = ::waitpid(pid_, &status, WNOHANG);
  if (r == 0) return true;
  exit_code_ = WIFEXITED(status) ? WEXITSTATUS(status)
                                 : 128 + (WIFSIGNALED(status) ? WTERMSIG(status) : 0);
  pid_ = -1;
  return false;
}

int ChildProcess::Stop(double grace_seconds) {
  if (pid_ < 0) return exit_code_;
  ::kill(pid_, SIGTERM);
  const double deadline = NowSeconds() + grace_seconds;
  while (Running()) {
    if (NowSeconds() > deadline) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
      exit_code_ = 128 + SIGKILL;
      break;
    }
    ::usleep(2000);
  }
  return exit_code_;
}

int FreeLoopbackPort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  int port = 0;
  socklen_t len = sizeof(addr);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port = ntohs(addr.sin_port);
  }
  ::close(fd);
  return port;
}

std::vector<pid_t> ChildPids(const std::string& command) {
  std::vector<pid_t> pids;
  DIR* proc = ::opendir("/proc");
  if (proc == nullptr) return pids;
  const pid_t self = ::getpid();
  while (dirent* entry = ::readdir(proc)) {
    const pid_t pid = static_cast<pid_t>(std::atoi(entry->d_name));
    if (pid <= 0) continue;
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string stat((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const size_t open = stat.find('(');
    const size_t close = stat.rfind(')');
    if (open == std::string::npos || close == std::string::npos) continue;
    const std::string comm = stat.substr(open + 1, close - open - 1);
    std::istringstream rest(stat.substr(close + 2));
    std::string state;
    pid_t ppid = 0;
    rest >> state >> ppid;
    if (ppid == self && comm == command.substr(0, 15)) pids.push_back(pid);
  }
  ::closedir(proc);
  return pids;
}

HttpConnection::~HttpConnection() { Close(); }

HttpConnection::HttpConnection(HttpConnection&& other) noexcept
    : fd_(other.fd_), port_(other.port_), buffer_(std::move(other.buffer_)) {
  other.fd_ = -1;
}

HttpConnection& HttpConnection::operator=(HttpConnection&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    port_ = other.port_;
    buffer_ = std::move(other.buffer_);
    other.fd_ = -1;
  }
  return *this;
}

void HttpConnection::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

cpd::StatusOr<HttpConnection> HttpConnection::Connect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return cpd::Status::Unavailable("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return cpd::Status::Unavailable(std::string("connect: ") +
                                    std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  HttpConnection connection;
  connection.fd_ = fd;
  connection.port_ = port;
  return connection;
}

std::string FormatRequest(const std::string& method, const std::string& target,
                          const std::string& body,
                          const std::string& request_id) {
  std::string request = method + " " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  if (!request_id.empty()) request += "X-Request-Id: " + request_id + "\r\n";
  if (!body.empty()) request += "Content-Type: application/json\r\n";
  request += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  request += body;
  return request;
}

ParseOutcome TakeResponse(std::string* buffer, HttpReply* reply,
                          bool* close_after) {
  const size_t head_end = buffer->find("\r\n\r\n");
  if (head_end == std::string::npos) return ParseOutcome::kIncomplete;
  const std::string head = buffer->substr(0, head_end);
  if (head.size() < 12 || head.compare(0, 5, "HTTP/") != 0) {
    return ParseOutcome::kMalformed;
  }
  size_t content_length = 0;
  bool close = false;
  std::string request_id;
  size_t pos = head.find("\r\n");
  while (pos != std::string::npos && pos < head.size()) {
    const size_t next = head.find("\r\n", pos + 2);
    const std::string line = head.substr(
        pos + 2, (next == std::string::npos ? head.size() : next) - pos - 2);
    const size_t colon = line.find(':');
    if (colon != std::string::npos) {
      std::string name = line.substr(0, colon);
      for (char& c : name) c = static_cast<char>(std::tolower(c));
      std::string value = line.substr(colon + 1);
      while (!value.empty() && value.front() == ' ') value.erase(0, 1);
      if (name == "content-length") {
        content_length = std::strtoull(value.c_str(), nullptr, 10);
      } else if (name == "x-request-id") {
        request_id = value;
      } else if (name == "connection" && value == "close") {
        close = true;
      }
    }
    pos = next;
  }
  if (buffer->size() < head_end + 4 + content_length) {
    return ParseOutcome::kIncomplete;
  }
  reply->status = std::atoi(head.c_str() + 9);
  reply->request_id = std::move(request_id);
  reply->body = buffer->substr(head_end + 4, content_length);
  buffer->erase(0, head_end + 4 + content_length);
  *close_after = close;
  return ParseOutcome::kComplete;
}

cpd::StatusOr<HttpReply> HttpConnection::RoundTrip(const std::string& method,
                                                   const std::string& target,
                                                   const std::string& body,
                                                   const std::string& request_id) {
  if (fd_ < 0) {
    auto reconnected = Connect(port_);
    if (!reconnected.ok()) return reconnected.status();
    *this = std::move(*reconnected);
  }
  const std::string request = FormatRequest(method, target, body, request_id);
  HttpReply reply;
  reply.sent_us = NowUs();
  size_t written = 0;
  while (written < request.size()) {
    const ssize_t n = ::send(fd_, request.data() + written,
                             request.size() - written, MSG_NOSIGNAL);
    if (n <= 0) {
      Close();
      return cpd::Status::Unavailable("send failed");
    }
    written += static_cast<size_t>(n);
  }
  bool close_after = false;
  char chunk[65536];
  while (true) {
    const ParseOutcome outcome = TakeResponse(&buffer_, &reply, &close_after);
    if (outcome == ParseOutcome::kComplete) break;
    if (outcome == ParseOutcome::kMalformed) {
      Close();
      return cpd::Status::Internal("malformed response");
    }
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      Close();
      return cpd::Status::Unavailable("connection closed mid-response");
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
  reply.done_us = NowUs();
  if (close_after) Close();
  return reply;
}

}  // namespace cpdbench
