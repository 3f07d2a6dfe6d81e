#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <strings.h>

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Larger bodies are treated as malformed responses.
constexpr size_t kMaxBodyBytes = 64 << 20;

int RemainingMs(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - Clock::now())
                        .count();
  return left > 0 ? static_cast<int>(left) : 0;
}

// Waits for `events` on fd until the deadline. False on timeout/error.
bool WaitFor(int fd, short events, Clock::time_point deadline) {
  for (;;) {
    pollfd p{fd, events, 0};
    const int ms = RemainingMs(deadline);
    if (ms == 0) return false;
    const int rc = ::poll(&p, 1, ms);
    if (rc > 0) return true;
    if (rc == 0 || errno != EINTR) return false;
  }
}

// Parses the status line + headers at the front of `buf`. Returns the
// header length (including the blank line), 0 when incomplete, and
// std::string::npos when malformed.
size_t ParseHead(const std::string& buf, int* status, size_t* content_length,
                 bool* close) {
  const size_t end = buf.find("\r\n\r\n");
  if (end == std::string::npos) return 0;
  if (buf.compare(0, 9, "HTTP/1.1 ") != 0 &&
      buf.compare(0, 9, "HTTP/1.0 ") != 0) {
    return std::string::npos;
  }
  *status = std::atoi(buf.c_str() + 9);
  *content_length = 0;
  *close = false;
  size_t line = buf.find("\r\n") + 2;
  while (line < end) {
    const size_t eol = buf.find("\r\n", line);
    const std::string header = buf.substr(line, eol - line);
    const size_t colon = header.find(':');
    if (colon != std::string::npos) {
      const std::string key = header.substr(0, colon);
      const char* value = header.c_str() + colon + 1;
      while (*value == ' ') ++value;
      if (strcasecmp(key.c_str(), "content-length") == 0) {
        *content_length = std::strtoull(value, nullptr, 10);
        if (*content_length > kMaxBodyBytes) return std::string::npos;
      } else if (strcasecmp(key.c_str(), "connection") == 0 &&
                 strcasecmp(value, "close") == 0) {
        *close = true;
      }
    }
    line = eol + 2;
  }
  return end + 4;
}

}  // namespace

HttpConnection::HttpConnection(uint16_t port, int timeout_ms)
    : port_(port), timeout_ms_(timeout_ms) {}

HttpConnection::~HttpConnection() { Close(); }

void HttpConnection::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

bool HttpConnection::Connect() {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Close();
    return false;
  }
  return true;
}

HttpResult HttpConnection::Exchange(const std::string& method,
                                    const std::string& path,
                                    const std::string& body) {
  HttpResult result;
  if (fd_ < 0 && !Connect()) return result;
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms_);

  std::string request = method + " " + path +
                        " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                        "Content-Type: application/json\r\n"
                        "Content-Length: " +
                        std::to_string(body.size()) + "\r\n\r\n" + body;
  size_t sent = 0;
  while (sent < request.size()) {
    if (!WaitFor(fd_, POLLOUT, deadline)) {
      Close();
      return result;
    }
    const ssize_t n = ::send(fd_, request.data() + sent,
                             request.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      Close();
      return result;
    }
    sent += static_cast<size_t>(n);
  }

  int status = 0;
  size_t content_length = 0;
  bool close = false;
  size_t head = 0;
  char chunk[16384];
  for (;;) {
    if (head == 0) {
      head = ParseHead(buffer_, &status, &content_length, &close);
      if (head == std::string::npos) {
        Close();
        return result;
      }
    }
    if (head > 0 && buffer_.size() >= head + content_length) break;
    if (!WaitFor(fd_, POLLIN, deadline)) {
      Close();
      return result;
    }
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      Close();
      return result;
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
  result.status = status;
  result.body = buffer_.substr(head, content_length);
  buffer_.erase(0, head + content_length);
  if (close) Close();
  return result;
}

HttpResult HttpGet(uint16_t port, const std::string& path, int timeout_ms) {
  HttpConnection connection(port, timeout_ms);
  return connection.Exchange("GET", path, "");
}

}  // namespace perfbench
