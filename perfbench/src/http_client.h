// A minimal blocking HTTP/1.1 client (keep-alive, Content-Length bodies)
// for the open-loop load generator. It is part of the benchmark, not of
// the program under test, so a change to the server's own HTTP code
// cannot change how the load is offered.
#ifndef PERFBENCH_HTTP_CLIENT_H_
#define PERFBENCH_HTTP_CLIENT_H_

#include <cstdint>
#include <string>

namespace perfbench {

struct HttpResult {
  int status = 0;  // 0: no response (connect/IO error or timeout)
  std::string body;
};

class HttpConnection {
 public:
  HttpConnection(uint16_t port, int timeout_ms);
  ~HttpConnection();
  HttpConnection(const HttpConnection&) = delete;
  HttpConnection& operator=(const HttpConnection&) = delete;

  /// One request/response exchange on 127.0.0.1:port. Reconnects first
  /// when the previous exchange failed or the server closed the socket.
  HttpResult Exchange(const std::string& method, const std::string& path,
                      const std::string& body);

 private:
  bool Connect();
  void Close();

  uint16_t port_;
  int timeout_ms_;
  int fd_ = -1;
  std::string buffer_;
};

/// One-shot GET; status 0 on failure.
HttpResult HttpGet(uint16_t port, const std::string& path,
                   int timeout_ms = 5000);

}  // namespace perfbench

#endif  // PERFBENCH_HTTP_CLIENT_H_
