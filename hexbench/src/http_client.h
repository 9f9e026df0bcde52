// A minimal blocking HTTP/1.1 client over one keep-alive loopback
// connection: enough to drive the server the way a closed-loop client
// does (send a request, wait for the whole response, send the next).
#ifndef HEXBENCH_HTTP_CLIENT_H_
#define HEXBENCH_HTTP_CLIENT_H_

#include <cstdint>
#include <string>

namespace hexbench {

struct HttpReply {
  int status = 0;
  std::string body;
};

class HttpClient {
 public:
  HttpClient() = default;
  ~HttpClient() { Close(); }
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// Connects to 127.0.0.1:port (TCP_NODELAY); false on failure.
  bool Connect(std::uint16_t port);
  void Close();

  /// Sends one request and reads the whole response. False on a
  /// transport error (the reply is then unusable).
  bool Request(const std::string& method, const std::string& target,
               const std::string& body, HttpReply* reply);

 private:
  int fd_ = -1;
  std::string buffer_;  // bytes read past the previous response
};

}  // namespace hexbench

#endif  // HEXBENCH_HTTP_CLIENT_H_
