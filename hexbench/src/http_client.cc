#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <strings.h>

namespace hexbench {

bool HttpClient::Connect(std::uint16_t port) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    return false;
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Close();
    return false;
  }
  return true;
}

void HttpClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

bool HttpClient::Request(const std::string& method, const std::string& target,
                         const std::string& body, HttpReply* reply) {
  if (fd_ < 0) {
    return false;
  }
  std::string wire = method + " " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  if (!body.empty() || method == "POST") {
    wire += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  wire += "\r\n";
  wire += body;
  std::size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n = ::send(fd_, wire.data() + sent, wire.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }

  auto fill = [this]() {
    char chunk[64 * 1024];
    for (;;) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n <= 0) {
        return false;
      }
      buffer_.append(chunk, static_cast<std::size_t>(n));
      return true;
    }
  };
  std::size_t head_end;
  while ((head_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
    if (!fill()) {
      return false;
    }
  }
  const std::string head = buffer_.substr(0, head_end);
  // "HTTP/1.1 200 OK"
  const std::size_t sp = head.find(' ');
  if (sp == std::string::npos) {
    return false;
  }
  reply->status = std::atoi(head.c_str() + sp + 1);
  std::size_t length = 0;
  std::size_t line = head.find("\r\n");
  while (line != std::string::npos) {
    const std::size_t next = head.find("\r\n", line + 2);
    const std::string field =
        head.substr(line + 2, next == std::string::npos ? std::string::npos
                                                        : next - line - 2);
    if (strncasecmp(field.c_str(), "Content-Length:", 15) == 0) {
      length = static_cast<std::size_t>(std::strtoull(field.c_str() + 15,
                                                      nullptr, 10));
    }
    line = next;
  }
  const std::size_t body_start = head_end + 4;
  while (buffer_.size() < body_start + length) {
    if (!fill()) {
      return false;
    }
  }
  reply->body = buffer_.substr(body_start, length);
  buffer_.erase(0, body_start + length);
  return true;
}

}  // namespace hexbench
