#include "server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace cfq::server {

Client::Client(Client&& other) noexcept
    : fd_(other.fd_), buffer_(std::move(other.buffer_)) {
  other.fd_ = -1;
}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    buffer_ = std::move(other.buffer_);
    other.fd_ = -1;
  }
  return *this;
}

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

Result<Client> Client::Connect(const std::string& host, uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad server address '" + host + "'");
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status status = Status::Internal(
        "connect " + host + ":" + std::to_string(port) + ": " +
        std::strerror(errno));
    ::close(fd);
    return status;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  Client client;
  client.fd_ = fd;
  return client;
}

Result<std::string> Client::CallRaw(const std::string& line) {
  if (fd_ < 0) return Status::FailedPrecondition("client is not connected");
  const std::string out = line + "\n";
  size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t n =
        ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("send: ") + std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
  char chunk[64 * 1024];
  // Bytes of buffer_ already searched for the newline: each recv'd
  // chunk is scanned once, however many chunks a response spans.
  size_t scanned = 0;
  while (true) {
    const size_t newline = buffer_.find('\n', scanned);
    if (newline != std::string::npos) {
      std::string response;
      if (newline + 1 == buffer_.size()) {
        // The usual case: the line ends the buffer, so hand the buffer
        // itself back instead of copying it out, and give the next
        // response the same room (regrowing it from empty costs more
        // than the copy saved).
        buffer_.pop_back();
        response.swap(buffer_);
        buffer_.reserve(response.capacity());
      } else {
        response = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
      }
      return response;
    }
    scanned = buffer_.size();
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("recv: ") + std::strerror(errno));
    }
    if (n == 0) {
      return Status::Internal("server closed the connection mid-response");
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

Result<JsonValue> Client::Call(const JsonValue& request) {
  auto line = CallRaw(request.Write());
  if (!line.ok()) return line.status();
  return JsonValue::Parse(line.value());
}

}  // namespace cfq::server
