#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "server/json.h"

namespace cfq::server {

namespace {

// Writes all of `data`, retrying short writes and EINTR.
bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

std::string ErrorLine(const std::string& status, const std::string& error) {
  JsonValue::Object response;
  response["status"] = status;
  response["error"] = error;
  return JsonValue(std::move(response)).Write() + "\n";
}

}  // namespace

Server::Server(const ServerOptions& options, QueryService* service)
    : options_(options), service_(service) {}

Server::~Server() {
  RequestShutdown();
  Wait();
}

Status Server::Start() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad listen address '" + options_.host +
                                   "'");
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status status = Status::Internal(
        "bind " + options_.host + ":" + std::to_string(options_.port) +
        ": " + std::strerror(errno));
    ::close(fd);
    return status;
  }
  if (::listen(fd, options_.backlog) != 0) {
    const Status status =
        Status::Internal(std::string("listen: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
      0) {
    const Status status =
        Status::Internal(std::string("getsockname: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  port_ = ntohs(bound.sin_port);
  listen_fd_.store(fd, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void Server::AcceptLoop() {
  while (!shutting_down_.load(std::memory_order_acquire)) {
    const int listen_fd = listen_fd_.load(std::memory_order_acquire);
    if (listen_fd < 0) break;
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // Listen fd closed by RequestShutdown (or fatal).
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (shutting_down_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    open_fds_[fd] = true;
    connection_threads_.emplace_back([this, fd] { ServeConnection(fd); });
  }
  // However the loop ended — drain request or a fatal accept error —
  // run the full drain (idempotent). On the fatal path this is what
  // unblocks main's Wait() and gets the metrics/audit flush to run
  // instead of the daemon wedging with a dead listener.
  RequestShutdown();
}

void Server::ServeConnection(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  // Per-connection error isolation means these faults never surface
  // past this function; the counter is what keeps them from being
  // swallowed invisibly.
  const auto count_error = [this] {
    service_->metrics()->Add("server.conn.errors");
  };
  std::string buffer;
  char chunk[64 * 1024];
  bool open = true;
  while (open) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      count_error();
      break;
    }
    if (n == 0) break;  // Peer closed (or drain half-closed us).
    buffer.append(chunk, static_cast<size_t>(n));
    if (buffer.size() > options_.max_line_bytes &&
        buffer.find('\n') == std::string::npos) {
      count_error();
      (void)SendAll(fd, ErrorLine("BAD_REQUEST", "request line too long"));
      break;
    }
    size_t start = 0;
    size_t newline;
    while ((newline = buffer.find('\n', start)) != std::string::npos) {
      std::string line = buffer.substr(start, newline - start);
      start = newline + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      std::string response_line;
      auto request = JsonValue::Parse(line);
      if (!request.ok()) {
        // Per-connection error isolation: a malformed line produces a
        // BAD_REQUEST response, not a dropped connection.
        count_error();
        response_line =
            ErrorLine("BAD_REQUEST", request.status().ToString());
      } else {
        response_line = service_->Handle(request.value()).Write();
        response_line += '\n';
      }
      if (!SendAll(fd, response_line)) {
        count_error();
        open = false;
        break;
      }
      if (service_->shutdown_requested()) {
        // The `shutdown` command drains the whole daemon, after its
        // own response has been written.
        RequestShutdown();
      }
    }
    buffer.erase(0, start);
  }
  // Mark closed and close under the lock so RequestShutdown can never
  // shut down a recycled fd number.
  std::lock_guard<std::mutex> lock(mu_);
  open_fds_[fd] = false;
  ::close(fd);
}

void Server::RequestShutdown() {
  bool expected = false;
  if (!shutting_down_.compare_exchange_strong(expected, true)) return;
  service_->BeginDrain();
  const int listen_fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (listen_fd >= 0) {
    // Closing wakes the blocked accept(); new connections stop here.
    ::shutdown(listen_fd, SHUT_RDWR);
    ::close(listen_fd);
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [fd, is_open] : open_fds_) {
    // Half-close: the pending recv returns 0 once buffered requests
    // are consumed, while responses still flow out.
    if (is_open) ::shutdown(fd, SHUT_RD);
  }
}

void Server::Wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
  // Connection threads only exit after their last response is written,
  // so joining them is what makes the drain graceful.
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mu_);
    threads.swap(connection_threads_);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
}

}  // namespace cfq::server
