#include "net/socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "support/error.hpp"

namespace idxl::net {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw RuntimeError(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::pair<Socket, Socket> Socket::pair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
    throw_errno("socketpair");
  return {Socket(fds[0]), Socket(fds[1])};
}

Socket Socket::listen_tcp(uint16_t port, int backlog) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  Socket s(fd);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
    throw_errno("bind");
  if (::listen(fd, backlog) != 0) throw_errno("listen");
  return s;
}

Socket Socket::connect_tcp(const std::string& host, uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  Socket s(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
    throw RuntimeError("connect_tcp: bad address " + host);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
    throw_errno("connect");
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return s;
}

Socket Socket::listen_unix(const std::string& path, int backlog) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  Socket s(fd);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  IDXL_REQUIRE(path.size() < sizeof(addr.sun_path), "unix socket path too long");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
    throw_errno("bind");
  if (::listen(fd, backlog) != 0) throw_errno("listen");
  return s;
}

Socket Socket::connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  Socket s(fd);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  IDXL_REQUIRE(path.size() < sizeof(addr.sun_path), "unix socket path too long");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
    throw_errno("connect");
  return s;
}

Socket Socket::accept() const {
  for (;;) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return Socket(fd);
    }
    if (errno != EINTR) throw_errno("accept");
  }
}

uint16_t Socket::bound_port() const {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
    throw_errno("getsockname");
  return ntohs(addr.sin_port);
}

std::size_t Socket::read_some(void* buf, std::size_t len) const {
  for (;;) {
    const ssize_t n = ::recv(fd_, buf, len, 0);
    if (n >= 0) return static_cast<std::size_t>(n);
    if (errno != EINTR) throw_errno("recv");
  }
}

void Socket::write_all(const void* buf, std::size_t len) const {
  const auto* p = static_cast<const std::byte*>(buf);
  while (len > 0) {
    // MSG_NOSIGNAL: a dead peer surfaces as EPIPE, not a process-killing
    // SIGPIPE, so connection teardown stays an exception path.
    const ssize_t n = ::send(fd_, p, len, MSG_NOSIGNAL);
    if (n > 0) {
      p += n;
      len -= static_cast<std::size_t>(n);
      continue;
    }
    if (errno != EINTR) throw_errno("send");
  }
}

std::size_t Socket::write_nonblocking(const void* buf, std::size_t len) const {
  const auto* p = static_cast<const std::byte*>(buf);
  std::size_t written = 0;
  while (written < len) {
    const ssize_t n = ::send(fd_, p + written, len - written, MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n > 0) {
      written += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno != EINTR) throw_errno("send");
  }
  return written;
}

}  // namespace idxl::net
