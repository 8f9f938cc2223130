#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

namespace idxl::net {

/// Thin RAII wrapper over a connected (or listening) POSIX socket. Move-only;
/// closing is idempotent. All factories throw RuntimeError on failure —
/// there is no half-constructed state to check.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }
  Socket(Socket&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  Socket& operator=(Socket&& o) noexcept {
    if (this != &o) {
      close();
      fd_ = o.fd_;
      o.fd_ = -1;
    }
    return *this;
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void close();

  /// A connected AF_UNIX socket pair (fork-mode transport: the parent keeps
  /// one end, the child the other).
  static std::pair<Socket, Socket> pair();

  /// Listening TCP socket on 127.0.0.1:`port` (0 = ephemeral); bound_port()
  /// on the result reports the actual port.
  static Socket listen_tcp(uint16_t port, int backlog = 8);
  static Socket connect_tcp(const std::string& host, uint16_t port);

  /// Listening/connected AF_UNIX socket at `path`.
  static Socket listen_unix(const std::string& path, int backlog = 8);
  static Socket connect_unix(const std::string& path);

  Socket accept() const;
  uint16_t bound_port() const;

  /// Read up to `len` bytes. Returns 0 on orderly peer shutdown; retries
  /// EINTR; throws RuntimeError on hard errors.
  std::size_t read_some(void* buf, std::size_t len) const;

  /// Write all `len` bytes (loops over partial writes, retries EINTR).
  /// Throws RuntimeError when the peer is gone (EPIPE/ECONNRESET) — callers
  /// treat that as connection teardown, never as SIGPIPE.
  void write_all(const void* buf, std::size_t len) const;

  /// Write as much of `buf` as the socket buffer takes without blocking;
  /// returns the bytes written (0 when the buffer is full). Retries EINTR
  /// and throws RuntimeError when the peer is gone, like write_all.
  std::size_t write_nonblocking(const void* buf, std::size_t len) const;

 private:
  int fd_ = -1;
};

}  // namespace idxl::net
