#include "server/socket_io.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>

namespace syn::server::io {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

[[noreturn]] void fail_connect(int fd, const std::string& endpoint,
                               const std::string& reason) {
  if (fd >= 0) ::close(fd);
  throw ConnectError("connect(" + endpoint + "): " + reason);
}

/// Connects `fd` to `addr`, bounded by timeout_ms when positive: the
/// socket goes non-blocking for the connect, completion is awaited with
/// poll, and SO_ERROR delivers the verdict — so an endpoint that drops
/// SYNs costs timeout_ms, not the kernel's minutes-long default. On any
/// failure the fd is closed and a typed ConnectError names the endpoint.
void connect_or_throw(int fd, const sockaddr* addr, socklen_t len,
                      int timeout_ms, const std::string& endpoint) {
  if (timeout_ms <= 0) {
    while (::connect(fd, addr, len) < 0) {
      if (errno == EINTR) continue;
      fail_connect(fd, endpoint, std::strerror(errno));
    }
    return;
  }
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    fail_connect(fd, endpoint, std::strerror(errno));
  }
  if (::connect(fd, addr, len) < 0) {
    if (errno != EINPROGRESS && errno != EAGAIN) {
      fail_connect(fd, endpoint, std::strerror(errno));
    }
    pollfd pfd{fd, POLLOUT, 0};
    int r = 0;
    do {
      r = ::poll(&pfd, 1, timeout_ms);
    } while (r < 0 && errno == EINTR);
    if (r == 0) {
      fail_connect(fd, endpoint,
                   "timed out after " + std::to_string(timeout_ms) + " ms");
    }
    if (r < 0) fail_connect(fd, endpoint, std::strerror(errno));
    int err = 0;
    socklen_t err_len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len) < 0) {
      fail_connect(fd, endpoint, std::strerror(errno));
    }
    if (err != 0) fail_connect(fd, endpoint, std::strerror(err));
  }
  if (::fcntl(fd, F_SETFL, flags) < 0) {
    fail_connect(fd, endpoint, std::strerror(errno));
  }
}

}  // namespace

bool write_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

std::optional<std::string> read_line(int fd, std::string& carry,
                                     std::size_t max_bytes) {
  std::size_t scanned = 0;  // carry[0, scanned) holds no '\n'
  while (true) {
    const auto newline = carry.find('\n', scanned);
    if (newline != std::string::npos) {
      if (newline > max_bytes) break;
      std::string line = carry.substr(0, newline);
      carry.erase(0, newline + 1);
      return line;
    }
    scanned = carry.size();
    if (scanned > max_bytes) break;
    char buf[4096];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return std::nullopt;  // connection error == EOF for our purposes
    }
    if (n == 0) {
      if (carry.empty()) return std::nullopt;
      std::string line = std::move(carry);
      carry.clear();
      return line;  // trailing unterminated fragment
    }
    carry.append(buf, static_cast<std::size_t>(n));
  }
  throw LineTooLong("line longer than " + std::to_string(max_bytes) +
                    " bytes");
}

int listen_unix(const std::filesystem::path& path, int backlog) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  const std::string raw = path.string();
  if (raw.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("unix socket path too long (" +
                             std::to_string(raw.size()) + " >= " +
                             std::to_string(sizeof(addr.sun_path)) +
                             "): " + raw);
  }
  std::memcpy(addr.sun_path, raw.c_str(), raw.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) fail("socket(AF_UNIX)");
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    if (errno == EADDRINUSE) {
      // Either a live daemon or a stale socket file from a crashed one.
      // Probe with a connect: refusal means stale — unlink and rebind.
      const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
      const bool live =
          probe >= 0 && ::connect(probe, reinterpret_cast<const sockaddr*>(
                                             &addr),
                                  sizeof(addr)) == 0;
      if (probe >= 0) ::close(probe);
      if (!live) {
        ::unlink(addr.sun_path);
        if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)) == 0) {
          if (::listen(fd, backlog) < 0) {
            ::close(fd);
            fail("listen(" + raw + ")");
          }
          return fd;
        }
      }
      ::close(fd);
      throw std::runtime_error("socket " + raw +
                               " is in use by a running daemon");
    }
    const int saved = errno;
    ::close(fd);
    errno = saved;
    fail("bind(" + raw + ")");
  }
  if (::listen(fd, backlog) < 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    fail("listen(" + raw + ")");
  }
  return fd;
}

int listen_tcp(int port, int backlog) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) fail("socket(AF_INET)");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, backlog) < 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    fail("bind/listen(127.0.0.1:" + std::to_string(port) + ")");
  }
  return fd;
}

int connect_unix(const std::filesystem::path& path, int timeout_ms) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  const std::string raw = path.string();
  if (raw.size() >= sizeof(addr.sun_path)) {
    throw ConnectError("connect(" + raw + "): unix socket path too long");
  }
  std::memcpy(addr.sun_path, raw.c_str(), raw.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) fail("socket(AF_UNIX)");
  connect_or_throw(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr), timeout_ms, raw);
  return fd;
}

int connect_tcp(const std::string& host, int port, int timeout_ms) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw ConnectError("connect(" + host + "): invalid IPv4 address");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) fail("socket(AF_INET)");
  connect_or_throw(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr), timeout_ms,
                   host + ":" + std::to_string(port));
  return fd;
}

void set_recv_timeout(int fd, int timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = static_cast<suseconds_t>((timeout_ms % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

}  // namespace syn::server::io
