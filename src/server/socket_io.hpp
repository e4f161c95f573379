// Thin POSIX stream-socket helpers shared by the daemon (listen/accept
// side) and the client library (connect side): blocking line-oriented I/O
// for the newline-delimited JSON protocol, plus Unix-domain and loopback
// TCP endpoint setup. All writes use MSG_NOSIGNAL so a client that hangs
// up mid-stream surfaces as a failed write, not a SIGPIPE.
#pragma once

#include <cstddef>
#include <filesystem>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace syn::server::io {

/// A failed or timed-out connect, naming the endpoint and the reason. A
/// distinct type so callers that probe liveness (a fleet coordinator
/// heartbeating its workers) can classify "endpoint unreachable" without
/// string-matching generic runtime_errors.
struct ConnectError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// A line longer than read_line's max_bytes: the peer is not speaking
/// the line protocol, and the rest of its stream cannot be framed.
struct LineTooLong : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Writes the whole buffer; false when the peer is gone (EPIPE and
/// friends).
bool write_all(int fd, std::string_view data);

/// Reads up to the next '\n' (not included in the result), buffering any
/// overshoot in `carry` for the following call. nullopt = clean EOF (a
/// final unterminated fragment is returned as a last line first). A line
/// longer than max_bytes throws LineTooLong; the default leaves client
/// reads (large LIST/METRICS replies) unbounded.
std::optional<std::string> read_line(
    int fd, std::string& carry,
    std::size_t max_bytes = std::numeric_limits<std::size_t>::max());

/// Binds + listens on a Unix-domain socket, replacing a stale socket file
/// if nothing is listening behind it. Throws std::runtime_error on
/// failure (including a path longer than sockaddr_un allows).
int listen_unix(const std::filesystem::path& path, int backlog);

/// Binds + listens on 127.0.0.1:port. Throws std::runtime_error.
int listen_tcp(int port, int backlog);

/// Connects to an endpoint, throwing ConnectError on failure. With
/// timeout_ms > 0 the connect itself is non-blocking and bounded: an
/// unreachable endpoint (e.g. a TCP address that silently drops SYNs)
/// reports "timed out" after timeout_ms instead of hanging the caller
/// for the kernel's minutes-long default. timeout_ms == 0 keeps the
/// plain blocking connect. The returned fd is blocking either way.
int connect_unix(const std::filesystem::path& path, int timeout_ms = 0);
int connect_tcp(const std::string& host, int port, int timeout_ms = 0);

/// Bounds every subsequent recv on `fd` (SO_RCVTIMEO): a peer that stops
/// answering surfaces as EOF to read_line after timeout_ms instead of
/// blocking the reader forever. 0 clears the bound.
void set_recv_timeout(int fd, int timeout_ms);

}  // namespace syn::server::io
