#pragma once
/// \file socket.hpp
/// Thin POSIX TCP plumbing for src/net/: listen/connect helpers, an
/// owning fd wrapper, and a buffered reader/writer with the bounded
/// line-read semantics the serving core (api/server.hpp) requires.
///
/// Everything here is deliberately boring: blocking sockets, one
/// syscall wrapper per concept, no event loop.  Concurrency lives a
/// layer up (net::Server runs a thread per connection); graceful drain
/// works by `::shutdown(fd, SHUT_RD)` from the acceptor — in-flight
/// reads return EOF while the write side stays open for the final
/// structured shutdown response.
///
/// All writes use MSG_NOSIGNAL so a peer that went away surfaces as a
/// write *error* (which the serving core counts and acts on) instead of
/// a process-killing SIGPIPE.

#include <cstddef>
#include <cstdint>
#include <string>

#include "api/server.hpp"

namespace atcd::obs {
class Counter;
}  // namespace atcd::obs

namespace atcd::net {

/// Owning file descriptor.  Move-only; closes on destruction.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  Fd(Fd&& o) noexcept : fd_(o.release()) {}
  Fd& operator=(Fd&& o) noexcept;
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  ~Fd() { reset(); }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release();
  void reset(int fd = -1);

 private:
  int fd_ = -1;
};

/// Binds and listens on host:port (IPv4 dotted quad or "localhost").
/// port 0 binds an ephemeral port — read it back with local_port().
/// Returns an invalid Fd and sets \p error on failure.
Fd listen_tcp(const std::string& host, std::uint16_t port, int backlog,
              std::string* error);

/// Blocking connect to host:port.  Returns an invalid Fd and sets
/// \p error on failure.
Fd connect_tcp(const std::string& host, std::uint16_t port,
               std::string* error);

/// Splits a `host:port` command-line spec at its last ':'.  The port
/// must be 1-5 decimal digits and at most 65535; 0 is accepted (an
/// ephemeral bind for listen_tcp).  The host is checked later, by
/// listen_tcp / connect_tcp.  Returns false and sets \p error on a
/// missing ':' or an empty, non-numeric, trailing-garbage or
/// out-of-range port.
bool parse_host_port(const std::string& spec, std::string* host,
                     std::uint16_t* port, std::string* error);

/// The locally bound port of a socket (resolves ephemeral binds).
std::uint16_t local_port(int fd);

/// Disables Nagle so one-line requests/responses don't wait out the
/// coalescing timer.
void set_nodelay(int fd);

/// Optional byte-flow instruments a BufferedFd reports into; null
/// members are simply not counted.
struct ByteCounters {
  obs::Counter* read = nullptr;
  obs::Counter* written = nullptr;
};

/// Buffered reader/writer over a connected socket.  Owns the fd.
///
/// read_line implements the LineTransport bounded-read contract: an
/// overlong line is discarded chunk by chunk as it arrives, never
/// accumulated, and reported as TooLong once.  read_exact serves the
/// HTTP transport's Content-Length body reads.
class BufferedFd {
 public:
  using ReadStatus = api::LineTransport::ReadStatus;

  explicit BufferedFd(Fd fd, ByteCounters counters = {})
      : fd_(std::move(fd)), counters_(counters) {}

  int fd() const { return fd_.get(); }

  /// Reads one '\n'-terminated line (terminator stripped; a trailing
  /// '\r' is stripped too, so HTTP header lines read naturally).  A
  /// partial line at EOF comes back as Line; the next call reports Eof.
  ReadStatus read_line(std::string& line, std::size_t max_bytes);

  /// Reads exactly \p n bytes into \p out.  False on EOF/error first.
  bool read_exact(std::string& out, std::size_t n);

  /// Writes all of \p data (looping over partial sends, MSG_NOSIGNAL).
  bool write_all(const char* data, std::size_t n);
  bool write_all(const std::string& data) {
    return write_all(data.data(), data.size());
  }

 private:
  /// Refills rbuf_ from the socket; false on EOF or error.
  bool fill();

  Fd fd_;
  ByteCounters counters_;
  std::string rbuf_;
  std::size_t pos_ = 0;  ///< consumed prefix of rbuf_
};

}  // namespace atcd::net
