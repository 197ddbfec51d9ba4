#include "net/socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "obs/metrics.hpp"

namespace atcd::net {

Fd& Fd::operator=(Fd&& o) noexcept {
  if (this != &o) reset(o.release());
  return *this;
}

int Fd::release() {
  const int fd = fd_;
  fd_ = -1;
  return fd;
}

void Fd::reset(int fd) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

namespace {

bool resolve_v4(const std::string& host, std::uint16_t port,
                sockaddr_in* addr, std::string* error) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(port);
  const std::string h =
      (host.empty() || host == "localhost") ? "127.0.0.1" : host;
  if (h == "*" || h == "0.0.0.0") {
    addr->sin_addr.s_addr = htonl(INADDR_ANY);
    return true;
  }
  if (::inet_pton(AF_INET, h.c_str(), &addr->sin_addr) != 1) {
    if (error) *error = "cannot parse IPv4 address '" + host + "'";
    return false;
  }
  return true;
}

std::string errno_string(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

Fd listen_tcp(const std::string& host, std::uint16_t port, int backlog,
              std::string* error) {
  sockaddr_in addr;
  if (!resolve_v4(host, port, &addr, error)) return Fd{};
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) {
    if (error) *error = errno_string("socket");
    return Fd{};
  }
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    if (error) *error = errno_string("bind");
    return Fd{};
  }
  if (::listen(fd.get(), backlog) != 0) {
    if (error) *error = errno_string("listen");
    return Fd{};
  }
  return fd;
}

bool parse_host_port(const std::string& spec, std::string* host,
                     std::uint16_t* port, std::string* error) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos) {
    *error = "'" + spec + "' is not host:port";
    return false;
  }
  const std::string digits = spec.substr(colon + 1);
  unsigned long value = 0;
  bool ok = !digits.empty() && digits.size() <= 5;
  for (const char c : digits) {
    if (c < '0' || c > '9') ok = false;
    value = value * 10 + static_cast<unsigned long>(c - '0');
  }
  if (!ok || value > 65535) {
    *error = "bad port '" + digits + "' in '" + spec + "' (want 0-65535)";
    return false;
  }
  *host = spec.substr(0, colon);
  *port = static_cast<std::uint16_t>(value);
  return true;
}

Fd connect_tcp(const std::string& host, std::uint16_t port,
               std::string* error) {
  sockaddr_in addr;
  if (!resolve_v4(host, port, &addr, error)) return Fd{};
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) {
    if (error) *error = errno_string("socket");
    return Fd{};
  }
  int rc;
  do {
    rc = ::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    if (error) *error = errno_string("connect");
    return Fd{};
  }
  return fd;
}

std::uint16_t local_port(int fd) {
  sockaddr_in addr;
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
    return 0;
  return ntohs(addr.sin_port);
}

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

// ---------------------------------------------------------------------------
// BufferedFd.
// ---------------------------------------------------------------------------

bool BufferedFd::fill() {
  if (pos_ > 0) {
    rbuf_.erase(0, pos_);
    pos_ = 0;
  }
  char chunk[4096];
  ssize_t n;
  do {
    n = ::recv(fd_.get(), chunk, sizeof(chunk), 0);
  } while (n < 0 && errno == EINTR);
  if (n <= 0) return false;  // peer closed (or SHUT_RD drain) / error
  if (counters_.read) counters_.read->add(static_cast<std::uint64_t>(n));
  rbuf_.append(chunk, static_cast<std::size_t>(n));
  return true;
}

BufferedFd::ReadStatus BufferedFd::read_line(std::string& line,
                                             std::size_t max_bytes) {
  line.clear();
  bool toolong = false;
  while (true) {
    const std::size_t nl = rbuf_.find('\n', pos_);
    if (nl != std::string::npos) {
      if (!toolong && line.size() + (nl - pos_) <= max_bytes)
        line.append(rbuf_, pos_, nl - pos_);
      else
        toolong = true;
      pos_ = nl + 1;
      if (toolong) {
        line.clear();
        return ReadStatus::TooLong;
      }
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return ReadStatus::Line;
    }
    // No newline buffered yet: keep at most max_bytes of payload; an
    // overlong line's surplus is dropped chunk by chunk right here, so
    // memory never exceeds the cap + one recv chunk.
    if (!toolong) {
      const std::size_t avail = rbuf_.size() - pos_;
      if (line.size() + avail <= max_bytes) {
        line.append(rbuf_, pos_, avail);
      } else {
        toolong = true;
        line.clear();
      }
    }
    rbuf_.clear();
    pos_ = 0;
    if (!fill()) {
      if (toolong) return ReadStatus::TooLong;  // unterminated overlong tail
      if (!line.empty()) {
        if (line.back() == '\r') line.pop_back();
        return ReadStatus::Line;  // partial line at EOF, like getline
      }
      return ReadStatus::Eof;
    }
  }
}

bool BufferedFd::read_exact(std::string& out, std::size_t n) {
  out.clear();
  while (out.size() < n) {
    const std::size_t avail = rbuf_.size() - pos_;
    if (avail > 0) {
      const std::size_t take = std::min(avail, n - out.size());
      out.append(rbuf_, pos_, take);
      pos_ += take;
      continue;
    }
    if (!fill()) return false;
  }
  return true;
}

bool BufferedFd::write_all(const char* data, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    ssize_t w;
    do {
      w = ::send(fd_.get(), data + off, n - off, MSG_NOSIGNAL);
    } while (w < 0 && errno == EINTR);
    if (w <= 0) return false;
    if (counters_.written) counters_.written->add(static_cast<std::uint64_t>(w));
    off += static_cast<std::size_t>(w);
  }
  return true;
}

}  // namespace atcd::net
