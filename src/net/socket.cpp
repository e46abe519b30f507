#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <future>
#include <stdexcept>
#include <system_error>
#include <vector>

#include "support/failpoint.hpp"

namespace ilc::net {

void Fd::reset() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

}  // namespace

Fd listen_tcp(std::uint16_t port, std::uint16_t& bound_port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  if (!fd.valid()) throw_errno("socket");
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr = loopback_addr(port);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0)
    throw_errno("bind 127.0.0.1:" + std::to_string(port));
  // The netload bench connects >1000 clients in a burst; a deep backlog
  // keeps the handshakes from being refused before the acceptor drains.
  if (::listen(fd.get(), 4096) < 0) throw_errno("listen");
  socklen_t len = sizeof addr;
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&addr), &len) < 0)
    throw_errno("getsockname");
  bound_port = ntohs(addr.sin_port);
  return fd;
}

Fd connect_tcp(std::uint16_t port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return Fd{};
  sockaddr_in addr = loopback_addr(port);
  for (;;) {
    if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                  sizeof addr) == 0)
      break;
    if (errno == EINPROGRESS) break;  // handshake in flight: poll for write
    if (errno == EINTR) continue;
    return Fd{};
  }
  const int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

Fd accept_conn(int listen_fd, bool* dropped) {
  if (dropped != nullptr) *dropped = false;
  for (;;) {
    const int fd =
        ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // EAGAIN, and also the transient per-connection errors accept can
      // report (ECONNABORTED): nothing usable this round.
      return Fd{};
    }
    Fd conn(fd);
    if (support::failpoint("net.accept")) {
      // Injected accept fault: the connection dies before the server
      // ever sees a byte, exactly like a handshake torn down by the peer.
      if (dropped != nullptr) *dropped = true;
      return Fd{};
    }
    const int one = 1;
    ::setsockopt(conn.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return conn;
  }
}

IoResult read_some(int fd, char* buf, std::size_t n) {
  if (support::failpoint("net.read")) return {IoStatus::Error, 0};
  for (;;) {
    const ssize_t r = ::read(fd, buf, n);
    if (r > 0) return {IoStatus::Ok, static_cast<std::size_t>(r)};
    if (r == 0) return {IoStatus::Eof, 0};
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      return {IoStatus::WouldBlock, 0};
    return {IoStatus::Error, 0};
  }
}

IoResult write_some(int fd, const char* buf, std::size_t n) {
  // Injected short write: move a single byte so the caller's buffered-
  // write machinery (partial-flush bookkeeping, EPOLLOUT re-arming) is
  // exercised deterministically rather than only under kernel pressure.
  if (n > 1 && support::failpoint("net.write")) n = 1;
  for (;;) {
    const ssize_t r = ::send(fd, buf, n, MSG_NOSIGNAL);
    if (r >= 0) return {IoStatus::Ok, static_cast<std::size_t>(r)};
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      return {IoStatus::WouldBlock, 0};
    return {IoStatus::Error, 0};
  }
}

namespace {

bool wait_for(int fd, short events, int timeout_ms) {
  pollfd p{};
  p.fd = fd;
  p.events = events;
  for (;;) {
    const int r = ::poll(&p, 1, timeout_ms);
    if (r > 0) return true;   // ready, or POLLERR/POLLHUP — caller's IO
    if (r == 0) return false; // will surface the condition either way
    if (errno == EINTR) continue;
    return true;  // poll itself failed: let the IO call report the error
  }
}

}  // namespace

bool wait_readable(int fd, int timeout_ms) {
  return wait_for(fd, POLLIN, timeout_ms);
}

bool wait_writable(int fd, int timeout_ms) {
  return wait_for(fd, POLLOUT, timeout_ms);
}

std::size_t ensure_fd_capacity(std::size_t need) {
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) return 0;
  if (lim.rlim_cur != RLIM_INFINITY && lim.rlim_cur < need) {
    rlimit want = lim;
    want.rlim_cur = lim.rlim_max == RLIM_INFINITY
                        ? static_cast<rlim_t>(need)
                        : std::min<rlim_t>(lim.rlim_max,
                                           static_cast<rlim_t>(need));
    if (::setrlimit(RLIMIT_NOFILE, &want) == 0) lim = want;
  }
  return lim.rlim_cur == RLIM_INFINITY ? need
                                       : static_cast<std::size_t>(lim.rlim_cur);
}

// ---- SessionAcceptor -----------------------------------------------------

SessionAcceptor::SessionAcceptor(std::uint16_t port, SessionFn session)
    : session_(std::move(session)) {
  listen_ = listen_tcp(port, port_);
  acceptor_ = std::thread(&SessionAcceptor::accept_loop, this);
}

void SessionAcceptor::stop() {
  if (stop_.exchange(true)) return;
  acceptor_.join();
  listen_.reset();
}

void SessionAcceptor::accept_loop() {
  // A std::async future joins its thread when it is destroyed: erasing a
  // ready one reaps a finished session, and leaving this scope joins the
  // ones still running.
  std::vector<std::future<void>> sessions;
  while (!stop_.load()) {
    std::erase_if(sessions, [](const std::future<void>& f) {
      return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
    });
    if (!wait_readable(listen_.get(), 50)) continue;
    Fd conn = accept_conn(listen_.get(), nullptr);
    if (!conn.valid()) continue;
    try {
      if (support::failpoint("net.spawn"))
        throw std::system_error(EAGAIN, std::generic_category(), "net.spawn");
      // noexcept: a session that throws ends the process, as it would on
      // a plain thread, instead of vanishing into a discarded future.
      sessions.push_back(std::async(
          std::launch::async, [this, fd = std::move(conn)]() mutable noexcept {
            ++live_;
            session_(std::move(fd), stop_);
            --live_;
          }));
    } catch (const std::system_error&) {
      // Out of threads: this connection closes, the ones running go on.
    }
  }
}

}  // namespace ilc::net
