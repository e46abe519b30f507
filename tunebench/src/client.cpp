#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "tunebench.hpp"

namespace tunebench {

LineConn::LineConn(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw std::runtime_error("socket: " + std::string(strerror(errno)));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string why = strerror(errno);
    ::close(fd_);
    throw std::runtime_error("connect: " + why);
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

LineConn::~LineConn() {
  if (fd_ >= 0) ::close(fd_);
}

void LineConn::send(const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd_, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("send: " + std::string(strerror(errno)));
    }
    off += static_cast<std::size_t>(n);
  }
}

bool LineConn::pop_line(std::string& line) {
  const std::size_t nl = buf_.find('\n', off_);
  if (nl == std::string::npos) {
    if (off_ > 0) {
      buf_.erase(0, off_);
      off_ = 0;
    }
    return false;
  }
  line.assign(buf_, off_, nl - off_);
  off_ = nl + 1;
  return true;
}

void LineConn::fill() {
  char chunk[16384];
  for (;;) {
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n > 0) {
      buf_.append(chunk, static_cast<std::size_t>(n));
      return;
    }
    if (n == 0) throw std::runtime_error("server closed the connection");
    if (errno != EINTR)
      throw std::runtime_error("recv: " + std::string(strerror(errno)));
  }
}

std::string LineConn::read_line(int timeout_ms) {
  std::string line;
  while (!pop_line(line)) {
    pollfd p{fd_, POLLIN, 0};
    const int r = ::poll(&p, 1, timeout_ms);
    if (r == 0) throw std::runtime_error("no answer within timeout");
    if (r < 0 && errno != EINTR)
      throw std::runtime_error("poll: " + std::string(strerror(errno)));
    if (r > 0) fill();
  }
  return line;
}

}  // namespace tunebench
