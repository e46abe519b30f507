#include "cluster/lineio.hpp"

#include <chrono>

#include "svc/protocol.hpp"

namespace ilc::cluster {

namespace {

using Clock = std::chrono::steady_clock;

int remaining_ms(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  return left.count() > 0 ? static_cast<int>(left.count()) : 0;
}

void set_err(std::string* err, const char* what) {
  if (err) *err = what;
}

}  // namespace

net::Fd connect_endpoint(const repl::Endpoint& ep, int timeout_ms,
                         std::string* err) {
  net::Fd fd = net::connect_tcp(ep.port);
  if (!fd.valid()) {
    set_err(err, "connect refused");
    return {};
  }
  if (!net::wait_writable(fd.get(), timeout_ms)) {
    set_err(err, "connect timeout");
    return {};
  }
  return fd;
}

bool write_all(int fd, const std::string& data, int timeout_ms,
               std::string* err) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  std::size_t sent = 0;
  while (sent < data.size()) {
    const net::IoResult r =
        net::write_some(fd, data.data() + sent, data.size() - sent);
    switch (r.status) {
      case net::IoStatus::Ok:
        sent += r.bytes;
        break;
      case net::IoStatus::WouldBlock: {
        const int left = remaining_ms(deadline);
        if (left == 0 || !net::wait_writable(fd, left)) {
          set_err(err, "write timeout");
          return false;
        }
        break;
      }
      default:
        set_err(err, "write error");
        return false;
    }
  }
  return true;
}

bool LineReader::next(std::string& line, int timeout_ms, std::string* err) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const std::size_t nl = buf_.find('\n');
    if (nl != std::string::npos) {
      line.assign(buf_, 0, nl);
      buf_.erase(0, nl + 1);
      return true;
    }
    if (buf_.size() > svc::kMaxRequestLine) {
      set_err(err, "line too long");
      return false;
    }
    char chunk[4096];
    const net::IoResult r = net::read_some(fd_, chunk, sizeof chunk);
    switch (r.status) {
      case net::IoStatus::Ok:
        buf_.append(chunk, r.bytes);
        break;
      case net::IoStatus::WouldBlock: {
        const int left = remaining_ms(deadline);
        if (left == 0 || !net::wait_readable(fd_, left)) {
          set_err(err, "read timeout");
          return false;
        }
        break;
      }
      case net::IoStatus::Eof:
        set_err(err, "peer closed");
        return false;
      default:
        set_err(err, "read error");
        return false;
    }
  }
}

bool request_line(const repl::Endpoint& ep, std::string request,
                  int timeout_ms, std::string& reply, std::string* err) {
  if (request.empty() || request.back() != '\n') request += '\n';
  net::Fd fd = connect_endpoint(ep, timeout_ms, err);
  if (!fd.valid()) return false;
  if (!write_all(fd.get(), request, timeout_ms, err)) return false;
  LineReader reader(fd.get());
  return reader.next(reply, timeout_ms, err);
}

}  // namespace ilc::cluster
