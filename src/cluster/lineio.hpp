// cluster line IO — small blocking helpers for the control plane's
// request/response exchanges over loopback TCP: health probes, registry
// lookups, and scatter-gather queries all speak newline-terminated text
// to an ilc::net socket from a dedicated thread, so a deadline-bounded
// blocking style (poll + read/write in a loop) is the right shape here,
// not the epoll event loop that serves thousands of tuning clients.
//
// Every call is bounded by a deadline: a peer that accepts the
// connection and then goes silent costs `timeout_ms`, never a hang.
#pragma once

#include <string>

#include "net/socket.hpp"
#include "repl/router.hpp"

namespace ilc::cluster {

/// Connect to `ep` (loopback; the host field is a label — ilc::net
/// sockets are 127.0.0.1-only by design) with the handshake bounded by
/// `timeout_ms`. Invalid Fd on refusal or timeout; `err` says which.
net::Fd connect_endpoint(const repl::Endpoint& ep, int timeout_ms,
                         std::string* err = nullptr);

/// Write all of `data`, polling for writability under the deadline.
bool write_all(int fd, const std::string& data, int timeout_ms,
               std::string* err = nullptr);

/// Incremental line reader over a nonblocking fd: buffers partial reads
/// across calls so multi-line responses (the registry's `get`) can be
/// consumed line by line with one deadline each.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  /// Next '\n'-terminated line (terminator stripped). False on EOF,
  /// error, deadline, or a line over svc::kMaxRequestLine; `err` says which.
  bool next(std::string& line, int timeout_ms, std::string* err = nullptr);

 private:
  int fd_;
  std::string buf_;
};

/// One-shot exchange: connect, send `request` (a '\n' is appended when
/// missing), read a single response line. The whole round trip shares
/// one `timeout_ms` budget.
bool request_line(const repl::Endpoint& ep, std::string request,
                  int timeout_ms, std::string& reply,
                  std::string* err = nullptr);

}  // namespace ilc::cluster
