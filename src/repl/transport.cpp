#include "repl/transport.hpp"

#include <chrono>

#include "support/failpoint.hpp"

namespace ilc::repl {

namespace {

/// Write the whole buffer, waiting out short writes and EAGAIN. False on
/// a hard error or a stop request.
bool write_all(int fd, const std::string& data, const std::atomic<bool>& stop,
               int timeout_ms) {
  std::size_t off = 0;
  while (off < data.size()) {
    if (stop.load(std::memory_order_relaxed)) return false;
    const net::IoResult r =
        net::write_some(fd, data.data() + off, data.size() - off);
    if (r.status == net::IoStatus::Ok) {
      off += r.bytes;
      continue;
    }
    if (r.status == net::IoStatus::WouldBlock) {
      net::wait_writable(fd, timeout_ms);
      continue;
    }
    return false;
  }
  return true;
}

/// One follower session: read its Hello, position a ShipSource (or
/// reject and hang up), then stream until the follower drops or `stop`.
void serve_follower(const std::string& dir, int interval, net::Fd fd,
                    const std::atomic<bool>& stop) {
  // Phase 1: read the follower's Hello.
  MsgReader reader;
  Msg hello;
  char buf[4096];
  for (;;) {
    if (stop.load()) return;
    const MsgReader::Status st = reader.next(hello);
    if (st == MsgReader::Status::Ok) break;
    if (st == MsgReader::Status::Corrupt) return;
    if (!net::wait_readable(fd.get(), interval)) continue;
    const net::IoResult r = net::read_some(fd.get(), buf, sizeof buf);
    if (r.status == net::IoStatus::Ok)
      reader.feed({buf, r.bytes});
    else if (r.status != net::IoStatus::WouldBlock)
      return;
  }

  // Phase 2: position the session (or reject it and hang up).
  ShipSource src(dir);
  std::string out;
  std::string why;
  if (!src.handshake(hello, out, &why)) {
    write_all(fd.get(), out, stop, interval);
    return;
  }

  // Phase 3: stream until the follower drops or we stop.
  while (!stop.load()) {
    out.clear();
    if (!src.poll(out)) return;
    if (!out.empty()) {
      // Injected torn ship: cut this batch mid-message and hang up. The
      // follower's MsgReader is left holding an undecodable tail it
      // drops on reconnect — no partial frame ever reaches its store.
      if (out.size() > 8 && support::failpoint("repl.ship")) {
        write_all(fd.get(), out.substr(0, out.size() / 2), stop, interval);
        return;
      }
      if (!write_all(fd.get(), out, stop, interval)) return;
    }
    // Idle wait doubles as peer-death detection: the follower never
    // speaks after its Hello, so readability means EOF or an error.
    if (net::wait_readable(fd.get(), interval)) {
      const net::IoResult r = net::read_some(fd.get(), buf, sizeof buf);
      if (r.status == net::IoStatus::Eof ||
          r.status == net::IoStatus::Error)
        return;
    }
  }
}

}  // namespace

// ---- ShipServer ----------------------------------------------------------

std::unique_ptr<ShipServer> ShipServer::start(std::string dir,
                                              std::uint16_t port,
                                              ShipServerOptions opts) {
  try {
    return std::unique_ptr<ShipServer>(new ShipServer(
        port, [dir = std::move(dir), interval = opts.poll_interval_ms](
                  net::Fd fd, const std::atomic<bool>& stop) {
          serve_follower(dir, interval, std::move(fd), stop);
        }));
  } catch (const std::exception&) {
    return nullptr;
  }
}

// ---- ShipClient ----------------------------------------------------------

std::unique_ptr<ShipClient> ShipClient::start(Applier& applier,
                                              std::uint16_t leader_port,
                                              ShipClientOptions opts) {
  auto c = std::unique_ptr<ShipClient>(new ShipClient());
  c->applier_ = &applier;
  c->port_ = leader_port;
  c->opts_ = opts;
  c->thread_ = std::thread(&ShipClient::run, c.get());
  return c;
}

ShipClient::~ShipClient() { stop(); }

void ShipClient::stop() {
  stop_.store(true);
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

std::string ShipClient::last_error() const {
  std::lock_guard<std::mutex> lk(err_mu_);
  return last_error_;
}

bool ShipClient::sleep_for_ms(int ms) {
  std::unique_lock<std::mutex> lk(cv_mu_);
  cv_.wait_for(lk, std::chrono::milliseconds(ms),
               [this] { return stop_.load(); });
  return !stop_.load();
}

void ShipClient::run() {
  while (!stop_.load()) {
    if (applier_->rejected()) {
      stopped_.store(true);
      return;
    }
    net::Fd fd = net::connect_tcp(port_);
    if (fd.valid()) {
      net::wait_writable(fd.get(), opts_.io_timeout_ms);
      std::string h;
      encode_msg(h, applier_->hello());
      if (write_all(fd.get(), h, stop_, opts_.io_timeout_ms)) {
        connects_.fetch_add(1);
        if (session_once(fd.get())) {
          stopped_.store(true);
          return;
        }
      }
    }
    if (!sleep_for_ms(opts_.reconnect_ms)) return;
  }
}

bool ShipClient::session_once(int fd) {
  const auto set_error = [this](std::string e) {
    std::lock_guard<std::mutex> lk(err_mu_);
    last_error_ = std::move(e);
  };
  MsgReader reader;
  char buf[65536];
  while (!stop_.load()) {
    if (!net::wait_readable(fd, opts_.io_timeout_ms)) continue;
    const net::IoResult r = net::read_some(fd, buf, sizeof buf);
    if (r.status == net::IoStatus::WouldBlock) continue;
    if (r.status != net::IoStatus::Ok) {
      set_error("connection lost");
      return false;
    }
    reader.feed({buf, r.bytes});
    Msg m;
    for (;;) {
      const MsgReader::Status st = reader.next(m);
      if (st == MsgReader::Status::NeedMore) break;
      if (st == MsgReader::Status::Corrupt) {
        set_error("corrupt replication stream");
        return false;
      }
      std::string why;
      if (!applier_->apply(m, &why)) {
        set_error(why);
        // Split-brain verdicts are final; anything else (a gap after a
        // missed batch, a stale replay) is repositioned by the next
        // handshake.
        return applier_->rejected();
      }
    }
  }
  return false;
}

}  // namespace ilc::repl
