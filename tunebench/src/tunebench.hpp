// Shared vocabulary of the tuning-service benchmark: the KB keys a
// workload asks about, parsed protocol answers, the answer checker, the
// loopback client, in-memory spans, and the layer replay.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "search/strategies.hpp"
#include "sim/machine.hpp"

namespace ilc::ir {}
namespace ilc::kb {}
namespace ilc::kbstore {}
namespace ilc::net {}
namespace ilc::obs {}
namespace ilc::opt {}
namespace ilc::support {}
namespace ilc::svc {}
namespace ilc::wl {}

namespace tunebench {

namespace ir = ilc::ir;
namespace kb = ilc::kb;
namespace kbstore = ilc::kbstore;
namespace net = ilc::net;
namespace obs = ilc::obs;
namespace opt = ilc::opt;
namespace search = ilc::search;
namespace sim = ilc::sim;
namespace support = ilc::support;
namespace svc = ilc::svc;
namespace wl = ilc::wl;

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

/// One knowledge-base key: (program, machine, objective). The service keys
/// its KB by the program's fingerprint, which is distinct for every suite
/// workload, so the program name stands in for it here.
struct Key {
  std::string program;
  std::string machine;  // protocol spelling: amd | c6713
  search::Objective objective = search::Objective::Cycles;

  std::string str() const;
};

const char* objective_name(search::Objective obj);
sim::MachineConfig machine_config(const std::string& machine);

/// One response line of the service protocol, parsed.
struct Answer {
  bool ok = false;
  std::string line;  // the raw line, kept for failure reports
  std::string program;
  std::string source;
  std::string config;
  std::uint64_t base = 0;
  std::uint64_t best = 0;
  std::uint64_t sims = 0;
};

/// Parse `ok program=... source=... config="..." base=N best=N ...` or an
/// `err ...` line; anything unrecognized comes back with ok=false.
Answer parse_answer(const std::string& line);

/// Independent answer checker. It never consults the service: it rebuilds
/// the workload, applies the answered pass sequence, and runs both the
/// optimized and the -O0 module on the legacy (non-decoded) interpreter.
class Checker {
 public:
  /// Empty when the answer holds; otherwise why it does not. Requires the
  /// workload's golden checksum from both runs, `base` and `best` both
  /// reproduced under the key's objective, and best <= base.
  std::string check(const Key& key, const Answer& a);

  /// Runs performed so far (memoized per program, machine and config).
  std::size_t runs() const { return runs_.size(); }

 private:
  struct Run {
    std::string error;  // trap, bad config, or wrong checksum
    std::uint64_t cycles = 0;
    std::uint64_t code_size = 0;
  };
  const Run& run(const std::string& program, const std::string& machine,
                 const std::string& config);

  std::map<std::string, Run> runs_;
};

/// Feed the checker corrupted answers (another program's config, an
/// altered best, an altered base) next to a genuine one. Empty on
/// success; otherwise which corruption slipped through.
std::string checker_self_test();

// ---------------------------------------------------------------------------
// Loopback client

/// A blocking line-oriented TCP connection to 127.0.0.1:port.
class LineConn {
 public:
  explicit LineConn(std::uint16_t port);  // throws std::runtime_error
  ~LineConn();
  LineConn(const LineConn&) = delete;
  LineConn& operator=(const LineConn&) = delete;

  int fd() const { return fd_; }
  /// Write every byte of `data` (lines already '\n'-terminated).
  void send(const std::string& data);
  /// Pop one buffered complete line, without reading the socket.
  bool pop_line(std::string& line);
  /// Read what the socket has (blocks until at least one byte or EOF).
  /// Throws on EOF or error.
  void fill();
  /// pop_line, filling as needed, up to timeout_ms. Throws on timeout.
  std::string read_line(int timeout_ms = 120000);

 private:
  int fd_ = -1;
  std::string buf_;
  std::size_t off_ = 0;
};

// ---------------------------------------------------------------------------
// Spans

/// In-memory span log of the traced run. Spans are recorded by the
/// benchmark around its own calls into the layers, kept in memory, and
/// written out once when the run ends. It is separate from obs::Tracer,
/// whose switch is process-wide: turning that on would also trace the
/// service under test.
class SpanLog {
 public:
  /// RAII span; a no-op when the log is disabled. Parents onto the
  /// innermost open span of the same log.
  class Scope {
   public:
    Scope(SpanLog& log, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    std::size_t index_ = 0;
    bool active_ = false;
  };

  bool enabled = false;

  /// Record a span measured elsewhere (a client-observed request), as a
  /// child of the innermost open span.
  void record(const char* name, Clock::time_point start,
              Clock::time_point end);

  /// Chrome trace_event JSON of every span (obs::Tracer's format).
  std::string to_json() const;

 private:
  /// A new span parented onto the innermost open one.
  obs::SpanRecord child(const char* name);
  std::uint64_t since_origin_us(Clock::time_point t) const;

  Clock::time_point origin_ = Clock::now();
  std::vector<obs::SpanRecord> spans_;
  std::vector<std::size_t> open_;  // indices of open spans, innermost last
  std::uint64_t next_id_ = 1;
};

// ---------------------------------------------------------------------------
// Layer replay

/// What the service did during the timed rounds, per (program, machine),
/// for the coverage estimate: cold answers, the evaluations they spent
/// (budget + the -O0 evaluation) and the simulations they report.
struct ColdUse {
  std::uint64_t answers = 0;
  std::uint64_t evals = 0;
  std::uint64_t sims = 0;
};

/// Replayed mean cost (us) of each stage a cold request pays, for one
/// (program, machine).
struct StageCost {
  double make_us = 0;         // wl::make_workload, once per request
  double copy_us = 0;         // module copy, per evaluation
  double sequence_us = 0;     // opt::run_sequence, per evaluation
  double fingerprint_us = 0;  // ir::fingerprint, per evaluation
  double decode_us = 0;       // decode on a program-cache miss, per sim
  double run_us = 0;          // Simulator::run, per sim
};

struct ReplayInput {
  std::vector<std::string> programs;
  std::vector<std::string> machines;
  std::uint64_t seed = 0;
  unsigned candidates = 8;  // sampled sequences per (program, machine)
  /// A KB directory of the workload, copied before it is opened.
  std::string kb_dir;
  std::string scratch_dir;
  /// Keys warm in `kb_dir` (for svc.warm_tune_us) and sample request
  /// lines and answers (for svc.parse_us / svc.format_us).
  std::vector<Key> warm_keys;
  std::vector<std::string> request_lines;
  std::vector<Answer> answers;
};

/// Push the workload's programs and a seeded sample of candidate
/// sequences through each layer's public functions, recording one span
/// per call into `log`. Returns per-layer values by metric name; stage
/// costs keyed by "program|machine" go to `stages` for the coverage
/// estimate.
std::map<std::string, double> replay_layers(
    const ReplayInput& in, SpanLog& log,
    std::map<std::string, StageCost>* stages);

}  // namespace tunebench
