// tunebench — end-to-end benchmark of the tuning service.
//
// One process drives a svc::TuningService behind a net::Server over
// loopback TCP and checks every answer with an independent checker:
//
//   tune_passbound  cold genetic tunes of programs whose candidates spend
//                   28-58% of their cost in module copy, the pass pipeline
//                   and fingerprinting (README: stage shares).
//   tune_simbound   cold random tunes of programs whose candidates spend
//                   86-99% of their cost in decode and simulation.
//   serve_warm      a service restarted on a 40k-record KB answers a
//                   pipelined stream of repeat requests for all 17
//                   programs, beside a trickle of cheap Pareto misses.
//
//   tunebench --workload W --seed N --seconds S --trace 0|1 --workdir DIR
//   tunebench --workload W ... --smoke     one timed round, one set-up
//   tunebench --selftest                   checker rejects corrupt answers
//   tunebench --make-kb DIR --seed N --setup I   serve_warm's KB generator
//
// The last stdout line is one JSON object: correct, attempted, failed and
// the metrics (end-to-end with --trace 0, per-layer with --trace 1). The
// line before it, {"info": ...}, records the host, the build, tails and
// counts.
#include <dirent.h>
#include <malloc.h>
#include <poll.h>
#include <sys/types.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "kbstore/store.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "search/space.hpp"
#include "sim/program_cache.hpp"
#include "support/rng.hpp"
#include "svc/cache.hpp"
#include "svc/protocol.hpp"
#include "svc/service.hpp"
#include "tunebench.hpp"
#include "workloads/workloads.hpp"

#ifndef TUNEBENCH_BUILD_TYPE
#define TUNEBENCH_BUILD_TYPE "unknown"
#endif
#ifndef TUNEBENCH_COMPILER
#define TUNEBENCH_COMPILER "unknown"
#endif

namespace tunebench {
namespace {

namespace fs = std::filesystem;

const Clock::time_point process_start = Clock::now();

// --- workload shapes --------------------------------------------------------

const std::vector<std::string> kMachines = {"amd", "c6713"};

struct ColdShape {
  std::vector<std::string> programs;
  const char* strategy;
  unsigned budget;
};

// Pass-bound: module copy, passes and fingerprint are 28-58% of each
// candidate's cost (README: stage shares). Population 20, so a budget of
// 60 runs three generations, in which elites and duplicate children are
// evaluated again.
const ColdShape kPassBound = {
    {"adpcm", "dijkstra", "sha_lite", "histogram", "crc32"}, "genetic", 60};
// Sim-bound: decode and simulation are 86-99% of each candidate's cost.
const ColdShape kSimBound = {
    {"mcf_lite", "phased_mix", "bitcount", "treewalk", "fir"}, "random", 20};

constexpr search::Objective kAllObjectives[] = {search::Objective::Cycles,
                                                search::Objective::CodeSize,
                                                search::Objective::Pareto};

// Cold rounds: each round's keys once, one request outstanding, then a
// pipelined warm pass repeating every key of the round.
constexpr unsigned kWarmRepeats = 32;
constexpr std::size_t kWindow = 16;

// serve_warm: the KB carries the 68 real keys (17 programs x cycles/size
// x 2 machines) among this many filler keys (two records each).
constexpr std::size_t kFillerKeys = 20000;
constexpr unsigned kGenBudget = 4;  // cold tunes that generate the KB
constexpr unsigned kMissBudget = 3;
constexpr std::size_t kWarmPerMiss = 250;

constexpr unsigned kSetups = 3;  // setup_s is the median of this many

// --- host measurements -------------------------------------------------------

double clock_s(clockid_t id) {
  timespec ts{};
  if (clock_gettime(id, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}
double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }
/// CPU clock of another thread of this process (the encoding glibc's
/// pthread_getcpuclockid uses: per-thread, scheduler-accurate).
double tid_cpu_s(pid_t tid) {
  return clock_s(static_cast<clockid_t>((~static_cast<unsigned>(tid)) << 3) |
                 6);
}

std::set<pid_t> task_ids() {
  std::set<pid_t> out;
  if (DIR* d = ::opendir("/proc/self/task")) {
    while (const dirent* e = ::readdir(d))
      if (e->d_name[0] != '.') out.insert(std::atoi(e->d_name));
    ::closedir(d);
  }
  return out;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

// --- statistics -------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest of p90/p99/p99.9/p99.99 with at least ten samples beyond
/// it; pct = 0 when there are fewer than forty samples (no tail).
struct Tail {
  double value = 0, pct = 0;
  std::size_t samples = 0;
};
Tail tail(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.size() < 40) return t;
  std::sort(v.begin(), v.end());
  for (const double p : {99.99, 99.9, 99.0, 90.0}) {
    const double beyond = static_cast<double>(v.size()) * (1.0 - p / 100.0);
    if (beyond < 10.0) continue;
    const std::size_t idx = std::min(
        v.size() - 1,
        static_cast<std::size_t>(std::ceil(p / 100.0 * v.size())) - 1);
    t.value = v[idx];
    t.pct = p;
    return t;
  }
  return t;
}

// --- the service under test ---------------------------------------------------

/// A TuningService with one worker behind a two-loop net::Server, and the
/// thread ids of the service's own threads (its worker), for CPU
/// accounting.
class Stack {
 public:
  Stack(const std::string& kb_path, SpanLog& log) {
    svc::TuningService::Options opts;
    opts.workers = 1;
    opts.kb_path = kb_path;
    const std::set<pid_t> before = task_ids();
    {
      SpanLog::Scope span(log, "svc.start");
      service_ = std::make_unique<svc::TuningService>(opts);
    }
    for (const pid_t t : task_ids())
      if (!before.count(t)) service_tids_.push_back(t);
    SpanLog::Scope span(log, "net.start");
    // Two loops: connections are dealt out round-robin, so serve_warm's
    // miss connection never queues behind its warm stream.
    net::ServerOptions sopts;
    sopts.loops = 2;
    server_ = std::make_unique<net::Server>(*service_, sopts);
  }
  ~Stack() {
    server_->shutdown();
    server_.reset();
    service_.reset();
  }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  std::uint16_t port() const { return server_->port(); }
  double service_cpu_s() const {
    double s = 0;
    for (const pid_t t : service_tids_) s += tid_cpu_s(t);
    return s;
  }

 private:
  std::unique_ptr<svc::TuningService> service_;
  std::unique_ptr<net::Server> server_;
  std::vector<pid_t> service_tids_;
};

/// Before each round: empty the process-wide decoded-program cache (so
/// cold requests decode again) and hand freed heap back to the OS, so each
/// restart starts from the same heap and peak RSS records one round's
/// peak rather than fragmentation left by the rounds before it.
void fresh_process_state() {
  sim::ProgramCache::instance().clear();
  ::malloc_trim(0);
}

std::string request_line(const Key& k, const char* strategy, unsigned budget,
                         std::uint64_t seed) {
  std::ostringstream os;
  os << "tune " << k.program << " machine=" << k.machine
     << " objective=" << objective_name(k.objective)
     << " strategy=" << strategy << " budget=" << budget << " seed=" << seed
     << '\n';
  return os.str();
}

std::uint64_t derive(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  support::Rng rng(seed ^ (a * 0x9e3779b97f4a7c15ULL) ^
                   (b * 0xc2b2ae3d27d4eb4fULL));
  return rng.next_u64() >> 1;
}

struct Request {
  Key key;
  std::string line;
};

/// Client-observed outcome of one pipelined phase.
struct PipeResult {
  std::vector<double> warm_us, miss_ms;
  std::vector<Answer> warm, miss;  // in request order
  double warm_wall_s = 0;
};

/// Keep `window` requests of `warm` in flight on `a`; send miss i on `b`
/// once i * miss_every warm answers are in and miss i-1 has answered.
PipeResult pipeline(LineConn& a, LineConn* b, const std::vector<Request>& warm,
                    const std::vector<Request>& misses,
                    std::size_t miss_every, SpanLog& log) {
  PipeResult r;
  r.warm.reserve(warm.size());
  r.warm_us.reserve(warm.size());
  std::deque<Clock::time_point> sent_at;
  std::size_t sent = 0, miss_sent = 0;
  bool miss_out = false;
  Clock::time_point miss_t0;
  const Clock::time_point t0 = Clock::now();
  Clock::time_point warm_end = t0;
  std::string line, batch;
  while (r.warm.size() < warm.size() || r.miss.size() < misses.size()) {
    if (sent < warm.size() && sent - r.warm.size() < kWindow) {
      batch.clear();
      const Clock::time_point now = Clock::now();
      while (sent < warm.size() && sent - r.warm.size() < kWindow) {
        batch += warm[sent++].line;
        sent_at.push_back(now);
      }
      a.send(batch);
    }
    if (!miss_out && miss_sent < misses.size() &&
        r.warm.size() >= miss_sent * miss_every) {
      miss_t0 = Clock::now();
      b->send(misses[miss_sent++].line);
      miss_out = true;
    }
    bool progress = false;
    while (a.pop_line(line)) {
      const Clock::time_point now = Clock::now();
      log.record("request.warm", sent_at.front(), now);
      r.warm_us.push_back(
          std::chrono::duration<double, std::micro>(now - sent_at.front())
              .count());
      sent_at.pop_front();
      r.warm.push_back(parse_answer(line));
      if (r.warm.size() == warm.size()) warm_end = now;
      progress = true;
    }
    if (b != nullptr && b->pop_line(line)) {
      const Clock::time_point now = Clock::now();
      log.record("request.miss", miss_t0, now);
      r.miss_ms.push_back(
          std::chrono::duration<double, std::milli>(now - miss_t0).count());
      r.miss.push_back(parse_answer(line));
      miss_out = false;
      progress = true;
    }
    if (progress) continue;
    pollfd fds[2] = {{a.fd(), POLLIN, 0}, {b ? b->fd() : -1, POLLIN, 0}};
    const int n = ::poll(fds, b ? 2 : 1, 120000);
    if (n == 0) throw std::runtime_error("no answer within 120 s");
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("poll failed");
    }
    if (fds[0].revents) a.fill();
    if (b && fds[1].revents) b->fill();
  }
  r.warm_wall_s = std::chrono::duration<double>(warm_end - t0).count();
  return r;
}

// --- results ----------------------------------------------------------------

struct Totals {
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> wrong;  // correctness violations

  std::vector<double> cold_ms;  // send -> answer of every cold answer
  std::vector<double> warm_us;
  std::uint64_t warm_answers = 0;
  // One value per timed round; the metrics are their medians, so a burst
  // of contention from outside the process moves one round, not the run.
  std::vector<double> cold_rate;    // cold answers / s a cold one was out
  std::vector<double> cold_cpu_ms;  // CPU charged to cold answers, each
  std::vector<double> warm_rate;    // warm answers / s of the warm stream
  std::vector<double> serve_cpu_us; // process minus client CPU, per answer

  double log_speedup = 0, log_shrink = 0;
  std::uint64_t n_speedup = 0, n_shrink = 0;

  std::map<std::string, ColdUse> use;  // "program|machine"

  // per timed round, for the traced run's overhead: cpu and answers
  struct Round {
    bool traced = false;
    double cpu_s = 0;
    std::uint64_t answers = 0;
  };
  std::vector<Round> rounds;

  void quality(const Key& k, const Answer& a) {
    if (!a.ok || a.best == 0) return;
    const double ratio = static_cast<double>(a.base) / static_cast<double>(a.best);
    if (k.objective == search::Objective::CodeSize) {
      log_shrink += std::log(ratio);
      ++n_shrink;
    } else {
      log_speedup += std::log(ratio);
      ++n_speedup;
    }
  }
};

/// Distinct cold answers, checked once at the end of the run.
struct Ledger {
  std::map<std::string, std::pair<Key, Answer>> to_check;  // by key+answer
  void add(const Key& k, const Answer& a) {
    to_check.emplace(k.str() + '|' + a.config + '|' + std::to_string(a.base) +
                         '|' + std::to_string(a.best),
                     std::make_pair(k, a));
  }
};

/// A cold answer must be a search (a true miss); a failed one counts as a
/// failed operation.
void take_cold(const Key& k, const Answer& a, bool timed, Totals& t,
               Ledger& ledger) {
  if (timed) ++t.attempted;
  if (!a.ok) {
    if (timed) ++t.failed;
    t.wrong.push_back(k.str() + ": request failed: " + a.line);
    return;
  }
  if (a.source != "search")
    t.wrong.push_back(k.str() + ": cold request answered source=" + a.source);
  ledger.add(k, a);
}

/// A warm answer must come from the KB, run nothing, and equal the key's
/// cold answer.
void take_warm(const Key& k, const Answer& a, const Answer& cold, bool timed,
               Totals& t) {
  if (timed) ++t.attempted;
  if (!a.ok) {
    if (timed) ++t.failed;
    t.wrong.push_back(k.str() + ": request failed: " + a.line);
    return;
  }
  if (a.source != "warm" || a.sims != 0 || a.config != cold.config ||
      a.base != cold.base || a.best != cold.best)
    t.wrong.push_back(k.str() + ": warm answer " + a.line +
                      " differs from cold " + cold.line);
}

// --- the workloads ----------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  bool selftest = false;
  std::string make_kb;  // generator mode: the KB directory to write
  unsigned setup = 0;
  std::string workdir = ".bench_build/work";
};

struct RunState {
  const Args& args;
  SpanLog log;
  Totals t;
  Ledger ledger;
  std::vector<double> setup_s;
  std::string kb_for_replay;
  std::vector<Key> warm_keys;
  std::vector<Request> sample_requests;
  std::vector<Answer> sample_answers;
  std::vector<std::string> programs;
  /// Whether cold CPU includes submit()'s rebuild and fingerprint on the
  /// event loop (process CPU), or only the worker's search (serve_warm).
  bool cold_cpu_includes_submit = true;
  explicit RunState(const Args& a) : args(a) {}
};

/// A cold workload's keys: its programs x 2 machines x 3 objectives.
std::vector<Key> cold_keys(const ColdShape& shape) {
  std::vector<Key> keys;
  for (const std::string& p : shape.programs)
    for (const std::string& m : kMachines)
      for (const search::Objective o : kAllObjectives) keys.push_back({p, m, o});
  return keys;
}

/// One cold round: fresh KB, fresh service, emptied program cache; every
/// key once with one request outstanding, then the pipelined warm pass.
void cold_round(RunState& st, const ColdShape& shape, unsigned round,
                bool timed, const std::string& kb_dir) {
  Totals& t = st.t;
  SpanLog::Scope span(st.log, timed ? "round" : "warmup_round");
  std::vector<Key> keys = cold_keys(shape);
  support::Rng order(derive(st.args.seed, round, 1));
  for (std::size_t i = keys.size(); i > 1; --i)
    std::swap(keys[i - 1], keys[order.next_below(i)]);

  fs::remove_all(kb_dir);
  fresh_process_state();
  Stack stack(kb_dir, st.log);
  LineConn conn(stack.port());

  std::map<std::string, Answer> cold;
  const double cpu0 = process_cpu_s();
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const Key& k = keys[i];
    const std::string line = request_line(
        k, shape.strategy, shape.budget, derive(st.args.seed, round, i + 100));
    const Clock::time_point s0 = Clock::now();
    conn.send(line);
    const Answer a = parse_answer(conn.read_line());
    const Clock::time_point s1 = Clock::now();
    st.log.record("request.cold", s0, s1);
    take_cold(k, a, timed, t, st.ledger);
    cold[k.str()] = a;
    if (st.sample_requests.size() < 64) st.sample_requests.push_back({k, line});
    if (!timed || !a.ok) continue;
    t.cold_ms.push_back(std::chrono::duration<double, std::milli>(s1 - s0).count());
    t.quality(k, a);
    ColdUse& u = t.use[k.program + '|' + k.machine];
    ++u.answers;
    u.evals += shape.budget + 1;  // + the -O0 evaluation
    u.sims += a.sims;
  }
  const double cold_wall = seconds_since(t0);
  const double cold_cpu = process_cpu_s() - cpu0;

  std::vector<Request> warm;
  support::Rng wrng(derive(st.args.seed, round, 2));
  for (unsigned r = 0; r < kWarmRepeats; ++r)
    for (const Key& k : keys) warm.push_back({k, request_line(k, shape.strategy, shape.budget, 0)});
  for (std::size_t i = warm.size(); i > 1; --i)
    std::swap(warm[i - 1], warm[wrng.next_below(i)]);
  const double wcpu0 = process_cpu_s(), wclient0 = thread_cpu_s();
  const PipeResult pr = pipeline(conn, nullptr, warm, {}, 1, st.log);
  const double serve_cpu =
      (process_cpu_s() - wcpu0) - (thread_cpu_s() - wclient0);
  for (std::size_t i = 0; i < warm.size(); ++i) {
    take_warm(warm[i].key, pr.warm[i], cold[warm[i].key.str()], timed, t);
    if (st.sample_answers.size() < 64) st.sample_answers.push_back(pr.warm[i]);
  }
  if (!timed) return;
  const double n_cold = static_cast<double>(keys.size());
  t.cold_rate.push_back(n_cold / cold_wall);
  t.cold_cpu_ms.push_back(cold_cpu * 1000.0 / n_cold);
  t.warm_us.insert(t.warm_us.end(), pr.warm_us.begin(), pr.warm_us.end());
  t.warm_answers += warm.size();
  t.warm_rate.push_back(static_cast<double>(warm.size()) / pr.warm_wall_s);
  t.serve_cpu_us.push_back(serve_cpu * 1e6 / static_cast<double>(warm.size()));
  t.rounds.push_back({st.log.enabled, cold_cpu + serve_cpu, keys.size() + warm.size()});
}

/// kSetups set-ups (one with --smoke; the first timed from process start),
/// then whole timed rounds until --seconds of them have run. A traced run
/// records spans in every other timed round, for its overhead figure.
template <class Setup, class Round>
void setups_then_rounds(RunState& st, Setup setup, Round round) {
  const Args& args = st.args;
  unsigned r = 0;
  const unsigned setups = args.smoke ? 1 : kSetups;
  for (unsigned s = 0; s < setups; ++s) {
    const Clock::time_point t0 = s == 0 ? process_start : Clock::now();
    SpanLog::Scope span(st.log, "setup");
    setup(s, r++);
    st.setup_s.push_back(seconds_since(t0));
  }
  obs::Registry::instance().reset();
  const double budget_s = args.smoke ? 0.0 : args.seconds;
  double timed_s = 0;
  do {
    if (args.trace) st.log.enabled = r % 2 == 1;
    const Clock::time_point t0 = Clock::now();
    round(r++);
    timed_s += seconds_since(t0);
  } while (timed_s < budget_s);
  st.log.enabled = args.trace;
}

void run_cold(RunState& st, const ColdShape& shape) {
  st.programs = shape.programs;
  const std::string kb_dir = (fs::path(st.args.workdir) / "round_kb").string();
  setups_then_rounds(
      st, [&](unsigned, unsigned r) { cold_round(st, shape, r, false, kb_dir); },
      [&](unsigned r) { cold_round(st, shape, r, true, kb_dir); });
  st.kb_for_replay = kb_dir;
  st.warm_keys = cold_keys(shape);
}

/// serve_warm's warm keys: 17 programs x cycles, size x 2 machines.
std::vector<Key> serve_keys() {
  std::vector<Key> keys;
  for (const std::string& p : wl::workload_names())
    for (const std::string& m : kMachines)
      for (const search::Objective o :
           {search::Objective::Cycles, search::Objective::CodeSize})
        keys.push_back({p, m, o});
  return keys;
}

/// serve_warm's input generator (`--make-kb DIR`): cold-tune the warm
/// keys in-process, then bury them among filler keys and compact, so a
/// restart recovers one snapshot of tens of thousands of records. Prints
/// one response line per key, in serve_keys() order. It runs in a child
/// process so that the benchmark's peak RSS is the server's, not the
/// generator's.
int make_serve_kb(const fs::path& dir, std::uint64_t seed, unsigned setup) {
  fs::remove_all(dir);
  {
    svc::TuningService::Options opts;
    opts.workers = 1;
    opts.kb_path = dir.string();
    svc::TuningService service(opts);
    std::size_t i = 0;
    for (const Key& k : serve_keys()) {
      svc::TuningRequest req;
      req.program = k.program;
      req.machine = machine_config(k.machine);
      req.objective = k.objective;
      req.budget = kGenBudget;
      req.seed = derive(seed, setup, 1000 + i++);
      std::cout << svc::format_response(service.tune(req)) << '\n';
    }
  }
  kbstore::Options kopts;
  kopts.flush = kbstore::Options::Flush::Manual;
  auto store = kbstore::Store::open(dir.string(), kopts);
  if (!store) throw std::runtime_error("cannot open " + dir.string());
  support::Rng rng(derive(seed, setup, 3));
  const search::SequenceSpace space;
  for (std::size_t i = 0; i < kFillerKeys; ++i) {
    kb::ExperimentRecord best;
    best.program = svc::ResultCache::key(
        rng.next_u64(), i % 2 ? search::Objective::Cycles
                              : search::Objective::CodeSize);
    best.machine = i % 4 < 2 ? "amd-like" : "c6713-like";
    best.kind = "svc-best";
    best.config = search::sequence_to_string(space.sample(rng));
    best.cycles = 1000 + rng.next_below(1000000);
    kb::ExperimentRecord base = best;
    base.kind = "svc-base";
    base.config.clear();
    base.cycles = best.cycles + rng.next_below(100000);
    store->append(std::move(best));
    store->append(std::move(base));
  }
  if (!store->sync() || !store->compact())
    throw std::runtime_error("cannot compact " + dir.string());
  std::cout.flush();
  return std::cout ? 0 : 1;
}

/// Run the generator in a child process and collect its cold answers.
std::map<std::string, Answer> spawn_make_kb(RunState& st, const fs::path& dir,
                                            unsigned setup) {
  SpanLog::Scope span(st.log, "kb.generate");
  const std::string cmd = "'" + fs::read_symlink("/proc/self/exe").string() +
                          "' --make-kb '" + fs::absolute(dir).string() +
                          "' --seed " + std::to_string(st.args.seed) +
                          " --setup " + std::to_string(setup);
  FILE* child = ::popen(cmd.c_str(), "r");
  if (child == nullptr) throw std::runtime_error("cannot start " + cmd);
  std::vector<std::string> lines;
  char buf[4096];
  while (std::fgets(buf, sizeof buf, child) != nullptr) {
    std::string line(buf);
    if (!line.empty() && line.back() == '\n') line.pop_back();
    lines.push_back(std::move(line));
  }
  const int status = ::pclose(child);
  const std::vector<Key> keys = serve_keys();
  if (status != 0 || lines.size() != keys.size())
    throw std::runtime_error("KB generator failed: " + cmd);
  std::map<std::string, Answer> cold;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const Answer a = parse_answer(lines[i]);
    take_cold(keys[i], a, false, st.t, st.ledger);
    cold[keys[i].str()] = a;
  }
  return cold;
}

/// One serve_warm round: restart on a fresh copy of the pristine KB, then
/// the pipelined warm stream with one Pareto miss per kWarmPerMiss answers.
void serve_round(RunState& st, const fs::path& pristine, const fs::path& live,
                 const std::map<std::string, Answer>& cold, unsigned round,
                 bool timed) {
  Totals& t = st.t;
  SpanLog::Scope span(st.log, timed ? "round" : "warmup_round");
  {
    SpanLog::Scope restore(st.log, "kb.restore");
    fs::remove_all(live);
    fs::copy(pristine, live, fs::copy_options::recursive);
  }
  std::vector<Request> misses;
  for (const std::string& p : wl::workload_names())
    for (const std::string& m : kMachines) {
      const Key k{p, m, search::Objective::Pareto};
      misses.push_back(
          {k, request_line(k, "random", kMissBudget,
                           derive(st.args.seed, round, misses.size() + 100))});
    }
  support::Rng rng(derive(st.args.seed, round, 4));
  for (std::size_t i = misses.size(); i > 1; --i)
    std::swap(misses[i - 1], misses[rng.next_below(i)]);
  std::vector<Request> warm;
  const std::size_t n_warm = misses.size() * kWarmPerMiss;
  warm.reserve(n_warm);
  for (std::size_t i = 0; i < n_warm; ++i) {
    const Key& k = st.warm_keys[rng.next_below(st.warm_keys.size())];
    warm.push_back({k, request_line(k, "random", kMissBudget, 0)});
  }

  fresh_process_state();
  Stack stack(live.string(), st.log);
  LineConn a(stack.port()), b(stack.port());
  const double cpu0 = process_cpu_s(), client0 = thread_cpu_s(),
               svc0 = stack.service_cpu_s();
  const PipeResult pr = pipeline(a, &b, warm, misses, kWarmPerMiss, st.log);
  const double serve_cpu =
      (process_cpu_s() - cpu0) - (thread_cpu_s() - client0);
  const double miss_cpu = stack.service_cpu_s() - svc0;

  for (std::size_t i = 0; i < warm.size(); ++i)
    take_warm(warm[i].key, pr.warm[i], cold.at(warm[i].key.str()), timed, t);
  for (std::size_t i = 0; i < misses.size(); ++i)
    take_cold(misses[i].key, pr.miss[i], timed, t, st.ledger);
  if (st.sample_requests.size() < 64) {
    st.sample_requests.push_back(warm.front());
    st.sample_requests.push_back(misses.front());
    st.sample_answers.push_back(pr.warm.front());
    st.sample_answers.push_back(pr.miss.front());
  }
  if (!timed) return;
  for (std::size_t i = 0; i < warm.size(); ++i)
    t.quality(warm[i].key, pr.warm[i]);
  for (std::size_t i = 0; i < misses.size(); ++i) {
    const Answer& m = pr.miss[i];
    if (!m.ok) continue;
    t.quality(misses[i].key, m);
    ColdUse& u = t.use[misses[i].key.program + '|' + misses[i].key.machine];
    ++u.answers;
    u.evals += kMissBudget + 1;
    u.sims += m.sims;
  }
  t.cold_ms.insert(t.cold_ms.end(), pr.miss_ms.begin(), pr.miss_ms.end());
  double miss_s = 0;
  for (const double ms : pr.miss_ms) miss_s += ms / 1000.0;
  const double n_miss = static_cast<double>(misses.size());
  t.cold_rate.push_back(n_miss / miss_s);
  t.cold_cpu_ms.push_back(miss_cpu * 1000.0 / n_miss);
  t.warm_us.insert(t.warm_us.end(), pr.warm_us.begin(), pr.warm_us.end());
  t.warm_answers += warm.size();
  t.warm_rate.push_back(static_cast<double>(warm.size()) / pr.warm_wall_s);
  t.serve_cpu_us.push_back(serve_cpu * 1e6 /
                           static_cast<double>(warm.size() + misses.size()));
  t.rounds.push_back({st.log.enabled, serve_cpu, warm.size() + misses.size()});
}

void run_serve(RunState& st) {
  st.programs = wl::workload_names();
  st.cold_cpu_includes_submit = false;
  st.warm_keys = serve_keys();
  const fs::path live = fs::path(st.args.workdir) / "serve_kb_live";
  fs::path pristine;
  std::map<std::string, Answer> cold;
  setups_then_rounds(
      st,
      [&](unsigned s, unsigned r) {
        pristine = fs::path(st.args.workdir) / ("serve_kb_" + std::to_string(s));
        cold = spawn_make_kb(st, pristine, s);
        serve_round(st, pristine, live, cold, r, false);
      },
      [&](unsigned r) { serve_round(st, pristine, live, cold, r, true); });
  st.kb_for_replay = pristine.string();
}

// --- output -----------------------------------------------------------------

struct Metric {
  std::string name, unit;
  double value;
};

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i) s += ", ";
    s += '"' + ms[i].name + "\": {\"value\": " + num(ms[i].value) +
         ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return s + "}";
}

double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

int run(const Args& args) {
  fs::create_directories(args.workdir);
  RunState st(args);
  st.log.enabled = args.trace;
  {
    SpanLog::Scope span(st.log, "run");
    if (args.workload == "tune_passbound") {
      run_cold(st, kPassBound);
    } else if (args.workload == "tune_simbound") {
      run_cold(st, kSimBound);
    } else if (args.workload == "serve_warm") {
      run_serve(st);
    } else {
      std::cerr << "unknown workload " << args.workload << "\n";
      return 2;
    }
  }
  Totals& t = st.t;

  // Program-side counts of the timed rounds, read before anything else
  // touches the registry.
  const obs::RegistrySnapshot reg = obs::Registry::instance().snapshot();
  auto counter = [&](const char* name) {
    const obs::CounterValue* c = reg.counter(name);
    return c ? static_cast<double>(c->value) : 0.0;
  };
  const double sims = counter("search.simulations");
  const double memo_hits = counter("search.eval_cache.hits");
  const double pc_hits = counter("sim.program_cache.hits");
  const obs::HistogramSnapshot* req_hist = reg.histogram("net.request_us");

  // Check every distinct cold answer.
  Checker checker;
  {
    SpanLog::Scope span(st.log, "check");
    for (const auto& [id, ka] : st.ledger.to_check) {
      const std::string why = checker.check(ka.first, ka.second);
      if (!why.empty()) t.wrong.push_back(why);
    }
  }

  const double cold_n = static_cast<double>(t.cold_ms.size());
  const double cold_cpu_ms = median(t.cold_cpu_ms);
  const double setup = median(st.setup_s);
  const Tail cold_tail = tail(t.cold_ms), warm_tail = tail(t.warm_us);

  // Bounded in BENCHMARK.json: the metrics that repeat within their bound
  // on this kind of shared host. The wall-clock rates and latencies of
  // cold work and the warm rate swing with the host's steal time and
  // memory contention (see README), so they are printed in the info line
  // without a bound, as the tails are. So is the size gain: search removes
  // 0-2 instructions per program, and which keys shrink varies with the
  // seed (README).
  const std::vector<Metric> unbounded = {
      {"code_shrink_pct", "%",
       100.0 * (1.0 - std::exp(-ratio(t.log_shrink,
                                      static_cast<double>(t.n_shrink))))},
      {"cold_tunes_per_s", "1/s", median(t.cold_rate)},
      {"cold_tune_p50_ms", "ms", median(t.cold_ms)},
      {"miss_p50_ms", "ms", median(t.cold_ms)},
      {"warm_hits_per_s", "1/s", median(t.warm_rate)},
  };
  std::vector<Metric> out;
  std::string info_extra;  // traced run only
  if (!args.trace) {
    out = {
        {"setup_s", "s", setup},
        {"cold_tune_cpu_ms", "ms", cold_cpu_ms},
        {"tuned_speedup_geomean", "x",
         std::exp(ratio(t.log_speedup, static_cast<double>(t.n_speedup)))},
        {"warm_p50_us", "us", median(t.warm_us)},
        {"serve_cpu_us", "us", median(t.serve_cpu_us)},
        {"peak_rss_mb", "MB", peak_rss_mb()},
    };
  } else {
    // Layer replay after the real run, then coverage and overhead.
    ReplayInput in;
    in.programs = st.programs;
    in.machines = kMachines;
    in.seed = args.seed;
    in.candidates = args.smoke ? 2 : (st.programs.size() > 5 ? 6 : 16);
    in.kb_dir = st.kb_for_replay;
    in.scratch_dir = args.workdir;
    in.warm_keys = st.warm_keys;
    for (const Request& r : st.sample_requests) in.request_lines.push_back(r.line);
    in.answers = st.sample_answers;
    std::map<std::string, StageCost> stages;
    std::map<std::string, double> layer;
    {
      SpanLog::Scope span(st.log, "replay");
      layer = replay_layers(in, st.log, &stages);
    }
    const double evals = sims + memo_hits;
    layer["search.evals"] = ratio(evals, cold_n);
    layer["search.sims"] = ratio(sims, cold_n);
    layer["search.memo_hit_ratio"] = ratio(memo_hits, evals);
    const double pc_gets = pc_hits + sims;  // every simulation does one get
    const double pc_hit_ratio = ratio(pc_hits, pc_gets);
    layer["sim.program_cache_hit_ratio"] = pc_hit_ratio;
    layer["net.request_us"] = req_hist ? req_hist->percentile(50) : 0.0;

    // Coverage: replayed stage costs times the real counts, over the
    // measured CPU per cold answer.
    double est_us = 0;
    for (const auto& [pm, u] : t.use) {
      const StageCost& c = stages.at(pm);
      est_us += static_cast<double>(u.evals) *
                    (c.copy_us + c.sequence_us + c.fingerprint_us) +
                static_cast<double>(u.sims) *
                    (c.run_us + c.decode_us * (1.0 - pc_hit_ratio));
      if (st.cold_cpu_includes_submit)
        est_us += static_cast<double>(u.answers) *
                  (c.make_us + c.fingerprint_us);
    }
    layer["trace.coverage"] = ratio(est_us / 1000.0, cold_n * cold_cpu_ms);

    double cpu_on = 0, cpu_off = 0, n_on = 0, n_off = 0;
    for (const Totals::Round& r : t.rounds) {
      (r.traced ? cpu_on : cpu_off) += r.cpu_s;
      (r.traced ? n_on : n_off) += static_cast<double>(r.answers);
    }
    layer["trace.overhead"] = ratio(ratio(cpu_on, n_on), ratio(cpu_off, n_off));

    static const std::map<std::string, std::string> units = {
        {"kbstore.open_ms", "ms"},       {"svc.start_ms", "ms"},
        {"kbstore.records_recovered", "count"},
        {"opt.instrs_out", "count"},     {"sim.instructions", "count"},
        {"search.evals", "count"},       {"search.sims", "count"},
        {"search.memo_hit_ratio", "frac"},
        {"sim.program_cache_hit_ratio", "frac"},
        {"sim.minstr_per_s", "Minstr/s"}, {"trace.coverage", "frac"},
        {"trace.overhead", "x"}};
    for (const auto& [name, value] : layer) {
      std::string unit = "us";
      if (const auto u = units.find(name); u != units.end()) unit = u->second;
      else if (name.size() > 8 && name.compare(name.size() - 8, 8, ".changed") == 0)
        unit = "frac";
      out.push_back({name, unit, value});
    }
    // Share of each program's replayed candidate cost spent before
    // simulation (copy, passes, fingerprint), both machines pooled.
    std::map<std::string, std::pair<double, double>> pre_sim;
    for (const auto& [pm, c] : stages) {
      auto& [pre, all] = pre_sim[pm.substr(0, pm.find('|'))];
      pre += c.copy_us + c.sequence_us + c.fingerprint_us;
      all += c.copy_us + c.sequence_us + c.fingerprint_us + c.decode_us +
             c.run_us;
    }
    for (const auto& [program, pa] : pre_sim)
      info_extra += std::string(info_extra.empty() ? "" : ", ") + '"' +
                    program + "\": " + num(ratio(pa.first, pa.second));
    info_extra = ", \"pre_sim_share\": {" + info_extra + "}";

    const fs::path trace_dir = fs::path(args.workdir).parent_path() / "traces";
    fs::create_directories(trace_dir);
    std::ofstream(trace_dir / (args.workload + ".json")) << st.log.to_json();
  }

  std::ostringstream info;
  info << "{\"info\": {\"workload\": \"" << args.workload
       << "\", \"seed\": " << args.seed
       << ", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"compiler\": \"" << TUNEBENCH_COMPILER
       << "\", \"build_type\": \"" << TUNEBENCH_BUILD_TYPE
       << "\", \"timed_rounds\": " << t.rounds.size()
       << ", \"cold_answers\": " << t.cold_ms.size()
       << ", \"warm_answers\": " << t.warm_answers
       << ", \"checked_answers\": " << st.ledger.to_check.size()
       << ", \"checker_runs\": " << checker.runs()
       << ", \"setup_runs_s\": [";
  for (std::size_t i = 0; i < st.setup_s.size(); ++i)
    info << (i ? ", " : "") << num(st.setup_s[i]);
  info << "], \"cold_tune_tail_ms\": {\"value\": " << num(cold_tail.value)
       << ", \"pct\": " << num(cold_tail.pct)
       << ", \"samples\": " << cold_tail.samples
       << "}, \"warm_tail_us\": {\"value\": " << num(warm_tail.value)
       << ", \"pct\": " << num(warm_tail.pct)
       << ", \"samples\": " << warm_tail.samples
       << "}, \"unbounded\": " << metrics_json(unbounded) << info_extra
       << "}}";
  for (const std::string& w : t.wrong) std::cerr << "WRONG " << w << "\n";
  std::cout << info.str() << "\n";
  std::cout << "{\"correct\": " << (t.wrong.empty() ? "true" : "false")
            << ", \"attempted\": " << t.attempted
            << ", \"failed\": " << t.failed
            << ", \"metrics\": " << metrics_json(out) << "}" << std::endl;
  fs::remove_all(args.workdir);
  return 0;
}

}  // namespace
}  // namespace tunebench

int main(int argc, char** argv) {
  tunebench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    try {
      if (a == "--workload") args.workload = value();
      else if (a == "--seed") args.seed = std::stoull(value());
      else if (a == "--seconds") args.seconds = std::stod(value());
      else if (a == "--trace") args.trace = value() != "0";
      else if (a == "--workdir") args.workdir = value();
      else if (a == "--smoke") args.smoke = true;
      else if (a == "--selftest") args.selftest = true;
      else if (a == "--make-kb") args.make_kb = value();
      else if (a == "--setup") args.setup = static_cast<unsigned>(std::stoul(value()));
      else throw std::invalid_argument("unknown argument " + a);
    } catch (const std::exception& e) {
      std::cerr << "tunebench: " << e.what() << "\n";
      return 2;
    }
  }
  try {
    if (args.selftest) {
      const std::string why = tunebench::checker_self_test();
      std::cout << (why.empty() ? "checker self-test: ok" : "checker self-test FAILED: " + why)
                << std::endl;
      return why.empty() ? 0 : 1;
    }
    if (!args.make_kb.empty())
      return tunebench::make_serve_kb(args.make_kb, args.seed, args.setup);
    return tunebench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "tunebench: " << e.what() << "\n";
    return 1;
  }
}
