#include "search/evaluator.hpp"

#include <chrono>

#include "ir/fingerprint.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "obs/trace.hpp"
#include "sim/program_cache.hpp"

namespace ilc::search {

namespace {

obs::Counter& c_simulations() {
  static obs::Counter c =
      obs::Registry::instance().counter("search.simulations");
  return c;
}
obs::Counter& c_eval_cache_hits() {
  static obs::Counter c =
      obs::Registry::instance().counter("search.eval_cache.hits");
  return c;
}
obs::Counter& c_transition_hits() {
  static obs::Counter c =
      obs::Registry::instance().counter("search.transition_hits");
  return c;
}
obs::Histogram& h_simulate_us() {
  static obs::Histogram h =
      obs::Registry::instance().histogram("search.simulate_us");
  return h;
}
obs::Histogram& h_copy_us() {
  static obs::Histogram h =
      obs::Registry::instance().histogram("search.copy_us");
  return h;
}
obs::Histogram& h_passes_us() {
  static obs::Histogram h =
      obs::Registry::instance().histogram("search.passes_us");
  return h;
}
obs::Histogram& h_fingerprint_us() {
  static obs::Histogram h =
      obs::Registry::instance().histogram("search.fingerprint_us");
  return h;
}

/// Times a stage that runs in pieces (an evaluation's pass runs are
/// interleaved with its fingerprints) and records their sum, in
/// microseconds, as one sample when the stage ran at all. Like
/// obs::ScopedTimerUs it reads no clock while profiling is disabled.
class StageTimer {
 public:
  explicit StageTimer(obs::Histogram h)
      : h_(h), on_(obs::profiling_enabled()) {}
  ~StageTimer() {
    if (on_ && ran_)
      h_.record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(spent_)
              .count()));
  }
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

  template <class F>
  auto operator()(F&& piece) {
    ran_ = true;
    if (!on_) return piece();
    const auto t0 = std::chrono::steady_clock::now();
    auto out = piece();
    spent_ += std::chrono::steady_clock::now() - t0;
    return out;
  }

 private:
  obs::Histogram h_;
  bool on_;
  bool ran_ = false;
  std::chrono::steady_clock::duration spent_{};
};

/// Per-thread scratch for candidate materialization: copy-assigning the
/// base module into a retained buffer reuses the vectors' capacity from
/// the previous candidate instead of re-allocating the whole module tree
/// for every evaluation.
ir::Module& scratch_module() {
  thread_local ir::Module scratch;
  return scratch;
}

}  // namespace

Evaluator::Evaluator(const ir::Module& base, sim::MachineConfig cfg)
    : base_(base), base_fp_(ir::fingerprint(base_)), cfg_(std::move(cfg)) {}

ir::Module Evaluator::optimized(const std::vector<opt::PassId>& seq) const {
  ir::Module m = base_;
  opt::run_sequence(m, seq);
  return m;
}

EvalResult Evaluator::simulate(const ir::Module& optimized_mod,
                               std::uint64_t fp) {
  // Decoded programs are shared process-wide: repeat evaluations of the
  // same optimized code (GA elites, svc warm paths) skip re-decoding. The
  // known fingerprint is passed through to avoid a second hash of the
  // module.
  obs::Span span("search.simulate");
  obs::ScopedTimerUs timer(h_simulate_us());
  std::shared_ptr<const sim::DecodedProgram> decoded;
  if (cfg_.decoded_execution)
    decoded = sim::ProgramCache::instance().get(optimized_mod, fp);
  sim::Simulator sim(optimized_mod, cfg_, std::move(decoded));
  const sim::RunResult rr = sim.run();
  EvalResult res;
  res.cycles = rr.cycles;
  res.code_size = optimized_mod.code_size();
  res.instructions = rr.instructions;
  res.counters = rr.counters;
  simulations_.fetch_add(1, std::memory_order_relaxed);
  c_simulations().add(1);
  return res;
}

void Evaluator::count_hit() {
  cache_hits_.fetch_add(1, std::memory_order_relaxed);
  c_eval_cache_hits().add(1);
}

std::optional<EvalResult> Evaluator::ready_result(std::uint64_t fp) {
  Shard& sh = shard_of(fp);
  std::lock_guard<std::mutex> lock(sh.mu);
  const auto it = sh.map.find(fp);
  if (it == sh.map.end() || !it->second.ready) return std::nullopt;
  count_hit();
  return it->second.result;
}

std::optional<std::uint64_t> Evaluator::next_state(std::uint64_t from,
                                                   opt::PassId pass) {
  Shard& sh = shard_of(from);
  std::lock_guard<std::mutex> lock(sh.mu);
  const auto it = sh.next.find({from, pass});
  if (it == sh.next.end()) return std::nullopt;
  return it->second;
}

void Evaluator::record_transition(std::uint64_t from, opt::PassId pass,
                                  std::uint64_t to) {
  Shard& sh = shard_of(from);
  std::lock_guard<std::mutex> lock(sh.mu);
  sh.next.emplace(Transition{from, pass}, to);
}

EvalResult Evaluator::measure(const ir::Module& optimized_mod,
                              std::uint64_t fp) {
  Shard& sh = shard_of(fp);
  {
    std::unique_lock<std::mutex> lock(sh.mu);
    for (;;) {
      auto it = sh.map.find(fp);
      if (it == sh.map.end()) {
        // Leader: claim the fingerprint, then simulate outside the lock.
        sh.map.emplace(fp, Entry{});
        break;
      }
      if (it->second.ready) {
        count_hit();
        return it->second.result;
      }
      // Follower: a leader is simulating this fingerprint right now.
      sh.cv.wait(lock);
    }
  }

  EvalResult res;
  try {
    res = simulate(optimized_mod, fp);
  } catch (...) {
    // Release the claim so a waiting follower can take over (and observe
    // the same trap by re-running), then propagate.
    std::lock_guard<std::mutex> lock(sh.mu);
    sh.map.erase(fp);
    sh.cv.notify_all();
    throw;
  }

  {
    std::lock_guard<std::mutex> lock(sh.mu);
    Entry& e = sh.map[fp];
    e.result = res;
    e.ready = true;
  }
  sh.cv.notify_all();
  return res;
}

EvalResult Evaluator::eval_sequence(const std::vector<opt::PassId>& seq) {
  // Walk the transitions earlier evaluations recorded: path[i] is the
  // state before seq[i], path.back() the last state known.
  std::vector<std::uint64_t> path{base_fp_};
  while (cache_enabled_ && path.size() <= seq.size()) {
    const auto next = next_state(path.back(), seq[path.size() - 1]);
    if (!next) break;
    path.push_back(*next);
  }
  const std::size_t known = path.size() - 1;
  if (cache_enabled_ && known == seq.size()) {
    if (auto hit = ready_result(path.back())) {
      c_transition_hits().add(1);
      return *hit;
    }
  }

  ir::Module& m = scratch_module();
  {
    obs::ScopedTimerUs timer(h_copy_us());
    m = base_;
  }
  StageTimer passes(h_passes_us()), fingerprints(h_fingerprint_us());
  if (!cache_enabled_) {
    for (const opt::PassId id : seq)
      passes([&] { return opt::run_pass(id, m); });
    return simulate(m, fingerprints([&] { return ir::fingerprint(m); }));
  }
  for (std::size_t i = 0; i < known; ++i) {
    if (path[i + 1] == path[i]) continue;  // a known no-op
    passes([&] { return opt::run_pass(seq[i], m); });
  }
  std::uint64_t fp = path.back();
  for (std::size_t i = known; i < seq.size(); ++i) {
    // A pass that reports no change leaves the module as it was.
    const bool changed = passes([&] { return opt::run_pass(seq[i], m); });
    const std::uint64_t next =
        changed ? fingerprints([&] { return ir::fingerprint(m); }) : fp;
    record_transition(fp, seq[i], next);
    fp = next;
  }
  return measure(m, fp);
}

}  // namespace ilc::search
