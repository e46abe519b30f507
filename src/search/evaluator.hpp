// The performance oracle used by every search strategy: apply an
// optimization configuration to a pristine copy of the program, simulate
// it, and memoize the result by the fingerprint of the optimized module —
// distinct sequences frequently converge to identical code, and the cache
// collapses them (design decision #4 in DESIGN.md).
//
// A second memo in front of the pipeline records pass transitions: from a
// state's fingerprint and a pass to the next state's fingerprint, starting
// at the base module's. A candidate whose every transition is known walks
// the table to its final fingerprint and, on a memo hit, is answered with
// no module copy, no pass run and no fingerprint. Otherwise the known
// prefix is replayed without fingerprinting (skipping the passes it knows
// to be no-ops) and only the unknown suffix is fingerprinted and recorded.
// A pass that reports no change leaves the state as it was, so no-op
// transitions cost no fingerprint.
//
// Built for concurrent callers (the parallel GA and the tuning service):
// both memos are striped across sharded mutexes so unrelated
// fingerprints never contend, and each shard is single-flight — when two
// workers miss on the same fingerprint simultaneously, one simulates and
// the others block on the shard's condition variable until the result
// lands, so every unique fingerprint is simulated exactly once. Racing
// writers of one transition store the same value. Candidate
// materialization reuses a per-thread scratch module (copy-assignment into
// retained capacity) instead of constructing a fresh deep copy per
// candidate.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "ir/module.hpp"
#include "opt/pipelines.hpp"
#include "sim/interpreter.hpp"

namespace ilc::search {

struct EvalResult {
  std::uint64_t cycles = 0;
  std::uint64_t code_size = 0;
  std::uint64_t instructions = 0;
  sim::Counters counters;
};

class Evaluator {
 public:
  Evaluator(const ir::Module& base, sim::MachineConfig cfg);

  /// Apply a pass sequence and measure. Thread-safe.
  EvalResult eval_sequence(const std::vector<opt::PassId>& seq);
  /// Apply a flag-vector pipeline and measure. Thread-safe.
  EvalResult eval_flags(const opt::OptFlags& flags) {
    return eval_sequence(opt::pipeline(flags));
  }

  /// Optimized module for a configuration (no caching; for inspection).
  ir::Module optimized(const std::vector<opt::PassId>& seq) const;

  /// Number of real simulations performed / cache hits observed. Atomic,
  /// so harnesses may poll them while workers are still evaluating.
  /// A thread that joins an in-flight simulation of the same fingerprint
  /// counts as a cache hit (it did not simulate).
  std::size_t simulations() const {
    return simulations_.load(std::memory_order_relaxed);
  }
  std::size_t cache_hits() const {
    return cache_hits_.load(std::memory_order_relaxed);
  }
  /// Off: every evaluation copies, runs every pass, fingerprints and
  /// simulates, with neither memo read nor written.
  void set_cache_enabled(bool enabled) { cache_enabled_ = enabled; }

  const ir::Module& base() const { return base_; }
  const sim::MachineConfig& machine() const { return cfg_; }

 private:
  EvalResult measure(const ir::Module& optimized_mod, std::uint64_t fp);
  EvalResult simulate(const ir::Module& optimized_mod, std::uint64_t fp);
  /// The memoized result for `fp`, when one is ready.
  std::optional<EvalResult> ready_result(std::uint64_t fp);
  void count_hit();

  /// The state a pass leads to from state `from`, when recorded.
  std::optional<std::uint64_t> next_state(std::uint64_t from,
                                          opt::PassId pass);
  void record_transition(std::uint64_t from, opt::PassId pass,
                         std::uint64_t to);

  /// One stripe of the memo cache. An entry is inserted not-ready by the
  /// thread that takes ownership of the simulation (the leader); followers
  /// wait on the shard cv. Erased (and broadcast) if the leader throws.
  struct Entry {
    bool ready = false;
    EvalResult result;
  };
  struct Transition {
    std::uint64_t from = 0;
    opt::PassId pass = opt::PassId::kCount;
    bool operator==(const Transition&) const = default;
  };
  struct TransitionHash {
    std::size_t operator()(const Transition& t) const {
      return t.from ^ (static_cast<std::uint64_t>(t.pass) + 1) *
                          0x9e3779b97f4a7c15ULL;
    }
  };
  /// A stripe holds the memo entries and the transitions out of the
  /// fingerprints that map to it, both guarded by `mu`.
  struct Shard {
    std::mutex mu;
    std::condition_variable cv;
    std::unordered_map<std::uint64_t, Entry> map;
    std::unordered_map<Transition, std::uint64_t, TransitionHash> next;
  };
  static constexpr std::size_t kShards = 16;
  Shard& shard_of(std::uint64_t fp) { return shards_[fp % kShards]; }

  ir::Module base_;
  std::uint64_t base_fp_;
  sim::MachineConfig cfg_;
  bool cache_enabled_ = true;
  std::array<Shard, kShards> shards_;
  std::atomic<std::size_t> simulations_{0};
  std::atomic<std::size_t> cache_hits_{0};
};

}  // namespace ilc::search
