#include <exception>

#include "opt/pass.hpp"
#include "search/space.hpp"
#include "sim/interpreter.hpp"
#include "svc/protocol.hpp"
#include "svc/service.hpp"
#include "tunebench.hpp"
#include "workloads/workloads.hpp"

namespace tunebench {

const Checker::Run& Checker::run(const std::string& program,
                                 const std::string& machine,
                                 const std::string& config) {
  const std::string memo = program + '|' + machine + '|' + config;
  if (const auto it = runs_.find(memo); it != runs_.end()) return it->second;
  Run r;
  try {
    wl::Workload w = wl::make_workload(program);
    if (!config.empty())
      opt::run_sequence(w.module, search::sequence_from_string(config));
    sim::MachineConfig cfg = machine_config(machine);
    cfg.decoded_execution = false;  // the reference interpreter
    sim::Simulator s(w.module, cfg);
    const sim::RunResult rr = s.run();
    if (rr.ret != w.expected_checksum) {
      r.error = "checksum " + std::to_string(rr.ret) + " != golden " +
                std::to_string(w.expected_checksum);
    }
    r.cycles = rr.cycles;
    r.code_size = w.module.code_size();
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  return runs_.emplace(memo, std::move(r)).first->second;
}

std::string Checker::check(const Key& key, const Answer& a) {
  const std::string where = key.str() + ": ";
  if (!a.ok) return where + "not an answer: " + a.line;
  if (a.program != key.program)
    return where + "answer names program " + a.program;
  const Run& base = run(key.program, key.machine, "");
  if (!base.error.empty()) return where + "-O0 run: " + base.error;
  const Run& best = run(key.program, key.machine, a.config);
  if (!best.error.empty())
    return where + "config \"" + a.config + "\": " + best.error;
  const bool size = key.objective == search::Objective::CodeSize;
  const std::uint64_t base_metric = size ? base.code_size : base.cycles;
  const std::uint64_t best_metric = size ? best.code_size : best.cycles;
  if (base_metric != a.base)
    return where + "base " + std::to_string(a.base) + " but -O0 measures " +
           std::to_string(base_metric);
  if (best_metric != a.best)
    return where + "best " + std::to_string(a.best) + " but \"" + a.config +
           "\" measures " + std::to_string(best_metric);
  if (a.best > a.base) return where + "best above base";
  return "";
}

std::string checker_self_test() {
  svc::TuningService::Options opts;
  opts.workers = 1;
  svc::TuningService service(opts);
  auto tune = [&](const Key& key) {
    svc::TuningRequest req;
    req.program = key.program;
    req.machine = machine_config(key.machine);
    req.objective = key.objective;
    req.budget = 12;
    req.seed = 11;
    return parse_answer(svc::format_response(service.tune(req)));
  };
  const Key adpcm{"adpcm", "amd", search::Objective::Cycles};
  const Key crc{"crc32", "amd", search::Objective::Cycles};
  const Answer genuine = tune(adpcm);
  const Answer other = tune(crc);

  Checker checker;
  std::string why = checker.check(adpcm, genuine);
  if (!why.empty()) return "genuine answer rejected: " + why;
  if (!(why = checker.check(crc, other)).empty())
    return "genuine answer rejected: " + why;
  if (genuine.config == other.config)
    return "self-test needs two programs with different answers";

  Answer foreign = genuine;
  foreign.config = other.config;
  if (checker.check(adpcm, foreign).empty())
    return "accepted another program's config";
  Answer best = genuine;
  best.best += 1;
  if (checker.check(adpcm, best).empty()) return "accepted an altered best";
  Answer base = genuine;
  base.base += 1;
  if (checker.check(adpcm, base).empty()) return "accepted an altered base";
  return "";
}

}  // namespace tunebench
