// The layer replay of the traced run. The service calls wl, ir, opt and
// sim internally, where the benchmark cannot put a span without editing
// the program; so the replay makes the same calls itself, through each
// layer's public functions, on the workload's programs and on candidate
// sequences drawn the way search::SequenceSpace draws them.
#include <filesystem>
#include <stdexcept>

#include "ir/fingerprint.hpp"
#include "kbstore/store.hpp"
#include "net/server.hpp"
#include "opt/pass.hpp"
#include "search/evaluator.hpp"
#include "search/space.hpp"
#include "sim/interpreter.hpp"
#include "sim/program_cache.hpp"
#include "support/rng.hpp"
#include "svc/protocol.hpp"
#include "svc/service.hpp"
#include "tunebench.hpp"
#include "workloads/workloads.hpp"

namespace tunebench {

namespace {

namespace fs = std::filesystem;

struct Mean {
  double sum = 0;
  std::size_t n = 0;
  void add(double v) {
    sum += v;
    ++n;
  }
  void add(const Mean& o) {
    sum += o.sum;
    n += o.n;
  }
  double get() const { return n ? sum / static_cast<double>(n) : 0.0; }
};

/// Time one call, record it as a span, return its duration in us.
template <class F>
double timed(SpanLog& log, const std::string& span, F&& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  const Clock::time_point t1 = Clock::now();
  log.record(span.c_str(), t0, t1);
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

std::uint64_t mix(std::uint64_t seed, const std::string& s) {
  std::uint64_t h = seed ^ 0x9e3779b97f4a7c15ULL;
  for (const unsigned char c : s) h = (h ^ c) * 0x100000001b3ULL;
  return h;
}

constexpr unsigned kMakeReps = 4;
constexpr unsigned kOpenReps = 3;
constexpr unsigned kAppends = 64;
constexpr unsigned kPings = 200;
constexpr unsigned kProtocolReps = 4;

}  // namespace

std::map<std::string, double> replay_layers(
    const ReplayInput& in, SpanLog& log,
    std::map<std::string, StageCost>* stages) {
  Mean make, copy, sequence, fingerprint, decode, run, eval, instrs_out,
      sim_instrs;
  std::vector<Mean> pass_us(opt::kNumPasses), pass_changed(opt::kNumPasses);
  auto pass_span = [](unsigned p) {
    return std::string("opt.") + opt::pass_name(static_cast<opt::PassId>(p));
  };

  const search::SequenceSpace space;
  ir::Module scratch;
  for (const std::string& program : in.programs) {
    Mean prog_make;
    wl::Workload w;
    for (unsigned i = 0; i < kMakeReps; ++i) {
      const double us =
          timed(log, "wl.make", [&] { w = wl::make_workload(program); });
      make.add(us);
      prog_make.add(us);
    }
    const ir::Module& base = w.module;
    // Every registered pass once on the -O0 module: the only samples of
    // the passes the sequence space leaves out (prefetch, ptrcompress,
    // reassoc).
    for (unsigned p = 0; p < opt::kNumPasses; ++p) {
      scratch = base;
      bool changed = false;
      pass_us[p].add(timed(log, pass_span(p), [&] {
        changed = opt::run_pass(static_cast<opt::PassId>(p), scratch);
      }));
      pass_changed[p].add(changed ? 1.0 : 0.0);
    }

    for (const std::string& machine : in.machines) {
      const sim::MachineConfig cfg = machine_config(machine);
      search::Evaluator evaluator(base, cfg);
      support::Rng rng(mix(in.seed, program + '|' + machine));
      Mean s_copy, s_seq, s_fp, s_decode, s_run;
      for (unsigned c = 0; c < in.candidates; ++c) {
        const std::vector<opt::PassId> seq = space.sample(rng);
        // Pass by pass, for per-pass cost and changed-bits...
        s_copy.add(timed(log, "ir.copy", [&] { scratch = base; }));
        for (const opt::PassId id : seq) {
          const unsigned p = static_cast<unsigned>(id);
          bool changed = false;
          pass_us[p].add(timed(log, pass_span(p), [&] {
            changed = opt::run_pass(id, scratch);
          }));
          pass_changed[p].add(changed ? 1.0 : 0.0);
        }
        // ...then the whole sequence as the evaluator runs it.
        scratch = base;
        s_seq.add(timed(log, "opt.sequence",
                        [&] { opt::run_sequence(scratch, seq); }));
        instrs_out.add(static_cast<double>(scratch.code_size()));
        std::uint64_t fp = 0;
        s_fp.add(timed(log, "ir.fingerprint",
                       [&] { fp = ir::fingerprint(scratch); }));
        sim::ProgramCache fresh(1);  // a guaranteed decode miss
        std::shared_ptr<const sim::DecodedProgram> decoded;
        s_decode.add(timed(log, "sim.decode",
                           [&] { decoded = fresh.get(scratch, fp); }));
        sim::RunResult rr;
        s_run.add(timed(log, "sim.run", [&] {
          sim::Simulator s(scratch, cfg, decoded);
          rr = s.run();
        }));
        sim_instrs.add(static_cast<double>(rr.instructions));
        eval.add(timed(log, "search.eval",
                       [&] { evaluator.eval_sequence(seq); }));
      }
      copy.add(s_copy);
      sequence.add(s_seq);
      fingerprint.add(s_fp);
      decode.add(s_decode);
      run.add(s_run);
      if (stages != nullptr) {
        StageCost& sc = (*stages)[program + '|' + machine];
        sc.make_us = prog_make.get();
        sc.copy_us = s_copy.get();
        sc.sequence_us = s_seq.get();
        sc.fingerprint_us = s_fp.get();
        sc.decode_us = s_decode.get();
        sc.run_us = s_run.get();
      }
    }
  }

  std::map<std::string, double> out;
  out["wl.make_us"] = make.get();
  out["ir.copy_us"] = copy.get();
  out["ir.fingerprint_us"] = fingerprint.get();
  out["opt.sequence_us"] = sequence.get();
  for (unsigned p = 0; p < opt::kNumPasses; ++p) {
    out[pass_span(p) + ".us"] = pass_us[p].get();
    out[pass_span(p) + ".changed"] = pass_changed[p].get();
  }
  out["opt.instrs_out"] = instrs_out.get();
  out["search.eval_us"] = eval.get();
  out["sim.decode_us"] = decode.get();
  out["sim.run_us"] = run.get();
  out["sim.instructions"] = sim_instrs.get();
  out["sim.minstr_per_s"] = run.sum > 0 ? sim_instrs.sum / run.sum : 0.0;

  // kbstore: recovery of the workload's KB, then appends and syncs shaped
  // like the service's writes, on a copy.
  const fs::path kb_copy = fs::path(in.scratch_dir) / "replay_kb";
  fs::remove_all(kb_copy);
  fs::copy(in.kb_dir, kb_copy, fs::copy_options::recursive);
  kbstore::Options kopts;
  kopts.flush = kbstore::Options::Flush::EveryAppend;  // as autosave does
  Mean open_ms, append_us, sync_us;
  std::unique_ptr<kbstore::Store> store;
  kbstore::RecoveryInfo info;
  for (unsigned i = 0; i < kOpenReps; ++i) {
    store.reset();
    info = {};
    open_ms.add(timed(log, "kbstore.open", [&] {
      store = kbstore::Store::open(kb_copy.string(), kopts, &info);
    }) / 1000.0);
    if (!store) throw std::runtime_error("replay: cannot open " + in.kb_dir);
  }
  for (unsigned i = 0; i < kAppends; ++i) {
    kb::ExperimentRecord rec;
    rec.program = "fp:replay" + std::to_string(i) + "+cycles";
    rec.machine = "amd-like";
    rec.kind = "svc-best";
    rec.config = "licm,cse,dce,unroll4,schedule";
    rec.cycles = 100000 + i;
    append_us.add(timed(log, "kbstore.append",
                        [&] { store->append(std::move(rec)); }));
    sync_us.add(timed(log, "kbstore.sync", [&] { store->sync(); }));
  }
  store.reset();
  out["kbstore.open_ms"] = open_ms.get();
  out["kbstore.records_recovered"] =
      static_cast<double>(info.snapshot_records + info.wal_records);
  out["kbstore.append_us"] = append_us.get();
  out["kbstore.sync_us"] = sync_us.get();

  // svc: start on a fresh copy of the KB, warm tunes in-process, and the
  // protocol's parse/format on the run's own lines.
  const fs::path svc_kb = fs::path(in.scratch_dir) / "replay_svc_kb";
  fs::remove_all(svc_kb);
  fs::copy(in.kb_dir, svc_kb, fs::copy_options::recursive);
  svc::TuningService::Options sopts;
  sopts.workers = 1;
  sopts.kb_path = svc_kb.string();
  std::unique_ptr<svc::TuningService> service;
  const double start_ms =
      timed(log, "svc.start", [&] {
        service = std::make_unique<svc::TuningService>(sopts);
      }) / 1000.0;
  out["svc.start_ms"] = start_ms;

  Mean warm_us, parse_us, format_us, ping_us;
  for (int rep = 0; rep < 2; ++rep) {
    for (const Key& key : in.warm_keys) {
      svc::TuningRequest req;
      req.program = key.program;
      req.machine = machine_config(key.machine);
      req.objective = key.objective;
      svc::TuningResponse resp;
      const double us =
          timed(log, "svc.warm_tune", [&] { resp = service->tune(req); });
      if (resp.source != svc::Source::WarmCache)
        throw std::runtime_error("replay: " + key.str() + " is not warm");
      warm_us.add(us);
    }
  }
  for (unsigned rep = 0; rep < kProtocolReps; ++rep) {
    for (const std::string& line : in.request_lines) {
      svc::Command cmd;
      parse_us.add(timed(log, "svc.parse",
                         [&] { cmd = svc::parse_command(line); }));
      if (cmd.kind != svc::Command::Kind::Tune)
        throw std::runtime_error("replay: unparsable request " + line);
    }
    for (const Answer& a : in.answers) {
      svc::TuningResponse r;
      r.ok = true;
      r.program = a.program;
      r.config = a.config;
      r.baseline_metric = a.base;
      r.best_metric = a.best;
      r.speedup = a.best ? static_cast<double>(a.base) /
                               static_cast<double>(a.best)
                         : 0.0;
      r.source = a.source == "warm" ? svc::Source::WarmCache
                                    : svc::Source::Search;
      r.simulations = a.sims;
      std::string line;
      format_us.add(timed(log, "svc.format",
                          [&] { line = svc::format_response(r); }));
    }
  }
  out["svc.warm_tune_us"] = warm_us.get();
  out["svc.parse_us"] = parse_us.get();
  out["svc.format_us"] = format_us.get();

  {
    net::Server server(*service, {});
    LineConn conn(server.port());
    for (unsigned i = 0; i < kPings; ++i) {
      std::string reply;
      ping_us.add(timed(log, "net.ping", [&] {
        conn.send("ping\n");
        reply = conn.read_line();
      }));
      if (reply.rfind("ok pong", 0) != 0)
        throw std::runtime_error("replay: ping answered " + reply);
    }
  }
  out["net.ping_rtt_us"] = ping_us.get();
  service.reset();
  fs::remove_all(kb_copy);
  fs::remove_all(svc_kb);
  return out;
}

}  // namespace tunebench
