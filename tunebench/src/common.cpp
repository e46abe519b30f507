#include <stdexcept>

#include "tunebench.hpp"

namespace tunebench {

std::string Key::str() const {
  return program + '|' + machine + '|' + objective_name(objective);
}

const char* objective_name(search::Objective obj) {
  switch (obj) {
    case search::Objective::Cycles: return "cycles";
    case search::Objective::CodeSize: return "size";
    case search::Objective::Pareto: return "pareto";
  }
  return "?";
}

sim::MachineConfig machine_config(const std::string& machine) {
  if (machine == "amd") return sim::amd_like();
  if (machine == "c6713") return sim::c6713_like();
  throw std::invalid_argument("unknown machine " + machine);
}

namespace {

/// Value of ` name=` in `line` (up to the next space), or "" when absent.
std::string field(const std::string& line, const std::string& name) {
  const std::string tag = ' ' + name + '=';
  const std::size_t at = line.find(tag);
  if (at == std::string::npos) return "";
  const std::size_t from = at + tag.size();
  return line.substr(from, line.find(' ', from) - from);
}

bool to_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty()) return false;
  out = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
    out = out * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return true;
}

}  // namespace

Answer parse_answer(const std::string& line) {
  Answer a;
  a.line = line;
  if (line.rfind("ok program=", 0) != 0) return a;
  a.program = field(line, "program");
  a.source = field(line, "source");
  // The config is quoted; pass sequences never contain quotes or spaces.
  const std::string tag = " config=\"";
  const std::size_t at = line.find(tag);
  if (at == std::string::npos) return a;
  const std::size_t from = at + tag.size();
  const std::size_t to = line.find('"', from);
  if (to == std::string::npos) return a;
  a.config = line.substr(from, to - from);
  a.ok = to_u64(field(line, "base"), a.base) &&
         to_u64(field(line, "best"), a.best) &&
         to_u64(field(line, "sims"), a.sims) && !a.program.empty() &&
         !a.source.empty();
  return a;
}

// ---------------------------------------------------------------------------

obs::SpanRecord SpanLog::child(const char* name) {
  obs::SpanRecord s;
  s.name = name;
  s.span_id = next_id_++;
  if (open_.empty()) {
    s.trace_id = s.span_id;
  } else {
    s.parent_id = spans_[open_.back()].span_id;
    s.trace_id = spans_[open_.back()].trace_id;
  }
  return s;
}

std::uint64_t SpanLog::since_origin_us(Clock::time_point t) const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(t - origin_)
          .count());
}

SpanLog::Scope::Scope(SpanLog& log, const char* name) : log_(log) {
  if (!log_.enabled) return;
  active_ = true;
  obs::SpanRecord s = log_.child(name);
  s.start_us = log_.since_origin_us(Clock::now());
  index_ = log_.spans_.size();
  log_.spans_.push_back(std::move(s));
  log_.open_.push_back(index_);
}

SpanLog::Scope::~Scope() {
  if (!active_) return;
  obs::SpanRecord& s = log_.spans_[index_];
  s.dur_us = log_.since_origin_us(Clock::now()) - s.start_us;
  log_.open_.pop_back();
}

void SpanLog::record(const char* name, Clock::time_point start,
                     Clock::time_point end) {
  if (!enabled) return;
  obs::SpanRecord s = child(name);
  s.start_us = since_origin_us(start);
  s.dur_us = since_origin_us(end) - s.start_us;
  spans_.push_back(std::move(s));
}

std::string SpanLog::to_json() const {
  return obs::Tracer::to_chrome_trace(spans_);
}

}  // namespace tunebench
