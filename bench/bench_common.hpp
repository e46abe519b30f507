// Shared helpers for the figure-reproduction benches.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace ilc::bench {

/// Integer knob from the environment (e.g. ILC_FIG2A_BUDGET=20000),
/// falling back to a default sized for a ~1-minute single-core run.
inline unsigned env_unsigned(const char* name, unsigned fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  const long parsed = std::strtol(v, nullptr, 10);
  return parsed > 0 ? static_cast<unsigned>(parsed) : fallback;
}

/// Common bench command line. The human-readable table on stdout is
/// always produced; `--json <path>` additionally writes a machine-readable
/// summary (CI artifacts, BENCH_*.json records), `--smoke` shrinks the
/// run to a seconds-scale correctness pass for CI, and `--baseline <json>`
/// (benches that support it) compares against a prior JSON record and
/// fails on regression.
struct Args {
  std::string json_path;      // empty = no JSON output
  std::string baseline_path;  // empty = no baseline comparison
  bool smoke = false;
};

inline Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--json" && i + 1 < argc) {
      args.json_path = argv[++i];
    } else if (a == "--baseline" && i + 1 < argc) {
      args.baseline_path = argv[++i];
    } else if (a == "--smoke") {
      args.smoke = true;
    }
  }
  return args;
}

/// Minimal JSON emitter for flat bench summaries: an insertion-ordered
/// object whose values are numbers, strings, booleans, or pre-rendered
/// JSON (for nested objects/arrays). No external dependency.
class Json {
 public:
  Json& number(const std::string& key, double v) {
    std::ostringstream os;
    os.precision(6);
    os << std::fixed << v;
    return put(key, os.str());
  }
  Json& integer(const std::string& key, std::uint64_t v) {
    return put(key, std::to_string(v));
  }
  Json& boolean(const std::string& key, bool v) {
    return put(key, v ? "true" : "false");
  }
  Json& string(const std::string& key, const std::string& v) {
    return put(key, quote(v));
  }
  /// `rendered` must already be valid JSON (e.g. another Json::render()).
  Json& raw(const std::string& key, const std::string& rendered) {
    return put(key, rendered);
  }

  std::string render(int indent = 0) const {
    const std::string pad(static_cast<std::size_t>(indent) + 2, ' ');
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      out += i == 0 ? "\n" : ",\n";
      out += pad + quote(fields_[i].first) + ": " + fields_[i].second;
    }
    out += '\n';
    out.append(static_cast<std::size_t>(indent), ' ');
    out += '}';
    return out;
  }

  static std::string array(const std::vector<std::string>& rendered) {
    std::string out = "[";
    for (std::size_t i = 0; i < rendered.size(); ++i) {
      if (i) out += ", ";
      out += rendered[i];
    }
    return out + "]";
  }

  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default: out += c;
      }
    }
    return out + "\"";
  }

 private:
  Json& put(const std::string& key, std::string rendered) {
    fields_.emplace_back(key, std::move(rendered));
    return *this;
  }
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Write a rendered JSON document (plus trailing newline) to `path`.
/// Returns false (after printing to stderr) when the file cannot be
/// opened, so benches can exit nonzero.
inline bool write_json(const std::string& path, const std::string& rendered) {
  std::ofstream out(path);
  if (!out) return false;
  out << rendered << "\n";
  return out.good();
}

/// Write a bench summary, appending the process-wide obs registry under a
/// "metrics" key — every JSON artifact carries the counters/histograms
/// the run produced (sim.*, search.*, kbstore.*) alongside its own fields.
inline bool write_json(const std::string& path, Json doc) {
  doc.raw("metrics",
          obs::to_json_object(obs::Registry::instance().snapshot()));
  return write_json(path, doc.render());
}

}  // namespace ilc::bench
