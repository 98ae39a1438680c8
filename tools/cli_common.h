// Flag-parsing helpers shared by the command-line tools.
//
// All parse errors throw UsageError; each tool catches it in run_main and
// routes the message through its own usage() printer (usage text + exit
// 2). Numeric flags follow the library's one number rule
// (util/spec_parse.h), the same one every spec grammar reads.
#pragma once

#include <cmath>
#include <fstream>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/spec_parse.h"

namespace staleflow::cli {

/// A bad command line: the message is shown above the usage text.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Routes std::invalid_argument from catalogue/grammar factories into
/// UsageError (exit 2 + usage text), like bad flag values.
template <typename Make>
auto usage_error(const Make& make) {
  try {
    return make();
  } catch (const std::invalid_argument& e) {
    throw UsageError(e.what());
  }
}

/// Parses "--key value" pairs from args[from..]; flags listed in
/// `booleans` take no value and map to "1".
inline std::map<std::string, std::string> parse_flags(
    const std::vector<std::string>& args, std::size_t from,
    const std::set<std::string>& booleans) {
  std::map<std::string, std::string> flags;
  for (std::size_t i = from; i < args.size(); ++i) {
    if (args[i].rfind("--", 0) != 0) {
      throw UsageError("unexpected argument " + args[i]);
    }
    const std::string key = args[i].substr(2);
    if (booleans.contains(key)) {
      flags[key] = "1";
    } else {
      if (i + 1 >= args.size()) throw UsageError("--" + key + " needs a value");
      flags[key] = args[++i];
    }
  }
  return flags;
}

/// The library's number rule (util/spec_parse.h), its errors as
/// UsageError.
inline double parse_number(const std::string& text, const std::string& what) {
  return usage_error([&] { return staleflow::parse_number(text, what); });
}

inline std::size_t parse_count(const std::string& text,
                               const std::string& what) {
  return usage_error([&] { return staleflow::parse_count(text, what); });
}

/// count / seconds without the div-by-zero / inf hazards of a first
/// progress tick landing inside the clock's resolution: any elapsed
/// interval under a microsecond (or a non-finite quotient) reports 0.0
/// — "no rate yet" — instead of inf.
inline double safe_rate(double count, double seconds) {
  if (!(seconds > 1e-6)) return 0.0;
  const double rate = count / seconds;
  return std::isfinite(rate) ? rate : 0.0;
}

/// The recovery flags a serving tool accepts: `--wal <path>` starts a
/// fresh write-ahead epoch log, `--resume <path>` continues a crashed run
/// from one. Mutually exclusive — a resumed run appends to the SAME WAL.
struct RecoveryFlags {
  std::string wal;
  std::string resume;
  bool fresh_wal() const noexcept { return !wal.empty(); }
  bool resuming() const noexcept { return !resume.empty(); }
};

/// `--resume <path>` must name an existing, readable file.
inline void require_readable(const std::string& path,
                             const std::string& what) {
  std::ifstream probe(path, std::ios::binary);
  if (!probe) {
    throw UsageError("cannot read " + what + " file '" + path + "'");
  }
}

/// `--wal <path>` must be creatable/appendable NOW — failing at epoch 0
/// beats failing at the first cut, minutes into a run. The append-mode
/// probe creates a missing file but never touches existing bytes.
inline void require_writable(const std::string& path,
                             const std::string& what) {
  std::ofstream probe(path, std::ios::binary | std::ios::app);
  if (!probe) {
    throw UsageError("cannot write " + what + " path '" + path + "'");
  }
}

/// Validates a parsed RecoveryFlags pair against the rest of the command
/// line. `config_keys` lists the tool's run-configuration flags
/// (scenario, seed, epochs, ...): `--resume` takes the ENTIRE
/// configuration from the WAL header, so passing any of them alongside it
/// is a conflict, not an override — silently ignoring a `--seed` that
/// disagrees with the WAL would misreport what the run did. Runtime knobs
/// (threads, csv, report-every, quiet) stay legal; they are not dynamics
/// configuration.
inline void validate_recovery_flags(
    const RecoveryFlags& recovery,
    const std::map<std::string, std::string>& flags,
    const std::set<std::string>& config_keys) {
  if (recovery.fresh_wal() && recovery.resuming()) {
    throw UsageError(
        "--wal and --resume are mutually exclusive (a resumed run appends "
        "to the WAL it resumes from)");
  }
  if (recovery.resuming()) {
    for (const auto& [key, value] : flags) {
      if (config_keys.contains(key)) {
        throw UsageError("--" + key +
                         " conflicts with --resume: the run configuration "
                         "comes from the WAL header");
      }
    }
    require_readable(recovery.resume, "--resume");
  }
  if (recovery.fresh_wal()) {
    require_writable(recovery.wal, "--wal");
  }
}

/// Rejects a value not present in `valid`, listing the catalogue.
inline void require_known(const std::string& value,
                          const std::vector<std::string>& valid,
                          const std::string& what) {
  for (const std::string& have : valid) {
    if (have == value) return;
  }
  std::string message = "unknown " + what + " '" + value + "'; valid:";
  for (const std::string& have : valid) message += ' ' + have;
  throw UsageError(message);
}

}  // namespace staleflow::cli
