// perfbench — the staleflow service benchmark.
//
// Usage:
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --tmp <dir> [--source <id>]
//
// Serves one workload (serve-steady, bursty-split, tenants-durable; see
// perfbench/README.md) through the library's public entry points, checks
// its outputs and prints every metric by name and unit: a human-readable
// table with each metric's base, then, as the last line of standard
// output, one JSON object {"correct", "attempted", "failed", "metrics"}.
//
// --trace 0 reports the end-to-end metrics from untraced sessions run
// back to back for --seconds. --trace 1 reports the per-layer metrics:
// microbenchmarks of each layer's public functions, one traced session
// decoded with the trace_reader API, and interleaved untraced / traced /
// latency-sampling-off sessions for --seconds. Either mode first serves
// one unmeasured warm-up session.
//
// Checks: every session's telemetry digests must equal the warm-up's
// (and, at seed 1, the pinned digests); closed-loop query counts must be
// exact, final flows feasible, and every WAL must recover with a clean
// shutdown and the run's digests. A failed check or a throw marks every
// query of the run failed and exits 1. WAL and trace files go to --tmp
// and are deleted as soon as they have been read back.
//
// Exit codes: 0 all checks passed, 1 a check failed or the run threw,
// 2 bad arguments.
#include <sched.h>
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "layers.h"
#include "session.h"
#include "stats.h"
#include "trace/metrics.h"
#include "trace/recorder.h"

namespace perfbench {
namespace {

using staleflow::trace::MetricsRegistry;

constexpr std::size_t kMinSessions = 3;
/// p95 needs at least ten samples beyond it.
constexpr std::size_t kMinIntervals = 200;
constexpr std::size_t kMinPairs = 2;
/// Sub-batch p99/p50 above this flags the straggler signature (a healthy
/// run reads 1-4; a preempted worker holding the fold barrier, 20+).
constexpr double kNoisyRatio = 10.0;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string tmp;
  std::string source = "unknown";
};

struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

Args parse_args(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw UsageError("expected --flag value pairs, got '" + key + "'");
    }
    flags[key.substr(2)] = argv[i + 1];
  }
  Args args;
  for (const auto& [key, value] : flags) {
    try {
      if (key == "workload") {
        args.workload = value;
      } else if (key == "seed") {
        args.seed = std::stoull(value);
      } else if (key == "seconds") {
        args.seconds = std::stod(value);
      } else if (key == "trace") {
        if (value != "0" && value != "1") throw std::invalid_argument(value);
        args.trace = value == "1";
      } else if (key == "tmp") {
        args.tmp = value;
      } else if (key == "source") {
        args.source = value;
      } else {
        throw UsageError("unknown flag --" + key);
      }
    } catch (const std::logic_error&) {
      throw UsageError("bad value for --" + key + ": '" + value + "'");
    }
  }
  if (args.workload.empty() || args.tmp.empty()) {
    throw UsageError("--workload and --tmp are required");
  }
  if (!(args.seconds > 0.0) || args.seconds > 600.0) {
    throw UsageError("--seconds must be in (0, 600]");
  }
  if (!std::filesystem::is_directory(args.tmp)) {
    throw UsageError("--tmp must be an existing directory");
  }
  return args;
}

/// The pool and WAL counters the per-layer metrics read.
struct Counters {
  std::uint64_t tasks = 0;
  std::uint64_t steals = 0;
  std::uint64_t local_hits = 0;
  std::uint64_t wal_bytes = 0;

  static Counters read() {
    MetricsRegistry& registry = MetricsRegistry::global();
    return {registry.counter("pool.tasks").load(),
            registry.counter("pool.steals").load(),
            registry.counter("pool.local_hits").load(),
            registry.counter("wal.bytes").load()};
  }
  Counters operator-(const Counters& o) const {
    return {tasks - o.tasks, steals - o.steals, local_hits - o.local_hits,
            wal_bytes - o.wal_bytes};
  }
};

/// A session plus the counter movement it caused.
struct Counted {
  Session session;
  Counters delta;
};

double seconds_since(std::uint64_t start) {
  return static_cast<double>(now_ns() - start) * 1e-9;
}

std::string hex(std::uint64_t value) {
  std::ostringstream out;
  out << std::hex << value;
  return out.str();
}

std::string fixed(double value, int digits) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(digits) << value;
  return out.str();
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Best effort: an unpinned session is still measured.
void pin_to_core(int core) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(core, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

/// Peak resident set of this process. Read from /proc rather than
/// getrusage: ru_maxrss survives exec, so it would report the launching
/// interpreter's peak whenever that is the larger one.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

class Bench {
 public:
  Bench(Workload workload, Args args)
      : workload_(std::move(workload)), args_(std::move(args)) {}

  std::uint64_t attempted() const { return attempted_; }
  std::vector<std::string>& failures() { return failures_; }

  /// The unmeasured warm-up session; its digests become the reference
  /// every later session must reproduce.
  Session warm_up() {
    Session warm = run_session(workload_, options(true, false));
    for (const std::string& f : warm.failures) failures_.push_back(f);
    reference_ = warm.digests;
    std::cout << "warm-up: " << warm.queries << " queries, "
              << warm.tenant_epochs << " epochs in " << fixed(warm.wall_s, 3)
              << " s; digests";
    for (const std::uint64_t d : warm.digests) std::cout << " " << hex(d);
    std::cout << "\n";
    if (args_.seed == kDefaultSeed && reference_ != workload_.pinned) {
      failures_.push_back("digests at seed " + std::to_string(kDefaultSeed) +
                          " differ from the pinned values");
    }
    return warm;
  }

  std::vector<Metric> end_to_end() {
    // A single-threaded session stays on whichever core the scheduler
    // gave it, and a shared host can slow one core for tens of seconds:
    // one run would measure one core. Pinning session k to allowed core
    // k mod n makes every run sample all of them.
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    std::vector<int> cores;
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &allowed)) cores.push_back(c);
      }
    }
    const bool rotate = workload_.threads == 1 && cores.size() > 1;

    std::vector<Session> sessions;
    std::size_t interval_count = 0;
    const std::uint64_t start = now_ns();
    for (;;) {
      if (rotate) pin_to_core(cores[sessions.size() % cores.size()]);
      sessions.push_back(serve(true, false).session);
      const Session& s = sessions.back();
      interval_count += (s.mark_ns.size() - 1) / s.cycle;
      const bool enough = sessions.size() >= kMinSessions &&
                          interval_count >= kMinIntervals;
      const double elapsed = seconds_since(start);
      if ((enough && elapsed >= args_.seconds) || elapsed > 3 * args_.seconds)
        break;
    }
    if (rotate) sched_setaffinity(0, sizeof(allowed), &allowed);
    const std::size_t cycle = sessions.front().cycle;

    // Interference filter. Every session serves the same deterministic
    // work, and other tenants of a shared host only ever slow a session
    // down — for seconds at a time, long enough to move a whole run's
    // median. Throughput and the typical epoch are therefore read from
    // the faster half of the sessions; the p95 tail, where interference
    // belongs, and set-up time are read from all of them.
    std::vector<const Session*> ranked;
    for (const Session& s : sessions) ranked.push_back(&s);
    std::sort(ranked.begin(), ranked.end(),
              [](const Session* a, const Session* b) {
                return session_qps(*a) > session_qps(*b);
              });
    const std::size_t kept = (ranked.size() + 1) / 2;
    std::vector<double> qps, slow_qps, epochs_per_s, fast_intervals;
    std::vector<double> intervals, setup;
    for (std::size_t i = 0; i < ranked.size(); ++i) {
      const Session& s = *ranked[i];
      append_intervals_ms(s, cycle, intervals);
      setup.push_back(s.setup_s);
      if (i < kept) {
        qps.push_back(session_qps(s));
        epochs_per_s.push_back(session_epochs_per_s(s));
        append_intervals_ms(s, cycle, fast_intervals);
      } else {
        slow_qps.push_back(session_qps(s));
      }
    }

    const std::string faster = "median of the faster " + std::to_string(kept) +
                               " of " + std::to_string(sessions.size()) +
                               " sessions";
    const std::string what =
        cycle == 1 ? "epochs"
                   : "scheduler cycles (" + std::to_string(cycle) + " rounds)";
    const std::size_t beyond_p95 =
        intervals.size() - static_cast<std::size_t>(std::ceil(
                               0.95 * static_cast<double>(intervals.size())));
    return {
        {"qps", "1/s", median(qps),
         faster + ", first to last completion; slower half's median " +
             fixed(median(slow_qps) / median(qps), 3) + " of it"},
        {"epochs_per_s", "1/s", median(epochs_per_s),
         faster + ", tenant-epochs summed over tenants"},
        {"epoch_p50_ms", "ms", quantile(fast_intervals, 0.5),
         std::to_string(fast_intervals.size()) + " intervals between " +
             what + " of the faster half; limit T = " +
             fixed(kPeriod * 1e3, 0) + " ms"},
        {"epoch_p95_ms", "ms", quantile(intervals, 0.95),
         std::to_string(intervals.size()) + " intervals between " + what +
             " of all sessions, " + std::to_string(beyond_p95) +
             " beyond p95; limit T = " + fixed(kPeriod * 1e3, 0) + " ms"},
        {"setup_s", "s", median(setup),
         "median of all " + std::to_string(sessions.size()) +
             " sessions, session start to first completion"},
        {"peak_rss_mb", "MB", peak_rss_mb(),
         "VmHWM of the process (peak resident set)"},
    };
  }

  std::vector<Metric> per_layer(const Session& warm) {
    std::vector<Metric> metrics =
        layer_microbenches(workload_, args_.seed, warm, args_.tmp);

    // The traced session logs a WAL for every workload, so its append
    // spans exist; it is the durable session of the solo workloads.
    TraceFigures tf;
    const Counted traced = serve_traced(true, &tf);

    // Interleaved untraced (sampling on), traced and untraced
    // (sampling off) sessions, alternating the order.
    std::vector<double> overhead;
    std::vector<double> sampling;
    std::vector<Counted> plain;
    const std::uint64_t start = now_ns();
    for (std::size_t k = 0;; ++k) {
      Counted on;
      Counted off;
      Counted tr;
      if (k % 2 == 0) {
        on = serve(true, false);
        tr = serve_traced(false, nullptr);
        off = serve(false, false);
      } else {
        off = serve(false, false);
        tr = serve_traced(false, nullptr);
        on = serve(true, false);
      }
      overhead.push_back(
          100 * (ratio(session_qps(on.session), session_qps(tr.session)) - 1));
      sampling.push_back(
          100 * (ratio(session_qps(off.session), session_qps(on.session)) - 1));
      plain.push_back(std::move(on));
      const double elapsed = seconds_since(start);
      if ((k + 1 >= kMinPairs && elapsed >= args_.seconds) ||
          elapsed > 3 * args_.seconds)
        break;
    }

    std::vector<double> round_us;
    std::uint64_t tasks = 0, steals = 0, local_hits = 0, plain_epochs = 0;
    for (const Counted& c : plain) {
      const Session& s = c.session;
      for (std::size_t i = 1; i < s.mark_ns.size(); ++i) {
        const std::uint64_t wal = s.append_ns.empty() ? 0 : s.append_ns[i - 1];
        round_us.push_back(
            static_cast<double>(s.mark_ns[i] - s.mark_ns[i - 1] - wal) * 1e-3);
      }
      tasks += c.delta.tasks;
      steals += c.delta.steals;
      local_hits += c.delta.local_hits;
      plain_epochs += s.tenant_epochs;
    }

    // Durable sessions: the registry logs in every session, a solo
    // server only in the traced one.
    std::vector<const Counted*> durable;
    if (workload_.registry) {
      for (const Counted& c : plain) durable.push_back(&c);
    } else {
      durable.push_back(&traced);
    }
    std::vector<double> append_us;
    std::vector<double> recover_mb_s;
    std::vector<double> append_share;
    std::uint64_t wal_bytes = 0, durable_epochs = 0, appends = 0;
    for (const Counted* c : durable) {
      const Session& s = c->session;
      double append_total = 0.0;
      for (const std::uint64_t ns : s.append_ns) {
        append_us.push_back(static_cast<double>(ns) * 1e-3);
        append_total += static_cast<double>(ns);
      }
      appends += s.append_ns.size();
      append_share.push_back(100 * append_total * 1e-9 / s.wall_s);
      recover_mb_s.push_back(static_cast<double>(s.wal_bytes) * 1e-6 /
                             s.recover_s);
      wal_bytes += c->delta.wal_bytes;
      durable_epochs += s.tenant_epochs;
    }
    const std::string durable_base =
        std::to_string(durable.size()) +
        (workload_.registry ? " untraced sessions" : " traced session") +
        " with " + std::to_string(appends) + " " +
        (workload_.registry ? "round" : "epoch") + " appends";

    const double p99_over_p50 = ratio(tf.subbatch_p99_us, tf.subbatch_p50_us);
    const bool noisy = p99_over_p50 > kNoisyRatio;
    const std::string traced_base = "traced session of " +
                                    std::to_string(traced.session.tenant_epochs) +
                                    " epochs";
    const std::string pairs = std::to_string(overhead.size()) +
                              " interleaved session pairs";

    const std::vector<Metric> measured = {
        {"service.serve_ns_per_query", "ns",
         ratio(tf.subbatch_ns, static_cast<double>(tf.subbatch_queries)),
         "sum of " + std::to_string(tf.subbatches) + " sub-batch spans / " +
             std::to_string(tf.subbatch_queries) + " queries; " + traced_base},
        {"service.sampling_pct", "%", median(sampling),
         "qps with record_latency off over on, median of " + pairs +
             "; IQR " + fixed(quantile(sampling, 0.75) - quantile(sampling, 0.25), 2) +
             " points"},
        {"service.round_us", "us", median(round_us),
         "median of " + std::to_string(round_us.size()) +
             " completion intervals minus the WAL append in them, " +
             std::to_string(plain.size()) + " untraced sessions"},
        {"exec.serve_share", "ratio", ratio(tf.subbatch_ns, tf.graph_ns),
         "sum of sub-batch spans " + fixed(tf.subbatch_ns * 1e-6, 2) +
             " ms / sum of " + std::to_string(tf.graphs) + " graph spans " +
             fixed(tf.graph_ns * 1e-6, 2) + " ms; " + traced_base},
        {"exec.subbatch_p50_us", "us", tf.subbatch_p50_us,
         std::to_string(tf.subbatches) + " sub-batch spans; " + traced_base},
        {"exec.subbatch_p99_us", "us", tf.subbatch_p99_us,
         std::to_string(tf.subbatches) + " sub-batch spans; " + traced_base},
        {"exec.subbatch_p99_over_p50", "ratio", p99_over_p50,
         std::string("straggler signature above ") + fixed(kNoisyRatio, 0) +
             (noisy ? ": this run is NOISY" : ": not flagged")},
        {"exec.graph_span_ms", "ms", tf.graph_ns * 1e-6,
         "sum of " + std::to_string(tf.graphs) + " graph spans; " + traced_base},
        {"exec.tasks_per_epoch", "count",
         ratio(static_cast<double>(tasks), static_cast<double>(plain_epochs)),
         "pool.tasks / " + std::to_string(plain_epochs) + " epochs of " +
             std::to_string(plain.size()) + " untraced sessions (0 = inline)"},
        {"exec.steal_share", "ratio",
         ratio(static_cast<double>(steals),
               static_cast<double>(steals + local_hits)),
         "pool.steals " + std::to_string(steals) + " / (local_hits " +
             std::to_string(local_hits) + " + steals)"},
        {"recovery.append_us", "us", median(append_us),
         "wrapped WAL observer, median of " + durable_base},
        {"recovery.bytes_per_epoch", "B",
         ratio(static_cast<double>(wal_bytes),
               static_cast<double>(durable_epochs)),
         "wal.bytes / " + std::to_string(durable_epochs) + " tenant-epochs, " +
             durable_base},
        {"recovery.recover_mb_per_s", "MB/s", median(recover_mb_s),
         "recover_wal on the session's own WAL, " + durable_base},
        {"recovery.append_share_pct", "%", median(append_share),
         "sum of appends / session wall time, " + durable_base},
        {"recovery.wal_span_ms", "ms", tf.wal_ns * 1e-6,
         "sum of " + std::to_string(tf.wal_appends) + " WAL append spans; " +
             traced_base},
        {"trace.overhead_pct", "%", median(overhead),
         "untraced over traced qps, median of " + pairs + "; IQR " +
             fixed(quantile(overhead, 0.75) - quantile(overhead, 0.25), 2) +
             " points"},
        {"trace.dropped_events", "count", static_cast<double>(tf.dropped),
         "trailer of the " + traced_base + " (" + std::to_string(tf.events) +
             " events written)"},
    };
    metrics.insert(metrics.end(), measured.begin(), measured.end());
    return metrics;
  }

 private:
  SessionOptions options(bool record_latency, bool log_wal) {
    SessionOptions o;
    o.seed = args_.seed;
    o.record_latency = record_latency;
    if (log_wal || workload_.registry) {
      o.wal_path = args_.tmp + "/session-" + std::to_string(wal_files_++) +
                   ".wal";
    }
    return o;
  }

  Counted serve(bool record_latency, bool log_wal) {
    const Counters before = Counters::read();
    Counted c;
    c.session = run_session(workload_, options(record_latency, log_wal));
    c.delta = Counters::read() - before;
    attempted_ += c.session.queries;
    for (const std::string& f : c.session.failures) failures_.push_back(f);
    if (c.session.digests != reference_) {
      failures_.push_back("session digests differ from the warm-up's");
    }
    return c;
  }

  Counted serve_traced(bool log_wal, TraceFigures* figures) {
    namespace trace = staleflow::trace;
    const std::string path = args_.tmp + "/session.trace";
    trace::start(path, "perfbench " + workload_.name);
    Counted c;
    try {
      c = serve(true, log_wal);
    } catch (...) {
      trace::stop();
      throw;
    }
    trace::stop();
    if (figures != nullptr) *figures = analyze_trace(path);
    std::filesystem::remove(path);
    return c;
  }

  Workload workload_;
  Args args_;
  std::vector<std::uint64_t> reference_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::size_t wal_files_ = 0;
};

/// Shortest round-trip rendering; non-finite values have no JSON form.
std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

void print_result(const std::vector<Metric>& metrics, bool correct,
                  std::uint64_t attempted) {
  std::size_t width = 0;
  for (const Metric& m : metrics) width = std::max(width, m.name.size());
  for (const Metric& m : metrics) {
    std::cout << std::left << std::setw(static_cast<int>(width) + 2) << m.name
              << std::right << std::setw(14) << json_number(m.value) << " "
              << std::left << std::setw(6) << m.unit << " " << m.base << "\n";
  }
  attempted = std::max<std::uint64_t>(attempted, 1);
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted
            << ", \"failed\": " << (correct ? 0 : attempted)
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::cout << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
              << json_number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

int run_main(int argc, char** argv) {
  Args args;
  Workload workload;
  try {
    args = parse_args(argc, argv);
    workload = find_workload(args.workload);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n"
              << "usage: perfbench --workload <serve-steady|bursty-split|"
                 "tenants-durable> --seed <n> --seconds <s> --trace <0|1> "
                 "--tmp <dir> [--source <id>]\n";
    return 2;
  }

  std::cout << "provenance: workload=" << workload.name
            << " seed=" << args.seed << " threads=" << workload.threads
            << " nproc=" << std::thread::hardware_concurrency()
            << " build_type=" << PERFBENCH_BUILD_TYPE
            << " source=" << args.source
            << " mode=" << (args.trace ? "per_layer" : "end_to_end")
            << " seconds=" << args.seconds << "\n";

  Bench bench(workload, args);
  std::vector<Metric> metrics;
  try {
    const Session warm = bench.warm_up();
    metrics = args.trace ? bench.per_layer(warm) : bench.end_to_end();
  } catch (const std::exception& e) {
    bench.failures().push_back(std::string("run threw: ") + e.what());
  }
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      bench.failures().push_back("metric " + m.name + " is not finite");
    }
  }
  for (const std::string& f : bench.failures()) {
    std::cout << "CHECK FAILED: " << f << "\n";
  }
  const bool correct = bench.failures().empty();
  print_result(metrics, correct, bench.attempted());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run_main(argc, argv); }
