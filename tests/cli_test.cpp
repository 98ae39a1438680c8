// The command-line contract of the tools, one table row per invocation:
// a tool binary, its argv, the exit code it must return and what its
// stdout or stderr must hold. Each row spawns the binary directly (no
// shell) in a fresh temp dir and reads only files this test wrote there.
//
// The rows prove three things. Every bad flag, spec or file exits 2 with
// its message before any work starts (a --threads past the executor's
// limit included: no thread is started). Each tool resolves its flags to
// the configs golden_test.cpp pins: the digest= lines are the values of
// golden_digests.h. And the WAL and trace files a run writes are what
// wal_replay_cli and trace_dump_cli report, through a cut log, an
// injected crash and a resume. Determinism across thread counts is not
// re-checked here: golden_test.cpp serves every pinned config at 1 and 4
// threads, and SweepRunner's tests compare sweep CSVs byte for byte.
//
// Built when the tools are (STALEFLOW_BUILD_TOOLS); `ctest -L cli`.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "golden_digests.h"

extern char** environ;

namespace staleflow {
namespace {

namespace fs = std::filesystem;

const char* const kRouteServer = STALEFLOW_ROUTE_SERVER_CLI;
const char* const kSweep = STALEFLOW_SWEEP_CLI;
const char* const kWalReplay = STALEFLOW_WAL_REPLAY_CLI;
const char* const kTraceDump = STALEFLOW_TRACE_DUMP_CLI;
const char* const kStaleflow = STALEFLOW_STALEFLOW_CLI;

/// A row whose tool runs longer than this is killed and fails.
constexpr std::chrono::seconds kRowDeadline{120};

/// What one run must print: a whole stdout line, text anywhere in
/// stdout, or text anywhere in stderr.
struct Expect {
  enum class Kind { kLine, kOut, kErr } kind;
  std::string text;
};

Expect line(std::string text) { return {Expect::Kind::kLine, std::move(text)}; }
Expect out(std::string text) { return {Expect::Kind::kOut, std::move(text)}; }
Expect err(std::string text) { return {Expect::Kind::kErr, std::move(text)}; }

/// A digest as the tools print it.
std::string hex(std::uint64_t value) {
  std::ostringstream text;
  text << std::hex << value;
  return text.str();
}

/// The `digest=` line (or `digest[<tenant>]=` line) a tool prints.
Expect digest(std::uint64_t value, const std::string& tenant = "") {
  return line("digest" + (tenant.empty() ? "" : "[" + tenant + "]") + "=" +
              hex(value));
}

struct Row {
  const char* tool;
  std::vector<std::string> args;
  int exit_code = 0;
  std::vector<Expect> expect = {};
};

/// The flags of golden::kSolo (golden::kLongSolo at 5000 epochs); rows
/// append --threads, --wal, --faults...
std::vector<std::string> solo(std::vector<std::string> extra = {},
                              const char* epochs = "20") {
  std::vector<std::string> args = {
      "run", "--scenario", "braess", "--policy", "replicator", "--period",
      "0.1", "--epochs", epochs, "--clients", "2000", "--workload",
      "closed-loop:4000", "--shards", "8", "--seed", "1", "--deterministic",
      "--quiet"};
  args.insert(args.end(), extra.begin(), extra.end());
  return args;
}

/// The flags of the golden::kTrio* registry.
std::vector<std::string> trio(std::vector<std::string> extra = {}) {
  std::vector<std::string> args = {
      "run", "--deterministic", "--period", "0.1", "--epochs", "15",
      "--clients", "2000", "--shards", "8", "--seed", "1", "--quiet",
      "--tenants",
      "small:workload=closed-loop:500,clients=500,shards=2;"
      "big:workload=closed-loop:4000,weight=2;"
      "links:scenario=uniform-links-8,workload=closed-loop:1500,"
      "clients=1000,shards=4,seed=9"};
  args.insert(args.end(), extra.begin(), extra.end());
  return args;
}

const std::vector<Expect> kTrioDigests = {
    digest(golden::kTrioSmall, "small"), digest(golden::kTrioBig, "big"),
    digest(golden::kTrioLinks, "links")};

/// The flags of the golden::kServiceSweep / kChaosSweep sweeps.
std::vector<std::string> service_sweep(std::vector<std::string> extra) {
  std::vector<std::string> args = {
      "run", "--simulator", "service", "--scenarios", "braess",
      "--policies", "replicator", "--periods", "0.1", "--horizon", "2",
      "--replicas", "2", "--workloads", "closed-loop:2000", "--clients",
      "2000", "--threads", "1", "--quiet"};
  args.insert(args.end(), extra.begin(), extra.end());
  return args;
}

struct Outcome {
  int exit_code = -1;
  std::string out;
  std::string err;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Runs `row` with stdout and stderr captured in files of the working
/// directory. A signal death reads as 128 + the signal number, as a shell
/// reports it.
Outcome spawn(const Row& row) {
  std::vector<std::string> words = {row.tool};
  words.insert(words.end(), row.args.begin(), row.args.end());
  std::vector<char*> argv;
  for (std::string& word : words) argv.push_back(word.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t io;
  posix_spawn_file_actions_init(&io);
  posix_spawn_file_actions_addopen(&io, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&io, 1, "row.out",
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(&io, 2, "row.err",
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  pid_t pid = 0;
  const int spawned =
      posix_spawn(&pid, row.tool, &io, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&io);
  Outcome outcome;
  if (spawned != 0) {
    ADD_FAILURE() << "cannot spawn " << row.tool << ": errno " << spawned;
    return outcome;
  }
  int status = 0;
  const auto deadline = std::chrono::steady_clock::now() + kRowDeadline;
  while (waitpid(pid, &status, WNOHANG) == 0) {
    if (std::chrono::steady_clock::now() > deadline) {
      kill(pid, SIGKILL);
      waitpid(pid, &status, 0);
      ADD_FAILURE() << "killed after " << kRowDeadline.count() << " s";
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  outcome.exit_code =
      WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  outcome.out = read_file("row.out");
  outcome.err = read_file("row.err");
  return outcome;
}

bool has_line(const std::string& text, const std::string& wanted) {
  std::istringstream lines(text);
  for (std::string got; std::getline(lines, got);) {
    if (got == wanted) return true;
  }
  return false;
}

/// Runs each row in order and checks its exit code and expectations.
void run_rows(const std::vector<Row>& rows) {
  for (const Row& row : rows) {
    std::string command = fs::path(row.tool).filename().string();
    for (const std::string& arg : row.args) command += " " + arg;
    SCOPED_TRACE(command);
    const Outcome got = spawn(row);
    EXPECT_EQ(got.exit_code, row.exit_code) << "stderr:\n" << got.err;
    for (const Expect& e : row.expect) {
      switch (e.kind) {
        case Expect::Kind::kLine:
          EXPECT_TRUE(has_line(got.out, e.text))
              << "no stdout line '" << e.text << "' in:\n" << got.out;
          break;
        case Expect::Kind::kOut:
          EXPECT_NE(got.out.find(e.text), std::string::npos)
              << "no '" << e.text << "' in stdout:\n" << got.out;
          break;
        case Expect::Kind::kErr:
          EXPECT_NE(got.err.find(e.text), std::string::npos)
              << "no '" << e.text << "' in stderr:\n" << got.err;
          break;
      }
    }
  }
}

/// Writes the first `bytes` of `from` to `to`: a file cut as a crash
/// cuts it.
void cut_copy(const std::string& from, const std::string& to,
              std::uintmax_t bytes) {
  const std::string whole = read_file(from);
  ASSERT_GT(whole.size(), bytes) << from;
  std::ofstream(to, std::ios::binary) << whole.substr(0, bytes);
}

void halve(const std::string& from, const std::string& to) {
  cut_copy(from, to, fs::file_size(from) / 2);
}

/// Every test runs in one temp dir holding the files the fixture rows
/// write: full.wal and crash.wal (its first half), rs.trace,
/// crash-fault.wal, mt.wal and mtcrash.wal, mt.trace and a torn copy, and
/// the Braess network staleflow_cli reads.
class Cli : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    home_ = fs::current_path();
    dir_ = fs::path(::testing::TempDir()) /
           ("staleflow_cli_test." + std::to_string(getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    fs::current_path(dir_);

    std::ofstream("braess.net") << "vertices 4\n"
                                   "edge 0 1 affine 0 1\n"
                                   "edge 0 2 constant 1\n"
                                   "edge 1 3 constant 1\n"
                                   "edge 2 3 affine 0 1\n"
                                   "edge 1 2 constant 0\n"
                                   "commodity 0 3 1\n";
    std::vector<Row> rows = {
        // Logging, tracing and a --progress heartbeat leave the digest
        // as it is.
        {kRouteServer, solo({"--wal", "full.wal"}), 0, {digest(golden::kSolo)}},
        {kRouteServer,
         solo({"--threads", "4", "--trace", "rs.trace", "--progress", "5"}),
         0,
         {digest(golden::kSolo)}},
        // The process _Exit(137)s right after the 10th commit point.
        {kRouteServer, solo({"--wal", "crash-fault.wal", "--faults",
                             "crash:at=10"}),
         137},
        {kRouteServer, trio({"--wal", "mt.wal"}), 0, kTrioDigests},
        {kRouteServer, trio({"--threads", "4", "--trace", "mt.trace"}), 0,
         kTrioDigests},
    };
    run_rows(rows);
    halve("full.wal", "crash.wal");  // mid-record, inside the delta chain
    halve("mt.wal", "mtcrash.wal");
    cut_copy("mt.trace", "mt.torn.trace", 3000);
  }

  static void TearDownTestSuite() {
    fs::current_path(home_);
    fs::remove_all(dir_);
  }

  static fs::path home_;
  static fs::path dir_;
};

fs::path Cli::home_;
fs::path Cli::dir_;

TEST_F(Cli, FlagAndSpecErrorsExit2WithTheirMessage) {
  run_rows({
      // sweep_cli: axes, catalogues and the executor's thread limit.
      {kSweep, {"run", "--simulator", "nope", "--quiet"}, 2,
       {err("unknown simulator 'nope' (have: fluid")}},
      {kSweep,
       {"run", "--simulator", "fluid", "--workloads", "poisson:100",
        "--quiet"},
       2,
       {err("axes require the service simulator")}},
      {kSweep,
       {"run", "--simulator", "service", "--workloads", "closed-loop:100",
        "--shards", "0,4", "--quiet"},
       2,
       {err("shard counts must be >= 1")}},
      {kSweep, {"run", "--simulator", "fluid", "--tenants", "2", "--quiet"},
       2,
       {err("axes require the service simulator")}},
      {kSweep,
       {"run", "--simulator", "service", "--workloads", "closed-loop:100",
        "--shards", "4", "--tenants", "0,2", "--quiet"},
       2,
       {err("tenant counts must be >= 1")}},
      {kSweep, {"run", "--replicas", "1", "--threads", "100000", "--quiet"},
       2,
       {err("100000 threads exceeds the limit of 1024")}},
      {kSweep,
       {"run", "--replicas", "1", "--threads", "18446744073709551615",
        "--quiet"},
       2,
       {err("18446744073709551615 threads exceeds the limit of 1024")}},
      // route_server_cli --tenants grammar.
      {kRouteServer, {"run", "--tenants", "", "--quiet"}, 2,
       {err("--tenants: no tenants in spec")}},
      {kRouteServer, {"run", "--tenants", "a;a", "--quiet"}, 2,
       {err("--tenants: duplicate tenant name 'a'")}},
      {kRouteServer, {"run", "--tenants", "a:bogus=1", "--quiet"}, 2,
       {err("--tenants: unknown key 'bogus'")}},
      {kRouteServer, {"run", "--tenants", "a:policy=nope", "--quiet"}, 2,
       {err("unknown policy 'nope' (have: replicator")}},
      {kRouteServer, {"run", "--tenants", "a:workload=poison:5", "--quiet"},
       2,
       {err("unknown workload 'poison' in 'poison:5' (have: poisson")}},
      // route_server_cli options the library rejects at engine start or
      // at the first Poisson draw, and tokens the number rule
      // (util/spec_parse.h) rejects in every grammar.
      {kRouteServer, {"run", "--epochs", "0", "--quiet"}, 2,
       {err("need at least one epoch")}},
      {kRouteServer,
       {"run", "--shards", "3000", "--clients", "2000", "--quiet"},
       2,
       {err("shards must be in [1, num_clients]")}},
      {kRouteServer, {"run", "--workload", "poisson:1e30", "--quiet"}, 2,
       {err("draws 2^63 or more queries in one epoch")}},
      {kRouteServer, {"run", "--period", "1e308", "--quiet"}, 2,
       {err("arrival mean is not finite")}},
      {kRouteServer, {"run", "--pipeline", "--quiet"}, 2,
       {err("unknown flag --pipeline")}},
      {kRouteServer, {"run", "--workload", "closed-loop:inf", "--quiet"}, 2,
       {err("bad count for queries per epoch: 'inf'")}},
      {kRouteServer, {"run", "--workload", "closed-loop:1e30", "--quiet"}, 2,
       {err("bad count for queries per epoch: '1e30'")}},
      {kRouteServer, {"run", "--tenants", "a:period=inf", "--quiet"}, 2,
       {err("--tenants: bad number for period: 'inf'")}},
      {kRouteServer, {"run", "--policy", "logit:inf", "--quiet"}, 2,
       {err("bad number for the parameter of policy 'logit:inf'")}},
      {kRouteServer, {"run", "--faults", "brownout:shed=0x1p-1", "--quiet"}, 2,
       {err("--faults: bad number for shed: '0x1p-1'")}},
      {kRouteServer, {"run", "--threads", "70000", "--quiet"}, 2,
       {err("70000 threads exceeds the limit of 1024")}},
      {kRouteServer, {"run", "--threads", "18446744073709551615", "--quiet"},
       2,
       {err("18446744073709551615 threads exceeds the limit of 1024")}},
      // --faults grammar, and clauses a sweep axis cannot carry.
      {kRouteServer, {"run", "--faults", "meteor:strike=1", "--quiet"}, 2,
       {err("--faults: unknown fault kind \"meteor\"")}},
      {kRouteServer, {"run", "--faults", "brownout:shed=1.5", "--quiet"}, 2,
       {err("--faults: shed must be a fraction in (0,1], got 1.5")}},
      {kRouteServer, {"run", "--faults", "crash:at=0", "--quiet"}, 2,
       {err("--faults: crash requires at >= 1")}},
      {kSweep,
       {"run", "--simulator", "service", "--workloads", "closed-loop:100",
        "--shards", "4", "--faults", "crash:at=3", "--quiet"},
       2,
       {err("crash/stall clauses are not sweepable")}},
      {kSweep,
       {"run", "--simulator", "service", "--workloads", "closed-loop:100",
        "--shards", "4", "--faults", "stall:workers=1,ms=5", "--quiet"},
       2,
       {err("crash/stall clauses are not sweepable")}},
      {kSweep, {"run", "--simulator", "fluid", "--faults", "none", "--quiet"},
       2,
       {err("axes require the service simulator")}},
      // staleflow_cli's policy grammar.
      {kStaleflow,
       {"simulate", "braess.net", "--policy", "replicator:2", "--horizon",
        "1"},
       2,
       {err("'replicator' takes no parameter")}},
      {kStaleflow,
       {"simulate", "braess.net", "--policy", "logit:inf", "--horizon", "1"},
       2,
       {err("bad number for the parameter of policy 'logit:inf'")}},
  });
}

TEST_F(Cli, RecoveryUsageErrorsExit2WithTheirMessage) {
  run_rows({
      {kRouteServer, {"run", "--resume", "missing.wal", "--quiet"}, 2,
       {err("cannot read --resume file 'missing.wal'")}},
      {kRouteServer, {"run", "--resume", "full.wal", "--seed", "7", "--quiet"},
       2,
       {err("--seed conflicts with --resume")}},
      {kRouteServer,
       {"run", "--resume", "crash-fault.wal", "--faults", "brownout:shed=0.5",
        "--quiet"},
       2,
       {err("--faults conflicts with --resume")}},
      {kRouteServer,
       {"run", "--wal", "w.wal", "--resume", "full.wal", "--quiet"},
       2,
       {err("--wal and --resume are mutually exclusive")}},
      {kRouteServer, {"run", "--wal", "/nonexistent-dir/x.wal", "--quiet"}, 2,
       {err("cannot write --wal path '/nonexistent-dir/x.wal'")}},
      {kWalReplay, {"replay", "full.wal", "--epoch", "19", "--epochs", "5"}, 2,
       {err("exceeds the committed prefix (20 cuts in the WAL)")}},
      // from_epoch + count wraps past 2^64.
      {kWalReplay,
       {"replay", "full.wal", "--epoch", "1", "--epochs",
        "18446744073709551615"},
       2,
       {err("exceeds the committed prefix (20 cuts in the WAL)")}},
      {kWalReplay, {"replay", "full.wal", "--threads", "70000", "--quiet"}, 2,
       {err("70000 threads exceeds the limit of 1024")}},
      // The WAL and the trace share one framing; each tool refuses the
      // other's file by its magic.
      {kWalReplay, {"info", "rs.trace"}, 2, {err("not a WAL")}},
      {kTraceDump, {"info", "full.wal"}, 2, {err("not a trace")}},
  });
}

TEST_F(Cli, ToolsPrintThePinnedDigests) {
  std::vector<Row> rows = {
      {kRouteServer, solo({"--threads", "1", "--csv", "rs.csv"}), 0,
       {digest(golden::kSolo)}},
      {kRouteServer, trio({"--threads", "1", "--csv", "mt.csv"}), 0,
       kTrioDigests},
      {kRouteServer, solo({"--threads", "1"}, "5000"), 0,
       {digest(golden::kLongSolo)}},
      {kRouteServer,
       solo({"--threads", "1", "--faults", "brownout:shed=0.5,at=5,for=6"}),
       0,
       {digest(golden::kSoloBrownout)}},
      // Wall-clock-only faults leave the healthy digest.
      {kRouteServer,
       solo({"--threads", "4", "--faults",
             "slow:shard=1,us=50,at=2,for=3;drop-telemetry:at=5,for=2;"
             "stall:workers=2,ms=10,at=0,for=3"}),
       0,
       {digest(golden::kSolo)}},
      {kSweep, service_sweep({"--shards", "1,4", "--cells-csv", "svc.csv"}), 0,
       {digest(golden::kServiceSweep)}},
      {kSweep,
       service_sweep({"--shards", "4", "--faults",
                      "none;brownout:shed=0.5,at=3,for=5"}),
       0,
       {digest(golden::kChaosSweep)}},
      {kRouteServer,
       {"run", "--seed", "18446744073709551615", "--epochs", "1", "--quiet"},
       0},
      {kStaleflow,
       {"simulate", "braess.net", "--policy", "safe", "--horizon", "1"},
       0,
       {line("simulated 10 phases to t = 1")}},
  };
#if defined(__GLIBC__) && defined(__x86_64__)
  rows.push_back(
      {kRouteServer,
       {"run", "--scenario", "braess", "--policy", "replicator", "--period",
        "0.1", "--epochs", "20", "--clients", "2000", "--workload",
        "bursty:40000,2000,3,2", "--shards", "8", "--sub-batch", "250",
        "--seed", "1", "--deterministic", "--threads", "4", "--quiet"},
       0,
       {digest(golden::kBursty)}});
#endif
  run_rows(rows);
}

TEST_F(Cli, TraceDumpReportsWhatTheRunRecorded) {
  run_rows({
      // One epoch span and one snapshot publish per served epoch,
      // sub-batch spans, a clean shutdown, nothing dropped.
      {kTraceDump,
       {"info", "rs.trace"},
       0,
       {out("clean_shutdown=1 truncated=0"), line("events[epoch]=20"),
        line("events[snapshot_publish]=20"), out("\nevents[sub_batch]="),
        line("counter[engine.epochs]=20"), out(" dropped=0")}},
      // 15 epochs for each of 3 tenants.
      {kTraceDump,
       {"info", "mt.trace"},
       0,
       {line("events[epoch]=45"), out("\nevents[scheduler_round]=")}},
      {kTraceDump, {"summary", "mt.trace"}, 0, {out("\nepoch ")}},
      {kTraceDump,
       {"summary", "mt.trace", "--by", "tenant"},
       0,
       {out("\nepoch/tenant=0 "), out("\nepoch/tenant=2 ")}},
      {kTraceDump,
       {"csv", "mt.trace"},
       0,
       {line("kind,tenant,epoch,worker,shard,arg,value,begin_ns,end_ns,"
             "duration_us"),
        out("\nepoch,0,14,"), out("\nepoch,1,14,"), out("\nepoch,2,14,")}},
      {kTraceDump,
       {"csv", "mt.trace", "--out", "mt.trace.csv"},
       0,
       {out(" events to mt.trace.csv")}},
      // A torn trace still decodes its prefix and reports the tear.
      {kTraceDump, {"info", "mt.torn.trace"}, 0, {out("truncated=1")}},
  });
}

TEST_F(Cli, CutWalsRecoverAndResumeToThePinnedDigests) {
  run_rows({
      // Writers write the header's pipeline byte as 0.
      {kWalReplay,
       {"info", "full.wal"},
       0,
       {line("mode: single-server pipeline=0"),
        out(" cuts=20 digest=" + hex(golden::kSolo) + "\n")}},
      {kWalReplay, {"info", "crash.wal"}, 0,
       {out("clean_shutdown=0 truncated=1")}},
      {kRouteServer, {"run", "--resume", "crash.wal", "--quiet"}, 0,
       {digest(golden::kSolo)}},
      {kWalReplay, {"info", "crash.wal"}, 0,
       {out("clean_shutdown=1 truncated=0")}},
      {kWalReplay,
       {"replay", "crash.wal", "--epoch", "5", "--epochs", "10", "--quiet"},
       0},
      // crash:at=10 leaves 10 round marks and 10 cuts: every round closes
      // the epoch it serves.
      {kWalReplay,
       {"info", "crash-fault.wal"},
       0,
       {out("\nrounds=10 clean_shutdown=0 "), out(" cuts=10 ")}},
      {kRouteServer, {"run", "--resume", "crash-fault.wal", "--quiet"}, 0,
       {digest(golden::kSolo)}},
      // A co-scheduled fleet resumes at a scheduler-round boundary.
      {kWalReplay, {"info", "mtcrash.wal"}, 0,
       {line("mode: multi-tenant pipeline=0")}},
      {kRouteServer, {"run", "--resume", "mtcrash.wal", "--quiet"}, 0,
       kTrioDigests},
  });
}

TEST_F(Cli, PipelinedCrashImagesRecoverAndResume) {
  // Crash images the retired pipelined schedule wrote (tests/data/): the
  // solo flags with --faults crash:at=10 and the trio flags with
  // crash:at=8. Each opens with a cut-less round mark and commits every
  // cut one round late; info reports that, replay re-executes every cut,
  // and a resume of a copy lands on the pinned digests (golden_test.cpp
  // resumes them at 1 and 4 threads).
  for (const std::string name : {"solo", "trio"}) {
    fs::copy_file(fs::path(STALEFLOW_TEST_DATA) /
                      (name + "-pipelined-crash.wal"),
                  name + "-pipe.wal", fs::copy_options::overwrite_existing);
  }
  run_rows({
      {kWalReplay,
       {"info", "solo-pipe.wal"},
       0,
       {line("mode: single-server pipeline=1"),
        out("\nrounds=10 clean_shutdown=0 truncated=0 "), out(" cuts=9 ")}},
      {kWalReplay, {"replay", "solo-pipe.wal", "--quiet"}, 0},
      {kRouteServer, {"run", "--resume", "solo-pipe.wal", "--quiet"}, 0,
       {digest(golden::kSolo)}},
      {kWalReplay,
       {"info", "trio-pipe.wal"},
       0,
       {line("mode: multi-tenant pipeline=1"),
        out("\nrounds=8 clean_shutdown=0 truncated=0 "),
        out("\ntenant small: "), out(" weight=1 cuts=3 "),
        out(" weight=2 cuts=7 ")}},
      {kWalReplay, {"replay", "trio-pipe.wal", "--quiet"}, 0},
      {kRouteServer, {"run", "--resume", "trio-pipe.wal", "--quiet"}, 0,
       kTrioDigests},
      {kWalReplay, {"info", "trio-pipe.wal"}, 0,
       {out("clean_shutdown=1 truncated=0")}},
  });
}

TEST_F(Cli, InfeasibleCutIsACorruptWal) {
  // tests/data/infeasible-cut.wal: braess/replicator, closed-loop:800,
  // 400 clients, 2 shards, seed 5, 10 epochs, crashed after 4 committed
  // cuts, with flow[0] = 1e300 in cuts 2 and 3 under valid checksums.
  // Restoring either cut is refused (exit 2); the log itself still reads.
  fs::copy_file(fs::path(STALEFLOW_TEST_DATA) / "infeasible-cut.wal",
                "infeasible.wal", fs::copy_options::overwrite_existing);
  run_rows({
      {kWalReplay, {"info", "infeasible.wal"}, 0,
       {out("\nrounds=4 clean_shutdown=0 truncated=0 "), out(" cuts=4 ")}},
      {kRouteServer, {"run", "--resume", "infeasible.wal", "--quiet"}, 2,
       {err("infeasible flow")}},
      {kWalReplay,
       {"replay", "infeasible.wal", "--epoch", "3", "--epochs", "1"},
       2,
       {err("infeasible flow")}},
  });
}

TEST_F(Cli, FaultedTracedAndLoggedRunsExitClean) {
  // The byte-pushing paths (fault windows, trace rings, WAL write, cut
  // recovery, resume and replay) end to end; under the sanitizer build
  // these are the tools' ASan/UBSan runs.
  run_rows({
      {kRouteServer,
       {"run", "--scenario", "braess", "--policy", "replicator", "--period",
        "0.1", "--epochs", "5", "--clients", "500", "--workload",
        "poisson:5000", "--shards", "8", "--threads", "4", "--quiet",
        "--trace", "faulted.trace", "--progress", "2", "--faults",
        "brownout:shed=0.25,at=1,for=2+slow:shard=0,us=20+"
        "stall:workers=1,ms=5,at=0,for=2"},
       0},
      {kTraceDump, {"info", "faulted.trace"}, 0,
       {out("clean_shutdown=1 truncated=0")}},
      {kRouteServer,
       {"run", "--period", "0.1", "--epochs", "5", "--clients", "500",
        "--shards", "4", "--threads", "4", "--quiet", "--tenants",
        "a:workload=poisson:5000;b:workload=closed-loop:300,clients=200,"
        "shards=2,weight=2;c:workload=bursty:8000,500,2,2,sub-batch=auto"},
       0},
      {kRouteServer,
       {"run", "--scenario", "braess", "--policy", "replicator", "--period",
        "0.1", "--epochs", "8", "--clients", "500", "--workload",
        "closed-loop:1000", "--shards", "4", "--seed", "3",
        "--deterministic", "--quiet", "--wal", "small.wal"},
       0},
  });
  halve("small.wal", "small-crash.wal");
  run_rows({
      {kWalReplay, {"info", "small-crash.wal"}, 0, {out("truncated=1")}},
      {kRouteServer, {"run", "--resume", "small-crash.wal", "--quiet"}, 0},
      {kWalReplay, {"replay", "small-crash.wal", "--quiet"}, 0},
  });
}

}  // namespace
}  // namespace staleflow
