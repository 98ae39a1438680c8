// Crash-recovery property suite (ctest label `recovery`, run under the
// sanitizer CI job).
//
// The contract under test: a run serving with --wal can be killed at ANY
// byte of its write-ahead log — a torn tail, a clean record boundary, a
// flipped bit — and recover_wal + resume reproduce the uninterrupted
// run's deterministic telemetry byte for byte: same per-epoch digests,
// same final flow, same route-latency histogram. The protocol invariants
// ride along: every scheduler round commits one cut per engine it
// scheduled, cut records commit only at round marks, a single-server WAL
// is record-for-record identical to a one-tenant registry's, writers
// write the v3 header's pipeline byte as 0 while readers still decode it
// (and v2 files without it), and the CLI-facing recovery flags fail
// closed (exit 2) on conflicting or unusable paths. Crash images the
// retired pipelined schedule wrote are pinned in golden_test.cpp and
// cli_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cli_common.h"
#include "exec/exec.h"
#include "faults/fault_plan.h"
#include "net/flow.h"
#include "net/generators.h"
#include "recovery/recovery.h"
#include "service/service.h"
#include "sweep/spec.h"
#include "trace/trace_format.h"
#include "util/binio.h"
#include "util/fnv.h"
#include "util/framed_log.h"
#include "util/log_histogram.h"
#include "util/rng.h"

namespace staleflow {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "staleflow_recovery_" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// ---------------------------------------------------------------- binio

TEST(BinIO, RoundTripsAllFieldTypes) {
  binio::Writer w;
  w.u8(0xAB);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.f64(-0.0);
  w.f64(3.141592653589793);
  w.str(std::string("bin\0ary", 7));  // embedded NUL survives
  w.str("");

  // Little-endian, field by field.
  const std::string expected(
      "\xAB"
      "\xEF\xBE\xAD\xDE"
      "\xEF\xCD\xAB\x89\x67\x45\x23\x01"
      "\x00\x00\x00\x00\x00\x00\x00\x80"
      "\x18\x2D\x44\x54\xFB\x21\x09\x40"
      "\x07\x00\x00\x00\x00\x00\x00\x00" "bin\0ary"
      "\x00\x00\x00\x00\x00\x00\x00\x00",
      1 + 4 + 8 + 8 + 8 + 8 + 7 + 8);
  EXPECT_EQ(w.data(), expected);

  binio::Reader r(w.data());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  const double negative_zero = r.f64();
  EXPECT_EQ(negative_zero, 0.0);
  EXPECT_TRUE(std::signbit(negative_zero));  // exact bit pattern, not value
  EXPECT_EQ(r.f64(), 3.141592653589793);
  EXPECT_EQ(r.str(), std::string("bin\0ary", 7));
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.done());
}

TEST(BinIO, ReaderThrowsOnUnderrun) {
  binio::Writer w;
  w.u32(7);
  binio::Reader r(w.data());
  EXPECT_THROW(r.u64(), std::runtime_error);

  binio::Writer lying;
  lying.u64(1000);  // string length prefix far past the buffer
  binio::Reader r2(lying.data());
  EXPECT_THROW(r2.str(), std::runtime_error);
}

// ------------------------------------------- LogHistogram::from_state

std::vector<std::pair<std::uint64_t, std::uint64_t>> nonzero_buckets(
    const LogHistogram& hist) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets;
  for (std::size_t b = 0; b < hist.bucket_count(); ++b) {
    if (hist.bucket_value(b) != 0) buckets.emplace_back(b, hist.bucket_value(b));
  }
  return buckets;
}

TEST(HistogramState, RoundTripIsObservationallyIdentical) {
  LogHistogram hist;
  Rng rng(11);
  for (int i = 0; i < 5000; ++i) hist.record(rng.uniform(0.0, 100.0));
  hist.record(1e-12);  // underflow bucket
  hist.record(1e12);   // overflow bucket

  const LogHistogram restored = LogHistogram::from_state(
      nonzero_buckets(hist), hist.min(), hist.max(), hist.sum());
  EXPECT_TRUE(restored == hist);
  EXPECT_EQ(restored.quantile(0.99), hist.quantile(0.99));

  // Restored histograms must keep MERGING exactly — that is how resume
  // rebuilds the run distribution from per-epoch cuts.
  LogHistogram more;
  more.record(42.0, 17);
  LogHistogram merged_original = hist;
  merged_original.merge(more);
  LogHistogram merged_restored = restored;
  merged_restored.merge(more);
  EXPECT_TRUE(merged_restored == merged_original);
}

TEST(HistogramState, EmptyRoundTrip) {
  const LogHistogram empty;
  const LogHistogram restored = LogHistogram::from_state(
      {}, /*min=*/0.0, /*max=*/0.0, /*sum=*/0.0);
  EXPECT_TRUE(restored == empty);
  EXPECT_TRUE(restored.empty());
}

TEST(HistogramState, RejectsBadState) {
  using Buckets = std::vector<std::pair<std::uint64_t, std::uint64_t>>;
  const Buckets repeated = {{5, 1}, {5, 2}};
  EXPECT_THROW(LogHistogram::from_state(repeated, 1.0, 2.0, 3.0),
               std::invalid_argument);
  const Buckets zero_count = {{5, 0}};
  EXPECT_THROW(LogHistogram::from_state(zero_count, 1.0, 2.0, 3.0),
               std::invalid_argument);
  const Buckets out_of_range = {{1u << 30, 1}};
  EXPECT_THROW(LogHistogram::from_state(out_of_range, 1.0, 2.0, 3.0),
               std::invalid_argument);
  const Buckets fine = {{5, 1}};
  EXPECT_THROW(  // min > max
      LogHistogram::from_state(fine, 2.0, 1.0, 3.0), std::invalid_argument);
}

// ------------------------------------------------ incremental digest

TEST(TelemetryDigest, AccumulateFoldsToWholeRunDigest) {
  std::vector<EpochSummary> epochs(5);
  for (std::size_t e = 0; e < epochs.size(); ++e) {
    epochs[e].epoch = e;
    epochs[e].queries = 100 + e;
    epochs[e].migrations = e;
    epochs[e].wardrop_gap = 0.25 / static_cast<double>(e + 1);
    epochs[e].board_latency = 1.5 + static_cast<double>(e);
    epochs[e].route_p50 = 1.0;
    epochs[e].route_p99 = 2.0;
    epochs[e].route_p999 = 3.0;
  }
  std::uint64_t folded = fnv::kOffsetBasis;
  for (const EpochSummary& epoch : epochs) {
    folded = telemetry_digest_accumulate(folded, epoch);
  }
  EXPECT_EQ(folded, telemetry_digest(epochs));
}

// ------------------------------------------------ framed-record log

/// One file kind served by the shared framed-record scanner. The suite
/// runs once per kind: the WAL and the trace must behave identically.
struct LogKind {
  const char* kind;
  const char (*magic)[framed_log::kMagicBytes];
  const char (*other_magic)[framed_log::kMagicBytes];  // the other kind
  std::uint32_t max_type;
};

const LogKind kLogKinds[] = {
    {"WAL", &recovery::kWalMagic, &trace::kTraceMagic,
     static_cast<std::uint32_t>(recovery::RecordType::kTrailer)},
    {"trace", &trace::kTraceMagic, &recovery::kWalMagic,
     static_cast<std::uint32_t>(trace::TraceRecordType::kTraceTrailer)},
};

class FramedLog : public ::testing::TestWithParam<LogKind> {
 protected:
  std::string path(const std::string& name) const {
    return temp_path(std::string(GetParam().kind) + "_" + name);
  }

  framed_log::Scan scan(const std::string& file) const {
    return framed_log::scan_frames(file, GetParam().kind, *GetParam().magic,
                                   GetParam().max_type);
  }

  /// `magic` followed by one frame per (type, payload).
  static std::string framed(
      const char (&magic)[framed_log::kMagicBytes],
      const std::vector<std::pair<std::uint32_t, std::string>>& records) {
    std::ostringstream out(std::ios::binary);
    out.write(magic, framed_log::kMagicBytes);
    for (const auto& [type, payload] : records) {
      framed_log::append_frame(out, type, payload);
    }
    return out.str();
  }

  /// Three records: types 1, 2 and the last valid type word.
  std::string three_records() const {
    return framed(*GetParam().magic, {{1, "one"},
                                      {2, std::string("t\0\0wo", 5)},
                                      {GetParam().max_type, "three"}});
  }
};

TEST_P(FramedLog, RoundTripsBinaryPayloads) {
  const std::string file = path("roundtrip");
  const std::string nul_bytes("b\0in\0", 5);
  write_file(file, framed(*GetParam().magic, {{1, "alpha"},
                                              {2, nul_bytes},
                                              {GetParam().max_type, ""}}));
  const framed_log::Scan full = scan(file);
  EXPECT_FALSE(full.truncated);
  EXPECT_TRUE(full.note.empty());
  ASSERT_EQ(full.records.size(), 3u);
  EXPECT_EQ(full.records[0].type, 1u);
  EXPECT_EQ(full.records[0].payload, "alpha");
  EXPECT_EQ(full.records[1].payload, nul_bytes);
  EXPECT_EQ(full.records[2].type, GetParam().max_type);
  EXPECT_EQ(full.records[2].payload, "");
  // Each end offset is the previous one plus the frame overhead and the
  // payload; the last is the file size.
  std::uint64_t end = framed_log::kMagicBytes;
  for (const framed_log::Frame& record : full.records) {
    end += framed_log::kFrameBytes + record.payload.size();
    EXPECT_EQ(record.end_offset, end);
  }
  EXPECT_EQ(full.valid_bytes, std::filesystem::file_size(file));
}

TEST_P(FramedLog, TruncationAtEveryByteKeepsTheRecordPrefix) {
  const std::string bytes = three_records();
  const std::string file = path("torn");
  write_file(file, bytes);
  const framed_log::Scan full = scan(file);
  ASSERT_EQ(full.records.size(), 3u);
  std::vector<std::uint64_t> boundaries = {framed_log::kMagicBytes};
  for (const framed_log::Frame& record : full.records) {
    boundaries.push_back(record.end_offset);
  }

  for (std::size_t cut = framed_log::kMagicBytes; cut <= bytes.size();
       ++cut) {
    write_file(file, bytes.substr(0, cut));
    const framed_log::Scan torn = scan(file);
    // The trusted prefix is the last record boundary at or before the
    // cut; the scan is truncated exactly when the cut is off a boundary.
    std::size_t kept = 0;
    while (kept + 1 < boundaries.size() && boundaries[kept + 1] <= cut) {
      ++kept;
    }
    const bool at_boundary = boundaries[kept] == cut;
    EXPECT_EQ(torn.truncated, !at_boundary) << "cut at " << cut;
    EXPECT_EQ(torn.note.empty(), at_boundary) << "cut at " << cut;
    EXPECT_EQ(torn.valid_bytes, boundaries[kept]) << "cut at " << cut;
    ASSERT_EQ(torn.records.size(), kept) << "cut at " << cut;
    for (std::size_t r = 0; r < kept; ++r) {
      EXPECT_EQ(torn.records[r].payload, full.records[r].payload);
    }
  }
}

TEST_P(FramedLog, BitFlipInRecordTwoKeepsRecordOneOnly) {
  const std::string bytes = three_records();
  const std::string file = path("flip");
  write_file(file, bytes);
  const framed_log::Scan full = scan(file);
  ASSERT_EQ(full.records.size(), 3u);

  // Every single-bit flip anywhere in record 2 (length, type, payload,
  // checksum) rejects it, and the prefix property keeps the intact
  // record 3 from surfacing.
  for (std::uint64_t at = full.records[0].end_offset;
       at < full.records[1].end_offset; ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = bytes;
      corrupt[at] = static_cast<char>(corrupt[at] ^ (1 << bit));
      write_file(file, corrupt);
      const framed_log::Scan flipped = scan(file);
      EXPECT_TRUE(flipped.truncated) << "flip at " << at << " bit " << bit;
      ASSERT_EQ(flipped.records.size(), 1u)
          << "flip at " << at << " bit " << bit;
      EXPECT_EQ(flipped.records[0].payload, "one");
      EXPECT_EQ(flipped.valid_bytes, full.records[0].end_offset);
    }
  }
}

TEST_P(FramedLog, StopsAtAnOversizedLengthOrAnUnknownType) {
  const std::string head = framed(*GetParam().magic, {{1, "kept"}});
  const std::string file = path("bad_frame");

  // A length field past the cap is refused before any allocation.
  binio::Writer oversized;
  oversized.u32(framed_log::kMaxPayload + 1);
  oversized.u32(1);
  oversized.u64(0);
  write_file(file, head + oversized.data());
  framed_log::Scan bad = scan(file);
  EXPECT_TRUE(bad.truncated);
  EXPECT_EQ(bad.note, "corrupt record: impossible payload length");
  EXPECT_EQ(bad.records.size(), 1u);
  EXPECT_EQ(bad.valid_bytes, head.size());

  // A checksum-valid frame whose type word is outside 1..max_type.
  for (const std::uint32_t type : {0u, GetParam().max_type + 1}) {
    write_file(file, framed(*GetParam().magic, {{1, "kept"}, {type, "x"}}));
    bad = scan(file);
    EXPECT_TRUE(bad.truncated) << "type " << type;
    EXPECT_EQ(bad.note, "corrupt record: unknown record type");
    EXPECT_EQ(bad.records.size(), 1u);
    EXPECT_EQ(bad.valid_bytes, head.size());
  }
}

TEST_P(FramedLog, RejectsMissingEmptyAndForeignFiles) {
  EXPECT_THROW(scan(path("missing")), std::runtime_error);

  const std::string file = path("foreign");
  write_file(file, "");
  EXPECT_THROW(scan(file), std::runtime_error);
  write_file(file, "this is certainly not a framed log");
  EXPECT_THROW(scan(file), std::runtime_error);

  // A well-formed file of the other kind (a WAL handed to the trace
  // scanner, or the reverse) is refused by its magic, by name.
  write_file(file, framed(*GetParam().other_magic, {{1, "x"}}));
  try {
    scan(file);
    ADD_FAILURE() << "foreign magic accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(std::string("is not a ") +
                                         GetParam().kind + " (bad magic)"),
              std::string::npos)
        << e.what();
  }

  // Magic only: a valid, empty log.
  write_file(file, framed(*GetParam().magic, {}));
  const framed_log::Scan empty = scan(file);
  EXPECT_FALSE(empty.truncated);
  EXPECT_TRUE(empty.records.empty());
  EXPECT_EQ(empty.valid_bytes, framed_log::kMagicBytes);
}

INSTANTIATE_TEST_SUITE_P(
    WalAndTrace, FramedLog, ::testing::ValuesIn(kLogKinds),
    [](const ::testing::TestParamInfo<LogKind>& info) {
      return std::string(info.param.kind);
    });

/// The WAL's records, as recovery sees them before decoding.
framed_log::Scan wal_frames(const std::string& path) {
  return framed_log::scan_frames(path, "WAL", recovery::kWalMagic,
                                 recovery::kMaxRecordType);
}

// ---------------------------------------------------- serving fixtures

/// A small deterministic single-server run: braess (libm-free dynamics),
/// closed-loop load, replay mode — every telemetry byte reproducible.
struct SingleRun {
  Instance instance = braess(true);
  Policy policy = named_policy("replicator").make(instance, 0.1);
  WorkloadPtr workload = make_workload("closed-loop:800");
  RouteServerOptions options;

  SingleRun() {
    options.update_period = 0.1;
    options.epochs = 8;
    options.num_clients = 400;
    options.shards = 2;
    options.threads = 1;
    options.seed = 5;
    options.record_latency = false;
  }

  RouteServerResult run(const CutObserver& cuts = nullptr,
                        std::span<const EngineCheckpoint> resume = {}) {
    RouteServer server(instance, policy, *workload);
    return server.run(FlowVector::uniform(instance), options, nullptr, cuts,
                      resume);
  }

  recovery::RunManifest manifest() const {
    recovery::RunManifest m;
    m.multi_tenant = false;
    recovery::TenantManifest self;
    self.scenario = "braess";
    self.policy = "replicator";
    self.workload = "closed-loop:800";
    self.options = options;
    self.weight = 1;
    m.tenants.push_back(std::move(self));
    return m;
  }
};

/// Resumes a single-server WAL file to completion and returns the whole
/// run's digest (the resumed process's view).
std::uint64_t resume_single_to_completion(const std::string& path,
                                          SingleRun& fixture) {
  const recovery::RecoveredRun state = recovery::recover_wal(path);
  EXPECT_FALSE(state.clean_shutdown);
  recovery::WalLog log(path, state);
  const RouteServerResult result =
      fixture.run(log.single_observer(), std::span(state.cuts.front()));
  log.finish();
  return telemetry_digest(result.epochs);
}

// ------------------------------------- kill-at-every-cut-point (library)

TEST(Resume, KillAtEveryCutPointResumesBitIdentically) {
  SingleRun fixture;
  std::vector<EngineCheckpoint> cuts;
  const RouteServerResult full =
      fixture.run([&cuts](const EngineCheckpoint& c) { cuts.push_back(c); });
  ASSERT_EQ(cuts.size(), fixture.options.epochs);
  const std::uint64_t golden = telemetry_digest(full.epochs);
  ASSERT_GT(full.total_migrations, 0u);  // dynamics actually moved

  for (std::size_t k = 0; k <= cuts.size(); ++k) {
    const RouteServerResult resumed =
        fixture.run(nullptr, std::span(cuts).subspan(0, k));
    EXPECT_EQ(telemetry_digest(resumed.epochs), golden) << "cut " << k;
    const std::vector<double> resumed_flow(resumed.final_flow.values().begin(),
                                           resumed.final_flow.values().end());
    const std::vector<double> full_flow(full.final_flow.values().begin(),
                                        full.final_flow.values().end());
    EXPECT_EQ(resumed_flow, full_flow) << "cut " << k;
    EXPECT_TRUE(resumed.route_latency == full.route_latency) << "cut " << k;
    EXPECT_EQ(resumed.total_queries, full.total_queries) << "cut " << k;
  }
}

TEST(Resume, RejectsCutsThatDoNotFitTheConfiguration) {
  SingleRun fixture;
  std::vector<EngineCheckpoint> cuts;
  fixture.run([&cuts](const EngineCheckpoint& c) { cuts.push_back(c); });

  std::vector<EngineCheckpoint> gap = {cuts[0], cuts[2]};  // not contiguous
  EXPECT_THROW(fixture.run(nullptr, gap), std::invalid_argument);

  std::vector<EngineCheckpoint> wrong_flow = {cuts[0]};
  wrong_flow[0].flow.push_back(0.0);
  EXPECT_THROW(fixture.run(nullptr, wrong_flow), std::invalid_argument);

  std::vector<EngineCheckpoint> wrong_clients = {cuts[0]};
  wrong_clients[0].client_paths.pop_back();
  EXPECT_THROW(fixture.run(nullptr, wrong_clients), std::invalid_argument);
}

// --------------------------------------------- WAL end-to-end (single)

TEST(WalLog, CleanRunRoundTripsThroughRecoverWal) {
  SingleRun fixture;
  const std::string path = temp_path("clean.wal");
  std::uint64_t golden = 0;
  {
    recovery::WalLog log(path, fixture.manifest());
    const RouteServerResult full = fixture.run(log.single_observer());
    log.finish();
    golden = telemetry_digest(full.epochs);
  }

  const recovery::RecoveredRun state = recovery::recover_wal(path);
  EXPECT_TRUE(state.clean_shutdown);
  EXPECT_FALSE(state.truncated);
  EXPECT_FALSE(state.manifest.multi_tenant);
  ASSERT_EQ(state.cuts.size(), 1u);
  EXPECT_EQ(state.cuts[0].size(), fixture.options.epochs);
  EXPECT_EQ(state.digests[0], golden);
  EXPECT_EQ(state.rounds, fixture.options.epochs);

  const recovery::TenantManifest& manifest = state.manifest.tenants[0];
  EXPECT_EQ(manifest.scenario, "braess");
  EXPECT_EQ(manifest.policy, "replicator");
  EXPECT_EQ(manifest.workload, "closed-loop:800");
  EXPECT_EQ(manifest.options.epochs, fixture.options.epochs);
  EXPECT_EQ(manifest.options.seed, fixture.options.seed);
  EXPECT_EQ(manifest.options.num_clients, fixture.options.num_clients);
  EXPECT_FALSE(manifest.options.record_latency);

  // Restored cuts are bit-identical to freshly captured ones: replaying
  // the recovered state must land on the same digest.
  const RouteServerResult resumed =
      fixture.run(nullptr, std::span(state.cuts[0]));
  EXPECT_EQ(telemetry_digest(resumed.epochs), golden);
}

TEST(WalLog, KilledAtAnyByteResumesToTheSameDigest) {
  SingleRun fixture;
  const std::string clean_path = temp_path("killbytes.wal");
  std::uint64_t golden = 0;
  {
    recovery::WalLog log(clean_path, fixture.manifest());
    golden = telemetry_digest(fixture.run(log.single_observer()).epochs);
    log.finish();
  }
  const std::string clean = read_file(clean_path);
  const framed_log::Scan scan = wal_frames(clean_path);

  // Crash images: the WAL cut at every record boundary and mid-record —
  // every one must recover and resume to the uninterrupted digest. The
  // prefix must at least contain the run header (records[0]); anything
  // shorter is "not a resumable WAL", tested separately.
  std::vector<std::size_t> prefixes;
  for (std::size_t i = 0; i + 1 < scan.records.size(); ++i) {
    prefixes.push_back(scan.records[i].end_offset);       // boundary
    prefixes.push_back(scan.records[i].end_offset + 5);   // torn mid-record
  }
  const std::string crash_path = temp_path("killbytes_crash.wal");
  for (const std::size_t keep : prefixes) {
    write_file(crash_path, clean.substr(0, keep));
    SingleRun resumed_fixture;
    EXPECT_EQ(resume_single_to_completion(crash_path, resumed_fixture),
              golden)
        << "killed at byte " << keep;
    // The healed WAL is now a complete, clean run.
    const recovery::RecoveredRun healed = recovery::recover_wal(crash_path);
    EXPECT_TRUE(healed.clean_shutdown) << "killed at byte " << keep;
    EXPECT_EQ(healed.digests[0], golden) << "killed at byte " << keep;
  }
}

TEST(WalLog, BitFlippedCutRecoversToLastGoodEpoch) {
  SingleRun fixture;
  const std::string path = temp_path("flipcut.wal");
  std::uint64_t golden = 0;
  {
    recovery::WalLog log(path, fixture.manifest());
    golden = telemetry_digest(fixture.run(log.single_observer()).epochs);
    log.finish();
  }
  std::string bytes = read_file(path);
  const framed_log::Scan scan = wal_frames(path);
  // Records: header, then (cut, mark) pairs. Flip a bit inside epoch 3's
  // cut record (records[7]): epochs 0..2 stay committed.
  ASSERT_GT(scan.records.size(), 8u);
  const std::uint64_t flip_at = scan.records[6].end_offset + 8 + 11;
  bytes[flip_at] = static_cast<char>(bytes[flip_at] ^ 0x01);
  write_file(path, bytes);

  const recovery::RecoveredRun state = recovery::recover_wal(path);
  EXPECT_TRUE(state.truncated);
  EXPECT_FALSE(state.clean_shutdown);
  EXPECT_EQ(state.cuts[0].size(), 3u);
  EXPECT_EQ(state.rounds, 3u);

  SingleRun resumed_fixture;
  EXPECT_EQ(resume_single_to_completion(path, resumed_fixture), golden);
}

// ------------------------------------------ crash clause × resume

TEST(ResumeDeathTest, ResumeOfCrashFaultRunMakesProgress) {
  // A run under --faults "crash:at=4" _Exit(137)s right after round 4
  // commits, and the resumed process re-materializes the SAME schedule
  // from the logged spec — crash_after is stateless. A resume must
  // therefore never re-evaluate the clause at a round the crashed run
  // already reached: every round commits the epoch it serves, so the
  // round count restarts at the cut count, and a count restarting too
  // low would re-crash every resume with zero new progress — an
  // unrecoverable loop. Run both processes in death-test children so a
  // regression shows up as an exit code, not a dead test binary.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";

  SingleRun fixture;
  std::vector<EngineCheckpoint> cuts;
  const std::uint64_t golden = telemetry_digest(
      fixture.run([&cuts](const EngineCheckpoint& c) { cuts.push_back(c); })
          .epochs);
  ASSERT_GT(cuts.size(), 4u);

  const faults::FaultSchedule at4 = faults::FaultSchedule::materialize(
      faults::parse_fault_plan("crash:at=4"), fixture.options.seed,
      fixture.options.epochs);
  // The crash image: round 4 commits the fourth cut, then the process
  // dies.
  EXPECT_EXIT(
      {
        SingleRun crashing;
        crashing.options.faults = &at4;
        std::size_t committed = 0;
        crashing.run([&committed](const EngineCheckpoint&) {
          std::fprintf(stderr, "committed=%zu\n", ++committed);
        });
      },
      ::testing::ExitedWithCode(137),
      "committed=4\nstaleflow: injected crash after commit point 4");
  // The resume from those 4 cuts, same spec, restarts at round 4 and
  // serves to the end.
  EXPECT_EXIT(
      {
        SingleRun resumed;
        resumed.options.faults = &at4;
        const RouteServerResult result =
            resumed.run(nullptr, std::span(cuts).subspan(0, 4));
        std::_Exit(telemetry_digest(result.epochs) == golden ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(RecoverWal, RejectsHeaderlessWal) {
  const std::string path = temp_path("headerless.wal");
  write_file(path, std::string(recovery::kWalMagic,
                               sizeof(recovery::kWalMagic)));  // no records
  EXPECT_THROW(recovery::recover_wal(path), std::runtime_error);
}

// ------------------------------------------- crafted counts (no MAC)

/// Overwrites the little-endian `width`-byte word at `at` with `value`.
std::string patch_word(std::string payload, std::size_t at,
                       std::uint64_t value, std::size_t width) {
  for (std::size_t i = 0; i < width; ++i) {
    payload[at + i] = static_cast<char>((value >> (8 * i)) & 0xFF);
  }
  return payload;
}

/// The index of the first record of `type` in `scan`.
std::size_t first_record(const framed_log::Scan& scan,
                         recovery::RecordType type) {
  for (std::size_t i = 0; i < scan.records.size(); ++i) {
    if (scan.records[i].type == static_cast<std::uint32_t>(type)) return i;
  }
  ADD_FAILURE() << "no record of type " << static_cast<int>(type);
  return 0;
}

/// Rewrites the WAL at `path` with record `index` carrying `payload`
/// under a freshly computed (valid) checksum.
void rewrite_record(const std::string& path, std::size_t index,
                    const std::string& payload) {
  const framed_log::Scan scan = wal_frames(path);
  std::ostringstream out(std::ios::binary);
  out.write(recovery::kWalMagic, framed_log::kMagicBytes);
  for (std::size_t i = 0; i < scan.records.size(); ++i) {
    const framed_log::Frame& frame = scan.records[i];
    framed_log::append_frame(out, frame.type,
                             i == index ? payload : frame.payload);
  }
  write_file(path, out.str());
}

TEST(BinIO, CountRejectsMoreItemsThanThePayloadHolds) {
  binio::Writer w;
  w.u32(3);
  w.u64(7);
  w.u64(8);
  w.u64(9);
  binio::Reader fits(w.data());
  EXPECT_EQ(fits.count<std::uint32_t>(8), 3u);
  binio::Reader too_many(w.data());
  EXPECT_THROW(too_many.count<std::uint32_t>(9), std::runtime_error);
  binio::Writer huge;
  huge.u64(std::uint64_t{1} << 61);
  binio::Reader wide(huge.data());
  EXPECT_THROW(wide.count<std::uint64_t>(8), std::runtime_error);
}

TEST(RecoverWal, CraftedCountsAreCorruptionNotAllocations) {
  // Every decoded count a crafted record could inflate — with a valid
  // checksum, since FNV-1a is no MAC — is checked against the bytes left
  // in its payload before anything is reserved. The header's is fatal
  // (nothing to resume from); a cut's, a delta's, a round mark's or the
  // trailer's ends the trusted prefix like any other corrupt record.
  SingleRun fixture;
  const std::string clean_path = temp_path("crafted_clean.wal");
  {
    recovery::WalLog log(clean_path, fixture.manifest());
    fixture.run(log.single_observer());
    log.finish();
  }
  const framed_log::Scan clean = wal_frames(clean_path);
  const std::size_t cut =
      first_record(clean, recovery::RecordType::kEpochCut);
  const std::size_t mark =
      first_record(clean, recovery::RecordType::kRoundMark);
  const std::size_t trailer =
      first_record(clean, recovery::RecordType::kTrailer);
  const std::string& cut_payload = clean.records[cut].payload;
  const recovery::CutRecord decoded = recovery::decode_epoch_cut(cut_payload);

  // Payload offsets: the header's tenant count follows the version, two
  // flag bytes and the (empty) fault spec; a cut's path count follows the
  // tenant index, 15 summary words and the RNG state.
  const std::size_t tenants_at = 4 + 1 + 1 + 8;
  const std::size_t paths_at = 4 + 15 * 8 + 8 * decoded.cut.rng_state.size();
  const std::size_t clients_at = paths_at + 8 + 8 * decoded.cut.flow.size();
  const std::size_t buckets_at =
      clients_at + 8 + 4 * decoded.cut.client_paths.size() + 8 + 8 + 4;

  // Writing each count's true value back changes nothing: the offsets
  // really address the counts.
  const std::string& header = clean.records.front().payload;
  const std::string& mark_payload = clean.records[mark].payload;
  const std::string& trailer_payload = clean.records[trailer].payload;
  ASSERT_EQ(patch_word(header, tenants_at, 1, 4), header);
  ASSERT_EQ(patch_word(cut_payload, paths_at, decoded.cut.flow.size(), 8),
            cut_payload);
  ASSERT_EQ(patch_word(cut_payload, clients_at,
                       decoded.cut.client_paths.size(), 8),
            cut_payload);
  std::uint64_t nonzero = 0;
  for (std::size_t b = 0; b < decoded.cut.route_hist.bucket_count(); ++b) {
    if (decoded.cut.route_hist.bucket_value(b) != 0) ++nonzero;
  }
  ASSERT_EQ(patch_word(cut_payload, buckets_at, nonzero, 8), cut_payload);
  ASSERT_EQ(patch_word(mark_payload, 8, 1, 4), mark_payload);
  ASSERT_EQ(patch_word(trailer_payload, 0, 1, 4), trailer_payload);

  // A delta shares the cut's head, so its change count sits where the
  // keyframe's client count does; its pairs take 8 bytes each.
  const std::size_t delta =
      first_record(clean, recovery::RecordType::kEpochDelta);
  const std::string& delta_payload = clean.records[delta].payload;
  const recovery::DeltaRecord decoded_delta =
      recovery::decode_epoch_delta(delta_payload);
  ASSERT_EQ(decoded_delta.record.cut.flow.size(), decoded.cut.flow.size());
  ASSERT_FALSE(decoded_delta.changes.empty());
  const std::size_t delta_buckets_at =
      clients_at + 8 + 8 * decoded_delta.changes.size() + 8 + 8 + 4;
  ASSERT_EQ(patch_word(delta_payload, paths_at, decoded.cut.flow.size(), 8),
            delta_payload);
  ASSERT_EQ(patch_word(delta_payload, clients_at,
                       decoded_delta.changes.size(), 8),
            delta_payload);
  ASSERT_EQ(patch_word(delta_payload, delta_buckets_at,
                       nonzero_buckets(decoded_delta.record.cut.route_hist).size(),
                       8),
            delta_payload);

  const std::string path = temp_path("crafted.wal");
  const auto recover_crafted = [&](std::size_t index,
                                   const std::string& payload) {
    write_file(path, read_file(clean_path));
    rewrite_record(path, index, payload);
    return recovery::recover_wal(path);
  };

  try {
    recover_crafted(0, patch_word(header, tenants_at, 0xFFFFFFFFu, 4));
    ADD_FAILURE() << "a 2^32-1 tenant count decoded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds the payload"),
              std::string::npos)
        << e.what();
  }

  const std::vector<std::pair<std::size_t, std::string>> in_log = {
      {cut, patch_word(cut_payload, paths_at, std::uint64_t{1} << 61, 8)},
      {cut, patch_word(cut_payload, clients_at, std::uint64_t{1} << 61, 8)},
      {cut, patch_word(cut_payload, buckets_at, std::uint64_t{1} << 61, 8)},
      {delta, patch_word(delta_payload, paths_at, std::uint64_t{1} << 61, 8)},
      {delta,
       patch_word(delta_payload, clients_at, std::uint64_t{1} << 61, 8)},
      {delta, patch_word(delta_payload, delta_buckets_at,
                         std::uint64_t{1} << 61, 8)},
      {mark, patch_word(mark_payload, 8, 0xFFFFFFFFu, 4)},
      {trailer, patch_word(trailer_payload, 0, 0xFFFFFFFFu, 4)},
  };
  for (const auto& [index, payload] : in_log) {
    const recovery::RecoveredRun state = recover_crafted(index, payload);
    EXPECT_TRUE(state.truncated) << index;
    EXPECT_FALSE(state.clean_shutdown) << index;
    EXPECT_EQ(state.note.rfind("corrupt WAL: binio: item count", 0), 0u)
        << index << ": " << state.note;
  }
}

// ------------------------------------- single-server == one-tenant WAL

TEST(WalProtocol, SingleServerMatchesOneTenantRegistryRecordForRecord) {
  SingleRun fixture;
  const std::string single_path = temp_path("proto_single.wal");
  {
    recovery::WalLog log(single_path, fixture.manifest());
    fixture.run(log.single_observer());
    log.finish();
  }

  const std::string tenant_path = temp_path("proto_tenant.wal");
  {
    recovery::RunManifest manifest = fixture.manifest();
    manifest.multi_tenant = true;
    manifest.tenants[0].name = "solo";
    recovery::WalLog log(tenant_path, manifest);
    TenantRegistry registry;
    TenantOptions options;
    options.server = fixture.options;
    registry.add("solo", fixture.instance, fixture.policy, *fixture.workload,
                 options);
    Executor executor(1);
    registry.run(executor, nullptr, log.round_observer());
    log.finish();
  }

  const framed_log::Scan single = wal_frames(single_path);
  const framed_log::Scan tenant = wal_frames(tenant_path);
  ASSERT_EQ(single.records.size(), tenant.records.size());
  // Headers differ (multi-tenant flag, tenant name); every record after
  // them — cuts, round marks, trailer — must be byte-identical.
  for (std::size_t i = 1; i < single.records.size(); ++i) {
    EXPECT_EQ(single.records[i].type, tenant.records[i].type) << "rec " << i;
    EXPECT_EQ(single.records[i].payload, tenant.records[i].payload)
        << "record " << i << " differs";
  }
}

// --------------------------------------------------- multi-tenant WAL

/// Three heterogeneous tenants with different weights, budgets and
/// scenarios — the interleaving actually exercises the round protocol.
struct MultiRun {
  Instance braess_instance = braess(true);
  Instance links = uniform_parallel_links(8, 0.5, 1.0);
  Policy braess_policy = named_policy("replicator").make(braess_instance, 0.1);
  Policy links_policy = named_policy("replicator").make(links, 0.1);
  WorkloadPtr workload_a = make_workload("closed-loop:800");
  WorkloadPtr workload_b = make_workload("closed-loop:400");
  WorkloadPtr workload_c = make_workload("closed-loop:300");
  TenantOptions options_a;
  TenantOptions options_b;
  TenantOptions options_c;

  MultiRun() {
    options_a.server.update_period = 0.1;
    options_a.server.epochs = 6;
    options_a.server.num_clients = 400;
    options_a.server.shards = 2;
    options_a.server.seed = 5;
    options_a.server.record_latency = false;
    options_a.weight = 2;

    options_b.server = options_a.server;
    options_b.server.epochs = 4;
    options_b.server.num_clients = 200;
    options_b.server.seed = 9;
    options_b.weight = 1;

    options_c.server = options_a.server;
    options_c.server.epochs = 5;
    options_c.server.num_clients = 250;
    options_c.server.seed = 13;
    options_c.weight = 1;
  }

  void add_tenants(TenantRegistry& registry) const {
    registry.add("alpha", braess_instance, braess_policy, *workload_a,
                 options_a);
    registry.add("beta", links, links_policy, *workload_b, options_b);
    registry.add("gamma", braess_instance, braess_policy, *workload_c,
                 options_c);
  }

  recovery::RunManifest manifest() const {
    recovery::RunManifest m;
    m.multi_tenant = true;
    recovery::TenantManifest alpha;
    alpha.name = "alpha";
    alpha.scenario = "braess";
    alpha.policy = "replicator";
    alpha.workload = "closed-loop:800";
    alpha.options = options_a.server;
    alpha.weight = options_a.weight;
    recovery::TenantManifest beta;
    beta.name = "beta";
    beta.scenario = "uniform-links-8";
    beta.policy = "replicator";
    beta.workload = "closed-loop:400";
    beta.options = options_b.server;
    beta.weight = options_b.weight;
    recovery::TenantManifest gamma;
    gamma.name = "gamma";
    gamma.scenario = "braess";
    gamma.policy = "replicator";
    gamma.workload = "closed-loop:300";
    gamma.options = options_c.server;
    gamma.weight = options_c.weight;
    m.tenants.push_back(std::move(alpha));
    m.tenants.push_back(std::move(beta));
    m.tenants.push_back(std::move(gamma));
    return m;
  }

  MultiTenantResult run(const RoundCutObserver& rounds = nullptr,
                        const RegistryResume* resume = nullptr) const {
    TenantRegistry registry;
    add_tenants(registry);
    Executor executor(1);
    return registry.run(executor, nullptr, rounds, resume);
  }
};

std::vector<std::uint64_t> tenant_digests(const MultiTenantResult& result) {
  std::vector<std::uint64_t> digests;
  for (const TenantResult& tenant : result.tenants) {
    digests.push_back(telemetry_digest(tenant.server.epochs));
  }
  return digests;
}

// ------------------------------------------------------ one schedule

TEST(WalProtocol, SoloRunCommitsOneCutPerRoundFromRoundOne) {
  // Every graph closes the epoch it serves: a logged solo run's WAL holds
  // as many round marks as cuts, and the first epoch is observed in the
  // first round.
  SingleRun fixture;
  const std::string path = temp_path("one_schedule.wal");
  {
    recovery::WalLog log(path, fixture.manifest());
    fixture.run(log.single_observer());
    log.finish();
  }
  const recovery::RecoveredRun state = recovery::recover_wal(path);
  ASSERT_EQ(state.cuts.size(), 1u);
  EXPECT_EQ(state.cuts[0].size(), fixture.options.epochs);
  EXPECT_EQ(state.rounds, state.cuts[0].size());

  TenantRegistry registry;
  TenantOptions options;
  options.server = fixture.options;
  registry.add("solo", fixture.instance, fixture.policy, *fixture.workload,
               options);
  Executor executor(1);
  std::size_t rounds_seen = 0;
  std::vector<std::size_t> observed_in;  // round of each observed epoch
  registry.run(
      executor,
      [&](std::size_t, const EpochSummary&) {
        observed_in.push_back(rounds_seen + 1);
      },
      [&](const RoundCheckpoint& round) {
        EXPECT_EQ(round.rounds, ++rounds_seen);
        EXPECT_EQ(round.cuts.size(), 1u) << "round " << round.rounds;
      });
  ASSERT_EQ(observed_in.size(), fixture.options.epochs);
  for (std::size_t e = 0; e < observed_in.size(); ++e) {
    EXPECT_EQ(observed_in[e], e + 1) << "epoch " << e;
  }
}

TEST(WalProtocol, EveryRoundMarkCommitsOneCutPerScheduledTenant) {
  // Replays the weighted round-robin beside the registry: each round's
  // cuts are exactly the tenants it scheduled, in index order, each at
  // the epoch that round served.
  MultiRun fixture;
  const std::size_t weights[] = {fixture.options_a.weight,
                                 fixture.options_b.weight,
                                 fixture.options_c.weight};
  const std::size_t budgets[] = {fixture.options_a.server.epochs,
                                 fixture.options_b.server.epochs,
                                 fixture.options_c.server.epochs};
  const std::size_t max_weight = *std::max_element(weights, weights + 3);
  std::vector<std::size_t> credits(3, 0);
  std::vector<std::size_t> served(3, 0);
  std::size_t rounds = 0;
  fixture.run([&](const RoundCheckpoint& round) {
    std::vector<std::size_t> scheduled;
    for (std::size_t i = 0; i < 3; ++i) {
      if (served[i] == budgets[i]) continue;
      credits[i] += weights[i];
      if (credits[i] >= max_weight) {
        credits[i] -= max_weight;
        scheduled.push_back(i);
      }
    }
    EXPECT_EQ(round.rounds, ++rounds);
    EXPECT_EQ(round.credits, credits) << "round " << rounds;
    ASSERT_EQ(round.cuts.size(), scheduled.size()) << "round " << rounds;
    for (std::size_t k = 0; k < scheduled.size(); ++k) {
      const auto& [tenant, cut] = round.cuts[k];
      EXPECT_EQ(tenant, scheduled[k]) << "round " << rounds;
      EXPECT_EQ(cut.summary.epoch, served[tenant]) << "round " << rounds;
      ++served[tenant];
    }
  });
  EXPECT_EQ(served, std::vector<std::size_t>(budgets, budgets + 3));
}

TEST(WalLog, MultiTenantKilledMidRunResumesBitIdentically) {
  MultiRun fixture;
  const std::string path = temp_path("multi.wal");
  std::vector<std::uint64_t> golden;
  {
    recovery::WalLog log(path, fixture.manifest());
    golden = tenant_digests(fixture.run(log.round_observer()));
    log.finish();
  }

  // Sanity: the clean WAL recovers to a finished run with those digests.
  const recovery::RecoveredRun clean = recovery::recover_wal(path);
  EXPECT_TRUE(clean.clean_shutdown);
  EXPECT_EQ(clean.digests, golden);
  EXPECT_EQ(clean.manifest.tenants[0].weight, 2u);

  // Kill the run at several byte offsets (including mid-record) and
  // resume each crash image: per-tenant digests must match, and every
  // tenant picks up at a scheduler-round boundary (committed cuts only).
  const std::string bytes = read_file(path);
  const framed_log::Scan scan = wal_frames(path);
  const std::string crash_path = temp_path("multi_crash.wal");
  for (std::size_t i = 0; i + 1 < scan.records.size(); i += 2) {
    for (const std::size_t keep :
         {scan.records[i].end_offset, scan.records[i].end_offset + 7}) {
      write_file(crash_path, bytes.substr(0, keep));
      const recovery::RecoveredRun state = recovery::recover_wal(crash_path);
      ASSERT_FALSE(state.clean_shutdown);
      recovery::WalLog log(crash_path, state);
      const RegistryResume resume = recovery::registry_resume(state);
      const MultiTenantResult resumed =
          fixture.run(log.round_observer(), &resume);
      log.finish();
      EXPECT_EQ(tenant_digests(resumed), golden) << "killed at byte " << keep;

      const recovery::RecoveredRun healed = recovery::recover_wal(crash_path);
      EXPECT_TRUE(healed.clean_shutdown) << "killed at byte " << keep;
      EXPECT_EQ(healed.digests, golden) << "killed at byte " << keep;
    }
  }
}

TEST(WalLog, FeedbackTenantKilledAtAnyByteResumesBitIdentically) {
  // A feedback tenant (its arrivals read the previous epoch's summary)
  // next to a poisson tenant, logged to one WAL: every crash image
  // resumes to the uninterrupted per-tenant digests.
  struct Tenant {
    const char* name;
    const char* workload;
    std::uint64_t seed;
  };
  const Tenant tenants[] = {{"lat", "closed-loop-lat:400,0.01", 3},
                            {"open", "poisson:600", 4}};
  const Instance instance = braess(true);
  const Policy policy = named_policy("replicator").make(instance, 0.1);
  std::vector<WorkloadPtr> workloads;
  RouteServerOptions options;
  options.update_period = 0.1;
  options.epochs = 6;
  options.num_clients = 400;
  options.shards = 2;
  options.record_latency = false;

  recovery::RunManifest manifest;
  manifest.multi_tenant = true;
  for (const Tenant& tenant : tenants) {
    workloads.push_back(make_workload(tenant.workload));
    recovery::TenantManifest logged;
    logged.name = tenant.name;
    logged.scenario = "braess";
    logged.policy = "replicator";
    logged.workload = tenant.workload;
    logged.options = options;
    logged.options.seed = tenant.seed;
    manifest.tenants.push_back(std::move(logged));
  }
  const auto run = [&](const RoundCutObserver& rounds,
                       const RegistryResume* resume) {
    TenantRegistry registry;
    for (std::size_t i = 0; i < manifest.tenants.size(); ++i) {
      TenantOptions served;
      served.server = manifest.tenants[i].options;
      registry.add(tenants[i].name, instance, policy, *workloads[i], served);
    }
    Executor executor(1);
    return registry.run(executor, nullptr, rounds, resume);
  };

  const std::string path = temp_path("feedback.wal");
  std::vector<std::uint64_t> golden;
  {
    recovery::WalLog log(path, manifest);
    golden = tenant_digests(run(log.round_observer(), nullptr));
    log.finish();
  }

  const std::string bytes = read_file(path);
  const framed_log::Scan scan = wal_frames(path);
  const std::string crash_path = temp_path("feedback_crash.wal");
  for (std::size_t i = 0; i + 1 < scan.records.size(); ++i) {
    for (const std::size_t keep :
         {scan.records[i].end_offset, scan.records[i].end_offset + 5}) {
      write_file(crash_path, bytes.substr(0, keep));
      const recovery::RecoveredRun state = recovery::recover_wal(crash_path);
      ASSERT_FALSE(state.clean_shutdown) << "killed at byte " << keep;
      EXPECT_FALSE(state.manifest.pipeline) << "killed at byte " << keep;
      recovery::WalLog log(crash_path, state);
      const RegistryResume resume = recovery::registry_resume(state);
      EXPECT_EQ(tenant_digests(run(log.round_observer(), &resume)), golden)
          << "killed at byte " << keep;
      log.finish();

      const recovery::RecoveredRun healed = recovery::recover_wal(crash_path);
      EXPECT_TRUE(healed.clean_shutdown) << "killed at byte " << keep;
      EXPECT_EQ(healed.digests, golden) << "killed at byte " << keep;
    }
  }
}

// ------------------------------------------- WAL header version skew

TEST(WalHeader, PipelineByteIsWrittenZeroAndStillRead) {
  SingleRun fixture;
  recovery::RunManifest manifest = fixture.manifest();
  manifest.pipeline = true;  // ignored on write
  const std::string current = recovery::encode_run_header(manifest);

  // Wire layout under test: u32 version (LE), u8 multi_tenant, u8
  // pipeline — the pipeline byte is exactly what v3 added. v4 added only
  // a record type, so its header is v3's under a new version word.
  binio::Reader head(current);
  ASSERT_EQ(recovery::kWalVersion, 4u);
  EXPECT_EQ(head.u32(), recovery::kWalVersion);
  EXPECT_EQ(head.u8(), 0u);  // multi_tenant
  EXPECT_EQ(head.u8(), 0u);  // pipeline: every writer writes 0

  const recovery::RunManifest decoded = recovery::decode_run_header(current);
  EXPECT_FALSE(decoded.pipeline);
  ASSERT_EQ(decoded.tenants.size(), 1u);
  EXPECT_EQ(decoded.tenants[0].options.epochs, fixture.options.epochs);

  // A header the retired pipelined schedule wrote carries 1 there, under
  // a v4 or a v3 version word, and decodes as such.
  std::string pipelined = current;
  pipelined[5] = 1;
  EXPECT_TRUE(recovery::decode_run_header(pipelined).pipeline);
  std::string v3 = pipelined;
  v3[0] = 3;
  const recovery::RunManifest older = recovery::decode_run_header(v3);
  EXPECT_TRUE(older.pipeline);
  ASSERT_EQ(older.tenants.size(), 1u);
  EXPECT_EQ(older.tenants[0].options.seed, fixture.options.seed);

  // A v2 header is the same payload minus the pipeline byte. Splice it
  // out and patch the version word: a v4 reader must accept it and
  // default pipeline off — every pre-existing WAL stays resumable.
  std::string v2 = current;
  v2.erase(5, 1);
  v2[0] = 2;
  const recovery::RunManifest old = recovery::decode_run_header(v2);
  EXPECT_FALSE(old.pipeline);
  ASSERT_EQ(old.tenants.size(), 1u);
  EXPECT_EQ(old.tenants[0].scenario, "braess");
  EXPECT_EQ(old.tenants[0].workload, "closed-loop:800");
  EXPECT_EQ(old.tenants[0].options.epochs, fixture.options.epochs);
  EXPECT_EQ(old.tenants[0].options.seed, fixture.options.seed);

  // An unknown version fails closed. This is also how the OTHER side of
  // the skew behaves: an older reader's version check rejects anything
  // newer, so a v4 WAL never half-decodes on an old build.
  for (const char version : {1, 5}) {
    std::string unknown = current;
    unknown[0] = version;
    EXPECT_THROW(recovery::decode_run_header(unknown), std::runtime_error)
        << "version " << int{version};
  }
}

TEST(WalHeader, RetiredLatencySlotsKeepTheV3Layout) {
  // The wall-clock p50/p99/p999 us fields are gone, but their WAL slots
  // stay: the header's sample-stride slot still holds 32, every cut —
  // keyframe or delta — still carries three (zeroed) doubles after
  // route_p999, and cuts a latency-recording build wrote — nonzero in
  // those slots — still decode and resume.
  SingleRun fixture;
  const std::string header_payload =
      recovery::encode_run_header(fixture.manifest());
  binio::Reader header(header_payload);
  EXPECT_EQ(header.u32(), recovery::kWalVersion);
  header.u8();  // multi_tenant
  header.u8();  // pipeline
  header.str();  // faults
  ASSERT_EQ(header.u32(), 1u);  // tenants
  for (int name = 0; name < 4; ++name) header.str();
  header.f64();  // update_period
  for (int word = 0; word < 4; ++word) header.u64();  // epochs .. sub_batch
  header.u8();   // sub_batch_auto
  header.u64();  // seed
  header.u8();   // record_latency
  EXPECT_EQ(header.u64(), 32u);  // the retired latency sample stride
  EXPECT_EQ(header.u64(), 1u);   // weight
  EXPECT_TRUE(header.done());

  const std::string clean_path = temp_path("retired_clean.wal");
  std::uint64_t golden = 0;
  {
    recovery::WalLog log(clean_path, fixture.manifest());
    golden = telemetry_digest(fixture.run(log.single_observer()).epochs);
    log.finish();
  }
  const framed_log::Scan clean = wal_frames(clean_path);
  const std::size_t retired_at = 4 + 11 * 8;  // tenant, 11 summary words
  std::ostringstream out(std::ios::binary);
  out.write(recovery::kWalMagic, framed_log::kMagicBytes);
  std::size_t cuts = 0;
  std::size_t deltas = 0;
  for (const framed_log::Frame& frame : clean.records) {
    std::string payload = frame.payload;
    if (frame.type == static_cast<std::uint32_t>(
                          recovery::RecordType::kEpochCut)) {
      const recovery::CutRecord decoded = recovery::decode_epoch_cut(payload);
      const EngineCheckpoint& cut = decoded.cut;
      std::uint64_t nonzero = 0;
      for (std::size_t b = 0; b < cut.route_hist.bucket_count(); ++b) {
        if (cut.route_hist.bucket_value(b) != 0) ++nonzero;
      }
      EXPECT_EQ(payload.size(),
                4 + 15 * 8 + 8 * cut.rng_state.size() + 8 +
                    8 * cut.flow.size() + 8 + 4 * cut.client_paths.size() +
                    (8 + 8 + 4 + 8 + 16 * nonzero + 3 * 8) + 8);
      EXPECT_EQ(payload.substr(retired_at, 3 * 8), std::string(3 * 8, '\0'));
      EXPECT_EQ(recovery::encode_epoch_cut(decoded.tenant, cut,
                                           decoded.digest_so_far),
                payload);
      for (int slot = 0; slot < 3; ++slot) {
        payload = patch_word(payload, retired_at + 8 * slot,
                             std::bit_cast<std::uint64_t>(0.1 * (slot + 1)),
                             8);
      }
      ++cuts;
    }
    if (frame.type == static_cast<std::uint32_t>(
                          recovery::RecordType::kEpochDelta)) {
      // A delta is the same layout with (client, path) pairs in place of
      // the client section.
      const recovery::DeltaRecord decoded =
          recovery::decode_epoch_delta(payload);
      const EngineCheckpoint& cut = decoded.record.cut;
      EXPECT_EQ(payload.size(),
                4 + 15 * 8 + 8 * cut.rng_state.size() + 8 +
                    8 * cut.flow.size() + 8 + 8 * decoded.changes.size() +
                    (8 + 8 + 4 + 8 + 16 * nonzero_buckets(cut.route_hist).size() +
                     3 * 8) +
                    8);
      EXPECT_EQ(payload.substr(retired_at, 3 * 8), std::string(3 * 8, '\0'));
      EXPECT_EQ(recovery::encode_epoch_delta(decoded.record.tenant, cut,
                                             decoded.record.digest_so_far,
                                             decoded.changes),
                payload);
      for (int slot = 0; slot < 3; ++slot) {
        payload = patch_word(payload, retired_at + 8 * slot,
                             std::bit_cast<std::uint64_t>(0.1 * (slot + 1)),
                             8);
      }
      ++cuts;
      ++deltas;
    }
    framed_log::append_frame(out, frame.type, payload);
  }
  ASSERT_EQ(cuts, fixture.options.epochs);
  EXPECT_EQ(deltas, fixture.options.epochs - 1);  // one keyframe, then deltas
  const std::string path = temp_path("retired_nonzero.wal");
  write_file(path, out.str());

  const recovery::RecoveredRun expected = recovery::recover_wal(clean_path);
  const recovery::RecoveredRun state = recovery::recover_wal(path);
  EXPECT_TRUE(state.clean_shutdown);
  EXPECT_FALSE(state.truncated);
  ASSERT_EQ(state.cuts.size(), 1u);
  ASSERT_EQ(state.cuts[0].size(), expected.cuts[0].size());
  for (std::size_t e = 0; e < state.cuts[0].size(); ++e) {
    const EpochSummary& got = state.cuts[0][e].summary;
    const EpochSummary& want = expected.cuts[0][e].summary;
    EXPECT_EQ(telemetry_digest_accumulate(fnv::kOffsetBasis, got),
              telemetry_digest_accumulate(fnv::kOffsetBasis, want))
        << "epoch " << e;
    EXPECT_EQ(got.queries_per_second, want.queries_per_second);
  }
  EXPECT_EQ(state.digests[0], golden);
  // Resuming mid-run needs the client paths of the cut resumed from.
  const std::size_t half = state.cuts[0].size() / 2;
  const recovery::RecoveredRun at_half =
      recovery::recover_wal(path, recovery::CutRef{0, half - 1});
  const RouteServerResult resumed =
      fixture.run(nullptr, std::span(at_half.cuts[0]).subspan(0, half));
  EXPECT_EQ(telemetry_digest(resumed.epochs), golden);
}

// ------------------------------------------------ delta cuts (WAL v4)

/// The frames of `scan` from `from` up to (not including) `to`, framed
/// again: a WAL image spliced around one record.
std::string reframe(const framed_log::Scan& scan, std::size_t from,
                    std::size_t to) {
  std::ostringstream out(std::ios::binary);
  for (std::size_t i = from; i < to; ++i) {
    framed_log::append_frame(out, scan.records[i].type,
                             scan.records[i].payload);
  }
  return out.str();
}

TEST(RecoverWal, FoldsPathsIntoTheLastCutAndTheNamedOne) {
  // Recovery folds each tenant's delta chain forward and hands out full
  // client paths for its last committed cut only, plus the one cut the
  // caller names: both must equal what the engine captured.
  SingleRun fixture;
  const std::string path = temp_path("fold.wal");
  std::vector<EngineCheckpoint> captured;
  {
    recovery::WalLog log(path, fixture.manifest());
    const CutObserver logged = log.single_observer();
    fixture.run([&](const EngineCheckpoint& cut) {
      captured.push_back(cut);
      logged(cut);
    });
    log.finish();
  }
  ASSERT_EQ(captured.size(), fixture.options.epochs);

  const recovery::RecoveredRun state = recovery::recover_wal(path);
  EXPECT_EQ(state.version, recovery::kWalVersion);
  ASSERT_EQ(state.cuts[0].size(), captured.size());
  for (std::size_t e = 0; e + 1 < captured.size(); ++e) {
    EXPECT_TRUE(state.cuts[0][e].client_paths.empty()) << "epoch " << e;
  }
  EXPECT_EQ(state.cuts[0].back().client_paths, captured.back().client_paths);

  for (std::size_t e = 0; e < captured.size(); ++e) {
    const recovery::RecoveredRun named =
        recovery::recover_wal(path, recovery::CutRef{0, e});
    EXPECT_EQ(named.cuts[0][e].client_paths, captured[e].client_paths)
        << "epoch " << e;
    EXPECT_EQ(named.cuts[0].back().client_paths,
              captured.back().client_paths);
  }
}

TEST(WalLog, ResumedSessionOpensWithAKeyframeAndTearsAtEveryByte) {
  // The keyframe rule: a resumed writer logs each tenant's first cut in
  // full, so the deltas after it fold onto a base in the file. Write,
  // tear mid-record, resume (a keyframe lands mid-file), then tear the
  // healed log at every byte: each image resumes bit-identically.
  SingleRun fixture;
  fixture.options.num_clients = 48;
  fixture.options.epochs = 6;
  const std::string path = temp_path("rekey.wal");
  std::uint64_t golden = 0;
  {
    recovery::WalLog log(path, fixture.manifest());
    golden = telemetry_digest(fixture.run(log.single_observer()).epochs);
    log.finish();
  }
  const std::string first = read_file(path);
  write_file(path, first.substr(0, first.size() / 2));
  const recovery::RecoveredRun torn = recovery::recover_wal(path);
  ASSERT_TRUE(torn.truncated);
  ASSERT_GT(torn.cuts[0].size(), 1u);  // a delta chain precedes the tear
  EXPECT_EQ(resume_single_to_completion(path, fixture), golden);

  const std::string healed = read_file(path);
  const framed_log::Scan scan = wal_frames(path);
  std::size_t keyframes = 0;
  bool keyframe_at_resume = false;
  for (const framed_log::Frame& frame : scan.records) {
    if (frame.type !=
        static_cast<std::uint32_t>(recovery::RecordType::kEpochCut)) {
      continue;
    }
    ++keyframes;
    const std::uint64_t start =
        frame.end_offset - framed_log::kFrameBytes - frame.payload.size();
    if (start == torn.valid_bytes) keyframe_at_resume = true;
  }
  EXPECT_EQ(keyframes, 2u);
  EXPECT_TRUE(keyframe_at_resume);

  const std::string crash_path = temp_path("rekey_crash.wal");
  for (std::size_t keep = scan.records.front().end_offset;
       keep < healed.size(); ++keep) {
    write_file(crash_path, healed.substr(0, keep));
    EXPECT_EQ(resume_single_to_completion(crash_path, fixture), golden)
        << "torn at byte " << keep;
  }
}

TEST(RecoverWal, BrokenDeltaChainsStopWithANoteNotAThrow) {
  // A delta with no base, naming a client past the tenant's count,
  // naming a client twice or out of order, or in a file whose header
  // predates v4 ends the trusted prefix at that record, as does a
  // keyframe whose client count is not the header's and a keyframe or
  // delta whose route histogram geometry is not the engine's; the prefix
  // before it still resumes to the uninterrupted digest.
  SingleRun fixture;
  const std::string clean_path = temp_path("chain_clean.wal");
  std::uint64_t golden = 0;
  {
    recovery::WalLog log(clean_path, fixture.manifest());
    golden = telemetry_digest(fixture.run(log.single_observer()).epochs);
    log.finish();
  }
  const framed_log::Scan clean = wal_frames(clean_path);
  const std::size_t key_at =
      first_record(clean, recovery::RecordType::kEpochCut);
  const std::size_t delta_at =
      first_record(clean, recovery::RecordType::kEpochDelta);
  const recovery::CutRecord key =
      recovery::decode_epoch_cut(clean.records[key_at].payload);
  const recovery::DeltaRecord delta =
      recovery::decode_epoch_delta(clean.records[delta_at].payload);
  const auto clients =
      static_cast<std::uint32_t>(fixture.options.num_clients);
  const auto with_changes =
      [&delta](std::vector<recovery::PathChange> changes) {
        return recovery::encode_epoch_delta(delta.record.tenant,
                                            delta.record.cut,
                                            delta.record.digest_so_far,
                                            changes);
      };
  std::string v3_header = clean.records.front().payload;
  v3_header[0] = 3;

  EngineCheckpoint short_key = key.cut;
  short_key.client_paths.pop_back();
  // The geometry fields (f64 min, f64 max, u32 sub-bucket bits) open the
  // cut tail; patch them to a small geometry, so the check must not
  // depend on the bucket count.
  const auto with_odd_geometry = [](std::string payload) {
    binio::Writer geometry;
    geometry.f64(LogHistogram::kMinValue);
    geometry.f64(LogHistogram::kMaxValue);
    geometry.u32(LogHistogram::kSubBucketBits);
    binio::Writer odd;
    odd.f64(1e-3);
    odd.f64(1e3);
    odd.u32(2);
    const std::size_t at = payload.rfind(geometry.data());
    EXPECT_NE(at, std::string::npos);
    if (at != std::string::npos) {
      payload.replace(at, geometry.data().size(), odd.data());
    }
    return payload;
  };
  struct Case {
    const char* what;
    std::size_t index;
    recovery::RecordType type;
    std::string payload;
    std::size_t committed;  // cuts before the broken record
    const char* note;
  };
  const Case cases[] = {
      {"first cut is a delta", key_at, recovery::RecordType::kEpochDelta,
       recovery::encode_epoch_delta(key.tenant, key.cut, key.digest_so_far,
                                    {}),
       0, "corrupt WAL: delta cut without a keyframe base"},
      {"keyframe short of the header's clients", key_at,
       recovery::RecordType::kEpochCut,
       recovery::encode_epoch_cut(key.tenant, short_key, key.digest_so_far),
       0, "corrupt WAL: keyframe client count differs from the run header's"},
      {"client past the tenant's count", delta_at,
       recovery::RecordType::kEpochDelta, with_changes({{clients, 0}}), 1,
       "corrupt WAL: delta cut names a client past the tenant's 400"},
      {"repeated client", delta_at, recovery::RecordType::kEpochDelta,
       with_changes({{1, 0}, {1, 0}}), 1,
       "corrupt WAL: WAL delta: clients not in strictly ascending order"},
      {"out of order", delta_at, recovery::RecordType::kEpochDelta,
       with_changes({{2, 0}, {1, 0}}), 1,
       "corrupt WAL: WAL delta: clients not in strictly ascending order"},
      {"delta under a v3 header", 0, recovery::RecordType::kRunHeader,
       v3_header, 1, "corrupt WAL: delta cut in a v3 file"},
      {"keyframe histogram geometry", key_at, recovery::RecordType::kEpochCut,
       with_odd_geometry(clean.records[key_at].payload), 0,
       "corrupt WAL: WAL cut: histogram geometry is not the route "
       "histogram's"},
      {"delta histogram geometry", delta_at,
       recovery::RecordType::kEpochDelta,
       with_odd_geometry(clean.records[delta_at].payload), 1,
       "corrupt WAL: WAL cut: histogram geometry is not the route "
       "histogram's"},
  };
  const std::string magic(recovery::kWalMagic, framed_log::kMagicBytes);
  const std::string path = temp_path("chain.wal");
  for (const Case& broken : cases) {
    std::ostringstream record(std::ios::binary);
    framed_log::append_frame(record, static_cast<std::uint32_t>(broken.type),
                             broken.payload);
    write_file(path, magic + reframe(clean, 0, broken.index) + record.str() +
                         reframe(clean, broken.index + 1,
                                 clean.records.size()));
    recovery::RecoveredRun state;
    try {
      state = recovery::recover_wal(path);
    } catch (const std::exception& e) {
      ADD_FAILURE() << broken.what << ": threw " << e.what();
      continue;
    }
    EXPECT_TRUE(state.truncated) << broken.what;
    EXPECT_FALSE(state.clean_shutdown) << broken.what;
    EXPECT_EQ(state.note, broken.note) << broken.what;
    EXPECT_EQ(state.cuts[0].size(), broken.committed) << broken.what;
    SingleRun resumed;
    EXPECT_EQ(resume_single_to_completion(path, resumed), golden)
        << broken.what;
  }
}

/// Two small tenants on different scenarios, small enough that the
/// payload fuzz below can flip every byte of every cut record.
struct PairRun {
  Instance braess_instance = braess(true);
  Instance links = uniform_parallel_links(8, 0.5, 1.0);
  Policy braess_policy = named_policy("replicator").make(braess_instance, 0.1);
  Policy links_policy = named_policy("replicator").make(links, 0.1);
  WorkloadPtr workload_a = make_workload("closed-loop:120");
  WorkloadPtr workload_b = make_workload("closed-loop:80");
  TenantOptions options_a;
  TenantOptions options_b;

  PairRun() {
    options_a.server.update_period = 0.1;
    options_a.server.epochs = 4;
    options_a.server.num_clients = 40;
    options_a.server.shards = 2;
    options_a.server.seed = 5;
    options_a.server.record_latency = false;
    options_a.weight = 2;

    options_b.server = options_a.server;
    options_b.server.epochs = 3;
    options_b.server.num_clients = 24;
    options_b.server.seed = 9;
  }

  recovery::RunManifest manifest() const {
    recovery::RunManifest m;
    m.multi_tenant = true;
    m.tenants.push_back({"a", "braess", "replicator", "closed-loop:120",
                         options_a.server, options_a.weight});
    m.tenants.push_back({"b", "uniform-links-8", "replicator",
                         "closed-loop:80", options_b.server,
                         options_b.weight});
    return m;
  }

  MultiTenantResult run(const RoundCutObserver& rounds = nullptr,
                        const RegistryResume* resume = nullptr) const {
    TenantRegistry registry;
    registry.add("a", braess_instance, braess_policy, *workload_a, options_a);
    registry.add("b", links, links_policy, *workload_b, options_b);
    Executor executor(1);
    return registry.run(executor, nullptr, rounds, resume);
  }
};

TEST(RecoverWal, CraftedCutAndDeltaPayloadsTruncateOrLoadClean) {
  // FNV-1a is no MAC: flip every byte of every keyframe and delta payload
  // of a real two-tenant WAL and re-frame it under a valid checksum.
  // Recovery must end the trusted prefix with a note or load clean; it
  // must never throw, crash or size anything from an unchecked count.
  PairRun fixture;
  const std::string clean_path = temp_path("fuzz_clean.wal");
  {
    recovery::WalLog log(clean_path, fixture.manifest());
    fixture.run(log.round_observer());
    log.finish();
  }
  const framed_log::Scan clean = wal_frames(clean_path);
  const std::string magic(recovery::kWalMagic, framed_log::kMagicBytes);
  const std::string path = temp_path("fuzz.wal");
  std::size_t keyframes = 0;
  std::size_t deltas = 0;
  std::size_t flips = 0;
  std::size_t truncated = 0;
  for (std::size_t index = 0; index < clean.records.size(); ++index) {
    const framed_log::Frame& frame = clean.records[index];
    if (frame.type ==
        static_cast<std::uint32_t>(recovery::RecordType::kEpochCut)) {
      ++keyframes;
    } else if (frame.type == static_cast<std::uint32_t>(
                                 recovery::RecordType::kEpochDelta)) {
      if (!recovery::decode_epoch_delta(frame.payload).changes.empty()) {
        ++deltas;
      }
    } else {
      continue;
    }
    const std::string before = magic + reframe(clean, 0, index);
    const std::string after = reframe(clean, index + 1, clean.records.size());
    for (std::size_t at = 0; at < frame.payload.size(); ++at) {
      for (const unsigned mask : {0x01u, 0xFFu}) {
        std::string flipped = frame.payload;
        flipped[at] = static_cast<char>(flipped[at] ^ mask);
        std::ostringstream record(std::ios::binary);
        framed_log::append_frame(record, frame.type, flipped);
        write_file(path, before + record.str() + after);
        ++flips;
        try {
          const recovery::RecoveredRun state = recovery::recover_wal(path);
          if (state.truncated) {
            ++truncated;
            EXPECT_EQ(state.note.rfind("corrupt WAL:", 0), 0u)
                << "record " << index << " byte " << at << ": " << state.note;
            EXPECT_FALSE(state.clean_shutdown);
          } else {
            EXPECT_TRUE(state.clean_shutdown)
                << "record " << index << " byte " << at;
          }
        } catch (const std::exception& e) {
          ADD_FAILURE() << "record " << index << " byte " << at << " mask "
                        << mask << ": threw " << e.what();
        }
      }
    }
  }
  EXPECT_EQ(keyframes, 2u);  // one per tenant: a single writer session
  EXPECT_GT(deltas, 0u);     // some delta carries changed paths
  EXPECT_GT(truncated, 0u);
  EXPECT_LT(truncated, flips);  // flips in flow or RNG words load clean
}

TEST(WalCompat, V3LogRecoversLikeV4AndResumesWithKeyframesOnly) {
  // A v3 (or v2) writer logged every cut as a keyframe. Build that log
  // from the public codecs for a run whose v4 log is also written: both
  // recover to the same digests and the same last-cut state, and a torn
  // copy of the old log resumes to the uninterrupted digests while
  // appending keyframes only under its old header.
  PairRun fixture;
  const std::string v4_path = temp_path("compat_v4.wal");
  std::vector<RoundCheckpoint> rounds;
  std::vector<std::uint64_t> golden;
  {
    recovery::WalLog log(v4_path, fixture.manifest());
    const RoundCutObserver logged = log.round_observer();
    golden = tenant_digests(fixture.run([&](const RoundCheckpoint& round) {
      rounds.push_back(round);
      logged(round);
    }));
    log.finish();
  }
  const recovery::RecoveredRun v4 = recovery::recover_wal(v4_path);
  EXPECT_EQ(v4.version, 4u);
  EXPECT_EQ(v4.digests, golden);

  for (const std::uint32_t version : {2u, 3u}) {
    // The headers differ only in the version word and, before v3, the
    // pipeline byte after the mode byte.
    std::string header = recovery::encode_run_header(fixture.manifest());
    if (version == 2) header.erase(5, 1);
    header[0] = static_cast<char>(version);  // the LE version word's low byte
    std::ostringstream out(std::ios::binary);
    out.write(recovery::kWalMagic, framed_log::kMagicBytes);
    const auto append = [&out](recovery::RecordType type,
                               const std::string& payload) {
      framed_log::append_frame(out, static_cast<std::uint32_t>(type),
                               payload);
    };
    append(recovery::RecordType::kRunHeader, header);
    std::vector<std::uint64_t> digests(golden.size(), fnv::kOffsetBasis);
    for (const RoundCheckpoint& round : rounds) {
      for (const auto& [tenant, cut] : round.cuts) {
        digests[tenant] =
            telemetry_digest_accumulate(digests[tenant], cut.summary);
        append(recovery::RecordType::kEpochCut,
               recovery::encode_epoch_cut(static_cast<std::uint32_t>(tenant),
                                          cut, digests[tenant]));
      }
      recovery::RoundMark mark;
      mark.rounds = round.rounds;
      mark.credits.assign(round.credits.begin(), round.credits.end());
      append(recovery::RecordType::kRoundMark,
             recovery::encode_round_mark(mark));
    }
    append(recovery::RecordType::kTrailer, recovery::encode_trailer(digests));
    const std::string old_path =
        temp_path("compat_v" + std::to_string(version) + ".wal");
    write_file(old_path, out.str());

    const recovery::RecoveredRun old = recovery::recover_wal(old_path);
    EXPECT_EQ(old.version, version);
    EXPECT_TRUE(old.clean_shutdown);
    EXPECT_FALSE(old.truncated);
    EXPECT_EQ(old.digests, golden);
    EXPECT_EQ(old.rounds, v4.rounds);
    EXPECT_EQ(old.credits, v4.credits);
    ASSERT_EQ(old.cuts.size(), v4.cuts.size());
    for (std::size_t t = 0; t < old.cuts.size(); ++t) {
      ASSERT_EQ(old.cuts[t].size(), v4.cuts[t].size());
      for (std::size_t e = 0; e < old.cuts[t].size(); ++e) {
        const EngineCheckpoint& a = old.cuts[t][e];
        const EngineCheckpoint& b = v4.cuts[t][e];
        EXPECT_EQ(telemetry_digest_accumulate(fnv::kOffsetBasis, a.summary),
                  telemetry_digest_accumulate(fnv::kOffsetBasis, b.summary));
        EXPECT_EQ(a.rng_state, b.rng_state);
        EXPECT_EQ(a.flow, b.flow);
        EXPECT_EQ(a.client_paths, b.client_paths);  // empty but the last
        EXPECT_TRUE(a.route_hist == b.route_hist);
      }
      EXPECT_EQ(old.cuts[t].back().client_paths.size(),
                t == 0 ? fixture.options_a.server.num_clients
                       : fixture.options_b.server.num_clients);
    }

    const std::string bytes = read_file(old_path);
    const framed_log::Scan scan = wal_frames(old_path);
    const std::string crash_path = temp_path("compat_crash.wal");
    for (std::size_t i = 0; i + 1 < scan.records.size(); ++i) {
      for (const std::size_t keep :
           {scan.records[i].end_offset, scan.records[i].end_offset + 5}) {
        write_file(crash_path, bytes.substr(0, keep));
        const recovery::RecoveredRun state =
            recovery::recover_wal(crash_path);
        ASSERT_FALSE(state.clean_shutdown) << "torn at byte " << keep;
        EXPECT_EQ(state.version, version);
        recovery::WalLog log(crash_path, state);
        const RegistryResume resume = recovery::registry_resume(state);
        EXPECT_EQ(tenant_digests(fixture.run(log.round_observer(), &resume)),
                  golden)
            << "v" << version << " torn at byte " << keep;
        log.finish();

        const framed_log::Scan healed = wal_frames(crash_path);
        EXPECT_EQ(binio::Reader(healed.records.front().payload).u32(),
                  version);
        for (const framed_log::Frame& frame : healed.records) {
          EXPECT_NE(frame.type, static_cast<std::uint32_t>(
                                    recovery::RecordType::kEpochDelta))
              << "v" << version << " torn at byte " << keep;
        }
        const recovery::RecoveredRun done = recovery::recover_wal(crash_path);
        EXPECT_TRUE(done.clean_shutdown) << "torn at byte " << keep;
        EXPECT_EQ(done.digests, golden) << "torn at byte " << keep;
      }
    }
  }
}

// ------------------------------------------------- CLI recovery flags

const std::set<std::string> kConfigKeys = {
    "scenario", "policy", "workload", "tenants",   "period",       "epochs",
    "clients",  "shards", "seed",     "sub-batch", "deterministic"};

TEST(RecoveryFlags, WalAndResumeAreMutuallyExclusive) {
  cli::RecoveryFlags flags;
  flags.wal = "a.wal";
  flags.resume = "b.wal";
  EXPECT_THROW(cli::validate_recovery_flags(flags, {}, kConfigKeys),
               cli::UsageError);
}

TEST(RecoveryFlags, ResumeConflictsWithConfigFlags) {
  const std::string path = temp_path("flags_ok.wal");
  write_file(path, "exists");
  cli::RecoveryFlags flags;
  flags.resume = path;
  const std::map<std::string, std::string> with_seed = {{"resume", path},
                                                        {"seed", "7"}};
  EXPECT_THROW(cli::validate_recovery_flags(flags, with_seed, kConfigKeys),
               cli::UsageError);
  const std::map<std::string, std::string> with_epochs = {{"resume", path},
                                                          {"epochs", "9"}};
  EXPECT_THROW(cli::validate_recovery_flags(flags, with_epochs, kConfigKeys),
               cli::UsageError);
}

TEST(RecoveryFlags, RuntimeKnobsStayLegalWithResume) {
  const std::string path = temp_path("flags_runtime.wal");
  write_file(path, "exists");
  cli::RecoveryFlags flags;
  flags.resume = path;
  const std::map<std::string, std::string> runtime = {
      {"resume", path}, {"threads", "4"}, {"csv", "out.csv"}, {"quiet", "1"}};
  EXPECT_NO_THROW(cli::validate_recovery_flags(flags, runtime, kConfigKeys));
}

TEST(RecoveryFlags, ResumeRequiresReadableFile) {
  cli::RecoveryFlags flags;
  flags.resume = temp_path("definitely_missing.wal");
  EXPECT_THROW(cli::validate_recovery_flags(flags, {}, kConfigKeys),
               cli::UsageError);
}

TEST(RecoveryFlags, WalRequiresWritablePath) {
  cli::RecoveryFlags flags;
  flags.wal = "/nonexistent_dir_for_staleflow_tests/x.wal";
  EXPECT_THROW(cli::validate_recovery_flags(flags, {}, kConfigKeys),
               cli::UsageError);
}

}  // namespace
}  // namespace staleflow
