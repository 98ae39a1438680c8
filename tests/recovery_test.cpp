// Crash-recovery property suite (ctest label `recovery`, run under the
// sanitizer CI job).
//
// The contract under test: a run serving with --wal can be killed at ANY
// byte of its write-ahead log — a torn tail, a clean record boundary, a
// flipped bit — and recover_wal + resume reproduce the uninterrupted
// run's deterministic telemetry byte for byte: same per-epoch digests,
// same final flow, same route-latency histogram. The contract holds
// under BOTH epoch schedules: the reference one (each epoch summarized
// in its own graph) and cross-epoch pipelining, whose overlap-spanning
// cuts must be byte-identical to the reference ones. The protocol
// invariants ride along: cut records commit only at round marks, a
// single-server WAL is record-for-record identical to a one-tenant
// registry's, the v3 header records the requested schedule (v2 files
// decode as unpipelined), and the CLI-facing recovery flags fail closed
// (exit 2) on conflicting or unusable paths.
#include <gtest/gtest.h>

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
  LogHistogram hist(1e-6, 1e6, 4);
  Rng rng(11);
  for (int i = 0; i < 5000; ++i) hist.record(rng.uniform(0.0, 100.0));
  hist.record(1e-9);  // underflow bucket
  hist.record(1e9);   // overflow bucket

  const LogHistogram restored = LogHistogram::from_state(
      hist.min_value(), hist.max_value(), hist.sub_bucket_bits(),
      nonzero_buckets(hist), hist.min(), hist.max(), hist.sum());
  EXPECT_TRUE(restored == hist);
  EXPECT_EQ(restored.quantile(0.99), hist.quantile(0.99));

  // Restored histograms must keep MERGING exactly — that is how resume
  // rebuilds the run distribution from per-epoch cuts.
  LogHistogram more(1e-6, 1e6, 4);
  more.record(42.0, 17);
  LogHistogram merged_original = hist;
  merged_original.merge(more);
  LogHistogram merged_restored = restored;
  merged_restored.merge(more);
  EXPECT_TRUE(merged_restored == merged_original);
}

TEST(HistogramState, EmptyRoundTrip) {
  const LogHistogram empty(1e-3, 1e3, 5);
  const LogHistogram restored = LogHistogram::from_state(
      1e-3, 1e3, 5, {}, /*min=*/0.0, /*max=*/0.0, /*sum=*/0.0);
  EXPECT_TRUE(restored == empty);
  EXPECT_TRUE(restored.empty());
}

TEST(HistogramState, RejectsBadState) {
  using Buckets = std::vector<std::pair<std::uint64_t, std::uint64_t>>;
  const Buckets repeated = {{5, 1}, {5, 2}};
  EXPECT_THROW(
      LogHistogram::from_state(1e-3, 1e3, 5, repeated, 1.0, 2.0, 3.0),
      std::invalid_argument);
  const Buckets zero_count = {{5, 0}};
  EXPECT_THROW(
      LogHistogram::from_state(1e-3, 1e3, 5, zero_count, 1.0, 2.0, 3.0),
      std::invalid_argument);
  const Buckets out_of_range = {{1u << 30, 1}};
  EXPECT_THROW(
      LogHistogram::from_state(1e-3, 1e3, 5, out_of_range, 1.0, 2.0, 3.0),
      std::invalid_argument);
  const Buckets fine = {{5, 1}};
  EXPECT_THROW(  // min > max
      LogHistogram::from_state(1e-3, 1e3, 5, fine, 2.0, 1.0, 3.0),
      std::invalid_argument);
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
  return framed_log::scan_frames(
      path, "WAL", recovery::kWalMagic,
      static_cast<std::uint32_t>(recovery::RecordType::kTrailer));
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

// ------------------------- pipelining × WAL (overlap-spanning cuts)

TEST(PipelinedCuts, MatchStrictCutsFieldForField) {
  SingleRun strict;
  std::vector<EngineCheckpoint> strict_cuts;
  strict.run([&](const EngineCheckpoint& c) { strict_cuts.push_back(c); });

  SingleRun pipelined;
  pipelined.options.pipeline = true;
  std::vector<EngineCheckpoint> pipe_cuts;
  pipelined.run([&](const EngineCheckpoint& c) { pipe_cuts.push_back(c); });

  // Cut CONTENT is schedule-independent: the overlap-spanning capture in
  // pipelined mode must produce the exact bytes the strict schedule logs.
  ASSERT_EQ(pipe_cuts.size(), strict_cuts.size());
  for (std::size_t e = 0; e < strict_cuts.size(); ++e) {
    EXPECT_EQ(pipe_cuts[e].rng_state, strict_cuts[e].rng_state) << "cut " << e;
    EXPECT_EQ(pipe_cuts[e].flow, strict_cuts[e].flow) << "cut " << e;
    EXPECT_EQ(pipe_cuts[e].client_paths, strict_cuts[e].client_paths)
        << "cut " << e;
    EXPECT_TRUE(pipe_cuts[e].route_hist == strict_cuts[e].route_hist)
        << "cut " << e;
    EXPECT_EQ(telemetry_digest(std::span(&pipe_cuts[e].summary, 1)),
              telemetry_digest(std::span(&strict_cuts[e].summary, 1)))
        << "cut " << e;
  }
}

TEST(Resume, PipelinedKillAtEveryCutPointResumesBitIdentically) {
  SingleRun fixture;
  fixture.options.pipeline = true;
  std::vector<EngineCheckpoint> cuts;
  const RouteServerResult full =
      fixture.run([&cuts](const EngineCheckpoint& c) { cuts.push_back(c); });
  ASSERT_EQ(cuts.size(), fixture.options.epochs);
  const std::uint64_t golden = telemetry_digest(full.epochs);

  // The pinnable property: pipelined digest == strict 1-thread digest.
  SingleRun strict;
  ASSERT_EQ(telemetry_digest(strict.run().epochs), golden);

  for (std::size_t k = 0; k <= cuts.size(); ++k) {
    // Resume under the pipelined schedule...
    const RouteServerResult resumed =
        fixture.run(nullptr, std::span(cuts).subspan(0, k));
    EXPECT_EQ(telemetry_digest(resumed.epochs), golden) << "cut " << k;
    EXPECT_TRUE(resumed.route_latency == full.route_latency) << "cut " << k;
    EXPECT_EQ(resumed.total_queries, full.total_queries) << "cut " << k;
    // ...and under the strict one: a cut restores into either schedule.
    SingleRun strict_resume;
    EXPECT_EQ(telemetry_digest(
                  strict_resume.run(nullptr, std::span(cuts).subspan(0, k))
                      .epochs),
              golden)
        << "cut " << k;
  }
}

TEST(WalLog, PipelinedKilledAtAnyByteResumesToTheSameDigest) {
  SingleRun fixture;
  fixture.options.pipeline = true;
  recovery::RunManifest manifest = fixture.manifest();
  manifest.pipeline = true;
  const std::string clean_path = temp_path("pipekillbytes.wal");
  std::uint64_t golden = 0;
  {
    recovery::WalLog log(clean_path, manifest);
    golden = telemetry_digest(fixture.run(log.single_observer()).epochs);
    log.finish();
  }
  // Strict cross-check: the pipelined WAL describes the strict dynamics.
  SingleRun strict;
  ASSERT_EQ(telemetry_digest(strict.run().epochs), golden);

  const std::string clean = read_file(clean_path);
  const framed_log::Scan scan = wal_frames(clean_path);
  std::vector<std::size_t> prefixes;
  for (std::size_t i = 0; i + 1 < scan.records.size(); ++i) {
    prefixes.push_back(scan.records[i].end_offset);      // boundary
    prefixes.push_back(scan.records[i].end_offset + 5);  // torn mid-record
  }
  const std::string crash_path = temp_path("pipekillbytes_crash.wal");
  for (const std::size_t keep : prefixes) {
    write_file(crash_path, clean.substr(0, keep));
    // The header's pipeline flag survives every crash image...
    const recovery::RecoveredRun probe = recovery::recover_wal(crash_path);
    EXPECT_TRUE(probe.manifest.pipeline) << "killed at byte " << keep;
    // ...and the resumed run, honoring it, lands on the same digest.
    SingleRun resumed_fixture;
    resumed_fixture.options.pipeline = true;
    EXPECT_EQ(resume_single_to_completion(crash_path, resumed_fixture),
              golden)
        << "killed at byte " << keep;
    const recovery::RecoveredRun healed = recovery::recover_wal(crash_path);
    EXPECT_TRUE(healed.clean_shutdown) << "killed at byte " << keep;
    EXPECT_EQ(healed.digests[0], golden) << "killed at byte " << keep;
  }
}

TEST(PipelinedFallback, FeedbackWorkloadServesTheReferenceSchedule) {
  SingleRun strict;
  strict.workload = make_workload("closed-loop-lat:400,0.01");
  strict.options.epochs = 4;
  const std::uint64_t golden = telemetry_digest(strict.run().epochs);

  // A feedback workload's arrivals read the previous epoch's summary, so
  // a pipelined request serves the reference schedule: same telemetry,
  // and the engine reports that it does not pipeline.
  SingleRun pipelined;
  pipelined.workload = make_workload("closed-loop-lat:400,0.01");
  pipelined.options.epochs = 4;
  pipelined.options.pipeline = true;
  EXPECT_EQ(telemetry_digest(pipelined.run().epochs), golden);

  SnapshotStore store;
  EpochEngine engine(pipelined.instance, pipelined.policy,
                     *pipelined.workload, store);
  engine.begin(FlowVector::uniform(pipelined.instance), pipelined.options);
  EXPECT_FALSE(engine.pipelined());
}

TEST(ResumeDeathTest, PipelinedResumeOfCrashFaultRunMakesProgress) {
  // A run under --faults "crash:at=4" _Exit(137)s right after round 4
  // commits, and the resumed process re-materializes the SAME schedule
  // from the logged spec — crash_after is stateless. A resume must
  // therefore never re-evaluate the clause at a round the crashed run
  // already reached: a pipelined resume's priming round closes no
  // epoch, so a round count restarting too low would re-crash every
  // resume with zero new progress — an unrecoverable loop. Run the
  // resume in a death-test child so a regression shows up as exit 137,
  // not a dead test binary.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";

  SingleRun fixture;
  fixture.options.pipeline = true;
  std::vector<EngineCheckpoint> cuts;
  const std::uint64_t golden = telemetry_digest(
      fixture.run([&cuts](const EngineCheckpoint& c) { cuts.push_back(c); })
          .epochs);
  ASSERT_GT(cuts.size(), 4u);

  EXPECT_EXIT(
      {
        const faults::FaultSchedule schedule =
            faults::FaultSchedule::materialize(
                faults::parse_fault_plan("crash:at=4"),
                fixture.options.seed, fixture.options.epochs);
        // The crash image: 4 committed cuts, same spec, pipelined.
        SingleRun resumed;
        resumed.options.pipeline = true;
        resumed.options.faults = &schedule;
        const RouteServerResult result =
            resumed.run(nullptr, std::span(cuts).subspan(0, 4));
        std::_Exit(telemetry_digest(result.epochs) == golden ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");

  // The real crash image: a pipelined run counts its cut-less priming
  // round, so "crash:at=5" fires after round 5 with 4 cuts committed.
  // The resume restarts its round count there (4 cuts + the priming
  // round), so the clause cannot fire again.
  const faults::FaultSchedule at5 = faults::FaultSchedule::materialize(
      faults::parse_fault_plan("crash:at=5"), fixture.options.seed,
      fixture.options.epochs);
  EXPECT_EXIT(
      {
        SingleRun crashing;
        crashing.options.pipeline = true;
        crashing.options.faults = &at5;
        std::size_t committed = 0;
        crashing.run([&committed](const EngineCheckpoint&) {
          std::fprintf(stderr, "committed=%zu\n", ++committed);
        });
      },
      ::testing::ExitedWithCode(137),
      "committed=4\nstaleflow: injected crash after commit point 5");
  EXPECT_EXIT(
      {
        SingleRun resumed;
        resumed.options.pipeline = true;
        resumed.options.faults = &at5;
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
  // (nothing to resume from); a cut's, a round mark's or the trailer's
  // ends the trusted prefix like any other corrupt record.
  SingleRun fixture;
  const std::string clean_path = temp_path("crafted_clean.wal");
  {
    recovery::WalLog log(clean_path, fixture.manifest());
    fixture.run(log.single_observer());
    log.finish();
  }
  const framed_log::Scan clean = wal_frames(clean_path);
  const auto first_of = [&clean](recovery::RecordType type) {
    for (std::size_t i = 0; i < clean.records.size(); ++i) {
      if (clean.records[i].type == static_cast<std::uint32_t>(type)) return i;
    }
    ADD_FAILURE() << "no record of type " << static_cast<int>(type);
    return std::size_t{0};
  };
  const std::size_t cut = first_of(recovery::RecordType::kEpochCut);
  const std::size_t mark = first_of(recovery::RecordType::kRoundMark);
  const std::size_t trailer = first_of(recovery::RecordType::kTrailer);
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
  bool pipeline = false;

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

  /// Switches every tenant to the pipelined schedule (the registry
  /// pipelines per engine; the manifest records the run-level flag).
  void enable_pipeline() {
    pipeline = true;
    options_a.server.pipeline = true;
    options_b.server.pipeline = true;
    options_c.server.pipeline = true;
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
    m.pipeline = pipeline;
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

TEST(WalLog, PipelinedThreeTenantsKilledMidRunResumeBitIdentically) {
  // Strict reference digests first: the pipelined run, every crash image,
  // and every resumed run must all land on exactly these.
  MultiRun strict;
  const std::vector<std::uint64_t> golden = tenant_digests(strict.run());

  MultiRun fixture;
  fixture.enable_pipeline();
  const std::string path = temp_path("multipipe.wal");
  {
    recovery::WalLog log(path, fixture.manifest());
    EXPECT_EQ(tenant_digests(fixture.run(log.round_observer())), golden);
    log.finish();
  }

  const std::string bytes = read_file(path);
  const framed_log::Scan scan = wal_frames(path);
  const std::string crash_path = temp_path("multipipe_crash.wal");
  for (std::size_t i = 0; i + 1 < scan.records.size(); i += 2) {
    for (const std::size_t keep :
         {scan.records[i].end_offset, scan.records[i].end_offset + 7}) {
      write_file(crash_path, bytes.substr(0, keep));
      const recovery::RecoveredRun state = recovery::recover_wal(crash_path);
      ASSERT_FALSE(state.clean_shutdown);
      EXPECT_TRUE(state.manifest.pipeline) << "killed at byte " << keep;
      recovery::WalLog log(crash_path, state);
      const RegistryResume resume = recovery::registry_resume(state);
      MultiRun resumed_fixture;
      resumed_fixture.enable_pipeline();
      const MultiTenantResult resumed =
          resumed_fixture.run(log.round_observer(), &resume);
      log.finish();
      EXPECT_EQ(tenant_digests(resumed), golden) << "killed at byte " << keep;

      const recovery::RecoveredRun healed = recovery::recover_wal(crash_path);
      EXPECT_TRUE(healed.clean_shutdown) << "killed at byte " << keep;
      EXPECT_EQ(healed.digests, golden) << "killed at byte " << keep;
    }
  }
}

TEST(WalLog, PipelinedFeedbackTenantKilledAtAnyByteResumesBitIdentically) {
  // A pipelined request over a feedback tenant (served on the reference
  // schedule) next to a pipelined poisson tenant, logged to one WAL: the
  // header records the requested schedule, and every crash image resumes
  // to the uninterrupted per-tenant digests.
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
  options.pipeline = true;

  recovery::RunManifest manifest;
  manifest.multi_tenant = true;
  manifest.pipeline = true;
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

  const std::string path = temp_path("feedbackpipe.wal");
  std::vector<std::uint64_t> golden;
  {
    recovery::WalLog log(path, manifest);
    golden = tenant_digests(run(log.round_observer(), nullptr));
    log.finish();
  }

  const std::string bytes = read_file(path);
  const framed_log::Scan scan = wal_frames(path);
  const std::string crash_path = temp_path("feedbackpipe_crash.wal");
  for (std::size_t i = 0; i + 1 < scan.records.size(); ++i) {
    for (const std::size_t keep :
         {scan.records[i].end_offset, scan.records[i].end_offset + 5}) {
      write_file(crash_path, bytes.substr(0, keep));
      const recovery::RecoveredRun state = recovery::recover_wal(crash_path);
      ASSERT_FALSE(state.clean_shutdown) << "killed at byte " << keep;
      EXPECT_TRUE(state.manifest.pipeline) << "killed at byte " << keep;
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

TEST(WalHeader, V3RecordsPipelineAndReadsV2) {
  SingleRun fixture;
  recovery::RunManifest manifest = fixture.manifest();
  manifest.pipeline = true;
  const std::string v3 = recovery::encode_run_header(manifest);

  // Wire layout under test: u32 version (LE), u8 multi_tenant, u8
  // pipeline — the pipeline byte is exactly what v3 added.
  binio::Reader head(v3);
  ASSERT_EQ(recovery::kWalVersion, 3u);
  EXPECT_EQ(head.u32(), recovery::kWalVersion);
  EXPECT_EQ(head.u8(), 0u);  // multi_tenant
  EXPECT_EQ(head.u8(), 1u);  // pipeline

  const recovery::RunManifest decoded = recovery::decode_run_header(v3);
  EXPECT_TRUE(decoded.pipeline);
  ASSERT_EQ(decoded.tenants.size(), 1u);
  EXPECT_EQ(decoded.tenants[0].options.epochs, fixture.options.epochs);

  // A v2 header is the same payload minus the pipeline byte. Splice it
  // out and patch the version word: a v3 reader must accept it and
  // default pipeline off — every pre-existing WAL stays resumable.
  std::string v2 = v3;
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
  // the skew behaves: a v2 reader's version check rejects anything but
  // its own version, so a v3 WAL never half-decodes on an old build.
  std::string v4 = v3;
  v4[0] = 4;
  EXPECT_THROW(recovery::decode_run_header(v4), std::runtime_error);
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
