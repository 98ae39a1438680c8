// Payload encodings and run-level protocol of the write-ahead epoch log.
//
// util/framed_log.h fixes the record *framing* and wal_format.h the record
// types; this header fixes what goes inside the records and what a
// well-formed WAL means:
//
//   kRunHeader   RunManifest — the run's complete configuration (per
//                tenant: scenario/policy/workload names + resolved
//                RouteServerOptions + weight), written exactly once,
//                first. `--resume <wal>` rebuilds the run from it and
//                takes no other configuration flags.
//   kEpochCut    one tenant's EngineCheckpoint plus that tenant's
//                digest-so-far (the incremental telemetry digest over
//                its epochs 0..e) as an end-to-end cross-check beyond
//                the per-record frame checksum. Every client's path
//                rides along: a keyframe.
//   kEpochDelta  (v4) the same record with the client section replaced
//                by the (client, path) pairs that changed since the
//                tenant's previous cut in the file, staged or committed,
//                in strictly ascending client order. Near equilibrium
//                almost nobody migrates, so a delta is a few hundred
//                bytes where a keyframe carries all N paths. The keyframe
//                rule: a tenant's first cut in every writer session (fresh
//                or resumed) is a kEpochCut, so every delta chain starts
//                at a keyframe in the file; a resumed v3 file keeps
//                writing keyframes only.
//   kRoundMark   the commit point: cut records are STAGED until their
//                round mark. Recovery replays committed rounds only —
//                the resume truncation offset is the end of the last
//                round mark, so a crash mid-round loses that round's
//                cuts, never a committed one. Solo and tenant runs
//                write one protocol by construction: route_server_cli
//                serves a solo run as a one-tenant registry, so its
//                marks are scheduler rounds with credits {0} — one per
//                epoch. (Files written by the retired pipelined schedule
//                open with a cut-less mark and commit each cut one round
//                late; they recover and resume the same way.)
//   kTrailer     clean shutdown: the final per-tenant digests. A WAL
//                without one is, by definition, a crash image.
//
// recover_wal() turns a (possibly torn) WAL file back into typed state:
// the manifest, every tenant's committed cut prefix, the scheduler
// round/credit state, and whether the run had already finished cleanly.
// It folds each tenant's delta chain forward, holding full client paths
// for one cut per tenant: only each tenant's last committed cut carries
// them (all EpochEngine::restore reads), plus at most one cut the caller
// names.
// WalLog is the write side the serving CLIs install as their round
// observer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "recovery/wal_format.h"
#include "service/checkpoint.h"
#include "service/route_server.h"

namespace staleflow::recovery {

/// One tenant's (or the single server's) full configuration as logged in
/// the run header. `options.threads` is a runtime knob, not dynamics
/// configuration — the determinism contract makes it digest-neutral — so
/// it is NOT serialized and a resumed run may use any thread count.
struct TenantManifest {
  std::string name;      // empty for a plain single-server run
  std::string scenario;  // scenario registry key
  std::string policy;    // named-policy spec
  std::string workload;  // workload spec
  RouteServerOptions options;
  std::size_t weight = 1;
};

struct RunManifest {
  bool multi_tenant = false;
  /// The header's pipeline byte as recovered (v3 and later; v2 files
  /// decode as false): true for a file written by the retired pipelined
  /// schedule, whose cuts trail its round marks by one round. Writers
  /// always write 0 and nothing serves differently for it. Ignored on
  /// write; kept only because perfbench/ sets it; the next benchmark
  /// change deletes it.
  bool pipeline = false;
  /// The run's `--faults` spec ("" = healthy). The SPEC is what the WAL
  /// stores — a resumed run re-materializes the schedule from it plus the
  /// logged (seed, epochs), reproducing the exact fault timing of the
  /// crashed run (the schedule is a pure function of that triple).
  std::string faults;
  std::vector<TenantManifest> tenants;  // exactly 1 when !multi_tenant
};

/// A decoded kEpochCut record.
struct CutRecord {
  std::uint32_t tenant = 0;
  EngineCheckpoint cut;
  std::uint64_t digest_so_far = 0;
};

/// One client's new path in a kEpochDelta record.
struct PathChange {
  std::uint32_t client = 0;
  std::uint32_t path = 0;
};

/// A decoded kEpochDelta record: `record.cut.client_paths` stays empty;
/// `changes` holds the clients whose path changed, strictly ascending.
struct DeltaRecord {
  CutRecord record;
  std::vector<PathChange> changes;
};

/// A decoded kRoundMark record.
struct RoundMark {
  std::uint64_t rounds = 0;
  std::vector<std::uint64_t> credits;  // per tenant
};

// Payload codecs (exposed for tests; the framing checksum lives in
// util/framed_log). Decoders throw std::runtime_error on a
// malformed or version-incompatible payload.
std::string encode_run_header(const RunManifest& manifest);
RunManifest decode_run_header(std::string_view payload);
std::string encode_epoch_cut(std::uint32_t tenant, const EngineCheckpoint& cut,
                             std::uint64_t digest_so_far);
CutRecord decode_epoch_cut(std::string_view payload);
/// Encodes `cut` as a kEpochDelta carrying `changes` in place of its
/// client paths (cut.client_paths is not read). `changes` must be in
/// strictly ascending client order; the decoder rejects anything else.
std::string encode_epoch_delta(std::uint32_t tenant,
                               const EngineCheckpoint& cut,
                               std::uint64_t digest_so_far,
                               std::span<const PathChange> changes);
DeltaRecord decode_epoch_delta(std::string_view payload);
std::string encode_round_mark(const RoundMark& mark);
RoundMark decode_round_mark(std::string_view payload);
std::string encode_trailer(std::span<const std::uint64_t> digests);
std::vector<std::uint64_t> decode_trailer(std::string_view payload);

/// Everything recover_wal() can re-establish from a WAL file.
struct RecoveredRun {
  RunManifest manifest;

  /// The header's payload version (2..kWalVersion). It governs what a
  /// resumed WalLog may append: deltas from v4 on.
  std::uint32_t version = kWalVersion;

  /// Per tenant (manifest order): the committed cut prefix, epochs 0..e
  /// in order. Empty = that tenant had not finished an epoch yet. Only
  /// each tenant's last cut (and the cut recover_wal's `paths_at` names)
  /// carries client_paths; every other cut's is empty.
  std::vector<std::vector<EngineCheckpoint>> cuts;

  /// Parallel to `cuts`: the byte offset in the WAL file where each cut
  /// record's frame starts — lets offline tooling correlate a WAL cut
  /// with trace spans and seek straight to it.
  std::vector<std::vector<std::uint64_t>> cut_offsets;

  /// Per tenant: the incremental telemetry digest over its committed
  /// epochs (fnv offset basis when none).
  std::vector<std::uint64_t> digests;

  /// Scheduler state at the last committed round mark.
  std::size_t rounds = 0;
  std::vector<std::size_t> credits;  // per tenant

  /// True when the WAL ends with a matching trailer: the run completed
  /// and --resume has nothing to serve.
  bool clean_shutdown = false;

  /// True when bytes past valid_bytes were discarded (torn tail, corrupt
  /// record, or cuts staged without their round mark).
  bool truncated = false;
  /// Resume truncation offset: end of the last committed record.
  std::uint64_t valid_bytes = 0;
  /// Why the scan stopped early (empty when nothing was discarded).
  std::string note;
};

/// Names one committed cut: a tenant index and an epoch.
struct CutRef {
  std::size_t tenant = 0;
  std::size_t epoch = 0;
};

/// Scans and decodes `path`. Throws std::runtime_error when the file is
/// missing, lacks the WAL magic, carries no (or a malformed) run header,
/// or uses an unknown payload version — those mean "not a resumable WAL",
/// as opposed to a torn tail, which is recovered from silently (see
/// RecoveredRun::truncated / note). A delta without a base, out of
/// order or naming a client past the header's num_clients, and a
/// keyframe whose client count is not num_clients, end the trusted
/// prefix like any other corrupt record. `paths_at`, when it names a
/// committed cut, gives that cut its client paths too (a point-in-time
/// replay restores from it).
RecoveredRun recover_wal(const std::string& path,
                         std::optional<CutRef> paths_at = std::nullopt);

/// View of a RecoveredRun in the shape TenantRegistry::run consumes. The
/// spans alias `run.cuts`; `run` must outlive the returned value's use.
RegistryResume registry_resume(const RecoveredRun& run);

/// The write side: owns the open WAL file and the round-mark protocol.
/// Every record is flushed to the kernel before the append returns, so a
/// `kill -9` (the crash model the recovery tier is pinned against) loses
/// at most the record being written; surviving power loss would need an
/// fsync per record. The serving CLIs install round_observer() as their
/// recovery hook and call finish() after a completed run.
class WalLog {
 public:
  /// Fresh run: creates/truncates `path`, writes the magic and the run
  /// header. Throws std::runtime_error when the file cannot be written.
  WalLog(const std::string& path, const RunManifest& manifest);

  /// Resumed run: amputates the uncommitted tail at
  /// `recovered.valid_bytes` and appends, continuing the digest and
  /// round counters where the committed prefix left off. Throws
  /// std::runtime_error when the file cannot be resized or opened.
  WalLog(const std::string& path, const RecoveredRun& recovered);

  /// The one write path: logs every cut of the round, then the
  /// committing round mark. A tenant's first cut in this session is a
  /// keyframe; later ones are deltas against the paths it last logged
  /// (keyframes only when the file's header predates v4).
  void log_round(const RoundCheckpoint& round);

  /// Writes the clean-shutdown trailer (final per-tenant digests).
  void finish();

  /// round_observer() logs every round of a TenantRegistry (or of
  /// serve_rounds). single_observer() adapts a RouteServer's per-epoch
  /// cuts onto log_round: each cut is committed at once as a one-tenant
  /// round (round r+1, credits {0}), the records a one-tenant registry
  /// writes.
  CutObserver single_observer();
  RoundCutObserver round_observer();

 private:
  /// Frames one record, flushes it and throws std::runtime_error on a
  /// write failure. Counted as wal.records / wal.bytes and traced as a
  /// kWalAppend span.
  void append(RecordType type, std::string_view payload);

  std::string path_;
  std::ofstream out_;
  std::vector<std::uint64_t> digests_;  // per tenant, committed-so-far
  std::uint64_t rounds_ = 0;
  bool deltas_ = true;  // the file's header version allows kEpochDelta
  /// Per tenant: the client paths this session last logged (empty until
  /// its keyframe).
  std::vector<std::vector<std::uint32_t>> logged_paths_;
};

}  // namespace staleflow::recovery
