// The write-ahead epoch log's file identity and record types.
//
// A WAL file is a framed-record log (util/framed_log.h has the frame
// diagram and the torn-tail rules) under the magic "SFWAL1\n\0".
//
// Record types (payload encodings live in recovery/run_log.h):
//   kRunHeader  — exactly once, first: the run's full configuration
//                 (per-tenant scenario/policy/workload names + options),
//                 so `--resume <wal>` needs no other flags.
//   kEpochCut   — one tenant's EngineCheckpoint after a finished epoch
//                 (a single-server run is tenant 0).
//   kRoundMark  — closes a scheduler round: round counter + credit
//                 vector. Cut records only COMMIT at their round mark —
//                 recovery resumes from the last marked round boundary.
//   kTrailer    — clean shutdown: the final per-tenant digests. Absent
//                 after a crash, by definition.
#pragma once

#include <cstdint>

#include "util/framed_log.h"

namespace staleflow::recovery {

/// First bytes of every WAL file. The trailing newline makes accidental
/// text-mode corruption detectable; the NUL terminates the human part.
inline constexpr char kWalMagic[framed_log::kMagicBytes] = {
    'S', 'F', 'W', 'A', 'L', '1', '\n', 0};

/// Payload format version inside the run header. Bump when any payload
/// encoding changes; readers reject versions they don't know (a v3 reader
/// still accepts v2 files — the superseded layout decodes with defaults).
/// v2: the run header carries the --faults spec after the tenant flag.
/// v3: a pipeline flag follows the tenant flag: the requested schedule.
///     When set, cuts of pipelined engines were captured at the one-epoch
///     overlap boundary — committed cuts trail the crashed process's
///     serving frontier by one epoch, but their content is identical to
///     the reference schedule's — and a resume re-serves with the logged
///     request.
inline constexpr std::uint32_t kWalVersion = 3;

/// Record type words; scans reject any word outside 1..kTrailer.
enum class RecordType : std::uint32_t {
  kRunHeader = 1,
  kEpochCut = 2,
  kRoundMark = 3,
  kTrailer = 4,
};

}  // namespace staleflow::recovery
