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
//                 (a single-server run is tenant 0), every client's path
//                 included: a keyframe.
//   kRoundMark  — closes a scheduler round: round counter + credit
//                 vector. Cut records only COMMIT at their round mark —
//                 recovery resumes from the last marked round boundary.
//   kTrailer    — clean shutdown: the final per-tenant digests. Absent
//                 after a crash, by definition.
//   kEpochDelta — (v4) a kEpochCut whose client section lists only the
//                 clients whose path changed since that tenant's previous
//                 cut in the file. A tenant's first cut in every writer
//                 session is a keyframe, so a delta always has a base.
#pragma once

#include <cstdint>

#include "util/framed_log.h"

namespace staleflow::recovery {

/// First bytes of every WAL file. The trailing newline makes accidental
/// text-mode corruption detectable; the NUL terminates the human part.
inline constexpr char kWalMagic[framed_log::kMagicBytes] = {
    'S', 'F', 'W', 'A', 'L', '1', '\n', 0};

/// Payload format version inside the run header. Bump when any payload
/// encoding changes; readers reject versions they don't know (a v4 reader
/// still accepts v2 and v3 files — superseded layouts decode with
/// defaults).
/// v2: the run header carries the --faults spec after the tenant flag.
/// v3: a pipeline byte follows the tenant flag. 1 marks a file written by
///     the retired pipelined schedule: its first round mark commits no
///     cut and every later cut commits one round late, with the same
///     content. Writers now always write 0; readers still decode it.
/// v4: kEpochDelta records. Every other layout is v3's, so a v3 file is a
///     v4 file without deltas; the header version governs what may be
///     appended, and a resumed v3 file keeps writing keyframes only.
inline constexpr std::uint32_t kWalVersion = 4;

/// Record type words; scans reject any word outside 1..kMaxRecordType.
enum class RecordType : std::uint32_t {
  kRunHeader = 1,
  kEpochCut = 2,
  kRoundMark = 3,
  kTrailer = 4,
  kEpochDelta = 5,
};

inline constexpr std::uint32_t kMaxRecordType =
    static_cast<std::uint32_t>(RecordType::kEpochDelta);

}  // namespace staleflow::recovery
