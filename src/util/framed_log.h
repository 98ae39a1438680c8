// The framed-record log: the one on-disk framing shared by the recovery
// WAL (recovery/wal_format.h) and the telemetry trace
// (trace/trace_format.h).
//
// A file is an 8-byte magic naming its kind, followed by a sequence of
// length-prefixed, checksummed records:
//
//   +----------------+----------------+~~~~~~~~~~~+------------------+
//   | payload length | record type    | payload   | FNV-1a checksum  |
//   | u32 LE         | u32 LE         | N bytes   | u64 LE           |
//   +----------------+----------------+~~~~~~~~~~~+------------------+
//
// The checksum covers the type word and the payload (util/fnv.h, the
// same FNV-1a the telemetry digests use), so a torn write, a short tail
// or a flipped bit fails verification and the scanner stops at the last
// record that checks out. Nothing after a bad record is ever trusted: a
// gap would break the prefix property crash recovery depends on.
//
// Each format owns its magic and its record-type enum; this module owns
// the bytes around the payloads. What an append does about flushing and
// stream failure is the caller's policy: the WAL flushes and throws per
// record, the trace recorder batches and never throws into a server.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>

namespace staleflow::framed_log {

/// Length of every file magic.
inline constexpr std::size_t kMagicBytes = 8;

/// Frame overhead around each payload: u32 length + u32 type + u64 sum.
inline constexpr std::size_t kFrameBytes = 4 + 4 + 8;

/// Corruption guard: a structurally valid record never exceeds this
/// payload size, so a garbage length field cannot drive a huge
/// allocation.
inline constexpr std::uint32_t kMaxPayload = 1u << 30;

/// One verified record, as the scanner hands it to its caller. `type` is
/// a word in [1, max_type] (callers cast it to their record enum);
/// `end_offset` is the file offset just past the record, so any prefix
/// of a file can be treated as a crash image. `payload` views the
/// scanner's one reused buffer: it is valid only during the callback.
struct Frame {
  std::uint32_t type = 0;
  std::string_view payload;
  std::uint64_t end_offset = 0;

  /// The file offset where the frame starts.
  std::uint64_t offset() const noexcept {
    return end_offset - kFrameBytes - payload.size();
  }
};

/// Receives each verified frame in file order; returning false ends the
/// scan there (the caller found the file unusable past that frame).
using FrameSink = std::function<bool(const Frame&)>;

/// How a scan ended.
struct Scan {
  /// File offset just past the last verified record (or past the magic
  /// when none verified): where a resume truncates before appending.
  std::uint64_t valid_bytes = 0;
  /// True when bytes past valid_bytes failed verification.
  bool truncated = false;
  /// Why the scan stopped early; empty when the file ended exactly at a
  /// record boundary or the sink stopped it.
  std::string note;
};

/// Writes one frame (length, type, payload, checksum) to `out`: three
/// stream writes, no flush, no stream-state check. Throws
/// std::runtime_error only for a payload above kMaxPayload.
void append_frame(std::ostream& out, std::uint32_t type,
                  std::string_view payload);

/// Scans the `kind` file (named in error messages: "WAL", "trace") at
/// `path`, whose records use type words 1..max_type, and hands every
/// verified frame to `sink` as it is read. The scan streams: it holds
/// one frame at a time in one reused payload buffer, so its memory is
/// the largest frame, not the file. Throws std::runtime_error when the
/// file cannot be read or does not start with `magic`: such a path is
/// not a file of this kind at all. Any other defect (a frame cut short,
/// an impossible length, a checksum mismatch, an unknown type word) ends
/// the scan with `truncated` set and a `note`; nothing after it reaches
/// the sink. A length is checked against the bytes left in the file
/// before anything is allocated for it. Exceptions from `sink`
/// propagate.
Scan scan_frames(const std::string& path, std::string_view kind,
                 const char (&magic)[kMagicBytes], std::uint32_t max_type,
                 const FrameSink& sink);

}  // namespace staleflow::framed_log
