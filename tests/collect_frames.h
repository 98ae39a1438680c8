// Test helper: a framed-record file's verified frames, collected through
// the streaming scanner's sink (util/framed_log.h), for suites that
// inspect, splice or re-frame records.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/framed_log.h"

namespace staleflow {

/// One verified frame, its payload copied out of the scanner's buffer.
struct CollectedFrame {
  std::uint32_t type = 0;
  std::string payload;
  std::uint64_t end_offset = 0;
};

/// Every frame a scan handed over, and how the scan ended.
struct CollectedScan {
  std::vector<CollectedFrame> records;
  std::uint64_t valid_bytes = 0;
  bool truncated = false;
  std::string note;
};

inline CollectedScan collect_frames(const std::string& path,
                                    std::string_view kind,
                                    const char (&magic)[framed_log::kMagicBytes],
                                    std::uint32_t max_type) {
  CollectedScan collected;
  const framed_log::Scan scan = framed_log::scan_frames(
      path, kind, magic, max_type, [&collected](const framed_log::Frame& f) {
        collected.records.push_back(
            {f.type, std::string(f.payload), f.end_offset});
        return true;
      });
  collected.valid_bytes = scan.valid_bytes;
  collected.truncated = scan.truncated;
  collected.note = scan.note;
  return collected;
}

}  // namespace staleflow
