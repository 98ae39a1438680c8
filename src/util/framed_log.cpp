#include "util/framed_log.h"

#include <cstring>
#include <fstream>
#include <iterator>
#include <ostream>
#include <stdexcept>

#include "util/binio.h"
#include "util/fnv.h"

namespace staleflow::framed_log {

namespace {

/// The frame checksum: FNV-1a over the type word's four little-endian
/// bytes, then the payload.
std::uint64_t frame_checksum(const char* type_word, std::string_view payload) {
  std::uint64_t checksum = fnv::kOffsetBasis;
  fnv::hash_bytes(checksum, type_word, 4);
  fnv::hash_bytes(checksum, payload.data(), payload.size());
  return checksum;
}

}  // namespace

void append_frame(std::ostream& out, std::uint32_t type,
                  std::string_view payload) {
  if (payload.size() > kMaxPayload) {
    throw std::runtime_error("framed_log: record payload too large");
  }
  binio::Writer header;
  header.u32(static_cast<std::uint32_t>(payload.size()));
  header.u32(type);

  binio::Writer footer;
  footer.u64(frame_checksum(header.data().data() + 4, payload));

  out.write(header.data().data(),
            static_cast<std::streamsize>(header.data().size()));
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  out.write(footer.data().data(),
            static_cast<std::streamsize>(footer.data().size()));
}

Scan scan_frames(const std::string& path, std::string_view kind,
                 const char (&magic)[kMagicBytes], std::uint32_t max_type) {
  const std::string label = std::string(kind) + " '" + path + "'";
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open " + label);
  }
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  if (in.bad()) {
    throw std::runtime_error("read failed on " + label);
  }
  if (contents.size() < kMagicBytes ||
      std::memcmp(contents.data(), magic, kMagicBytes) != 0) {
    throw std::runtime_error("'" + path + "' is not a " + std::string(kind) +
                             " (bad magic)");
  }

  Scan scan;
  scan.valid_bytes = kMagicBytes;
  std::size_t offset = kMagicBytes;
  while (offset < contents.size()) {
    if (contents.size() - offset < kFrameBytes) {
      scan.truncated = true;
      scan.note = "torn tail: short record frame";
      break;
    }
    binio::Reader head(std::string_view(contents).substr(offset, 8));
    const std::uint32_t length = head.u32();
    const std::uint32_t type = head.u32();
    if (length > kMaxPayload) {
      scan.truncated = true;
      scan.note = "corrupt record: impossible payload length";
      break;
    }
    if (contents.size() - offset - kFrameBytes < length) {
      scan.truncated = true;
      scan.note = "torn tail: payload shorter than its length field";
      break;
    }
    const std::string_view payload =
        std::string_view(contents).substr(offset + 8, length);
    binio::Reader foot(
        std::string_view(contents).substr(offset + 8 + length, 8));
    if (foot.u64() != frame_checksum(contents.data() + offset + 4, payload)) {
      scan.truncated = true;
      scan.note = "corrupt record: checksum mismatch";
      break;
    }
    if (type < 1 || type > max_type) {
      scan.truncated = true;
      scan.note = "corrupt record: unknown record type";
      break;
    }
    offset += kFrameBytes + length;
    scan.records.push_back(Frame{type, std::string(payload), offset});
    scan.valid_bytes = offset;
  }
  return scan;
}

}  // namespace staleflow::framed_log
