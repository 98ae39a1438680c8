#include "util/framed_log.h"

#include <cstring>
#include <fstream>
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
                 const char (&magic)[kMagicBytes], std::uint32_t max_type,
                 const FrameSink& sink) {
  const std::string label = std::string(kind) + " '" + path + "'";
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    throw std::runtime_error("cannot open " + label);
  }
  const std::streamoff end = in.tellg();
  in.seekg(0);
  char file_magic[kMagicBytes];
  if (end < 0 || !in.read(file_magic, kMagicBytes) ||
      std::memcmp(file_magic, magic, kMagicBytes) != 0) {
    if (in.bad()) throw std::runtime_error("read failed on " + label);
    throw std::runtime_error("'" + path + "' is not a " + std::string(kind) +
                             " (bad magic)");
  }
  const auto size = static_cast<std::uint64_t>(end);

  Scan scan;
  scan.valid_bytes = kMagicBytes;
  std::uint64_t offset = kMagicBytes;
  // One buffer for every frame: its payload, then its checksum.
  std::string buffer;
  char head_bytes[8];
  while (offset < size) {
    if (size - offset < kFrameBytes) {
      scan.truncated = true;
      scan.note = "torn tail: short record frame";
      break;
    }
    if (!in.read(head_bytes, sizeof(head_bytes))) break;
    binio::Reader head(std::string_view(head_bytes, sizeof(head_bytes)));
    const std::uint32_t length = head.u32();
    const std::uint32_t type = head.u32();
    if (length > kMaxPayload) {
      scan.truncated = true;
      scan.note = "corrupt record: impossible payload length";
      break;
    }
    if (size - offset - kFrameBytes < length) {
      scan.truncated = true;
      scan.note = "torn tail: payload shorter than its length field";
      break;
    }
    buffer.resize(std::size_t{length} + 8);
    if (!in.read(buffer.data(), static_cast<std::streamsize>(buffer.size()))) {
      break;
    }
    const std::string_view payload = std::string_view(buffer).substr(0, length);
    binio::Reader foot(std::string_view(buffer).substr(length, 8));
    if (foot.u64() != frame_checksum(head_bytes + 4, payload)) {
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
    scan.valid_bytes = offset;
    if (!sink(Frame{type, payload, offset})) break;
  }
  // A read that failed short of the size measured above: the file
  // shrank under the scan, or the device failed.
  if (in.bad()) throw std::runtime_error("read failed on " + label);
  if (in.fail() && !scan.truncated) {
    scan.truncated = true;
    scan.note = "torn tail: file shorter than when the scan began";
  }
  return scan;
}

}  // namespace staleflow::framed_log
