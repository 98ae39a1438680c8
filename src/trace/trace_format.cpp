#include "trace/trace_format.h"

namespace staleflow::trace {

std::string_view event_kind_name(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kEpochSpan:
      return "epoch";
    case EventKind::kSubBatchSpan:
      return "sub_batch";
    case EventKind::kSnapshotPublish:
      return "snapshot_publish";
    case EventKind::kSchedulerRound:
      return "scheduler_round";
    case EventKind::kGraphSpan:
      return "graph";
    case EventKind::kWalAppend:
      return "wal_append";
    case EventKind::kFaultSpan:
      return "fault";
  }
  return "unknown";
}

void encode_event(binio::Writer& writer, const TraceEvent& event) {
  writer.u8(static_cast<std::uint8_t>(
      static_cast<std::uint16_t>(event.kind) & 0xFF));
  writer.u8(static_cast<std::uint8_t>(
      static_cast<std::uint16_t>(event.kind) >> 8));
  writer.u32(event.tenant);
  writer.u64(event.epoch);
  writer.u64(event.arg);
  writer.u64(event.begin_ns);
  writer.u64(event.end_ns);
  writer.u64(event.value);
}

TraceEvent decode_event(binio::Reader& reader) {
  TraceEvent event;
  const std::uint16_t lo = reader.u8();
  const std::uint16_t hi = reader.u8();
  event.kind =
      static_cast<EventKind>(static_cast<std::uint16_t>(lo | (hi << 8)));
  event.tenant = reader.u32();
  event.epoch = reader.u64();
  event.arg = reader.u64();
  event.begin_ns = reader.u64();
  event.end_ns = reader.u64();
  event.value = reader.u64();
  return event;
}

}  // namespace staleflow::trace
