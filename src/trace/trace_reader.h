// Offline trace decoding.
//
// load_trace scans the file with the shared framed-record scanner
// (util/framed_log.h), which trusts the longest prefix of records whose
// length, checksum and type all verify, so a trace torn mid-flush by a
// crash is analyzable up to the last completed drain. It then decodes
// the trusted records into typed data: timestamped events with worker
// attribution, counter definitions + sampled time series, and the
// trailer totals (when the recorder shut down cleanly).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace_format.h"

namespace staleflow::trace {

/// One event plus the id of the worker ring it was drained from.
struct LoadedEvent {
  std::uint32_t worker = 0;
  TraceEvent event;
};

/// One sampling pass over the metrics registry.
struct CounterBatch {
  std::uint64_t time_ns = 0;
  /// (counter id, value) pairs, in id order.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> values;
};

struct LoadedTrace {
  std::uint32_t version = 0;
  std::string producer;
  /// Events in file (drain) order; within one worker this is also
  /// emission order.
  std::vector<LoadedEvent> events;
  /// Counter id -> name, dense in registration order.
  std::vector<std::string> counter_names;
  std::vector<CounterBatch> counter_batches;
  /// Trailer totals; only meaningful when clean_shutdown is true.
  bool clean_shutdown = false;
  std::uint64_t trailer_events = 0;
  std::uint64_t trailer_dropped = 0;
  bool truncated = false;
  std::uint64_t valid_bytes = 0;
  std::string note;
};

/// Scans and decodes `path`. Throws std::runtime_error only for I/O
/// failure or bad magic; framing corruption is reported via
/// `truncated`/`note`, never thrown. A payload that fails to decode
/// inside a checksum-valid frame marks the trace truncated at that
/// record (same trust-the-prefix posture as the scan).
LoadedTrace load_trace(const std::string& path);

}  // namespace staleflow::trace
