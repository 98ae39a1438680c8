// Umbrella header for the observability plane: metrics registry,
// per-worker event rings, the global recorder, and offline decoding.
// Trace files are framed by util/framed_log.h, like the recovery WAL.
//
// Quickstart (always-on hooks are already in the serving stack):
//
//   staleflow::trace::start("run.trace", "my_tool");
//   ... serve epochs ...
//   staleflow::trace::stop();
//   // offline: tools/trace_dump_cli info|csv|summary run.trace
#pragma once

#include "trace/metrics.h"
#include "trace/recorder.h"
#include "trace/trace_format.h"
#include "trace/trace_reader.h"
#include "trace/trace_ring.h"
#include "util/framed_log.h"
