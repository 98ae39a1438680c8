// Umbrella header for the crash-recovery subsystem (src/recovery/): the
// write-ahead epoch log's magic and record types (wal_format.h, framed
// by util/framed_log.h) and the run-level protocol — manifest,
// cut/round/trailer payloads, recover_wal(), WalLog (run_log.h). The
// serving checkpoints the WAL persists are plain service-layer value
// types (service/checkpoint.h); see README.md ("Crash recovery &
// replay") for the on-disk format and the resume contract.
#pragma once

#include "recovery/run_log.h"
#include "recovery/wal_format.h"
#include "util/framed_log.h"
