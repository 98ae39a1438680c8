// Umbrella header for the deterministic execution layer (src/exec/): the
// Executor that runs TaskGraphs on its own workers, and the deterministic
// sub-batch splitting helpers. See README.md ("The execution layer") for
// the architecture sketch and the determinism contract it upholds.
#pragma once

#include "exec/executor.h"
