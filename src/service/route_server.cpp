#include "service/route_server.h"

#include <memory>
#include <stdexcept>

#include "exec/executor.h"
#include "faults/fault_plan.h"
#include "service/epoch_engine.h"
#include "util/stopwatch.h"

namespace staleflow {

RouteServer::RouteServer(const Instance& instance, const Policy& policy,
                         const WorkloadGenerator& workload)
    : instance_(&instance), policy_(&policy), workload_(&workload) {}

RouteServerResult RouteServer::run(const FlowVector& initial,
                                   const RouteServerOptions& options,
                                   const EpochObserver& observer,
                                   const CutObserver& cuts,
                                   std::span<const EngineCheckpoint> resume) {
  // The per-epoch pipeline lives in EpochEngine (shared with the
  // multi-tenant registry); a solo run is one engine driven to exhaustion
  // on its own (or a borrowed) executor. A pipelined engine can serve the
  // cut observer too — it captures each epoch's boundary state at the
  // overlap boundary and hands the cut out one graph later.
  EpochEngine engine(*instance_, *policy_, *workload_, store_);
  engine.begin(initial, options);
  engine.set_cut_capture(static_cast<bool>(cuts));
  engine.restore(resume);

  // The execution layer: borrowed from the caller (shared-pool mode, e.g.
  // inside a sweep) or owned for this run.
  std::unique_ptr<Executor> owned_executor;
  Executor* exec = options.executor;
  if (exec == nullptr) {
    owned_executor = std::make_unique<Executor>(options.threads);
    // Worker-stall faults apply to the executor this run owns; a borrowed
    // executor's host (sweep runner, tenant CLI) wires its own.
    owned_executor->set_fault_schedule(options.faults);
    exec = owned_executor.get();
  }

  const Stopwatch run_watch;
  while (!engine.done()) {
    TaskGraph graph;
    engine.add_epoch(graph);
    const Stopwatch epoch_watch;
    exec->run(graph);
    const std::size_t recorded = engine.epochs_done();
    engine.finish_epoch(epoch_watch.seconds(), observer);
    // A cut exists only when an epoch actually closed — a pipelined run's
    // priming graph records nothing (its first summary is still deferred).
    if (cuts && engine.epochs_done() > recorded) cuts(engine.checkpoint());
    // The crash point fires AFTER the cut observer so the WAL holds
    // exactly the epochs a resumed run must replay — and only on an
    // iteration that actually committed one, mirroring the cut gate
    // above. crash_after is stateless and a resumed run re-materializes
    // the same --faults spec, so without the progress gate a pipelined
    // resume's priming iteration (which closes no epoch) would
    // re-evaluate the clause at the restored count and re-crash every
    // resume at the same commit point, forever.
    if (options.faults != nullptr && engine.epochs_done() > recorded &&
        options.faults->crash_after(engine.epochs_done()))
      faults::crash_process(engine.epochs_done());
  }
  return engine.finish(run_watch.seconds());
}

}  // namespace staleflow
