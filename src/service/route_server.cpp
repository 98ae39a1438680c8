#include "service/route_server.h"

#include "exec/executor.h"
#include "service/epoch_engine.h"
#include "service/tenant.h"
#include "util/stopwatch.h"

namespace staleflow {

RouteServer::RouteServer(const Instance& instance, const Policy& policy,
                         const WorkloadGenerator& workload)
    : instance_(&instance), policy_(&policy), workload_(&workload) {}

RouteServerResult RouteServer::run(const FlowVector& initial,
                                   const RouteServerOptions& options,
                                   const EpochObserver& observer,
                                   const CutObserver& cuts,
                                   const EngineResume& resume) {
  // A solo run is a one-tenant registry: its one engine served by the
  // shared round loop at weight 1, on an executor this run owns.
  EpochEngine engine(*instance_, *policy_, *workload_);
  engine.begin(initial, options);
  engine.restore(resume);

  // Worker-stall faults apply to the executor this run owns.
  Executor executor(options.threads);
  executor.set_fault_schedule(options.faults);

  TenantObserver epoch_observer;
  if (observer) {
    epoch_observer = [&observer](std::size_t, const EpochSummary& summary) {
      observer(summary);
    };
  }
  RoundCutObserver round_cuts;
  if (cuts) {
    round_cuts = [&cuts](const RoundCheckpoint& round) {
      for (const auto& [tenant, cut] : round.cuts) cuts(cut);
    };
  }
  // Resume at the round count a one-tenant registry's WAL holds for this
  // cut prefix: one round per epoch.
  EpochEngine* const engines[] = {&engine};
  const std::size_t weights[] = {1};
  const Stopwatch run_watch;
  serve_rounds(executor, engines, weights, resume.epochs.size(), {},
               options.faults, epoch_observer, round_cuts);
  return engine.finish(run_watch.seconds());
}

}  // namespace staleflow
