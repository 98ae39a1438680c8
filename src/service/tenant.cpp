#include "service/tenant.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "exec/executor.h"
#include "faults/fault_plan.h"
#include "service/epoch_engine.h"
#include "trace/metrics.h"
#include "trace/recorder.h"
#include "util/spec_parse.h"
#include "util/stopwatch.h"

namespace staleflow {
namespace {

bool legal_tenant_name(const std::string& name) {
  if (name.empty()) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

std::size_t MultiTenantResult::total_queries() const noexcept {
  std::size_t total = 0;
  for (const TenantResult& tenant : tenants) {
    total += tenant.server.total_queries;
  }
  return total;
}

std::size_t MultiTenantResult::total_epochs() const noexcept {
  std::size_t total = 0;
  for (const TenantResult& tenant : tenants) {
    total += tenant.server.epochs.size();
  }
  return total;
}

void TenantRegistry::add(const std::string& name, const Instance& instance,
                         const Policy& policy,
                         const WorkloadGenerator& workload,
                         const TenantOptions& options) {
  if (!legal_tenant_name(name)) {
    throw std::invalid_argument(
        "TenantRegistry::add: tenant name must be non-empty [A-Za-z0-9_-]+"
        ", got '" + name + "'");
  }
  for (const Tenant& tenant : tenants_) {
    if (tenant.name == name) {
      throw std::invalid_argument("TenantRegistry::add: duplicate tenant '" +
                                  name + "'");
    }
  }
  if (options.weight == 0) {
    throw std::invalid_argument(
        "TenantRegistry::add: weight must be >= 1 (tenant '" + name + "')");
  }
  Tenant tenant;
  tenant.name = name;
  tenant.instance = &instance;
  tenant.policy = &policy;
  tenant.workload = &workload;
  tenant.options = options;
  tenants_.push_back(std::move(tenant));
}

const std::string& TenantRegistry::name(std::size_t tenant) const {
  if (tenant >= tenants_.size()) {
    throw std::out_of_range("TenantRegistry::name: no such tenant");
  }
  return tenants_[tenant].name;
}

std::size_t serve_rounds(Executor& executor,
                         std::span<EpochEngine* const> engines,
                         std::span<const std::size_t> weights,
                         std::size_t rounds, std::vector<std::size_t> credits,
                         const faults::FaultSchedule* faults,
                         const TenantObserver& observer,
                         const RoundCutObserver& round_cuts) {
  std::size_t max_weight = 1;
  for (const std::size_t weight : weights) {
    max_weight = std::max(max_weight, weight);
  }
  if (credits.empty()) credits.assign(engines.size(), 0);

  // Weighted round-robin over epochs. Credits are a pure function of the
  // weights and the engines' epoch budgets: the round schedule — and with
  // it every engine's interleaving — is deterministic, though no engine's
  // *outcome* depends on it (isolation contract). A resumed run picks the
  // credit vector up at the checkpointed round boundary, and the
  // remaining rounds are exactly the ones the uninterrupted run would
  // have executed. (A WAL written by the retired pipelined schedule
  // commits each cut one round late, so its resumed rounds interleave
  // differently; its digests still match because per-tenant outcomes are
  // independent of round interleaving — the isolation contract.)
  static trace::Counter& rounds_counter =
      trace::MetricsRegistry::global().counter("registry.rounds");
  std::vector<std::size_t> scheduled;
  for (;;) {
    scheduled.clear();
    for (std::size_t i = 0; i < engines.size(); ++i) {
      if (engines[i]->done()) continue;
      credits[i] += weights[i];
      if (credits[i] >= max_weight) {
        credits[i] -= max_weight;
        scheduled.push_back(i);
      }
    }
    const bool all_done =
        std::all_of(engines.begin(), engines.end(),
                    [](const EpochEngine* e) { return e->done(); });
    if (all_done) break;
    ++rounds;
    rounds_counter.inc();
    if (!scheduled.empty()) {
      trace::Span round_span(trace::EventKind::kSchedulerRound,
                             /*tenant=*/0, /*epoch=*/0,
                             /*arg=*/scheduled.size());
      round_span.value(rounds);
      // One combined graph: one epoch per scheduled engine. The engines'
      // nodes share no mutable state, so the pool interleaves tenants
      // freely — this is where co-tenancy actually overlaps work.
      TaskGraph graph;
      for (const std::size_t i : scheduled) {
        engines[i]->add_epoch(graph);
      }
      const Stopwatch round_watch;
      executor.run(graph);
      const double round_seconds = round_watch.seconds();
      for (const std::size_t i : scheduled) {
        EpochObserver epoch_observer;
        if (observer) {
          epoch_observer = [&observer, i](const EpochSummary& summary) {
            observer(i, summary);
          };
        }
        engines[i]->finish_epoch(round_seconds, epoch_observer);
      }
    }
    if (round_cuts) {
      // The round's WAL cut: one cut per scheduled engine, each taken at
      // the boundary its epoch just closed. Even a credits-only round is
      // checkpointed — the credit vector changed, and resume must restart
      // from exactly this boundary.
      RoundCheckpoint cut;
      cut.rounds = rounds;
      cut.credits = credits;
      cut.cuts.reserve(scheduled.size());
      for (const std::size_t i : scheduled) {
        cut.cuts.emplace_back(i, engines[i]->checkpoint());
      }
      round_cuts(cut);
    }
    // The crash point fires AFTER the round's cut observer, so the WAL
    // holds exactly the committed rounds. The round counter only grows
    // across a resume (it restarts from the last committed round mark),
    // so a resumed run never re-evaluates the clause at a round it
    // already crashed on.
    if (faults != nullptr && faults->crash_after(rounds)) {
      faults::crash_process(rounds);
    }
  }
  return rounds;
}

MultiTenantResult TenantRegistry::run(Executor& executor,
                                      const TenantObserver& observer,
                                      const RoundCutObserver& rounds,
                                      const RegistryResume* resume) {
  if (tenants_.empty()) {
    throw std::invalid_argument("TenantRegistry::run: no tenants registered");
  }
  if (resume != nullptr &&
      ((!resume->credits.empty() &&
        resume->credits.size() != tenants_.size()) ||
       (!resume->tenants.empty() &&
        resume->tenants.size() != tenants_.size()))) {
    throw std::invalid_argument(
        "TenantRegistry::run: resume state does not match the tenant "
        "count");
  }

  // Spin up one engine per tenant. begin() validates each tenant's
  // options before ANY tenant serves, so a bad tenant fails the run
  // up front instead of mid-multiplex.
  std::vector<std::unique_ptr<EpochEngine>> owned;
  std::vector<EpochEngine*> engines;
  std::vector<std::size_t> weights;
  owned.reserve(tenants_.size());
  // Crash-fault lookup: the registry crashes on ROUND commit points, so
  // any tenant's schedule (they share one --faults spec in the CLI; the
  // first non-null pointer wins) drives the whole host's crash clause.
  const faults::FaultSchedule* fault_plan = nullptr;
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    Tenant& tenant = tenants_[i];
    owned.push_back(std::make_unique<EpochEngine>(
        *tenant.instance, *tenant.policy, *tenant.workload));
    EpochEngine& engine = *owned.back();
    engine.set_trace_tenant(static_cast<std::uint32_t>(i));
    engine.begin(FlowVector::uniform(*tenant.instance), tenant.options.server);
    if (resume != nullptr && !resume->tenants.empty()) {
      engine.restore(resume->tenants[i]);
    }
    engines.push_back(&engine);
    weights.push_back(tenant.options.weight);
    if (fault_plan == nullptr) fault_plan = tenant.options.server.faults;
  }

  MultiTenantResult result;
  const Stopwatch run_watch;
  result.rounds = serve_rounds(
      executor, engines, weights, resume != nullptr ? resume->rounds : 0,
      resume != nullptr ? resume->credits : std::vector<std::size_t>{},
      fault_plan, observer, rounds);
  result.wall_seconds = run_watch.seconds();

  result.tenants.reserve(tenants_.size());
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    result.tenants.push_back(
        {tenants_[i].name, owned[i]->finish(result.wall_seconds)});
  }
  return result;
}

// --------------------------------------------------------------------------
// --tenants grammar
// --------------------------------------------------------------------------

namespace {

/// Splits the field list on ',' re-joining items that carry no '=' onto
/// the previous value, so workload=bursty:40000,2000,3,2 survives intact.
std::vector<std::pair<std::string, std::string>> split_fields(
    const std::string& text) {
  std::vector<std::pair<std::string, std::string>> fields;
  for (const std::string& item : split_nonempty(text, ",")) {
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      if (fields.empty()) {
        throw std::invalid_argument("expected key=value, got '" + item + "'");
      }
      fields.back().second += ',' + item;  // value continuation
      continue;
    }
    fields.emplace_back(item.substr(0, eq), item.substr(eq + 1));
  }
  return fields;
}

TenantSpec parse_one_tenant(const std::string& text) {
  TenantSpec spec;
  const std::size_t colon = text.find(':');
  spec.name = text.substr(0, colon);
  if (!legal_tenant_name(spec.name)) {
    throw std::invalid_argument(
        "tenant name must be non-empty [A-Za-z0-9_-]+, got '" + spec.name +
        "'");
  }
  if (colon == std::string::npos) return spec;

  for (const auto& [key, value] : split_fields(text.substr(colon + 1))) {
    if (value.empty()) throw std::invalid_argument("empty value for " + key);
    if (key == "scenario") {
      spec.scenario = value;
    } else if (key == "policy") {
      spec.policy = value;
    } else if (key == "workload") {
      spec.workload = value;
    } else if (key == "clients") {
      spec.clients = parse_count(value, key);
    } else if (key == "shards") {
      spec.shards = parse_count(value, key);
    } else if (key == "epochs") {
      spec.epochs = parse_count(value, key);
    } else if (key == "period") {
      spec.period = parse_number(value, key);
    } else if (key == "seed") {
      spec.seed = parse_count(value, key);
    } else if (key == "weight") {
      spec.weight = parse_count(value, key);
    } else if (key == "sub-batch") {
      if (value == "auto") {
        spec.sub_batch_auto = true;
        spec.sub_batch.reset();
      } else {
        spec.sub_batch = parse_count(value, key);
        spec.sub_batch_auto = false;
      }
    } else {
      throw std::invalid_argument("unknown key '" + key + "'");
    }
  }
  return spec;
}

}  // namespace

std::vector<TenantSpec> parse_tenant_specs(const std::string& text) {
  try {
    std::vector<TenantSpec> specs;
    for (const std::string& item : split_nonempty(text, ";")) {
      specs.push_back(parse_one_tenant(item));
    }
    if (specs.empty()) throw std::invalid_argument("no tenants in spec");
    for (std::size_t i = 0; i < specs.size(); ++i) {
      for (std::size_t j = i + 1; j < specs.size(); ++j) {
        if (specs[i].name == specs[j].name) {
          throw std::invalid_argument("duplicate tenant name '" +
                                      specs[i].name + "'");
        }
      }
    }
    return specs;
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument("--tenants: " + std::string(e.what()) +
                                " (grammar: " + std::string(kTenantGrammar) +
                                ")");
  }
}

}  // namespace staleflow
