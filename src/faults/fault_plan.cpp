#include "faults/fault_plan.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "util/rng.h"
#include "util/spec_parse.h"

namespace staleflow::faults {
namespace {

// Salt XORed into the run seed so the fault stream is independent of
// every dynamics stream split from the same seed.
constexpr std::uint64_t kFaultSeedSalt = 0x8F1D3A5C9B7E2460ULL;

/// One clause; parse_fault_plan adds the spec and grammar to its errors.
FaultClause parse_clause(std::string_view text) {
  const std::size_t colon = text.find(':');
  const std::string_view name = text.substr(0, colon);
  const std::string_view args =
      colon == std::string_view::npos ? std::string_view{}
                                      : text.substr(colon + 1);

  FaultClause clause;
  if (name == "slow") {
    clause.kind = FaultKind::kShardSlowdown;
  } else if (name == "stall") {
    clause.kind = FaultKind::kWorkerStall;
  } else if (name == "drop-telemetry") {
    clause.kind = FaultKind::kDropTelemetry;
  } else if (name == "brownout") {
    clause.kind = FaultKind::kBrownout;
  } else if (name == "crash") {
    clause.kind = FaultKind::kCrash;
  } else {
    throw std::invalid_argument("unknown fault kind \"" + std::string(name) +
                                "\"");
  }

  bool saw_shard = false, saw_us = false, saw_workers = false, saw_ms = false,
       saw_shed = false;
  if (!args.empty()) {
    for (const std::string& field : split(args, ",")) {
      const std::size_t eq = field.find('=');
      if (eq == std::string::npos || eq == 0) {
        throw std::invalid_argument("expected key=value, got \"" + field +
                                    "\"");
      }
      const std::string key = field.substr(0, eq);
      const std::string value = field.substr(eq + 1);
      if (key == "at") {
        clause.at = parse_count(value, key);
      } else if (key == "for") {
        const std::uint64_t n = parse_count(value, key);
        if (n == 0) throw std::invalid_argument("for=0");
        clause.duration = n;
      } else if (key == "tenant" && clause.kind != FaultKind::kWorkerStall &&
                 clause.kind != FaultKind::kCrash) {
        const std::uint64_t tenant = parse_count(value, key);
        if (tenant > UINT32_MAX) {
          throw std::invalid_argument("tenant " + value + " out of range");
        }
        clause.tenant = static_cast<std::uint32_t>(tenant);
      } else if (key == "shard" && clause.kind == FaultKind::kShardSlowdown) {
        clause.shard = parse_count(value, key);
        saw_shard = true;
      } else if (key == "us" && clause.kind == FaultKind::kShardSlowdown) {
        clause.slow_us = parse_count(value, key);
        saw_us = true;
      } else if (key == "workers" && clause.kind == FaultKind::kWorkerStall) {
        clause.workers = parse_count(value, key);
        saw_workers = true;
      } else if (key == "ms" && clause.kind == FaultKind::kWorkerStall) {
        clause.stall_ms = parse_count(value, key);
        saw_ms = true;
      } else if (key == "shed" && clause.kind == FaultKind::kBrownout) {
        clause.shed = parse_number(value, key);
        if (!(clause.shed > 0.0) || clause.shed > 1.0) {
          throw std::invalid_argument("shed must be a fraction in (0,1], got " +
                                      value);
        }
        saw_shed = true;
      } else {
        throw std::invalid_argument("unknown key \"" + key + "\"");
      }
    }
  }

  switch (clause.kind) {
    case FaultKind::kShardSlowdown:
      if (!saw_shard || !saw_us)
        throw std::invalid_argument("slow requires shard= and us=");
      if (clause.slow_us == 0)
        throw std::invalid_argument("slow requires us > 0");
      break;
    case FaultKind::kWorkerStall:
      if (!saw_workers || !saw_ms)
        throw std::invalid_argument("stall requires workers= and ms=");
      if (clause.workers == 0 || clause.stall_ms == 0)
        throw std::invalid_argument("stall requires workers > 0 and ms > 0");
      break;
    case FaultKind::kBrownout:
      if (!saw_shed) throw std::invalid_argument("brownout requires shed=");
      break;
    case FaultKind::kCrash:
      if (!clause.at) throw std::invalid_argument("crash requires at=");
      if (*clause.at == 0)
        throw std::invalid_argument(
            "crash requires at >= 1 (the first commit point)");
      break;
    case FaultKind::kDropTelemetry:
      break;
  }
  return clause;
}

}  // namespace

std::string_view fault_kind_name(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kShardSlowdown: return "slow";
    case FaultKind::kWorkerStall: return "stall";
    case FaultKind::kDropTelemetry: return "drop-telemetry";
    case FaultKind::kBrownout: return "brownout";
    case FaultKind::kCrash: return "crash";
  }
  return "unknown";
}

FaultPlan parse_fault_plan(std::string_view spec) {
  try {
    if (spec.empty()) throw std::invalid_argument("empty spec");
    FaultPlan plan;
    plan.spec = std::string(spec);
    for (const std::string& clause : split(spec, ";+")) {
      if (clause.empty()) throw std::invalid_argument("empty clause");
      if (clause == "none") continue;
      plan.clauses.push_back(parse_clause(clause));
    }
    return plan;
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument("--faults: " + std::string(e.what()) +
                                " in \"" + std::string(spec) + "\" (expected " +
                                std::string(kFaultGrammar) + ")");
  }
}

FaultSchedule FaultSchedule::materialize(const FaultPlan& plan,
                                         std::uint64_t seed,
                                         std::uint64_t epochs) {
  FaultSchedule schedule;
  if (plan.empty()) return schedule;
  if (epochs == 0)
    throw std::invalid_argument(
        "--faults: cannot materialize a fault plan for a 0-epoch run");

  // One dedicated stream, walked in clause order: only fields the spec
  // left open consume draws, so pinning one clause's window never
  // shifts another's.
  Rng rng(seed ^ kFaultSeedSalt);
  schedule.faults_.reserve(plan.clauses.size());
  for (const FaultClause& clause : plan.clauses) {
    ActiveFault active;
    active.clause = clause;
    active.begin = clause.at ? *clause.at : rng.below(epochs);
    std::uint64_t duration = 1;
    if (clause.kind == FaultKind::kCrash) {
      // Crash is a point event; `begin` counts committed epochs/rounds.
      duration = 1;
    } else if (clause.duration) {
      duration = *clause.duration;
    } else {
      duration = 1 + rng.below(std::max<std::uint64_t>(1, epochs / 4));
    }
    active.end = active.begin > ~std::uint64_t{0} - duration
                     ? ~std::uint64_t{0}
                     : active.begin + duration;
    schedule.faults_.push_back(active);
  }
  return schedule;
}

std::uint64_t FaultSchedule::slowdown_us(std::uint32_t tenant,
                                         std::uint64_t shard,
                                         std::uint64_t epoch) const noexcept {
  std::uint64_t total = 0;
  for (const ActiveFault& fault : faults_) {
    if (fault.clause.kind == FaultKind::kShardSlowdown &&
        fault.clause.tenant == tenant && fault.clause.shard == shard &&
        fault.covers(epoch))
      total += fault.clause.slow_us;
  }
  return total;
}

double FaultSchedule::brownout_shed(std::uint32_t tenant,
                                    std::uint64_t epoch) const noexcept {
  double survive = 1.0;
  for (const ActiveFault& fault : faults_) {
    if (fault.clause.kind == FaultKind::kBrownout &&
        fault.clause.tenant == tenant && fault.covers(epoch))
      survive *= 1.0 - fault.clause.shed;
  }
  return 1.0 - survive;
}

bool FaultSchedule::telemetry_dropped(std::uint32_t tenant,
                                      std::uint64_t epoch) const noexcept {
  for (const ActiveFault& fault : faults_) {
    if (fault.clause.kind == FaultKind::kDropTelemetry &&
        fault.clause.tenant == tenant && fault.covers(epoch))
      return true;
  }
  return false;
}

FaultSchedule::Stall FaultSchedule::stall_at(
    std::uint64_t graph) const noexcept {
  Stall stall;
  for (const ActiveFault& fault : faults_) {
    if (fault.clause.kind == FaultKind::kWorkerStall && fault.covers(graph)) {
      stall.workers += fault.clause.workers;
      stall.ms = std::max(stall.ms, fault.clause.stall_ms);
    }
  }
  return stall;
}

bool FaultSchedule::crash_after(std::uint64_t committed) const noexcept {
  if (committed == 0) return false;
  for (const ActiveFault& fault : faults_) {
    if (fault.clause.kind == FaultKind::kCrash && fault.begin == committed)
      return true;
  }
  return false;
}

void busy_wait_us(std::uint64_t us) {
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::microseconds(us);
  while (std::chrono::steady_clock::now() < until) {
    // Spin: the point is to burn wall clock on this worker without
    // changing any state the digest can see.
  }
}

void crash_process(std::uint64_t committed) {
  std::fprintf(stderr,
               "staleflow: injected crash after commit point %llu\n",
               static_cast<unsigned long long>(committed));
  std::fflush(stderr);
  // _Exit mirrors a kill -9: no destructors, no atexit, no flushing of
  // anything the WAL observer didn't already fsync-order itself.
  std::_Exit(137);
}

}  // namespace staleflow::faults
