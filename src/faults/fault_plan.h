// Deterministic fault-injection plane.
//
// A FaultPlan is parsed from a `--faults <spec>` string and names *what*
// can go wrong (typed fault clauses); a FaultSchedule is the plan
// materialized against a run's (seed, epochs): every activation window
// the spec leaves open is drawn from a dedicated Rng stream derived from
// the run seed, never from wall clock. The schedule is therefore a pure
// function of (spec, seed, epochs) — two runs with the same triple see
// byte-identical fault timing, which is what makes chaos runs replayable
// and digest-pinnable (and lets a `--resume` after a fault-induced crash
// rebuild the exact same schedule from the WAL header).
//
// Fault kinds and their digest contract:
//   - slow          per-shard busy-wait per serving sub-batch task.
//                   Wall-clock only; never touches dynamics. Digest-neutral.
//   - stall         occupies N pool workers with sleep tasks for the
//                   duration of scheduled task graphs. Digest-neutral.
//   - drop-telemetry suppresses the engine's trace emission for a
//                   (tenant, epoch) window. Traces are digest-neutral by
//                   contract, so dropping them is too.
//   - brownout      deterministically sheds a fraction of a tenant's
//                   planned arrivals. Changes that tenant's digest (by
//                   design — it is load shedding), and ONLY that
//                   tenant's: co-scheduled tenants stay byte-identical.
//   - crash         terminates the process (exit 137) after the N-th
//                   committed epoch/round — the commit point the WAL
//                   observer just flushed — so it composes with
//                   `--wal`/`--resume`.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace staleflow::faults {

/// Typed fault kinds. Values are stable (they appear in trace events as
/// the kFaultSpan `arg` field); append, never renumber.
enum class FaultKind : std::uint8_t {
  kShardSlowdown = 0,   ///< busy-wait serving tasks of one shard
  kWorkerStall = 1,     ///< hold pool workers in sleep tasks
  kDropTelemetry = 2,   ///< suppress a tenant's trace emission
  kBrownout = 3,        ///< shed a fraction of a tenant's arrivals
  kCrash = 4,           ///< _Exit(137) after the N-th commit point
};

/// Human-readable fault-kind name ("slow", "stall", ...).
std::string_view fault_kind_name(FaultKind kind) noexcept;

/// One parsed fault clause. Which fields are meaningful depends on
/// `kind`; `at`/`duration` stay unset when the spec omits them and are
/// drawn from the fault Rng stream at materialize time.
struct FaultClause {
  FaultKind kind = FaultKind::kBrownout;
  std::uint32_t tenant = 0;   ///< registry index (slow/drop/brownout)
  std::uint64_t shard = 0;    ///< slow: which logical shard
  std::uint64_t slow_us = 0;  ///< slow: busy-wait per sub-batch task
  std::uint64_t workers = 0;  ///< stall: how many pool workers to hold
  std::uint64_t stall_ms = 0; ///< stall: how long each worker sleeps
  double shed = 0.0;          ///< brownout: fraction of arrivals in (0,1]
  std::optional<std::uint64_t> at;        ///< activation epoch / graph / commit
  std::optional<std::uint64_t> duration;  ///< window length in epochs/graphs
};

/// A parsed `--faults` spec: an ordered list of clauses plus the
/// original text (ordered because omitted windows are drawn from the
/// fault stream in clause order — the order is part of the contract).
struct FaultPlan {
  std::vector<FaultClause> clauses;
  std::string spec;

  bool empty() const noexcept { return clauses.empty(); }
};

/// Parses a fault spec. Grammar (clauses separated by ';' or '+'):
///
///   spec   := clause ((';' | '+') clause)* | "none"
///   clause := "slow:shard=<s>,us=<u>[,tenant=<t>][,at=<e>][,for=<n>]"
///           | "stall:workers=<w>,ms=<m>[,at=<g>][,for=<n>]"
///           | "drop-telemetry[:tenant=<t>][,at=<e>][,for=<n>]"
///           | "brownout:shed=<f>[,tenant=<t>][,at=<e>][,for=<n>]"
///           | "crash:at=<n>"
///
/// `at`/`for` are in epochs (graphs for stall, committed epochs/rounds
/// for crash); omitted ones are drawn at materialize time. `shed` is a
/// fraction in (0,1]. "none" (and a bare "none" clause) parses to an
/// empty plan. Throws std::invalid_argument with a grammar reminder on
/// any malformed spec.
FaultPlan parse_fault_plan(std::string_view spec);

/// The clause grammar above, as parse_fault_plan's errors and the tools'
/// usage print it. `shed` is a number, the other values counts
/// (util/spec_parse.h).
inline constexpr std::string_view kFaultGrammar =
    "slow:shard=S,us=U[,tenant=T][,at=E][,for=N] | "
    "stall:workers=W,ms=M[,at=G][,for=N] | "
    "drop-telemetry[:tenant=T][,at=E][,for=N] | "
    "brownout:shed=F[,tenant=T][,at=E][,for=N] | crash:at=N | none, "
    "clauses joined by ';' or '+'";

/// One materialized fault window over [begin, end) in epoch (or graph,
/// or commit-count) coordinates, depending on the clause kind.
struct ActiveFault {
  FaultClause clause;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;  ///< half-open

  bool covers(std::uint64_t t) const noexcept { return t >= begin && t < end; }
};

/// A FaultPlan bound to concrete activation windows. Query methods are
/// const, lock-free and O(#clauses) — cheap enough for per-sub-batch
/// hooks; a null/empty schedule means a healthy world.
class FaultSchedule {
 public:
  FaultSchedule() = default;

  /// Binds `plan` to a run: windows the spec pinned with `at=`/`for=`
  /// are kept verbatim; omitted ones are drawn from a dedicated stream
  /// seeded by `seed` (the run seed XOR a fault-plane salt), in clause
  /// order. Pure function of (plan, seed, epochs); requires epochs >= 1
  /// for any plan with clauses (throws std::invalid_argument otherwise).
  static FaultSchedule materialize(const FaultPlan& plan, std::uint64_t seed,
                                   std::uint64_t epochs);

  bool empty() const noexcept { return faults_.empty(); }
  const std::vector<ActiveFault>& faults() const noexcept { return faults_; }

  /// Total busy-wait microseconds a serving task of (tenant, shard)
  /// owes during `epoch` (sums overlapping slow windows). 0 = healthy.
  std::uint64_t slowdown_us(std::uint32_t tenant, std::uint64_t shard,
                            std::uint64_t epoch) const noexcept;

  /// Fraction of `tenant`'s planned arrivals to shed in `epoch`.
  /// Overlapping brownouts compose as independent survivor products;
  /// the result is in [0, 1].
  double brownout_shed(std::uint32_t tenant,
                       std::uint64_t epoch) const noexcept;

  /// True when `tenant`'s engine must not emit trace events for `epoch`.
  bool telemetry_dropped(std::uint32_t tenant,
                         std::uint64_t epoch) const noexcept;

  struct Stall {
    std::uint64_t workers = 0;
    std::uint64_t ms = 0;
  };

  /// Worker-stall demand for the `graph`-th task graph the executor
  /// runs (workers summed, ms maxed across overlapping stall windows).
  Stall stall_at(std::uint64_t graph) const noexcept;

  /// True when a crash clause fires after `committed` epochs/rounds —
  /// i.e. the host must _Exit now that commit point `committed` is on
  /// disk. Never true for committed == 0.
  bool crash_after(std::uint64_t committed) const noexcept;

 private:
  std::vector<ActiveFault> faults_;
};

/// Spins on the monotonic clock for `us` microseconds. The slowdown
/// primitive: burns wall clock without yielding state changes.
void busy_wait_us(std::uint64_t us);

/// Terminates the process with exit code 137 (the conventional
/// SIGKILL-style status the recovery CI smoke expects) after noting the
/// injected crash on stderr. Called only from fault hooks, and only
/// after the current commit point's WAL records are flushed.
[[noreturn]] void crash_process(std::uint64_t committed);

}  // namespace staleflow::faults
