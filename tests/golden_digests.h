// The pinned golden digests, each defined once. golden_test.cpp reaches
// them through the library (at 1 and 4 threads; kSolo and kTrio* also by
// resuming the crash images in tests/data/, which the retired pipelined
// schedule wrote); cli_test.cpp reaches them through the command-line
// tools, proving each tool resolves its flags to the config pinned here. A
// deliberate dynamics or telemetry change that moves a digest updates it
// here, and both suites follow.
#pragma once

#include <cstdint>

namespace staleflow::golden {

/// `route_server_cli run --scenario braess --policy replicator --period
/// 0.1 --epochs 20 --clients 2000 --workload closed-loop:4000 --shards 8
/// --seed 1 --deterministic`. Wall-clock-only faults keep this digest.
inline constexpr std::uint64_t kSolo = 0xa1dacc4addb92e51ULL;

/// The solo config under `--faults 'brownout:shed=0.5,at=5,for=6'`.
inline constexpr std::uint64_t kSoloBrownout = 0x334feb6db721d128ULL;

/// The solo config at `--epochs 5000`.
inline constexpr std::uint64_t kLongSolo = 0xb7ba79a075cb8151ULL;

/// The solo config with `--workload bursty:40000,2000,3,2 --sub-batch
/// 250`. Its arrivals draw through libm, so it is pinned for glibc on
/// x86-64 only.
inline constexpr std::uint64_t kBursty = 0x6906848562aad352ULL;

/// The three tenants of the solo flags at `--epochs 15` with --tenants
/// 'small:workload=closed-loop:500,clients=500,shards=2;
/// big:workload=closed-loop:4000,weight=2;links:scenario=uniform-links-8,
/// workload=closed-loop:1500,clients=1000,shards=4,seed=9'.
inline constexpr std::uint64_t kTrioSmall = 0x7de48e376f181577ULL;
inline constexpr std::uint64_t kTrioBig = 0xcd28849b09fd0742ULL;
inline constexpr std::uint64_t kTrioLinks = 0xc3150d3447f1efddULL;

/// `sweep_cli run --simulator service --scenarios braess --policies
/// replicator --periods 0.1 --horizon 2 --replicas 2 --workloads
/// closed-loop:2000 --clients 2000`, with `--shards 1,4` ...
inline constexpr std::uint64_t kServiceSweep = 0x128ef7a21bc629eeULL;
/// ... and with `--shards 4 --faults 'none;brownout:shed=0.5,at=3,for=5'`.
inline constexpr std::uint64_t kChaosSweep = 0xa501a42e6607a582ULL;

}  // namespace staleflow::golden
