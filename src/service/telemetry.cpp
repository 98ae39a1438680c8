#include "service/telemetry.h"

#include <sstream>
#include <vector>

#include "util/csv.h"
#include "util/fnv.h"

namespace staleflow {
namespace {

std::string fmt(double value) {
  std::ostringstream out;
  out.precision(17);  // round-trips any double exactly
  out << value;
  return out.str();
}

}  // namespace

void write_epoch_csv(const std::string& path,
                     std::span<const EpochSummary> epochs,
                     bool include_timing) {
  std::vector<std::string> header = {"epoch",      "start",
                                     "end",        "queries",
                                     "migrations", "migration_rate",
                                     "wardrop_gap", "board_latency",
                                     "route_p50",  "route_p99",
                                     "route_p999"};
  if (include_timing) {
    header.push_back("qps");
  }
  CsvWriter csv(path, header);
  for (const EpochSummary& e : epochs) {
    std::vector<std::string> row = {
        std::to_string(e.epoch),      fmt(e.start_time),
        fmt(e.end_time),              std::to_string(e.queries),
        std::to_string(e.migrations), fmt(e.migration_rate),
        fmt(e.wardrop_gap),           fmt(e.board_latency),
        fmt(e.route_p50),             fmt(e.route_p99),
        fmt(e.route_p999)};
    if (include_timing) {
      row.push_back(fmt(e.queries_per_second));
    }
    csv.add_row(row);
  }
}

std::uint64_t telemetry_digest(std::span<const EpochSummary> epochs) {
  std::uint64_t h = fnv::kOffsetBasis;
  for (const EpochSummary& e : epochs) {
    h = telemetry_digest_accumulate(h, e);
  }
  return h;
}

std::uint64_t telemetry_digest_accumulate(std::uint64_t h,
                                          const EpochSummary& e) {
  fnv::hash_u64(h, e.epoch);
  fnv::hash_u64(h, e.queries);
  fnv::hash_u64(h, e.migrations);
  fnv::hash_double(h, e.wardrop_gap);
  fnv::hash_double(h, e.board_latency);
  fnv::hash_double(h, e.route_p50);
  fnv::hash_double(h, e.route_p99);
  fnv::hash_double(h, e.route_p999);
  return h;
}

}  // namespace staleflow
