#include "service/ledger.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace staleflow {

namespace {
// Doubles and served counts are both 8 bytes, so one stride serves both.
constexpr std::size_t kDoublesPerLine = 64 / sizeof(double);
static_assert(sizeof(std::uint64_t) == sizeof(double));
}

FlowLedger::FlowLedger(std::size_t path_count, std::size_t slots)
    : path_count_(path_count),
      stride_((path_count + kDoublesPerLine - 1) / kDoublesPerLine *
              kDoublesPerLine),
      served_total_(path_count, 0),
      migrations_(slots) {
  if (slots == 0) {
    throw std::invalid_argument("FlowLedger: need at least one slot");
  }
  delta_.assign(slots * stride_, 0.0);
  served_.assign(slots * stride_, 0);
}

void FlowLedger::ensure_slots(std::size_t slots) {
  if (slots <= migrations_.size()) return;
  migrations_.resize(slots);
  delta_.resize(slots * stride_, 0.0);
  served_.resize(slots * stride_, 0);
}

FlowLedger::Totals FlowLedger::fold_into(std::span<double> flow,
                                         std::size_t active_slots) noexcept {
  assert(active_slots <= migrations_.size());
  Totals totals;
  // A local bound: the count stores below are the type of path_count_,
  // so the compiler would otherwise reload it after every store.
  const std::size_t paths = path_count_;
  std::uint64_t* total = served_total_.data();
  std::fill(total, total + paths, 0);
  for (std::size_t s = 0; s < active_slots; ++s) {
    double* block = delta_.data() + s * stride_;
    for (std::size_t p = 0; p < paths; ++p) {
      flow[p] += block[p];
      block[p] = 0.0;
    }
    std::uint64_t* served = served_.data() + s * stride_;
    for (std::size_t p = 0; p < paths; ++p) {
      total[p] += served[p];
      served[p] = 0;
    }
    totals.migrations += migrations_[s].count;
    migrations_[s].count = 0;
  }
  for (const std::uint64_t count : served_total_) totals.queries += count;
  return totals;
}

}  // namespace staleflow
