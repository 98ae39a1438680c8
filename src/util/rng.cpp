#include "util/rng.h"

#include <cmath>
#include <limits>
#include <numbers>

namespace staleflow {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
  // Avoid the (astronomically unlikely) all-zero state.
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
    state_[0] = 1;
  }
}

double Rng::uniform(double lo, double hi) {
  if (lo > hi) throw std::invalid_argument("Rng::uniform: lo > hi");
  return lo + (hi - lo) * uniform();
}

double Rng::exponential(double rate) {
  if (!(rate > 0.0)) {
    throw std::invalid_argument("Rng::exponential: rate must be > 0");
  }
  double u = uniform();
  // uniform() can return exactly 0; log(0) would be -inf.
  while (u == 0.0) u = uniform();
  return -std::log(u) / rate;
}

double Rng::normal(double mean, double stddev) {
  double u1 = uniform();
  while (u1 == 0.0) u1 = uniform();
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * radius * std::cos(2.0 * std::numbers::pi * u2);
}

Rng Rng::split() noexcept {
  return Rng{(*this)()};
}

Rng Rng::from_state(const std::array<std::uint64_t, 4>& state) {
  if (state[0] == 0 && state[1] == 0 && state[2] == 0 && state[3] == 0) {
    throw std::invalid_argument(
        "Rng::from_state: all-zero state is not a valid xoshiro256** "
        "cursor");
  }
  Rng rng;
  rng.state_ = state;
  return rng;
}

}  // namespace staleflow
