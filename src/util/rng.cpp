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

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
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

Rng::result_type Rng::operator()() noexcept {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() noexcept {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  if (lo > hi) throw std::invalid_argument("Rng::uniform: lo > hi");
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::below(std::uint64_t n) {
  if (n == 0) throw std::invalid_argument("Rng::below: n must be positive");
  // Lemire-style rejection to remove modulo bias.
  const std::uint64_t threshold = (~n + 1) % n;  // (2^64 - n) mod n
  for (;;) {
    const std::uint64_t r = (*this)();
    if (r >= threshold) return r % n;
  }
}

bool Rng::bernoulli(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
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
