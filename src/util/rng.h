// Deterministic pseudo-random number generation for simulations.
//
// All randomness in staleflow flows through Rng so that every simulation,
// test, and benchmark is reproducible from a single 64-bit seed. The
// generator is xoshiro256** (Blackman & Vigna), which is fast, has a
// 256-bit state, and passes BigCrush.
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace staleflow {

/// Deterministic random number generator (xoshiro256**).
///
/// Satisfies the C++ UniformRandomBitGenerator requirements, so it can be
/// plugged into <random> distributions, but also offers the convenience
/// draws the simulators need directly.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from `seed` via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  /// Next raw 64-bit output.
  result_type operator()() noexcept {
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

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    // 53 high bits -> double in [0, 1).
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Throws std::invalid_argument when n == 0.
  /// Unbiased (rejection). This is BoundedDraw(n)(*this): a loop drawing
  /// many values below one n builds the BoundedDraw once instead.
  std::uint64_t below(std::uint64_t n);

  /// Bernoulli draw with success probability p (clamped to [0,1]).
  bool bernoulli(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  /// Exponential variate with the given rate (> 0).
  double exponential(double rate);

  /// Standard normal variate (Box-Muller, no caching for determinism).
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Fisher-Yates shuffle of `items`.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      using std::swap;
      swap(items[i - 1], items[below(i)]);
    }
  }

  /// Derives an independent child generator (for per-agent streams).
  Rng split() noexcept;

  /// The full 256-bit generator state — the cursor a checkpoint stores so
  /// a restored stream continues exactly where this one stands (every
  /// future draw and split() identical). Round-trips through from_state().
  std::array<std::uint64_t, 4> state() const noexcept { return state_; }

  /// Rebuilds a generator at a previously exported cursor. Throws
  /// std::invalid_argument on the all-zero state (unreachable from any
  /// seeded generator: xoshiro256** never enters it, and the constructor
  /// avoids it), so a zeroed/corrupt checkpoint fails loudly instead of
  /// producing a degenerate stream.
  static Rng from_state(const std::array<std::uint64_t, 4>& state);

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// Uniform integers in [0, n) for one fixed n, with the divisor's work
/// done once: the rejection threshold and m = floor((2^64 - 1) / n) are
/// computed at construction, and each accepted raw draw r is reduced by
/// one multiply-high instead of a 64-bit division (division by an
/// invariant integer, Granlund & Montgomery 1994, in Barrett's form).
/// Takes exactly the raw draws, and returns exactly the values, of the
/// textbook loop "retry while r < (2^64 - n) mod n, return r % n".
class BoundedDraw {
 public:
  /// Throws std::invalid_argument when n == 0.
  explicit BoundedDraw(std::uint64_t n) : n_(n) {
    if (n == 0) throw std::invalid_argument("BoundedDraw: n must be positive");
    threshold_ = (~n + 1) % n;  // (2^64 - n) mod n
    m_ = ~std::uint64_t{0} / n;
  }

  /// r % n for every 64-bit r. With r = q * n + rem, the estimate
  /// mulhi(r, m) is q or q - 1 (m is within one of 2^64 / n and r <
  /// 2^64), so r - estimate * n is rem or rem + n <= r, and one
  /// conditional subtraction finishes it.
  std::uint64_t reduce(std::uint64_t r) const noexcept {
    const std::uint64_t estimate = static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(r) * m_) >> 64);
    const std::uint64_t rem = r - estimate * n_;
    return rem >= n_ ? rem - n_ : rem;
  }

  /// One uniform value in [0, n).
  std::uint64_t operator()(Rng& rng) const noexcept {
    for (;;) {
      const std::uint64_t r = rng();
      if (r >= threshold_) return reduce(r);
    }
  }

 private:
  std::uint64_t n_;
  // Raw draws below the threshold are retried, so the accepted range is
  // a whole multiple of n.
  std::uint64_t threshold_ = 0;
  std::uint64_t m_ = 0;
};

inline std::uint64_t Rng::below(std::uint64_t n) {
  return BoundedDraw(n)(*this);
}

}  // namespace staleflow
