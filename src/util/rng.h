// Deterministic pseudo-random number generation for reproducible ATPG runs.
//
// All randomized components of the library (GA initialization, mutation,
// X-filling of deterministic vectors, synthetic circuit generation) draw from
// Rng so that a run is fully determined by its seeds.  xoshiro256** is used:
// it is fast, has a 256-bit state, and passes BigCrush.
#pragma once

#include <array>
#include <cstdint>
#include <limits>

namespace gatpg::util {

/// xoshiro256** generator.  Satisfies std::uniform_random_bit_generator so it
/// can also be plugged into <random> distributions when needed.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  /// Re-initializes the state from a single seed using splitmix64, which
  /// guarantees a well-mixed nonzero state for any seed value.
  void reseed(std::uint64_t seed) {
    std::uint64_t x = seed;
    for (auto& word : state_) {
      x += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      word = z ^ (z >> 31);
    }
  }

  std::uint64_t operator()() {
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

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  /// Uniform integer in [0, bound).  bound must be nonzero.  Uses Lemire's
  /// multiply-shift rejection method (unbiased).
  std::uint64_t below(std::uint64_t bound) {
    // For our use (bounds far below 2^64) one rejection iteration is rare.
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
      const std::uint64_t threshold = -bound % bound;
      while (low < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// True with probability p (p clamped to [0,1]).  Draws nothing when
  /// p <= 0 or p >= 1.
  bool chance(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return static_cast<double>((*this)()) * kChanceScale < p;
  }

  /// The draw bound of chance(p) for 0 < p < 1: chance(p) is exactly
  /// `(*this)() < chance_threshold(p)`, so a loop drawing against one p can
  /// compare integers instead of converting every draw.  The predicate
  /// double(x) * kChanceScale < p falls from true to false once as x grows,
  /// and the bound is where, found by binary search.
  static std::uint64_t chance_threshold(double p) {
    std::uint64_t lo = 0;  // the answer lies in [lo, hi]
    std::uint64_t hi = std::numeric_limits<std::uint64_t>::max();
    while (lo < hi) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      if (static_cast<double>(mid) * kChanceScale < p) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  /// A random bit.
  bool bit() { return ((*this)() >> 63) != 0; }

  /// A full random 64-bit word (alias for operator() that reads better at
  /// call sites packing bit-parallel values).
  std::uint64_t word() { return (*this)(); }

  /// Uniform double in [0,1).
  double uniform() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  // -- Snapshot support ------------------------------------------------------
  // The raw 256-bit state, so a checkpointed run resumes its random stream at
  // exactly the next draw.  set_state_words with an all-zero array would jam
  // the generator; callers only ever feed back state_words() output.

  std::array<std::uint64_t, 4> state_words() const {
    return {state_[0], state_[1], state_[2], state_[3]};
  }
  void set_state_words(const std::array<std::uint64_t, 4>& w) {
    for (int i = 0; i < 4; ++i) state_[i] = w[i];
  }

 private:
  static constexpr double kChanceScale =
      1.0 / static_cast<double>(std::numeric_limits<std::uint64_t>::max());

  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4]{};
};

}  // namespace gatpg::util
