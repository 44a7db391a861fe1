// A small fixed-width bitmask used for relation sets in the join-order
// enumerator and for enabled-candidate sets in the CSE optimizer. Joins stay
// well below 64 relations; CSE candidates are clamped to exactly 64 (the
// lowest net benefits are dropped past it).
#ifndef SUBSHARE_UTIL_BITSET64_H_
#define SUBSHARE_UTIL_BITSET64_H_

#include <cstdint>

#include "util/check.h"

namespace subshare {

class Bitset64 {
 public:
  // Capacity ceiling. Producers of member indexes (the CSE capacity clamp,
  // the join enumerator) must clamp to this BEFORE building masks: a raw
  // `1ULL << i` with i >= 64 is undefined behavior, and Bit() below CHECKs
  // rather than relying on callers.
  static constexpr int kMaxBits = 64;

  constexpr Bitset64() : bits_(0) {}
  constexpr explicit Bitset64(uint64_t bits) : bits_(bits) {}

  static Bitset64 Single(int i) { return Bitset64(Bit(i)); }

  void Set(int i) { bits_ |= Bit(i); }
  void Clear(int i) { bits_ &= ~Bit(i); }
  bool Test(int i) const { return (bits_ & Bit(i)) != 0; }

  bool Empty() const { return bits_ == 0; }
  int Count() const { return __builtin_popcountll(bits_); }
  uint64_t Raw() const { return bits_; }

  bool Contains(Bitset64 other) const {
    return (bits_ & other.bits_) == other.bits_;
  }
  bool Intersects(Bitset64 other) const { return (bits_ & other.bits_) != 0; }

  Bitset64 Union(Bitset64 other) const { return Bitset64(bits_ | other.bits_); }
  Bitset64 Intersect(Bitset64 other) const {
    return Bitset64(bits_ & other.bits_);
  }
  Bitset64 Minus(Bitset64 other) const {
    return Bitset64(bits_ & ~other.bits_);
  }

  // Index of the lowest set bit; the set must be non-empty.
  int Lowest() const {
    CHECK(bits_ != 0);
    return __builtin_ctzll(bits_);
  }

  friend bool operator==(Bitset64 a, Bitset64 b) { return a.bits_ == b.bits_; }
  friend bool operator!=(Bitset64 a, Bitset64 b) { return a.bits_ != b.bits_; }
  friend bool operator<(Bitset64 a, Bitset64 b) { return a.bits_ < b.bits_; }

 private:
  static uint64_t Bit(int i) {
    CHECK(i >= 0 && i < kMaxBits);
    return uint64_t{1} << i;
  }
  uint64_t bits_;
};

}  // namespace subshare

#endif  // SUBSHARE_UTIL_BITSET64_H_
