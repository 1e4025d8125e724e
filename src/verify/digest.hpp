// Stable 64-bit content digests for deterministic-replay verification.
//
// FNV-1a over a canonical byte encoding: every value is serialised to a
// fixed little-endian layout before hashing, doubles are normalised
// (-0.0 -> +0.0, every NaN -> one canonical quiet NaN) and strings are
// length-prefixed, so the same record stream hashes to the same value on
// every platform the kernel's RNG contract covers. Deliberately no
// external dependencies: a golden digest must never change because a
// library version did.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>

namespace utilrisk::verify {

inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x00000100000001b3ULL;

/// Bit pattern hashed for a double: -0.0 collapses onto +0.0 and every
/// NaN onto the canonical quiet NaN, so values that compare equal (or are
/// equally "not a number") digest equally regardless of how they were
/// produced.
[[nodiscard]] constexpr std::uint64_t canonical_double_bits(double value) {
  if (value != value) return 0x7ff8000000000000ULL;  // any NaN
  if (value == 0.0) return 0;                        // +0.0 and -0.0
  return std::bit_cast<std::uint64_t>(value);
}

/// Order-sensitive FNV-1a accumulator.
class DigestStream {
 public:
  void put_byte(std::uint8_t byte) {
    hash_ = (hash_ ^ byte) * kFnvPrime;
  }

  void put_u64(std::uint64_t value) {
    for (int shift = 0; shift < 64; shift += 8) {
      put_byte(static_cast<std::uint8_t>(value >> shift));
    }
  }

  void put_bool(bool value) { put_byte(value ? 1 : 0); }

  void put_double(double value) { put_u64(canonical_double_bits(value)); }

  /// Length-prefixed, so "ab" + "c" and "a" + "bc" digest differently.
  void put_string(std::string_view text) {
    put_u64(text.size());
    for (char c : text) put_byte(static_cast<std::uint8_t>(c));
  }

  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = kFnvOffsetBasis;
};

/// Order-independent combiner: each element hash is mixed through a
/// SplitMix64-style finalizer and summed with wrapping arithmetic, so any
/// permutation of the same multiset digests equally while near-collisions
/// of raw hashes do not cancel.
class UnorderedDigest {
 public:
  void add(std::uint64_t element_hash) {
    sum_ += mix(element_hash);
    ++count_;
  }

  /// Folds another accumulator in. Because both sides are wrapping sums
  /// over mixed element hashes, merging per-partition digests yields
  /// exactly the digest a single accumulator over the union would — the
  /// property the sharded serving path's combined decision digest rests
  /// on (any partitioning of the same decision multiset merges equal).
  void merge(const UnorderedDigest& other) {
    sum_ += other.sum_;
    count_ += other.count_;
  }

  [[nodiscard]] std::uint64_t value() const {
    DigestStream stream;
    stream.put_u64(sum_);
    stream.put_u64(count_);
    return stream.value();
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }

 private:
  static constexpr std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  std::uint64_t sum_ = 0;
  std::uint64_t count_ = 0;
};

/// 16 lowercase hex characters (zero-padded).
[[nodiscard]] std::string to_hex(std::uint64_t value);

/// Inverse of to_hex; throws std::invalid_argument on anything that is
/// not exactly 1..16 hex characters.
[[nodiscard]] std::uint64_t parse_hex(std::string_view text);

}  // namespace utilrisk::verify
