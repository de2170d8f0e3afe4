// FNV-1a digests — the one hashing primitive of the repository.
//
// The golden corpus pins entire per-vertex hit arrays behind a single
// 64-bit FNV-1a digest, and the certificate service addresses its
// content store by the digest of the serialized algorithm. Both uses
// require the SAME definition: a digest stored by the corpus must be
// reproducible by the service and vice versa, so the helper that
// historically lived inside tests/test_golden.cpp is promoted here and
// both sides include it. The constants are pinned by
// test_support.cpp (DigestTest) — changing them silently invalidates
// every committed golden file and every on-disk certificate, which is
// exactly the drift the pin exists to catch.
//
// Byte order is fixed, not host-dependent: u64 values are fed as 8
// little-endian bytes, so digests are identical on every platform the
// binary certificate format supports (the format itself rejects
// foreign-endian files; see service/certificate.hpp).
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace pathrouting::support {

/// FNV-1a 64-bit offset basis and prime (the standard parameters).
inline constexpr std::uint64_t kFnv1aOffsetBasis = 14695981039346656037ull;
inline constexpr std::uint64_t kFnv1aPrime = 1099511628211ull;

/// kFnv1aPrimePowers[i] = kFnv1aPrime^i (mod 2^64): the multiplier of
/// a nonzero byte step followed by i - 1 zero bytes.
inline constexpr std::array<std::uint64_t, 9> kFnv1aPrimePowers = [] {
  std::array<std::uint64_t, 9> p{};
  p[0] = 1;
  for (std::size_t i = 1; i < p.size(); ++i) p[i] = p[i - 1] * kFnv1aPrime;
  return p;
}();

/// FNV-1a over raw bytes, continuing from `state` (chain calls to
/// digest discontiguous regions as one stream).
[[nodiscard]] std::uint64_t fnv1a_bytes(
    const void* data, std::size_t size,
    std::uint64_t state = kFnv1aOffsetBasis);

/// FNV-1a over u64 values, each fed as 8 little-endian bytes — the
/// golden-corpus hit-array digest.
[[nodiscard]] std::uint64_t fnv1a_words(
    std::span<const std::uint64_t> values,
    std::uint64_t state = kFnv1aOffsetBasis);

/// FNV-1a over the bytes of a string (serialized algorithms).
[[nodiscard]] std::uint64_t fnv1a_text(std::string_view text);

/// FNV-1a over `count` copies of `word`: exactly fnv1a_words of a span
/// holding `word` `count` times, continuing from `state`, without the
/// span. A zero byte's step is a bare multiply by the prime, so the
/// zero bytes above the word's highest nonzero byte fold into that
/// byte's multiplier, and an all-zero run is one power of the prime.
/// Piecewise constant hit arrays digest run by run through this (see
/// routing/memo_routing.hpp), so it is inline.
[[nodiscard]] inline std::uint64_t fnv1a_repeat(
    std::uint64_t word, std::uint64_t count,
    std::uint64_t state = kFnv1aOffsetBasis) {
  // A zero byte's step is a bare multiply by the prime, so a long zero
  // run is state * (P^8)^count, by squaring.
  if (count > 8 && word == 0) {
    std::uint64_t base = kFnv1aPrimePowers[8];
    for (; count != 0; count >>= 1) {
      if ((count & 1u) != 0) state *= base;
      base *= base;
    }
    return state;
  }
  // The zero bytes above the highest nonzero one (all eight of a zero
  // word, after its first) fold into its step.
  const int high = (std::bit_width(word | 1u) - 1) / 8;
  const std::uint64_t high_byte = word >> (8 * high);
  const std::uint64_t high_mul =
      kFnv1aPrimePowers[static_cast<std::size_t>(8 - high)];
  for (; count != 0; --count) {
    for (int byte = 0; byte < high; ++byte) {
      state = (state ^ ((word >> (8 * byte)) & 0xffu)) * kFnv1aPrime;
    }
    state = (state ^ high_byte) * high_mul;
  }
  return state;
}

}  // namespace pathrouting::support
