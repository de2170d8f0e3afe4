// The binary certificate format — the unit the certificate service
// stores, reads back, and serves.
//
// A certificate freezes the *outcome* of one routing verification: the
// same Lemma-3/Lemma-4/Theorem-2 chain counts, Claim-1 decode counts,
// or Sections-5/6 segment counts the golden corpus pins, plus the
// FNV-1a digest of the full per-vertex hit array where the array was
// materialized (support/digest.hpp — one definition shared with
// tests/golden). Every number is a pure function of
// (algorithm, k, kind, engine version), which is exactly why the store
// can be content-addressed: two identical requests MUST produce
// byte-identical certificates.
//
// On-disk layout (all integers little-endian, fixed width):
//
//   offset  size  field
//        0     8  magic "PRCERTF1"
//        8     8  endian marker 0x0102030405060708 (foreign-endian
//                 files are rejected, never byte-swapped)
//       16     4  format version (kFormatVersion)
//       20     4  engine version (kEngineVersion of the writer)
//       24     8  algorithm digest (FNV-1a of the serialized algorithm)
//       32     4  kind (CertKind)
//       36     4  k
//       40     4  n0
//       44     4  b
//       48     8  payload word count N
//       56     8  payload digest (fnv1a_words of the payload)
//       64   N*8  payload words (meaning indexed by kind, see below)
//    64+N*8    8  file digest (fnv1a_bytes of everything before it)
//
// The header is 64 bytes, so the payload sits 8-byte aligned in the
// file and any reader may map it in place. decode_certificate is the
// one validator of these bytes: it checks sizes and all three digests
// BEFORE exposing anything, so truncated, corrupted, or
// version-mismatched files produce a diagnostic, never UB (the
// round-trip and rejection paths run under ASan/UBSan in CI).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace pathrouting::service {

/// Bumped whenever the meaning of any cached count changes (new
/// routing engine semantics, payload layout change). Part of the store
/// key: certificates from an older engine are never served as current
/// ones — the counts are tied to the SPAA'15 single-use model (see
/// PAPER_MAP "Serving layer"), so a future recomputation-allowed or
/// hybrid-bound engine bumps this and repopulates.
inline constexpr std::uint32_t kEngineVersion = 1;

/// Binary layout version of the file format itself.
inline constexpr std::uint32_t kFormatVersion = 1;

/// Which verification a certificate freezes.
enum class CertKind : std::uint32_t {
  kChain = 0,    // Lemma 3 stats + Lemma 4 multiplicity verdict
  kDecode = 1,   // Claim 1 stats
  kFull = 2,     // Theorem 2 stats
  kSegment = 3,  // Sections 5/6 segment certificate summary
};

/// Stable lowercase names ("chain", "decode", "full", "segment") used
/// in store file names and the serverd protocol.
[[nodiscard]] const char* kind_name(CertKind kind);
[[nodiscard]] std::optional<CertKind> kind_from_name(std::string_view name);

// Payload word indices per kind. Booleans are stored as 0/1 words;
// *HasHitDigest distinguishes "digest is 0" from "array was never
// materialized" (deep k, where only the implicit engine runs — the
// same cutoff the golden corpus has between its explicit and implicit
// lines).
enum ChainWord : std::size_t {
  kChainNumChains = 0,
  kChainL3MaxHits,
  kChainL3Bound,
  kChainL3Argmax,
  kChainL4Exact,
  kChainHitDigest,
  kChainHasHitDigest,
  kChainWordCount,
};
enum DecodeWord : std::size_t {
  kDecodeNumPaths = 0,
  kDecodeMaxHits,
  kDecodeBound,
  kDecodeArgmax,
  kDecodeHitDigest,
  kDecodeHasHitDigest,
  kDecodeWordCount,
};
enum FullWord : std::size_t {
  kFullNumPaths = 0,
  kFullMaxVertexHits,
  kFullArgmaxVertex,
  kFullMaxMetaHits,
  kFullBound,
  kFullRootHitProperty,
  kFullHitDigest,
  kFullHasHitDigest,
  kFullWordCount,
};
enum SegmentWord : std::size_t {
  kSegmentCertK = 0,        // the certifier's subcomputation rank
  kSegmentSBarTarget,
  kSegmentCountedTotal,
  kSegmentCompleteSegments,
  kSegmentCacheSize,
  kSegmentEqHolds,
  kSegmentScheduleSize,
  kSegmentWordCount,
};

/// The number of payload words `kind` carries.
[[nodiscard]] std::size_t payload_word_count(CertKind kind);

/// A certificate in memory: the header fields plus the payload words.
/// `payload_digest` is the digest *recorded* when the certificate was
/// built or loaded — the audit rule service.cert-digest-match
/// recomputes the digest from `words` and compares (a served
/// certificate whose counts drifted from its recorded digest must
/// never leave the service).
struct Certificate {
  std::uint32_t engine_version = kEngineVersion;
  std::uint64_t algorithm_digest = 0;
  CertKind kind = CertKind::kChain;
  std::uint32_t k = 0;
  std::uint32_t n0 = 0;
  std::uint32_t b = 0;
  std::uint64_t payload_digest = 0;
  std::vector<std::uint64_t> words;

  /// Stamps payload_digest from the current words.
  void seal();

  bool operator==(const Certificate&) const = default;
};

/// Serializes to the exact on-disk byte layout (byte-stable: equal
/// certificates serialize to equal bytes on every platform).
[[nodiscard]] std::string serialize_certificate(const Certificate& cert);

struct DecodeResult {
  std::optional<Certificate> certificate;
  std::string error;  // diagnostic on rejection; empty on success
};

/// Validates and decodes the byte layout: magic, endianness, format
/// version, declared sizes against the actual size, the payload word
/// count of the declared kind, and the payload + file digests. Any
/// mismatch is a rejection with a diagnostic.
[[nodiscard]] DecodeResult decode_certificate(
    std::span<const unsigned char> bytes);

/// Reads the certificate file at `path` and decodes it once with
/// decode_certificate. A missing, empty, truncated, corrupted, or
/// version-mismatched file is a rejection, never UB; every diagnostic
/// starts with "<path>: ".
[[nodiscard]] DecodeResult read_certificate(const std::string& path);

}  // namespace pathrouting::service
