// Content-addressed certificate store.
//
// A certificate is a pure function of
// (algorithm, k, kind, engine version), so that tuple — with the
// algorithm collapsed to the FNV-1a digest of its canonical serialized
// text (bilinear::to_text, the same digest primitive as the golden
// corpus) — IS the address. Two services given the same algorithm
// catalog produce the same keys, the same file names, and byte-equal
// certificate files.
//
// The engine version is part of the key on purpose: the cached counts
// encode the SPAA'15 single-use routing model, and a future engine with
// different semantics (e.g. a recomputation-allowed or hybrid-bound
// regime) must repopulate under a new version rather than silently
// serve stale numbers.
//
// The store is a directory of certificate files plus an in-memory
// index. Lookups that miss the index read the file, decode it once
// (read_certificate, see certificate.hpp) and index the decoded
// certificate; inserts write through a temp file + rename, so
// concurrent writers of the SAME key race benignly — both bodies are
// byte-identical.
//
// The index is insert-only: no entry is ever erased or replaced, so it
// is read without a lock. It is a fixed power-of-two array of buckets,
// each the head of a chain that grows at the front. A writer builds an
// entry completely, then, under the one writer mutex, links it in front
// of its bucket's head and publishes it with a release store; a reader
// walks the chain from an acquire load of the head. A reader therefore
// sees each entry either not at all or whole, and an index probe writes
// no memory another thread reads or writes. The key space is bounded
// (catalog algorithms x ranks within the 32-bit id space x four kinds,
// a few hundred keys), so the bucket array never grows.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

#include "pathrouting/bilinear/bilinear.hpp"
#include "pathrouting/service/certificate.hpp"

namespace pathrouting::service {

/// FNV-1a digest of the canonical serialized text of `alg`
/// (bilinear::to_text) — the algorithm component of every store key.
[[nodiscard]] std::uint64_t algorithm_digest(
    const bilinear::BilinearAlgorithm& alg);

struct StoreKey {
  std::uint64_t algorithm_digest = 0;
  std::uint32_t k = 0;
  CertKind kind = CertKind::kChain;
  std::uint32_t engine_version = kEngineVersion;

  friend auto operator<=>(const StoreKey&, const StoreKey&) = default;
};

/// Deterministic file name of a key:
/// "<algorithm digest, 16 hex>-k<k>-<kind>-e<engine version>.cert".
[[nodiscard]] std::string store_file_name(const StoreKey& key);

/// The key a certificate addresses itself under.
[[nodiscard]] StoreKey key_of(const Certificate& cert);

class CertificateStore {
 public:
  /// `dir` empty = memory-only store (tests); otherwise the directory
  /// is created if missing and certificate files live directly in it.
  explicit CertificateStore(std::string dir);
  ~CertificateStore();
  CertificateStore(const CertificateStore&) = delete;
  CertificateStore& operator=(const CertificateStore&) = delete;

  /// Index hit, else read + decode the key's file. A file that fails
  /// validation (truncated/corrupted/foreign version) or addresses
  /// another key is treated as a miss — the service recomputes and
  /// rewrites it. Returns a copy; certificate payloads are a handful
  /// of words.
  [[nodiscard]] std::optional<Certificate> lookup(const StoreKey& key);

  /// Index-only probe: no file access and no hit/miss counters. An
  /// insert always lands in the index, so this sees every key whose
  /// insert has returned (or otherwise happens-before the probe).
  [[nodiscard]] std::optional<Certificate> find_indexed(
      const StoreKey& key) const;

  /// Write-through insert (no-op if the key is already indexed).
  /// Returns false only when the disk write failed; the in-memory
  /// index is updated regardless.
  bool insert(const StoreKey& key, const Certificate& cert);

  /// The payload digest recorded in the index for `key` (0 if absent):
  /// the reference value for the service.cert-digest-match audit rule.
  [[nodiscard]] std::uint64_t recorded_digest(const StoreKey& key) const;

  [[nodiscard]] const std::string& dir() const { return dir_; }
  [[nodiscard]] std::size_t indexed_count() const;

 private:
  /// An index entry; immutable once published.
  struct Node;
  static constexpr int kBucketBits = 10;

  [[nodiscard]] std::string path_of(const StoreKey& key) const;
  [[nodiscard]] static std::size_t bucket_of(const StoreKey& key);
  /// The published entry for `key`, or null. Takes no lock.
  [[nodiscard]] const Node* find(const StoreKey& key) const;
  /// Indexes `cert` under `key` unless an entry exists already; returns
  /// the entry and whether this call published it.
  std::pair<const Node*, bool> publish(const StoreKey& key, Certificate cert);

  std::string dir_;
  std::mutex write_mutex_;  // serializes publish(); readers never take it
  std::atomic<std::size_t> indexed_{0};
  std::array<std::atomic<const Node*>, std::size_t{1} << kBucketBits>
      buckets_{};
};

}  // namespace pathrouting::service
