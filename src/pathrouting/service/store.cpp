#include "pathrouting/service/store.hpp"

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>

#include "pathrouting/bilinear/serialize.hpp"
#include "pathrouting/obs/obs.hpp"
#include "pathrouting/support/digest.hpp"

namespace pathrouting::service {

std::uint64_t algorithm_digest(const bilinear::BilinearAlgorithm& alg) {
  std::ostringstream os;
  bilinear::to_text(alg, os);
  return support::fnv1a_text(os.str());
}

std::string store_file_name(const StoreKey& key) {
  char digest_hex[17];
  std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                static_cast<unsigned long long>(key.algorithm_digest));
  std::ostringstream os;
  os << digest_hex << "-k" << key.k << "-" << kind_name(key.kind) << "-e"
     << key.engine_version << ".cert";
  return os.str();
}

StoreKey key_of(const Certificate& cert) {
  return StoreKey{cert.algorithm_digest, cert.k, cert.kind,
                  cert.engine_version};
}

CertificateStore::CertificateStore(std::string dir) : dir_(std::move(dir)) {
  if (!dir_.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    // A failed create surfaces on the first write, with a path in hand.
  }
}

struct CertificateStore::Node {
  StoreKey key;
  Certificate cert;
  const Node* next = nullptr;
};

CertificateStore::~CertificateStore() {
  for (const std::atomic<const Node*>& head : buckets_) {
    const Node* node = head.load(std::memory_order_relaxed);
    while (node != nullptr) {
      const Node* next = node->next;
      delete node;
      node = next;
    }
  }
}

std::string CertificateStore::path_of(const StoreKey& key) const {
  return dir_ + "/" + store_file_name(key);
}

std::size_t CertificateStore::bucket_of(const StoreKey& key) {
  // Fibonacci hashing: the top bits of the product mix every field.
  const std::uint64_t fields =
      key.algorithm_digest ^ (std::uint64_t{key.k} << 40) ^
      (static_cast<std::uint64_t>(key.kind) << 32) ^ key.engine_version;
  return static_cast<std::size_t>((fields * 0x9e3779b97f4a7c15ull) >>
                                  (64 - kBucketBits));
}

const CertificateStore::Node* CertificateStore::find(
    const StoreKey& key) const {
  // The acquire load pairs with publish()'s release store: every node
  // reachable from the head was built before it was linked.
  for (const Node* node = buckets_[bucket_of(key)].load(
           std::memory_order_acquire);
       node != nullptr; node = node->next) {
    if (node->key == key) return node;
  }
  return nullptr;
}

std::pair<const CertificateStore::Node*, bool> CertificateStore::publish(
    const StoreKey& key, Certificate cert) {
  std::atomic<const Node*>& head = buckets_[bucket_of(key)];
  const std::lock_guard<std::mutex> lock(write_mutex_);
  // Under the writer mutex no other thread links a node, so the chain
  // read here is complete.
  if (const Node* existing = find(key)) return {existing, false};
  const Node* node =
      new Node{key, std::move(cert), head.load(std::memory_order_relaxed)};
  head.store(node, std::memory_order_release);
  indexed_.fetch_add(1, std::memory_order_relaxed);
  return {node, true};
}

std::optional<Certificate> CertificateStore::find_indexed(
    const StoreKey& key) const {
  if (const Node* node = find(key)) return node->cert;
  return std::nullopt;
}

std::optional<Certificate> CertificateStore::lookup(const StoreKey& key) {
  static obs::Counter index_hits("service.store.index_hits");
  static obs::Counter file_hits("service.store.file_hits");
  static obs::Counter misses("service.store.misses");
  if (const Node* node = find(key)) {
    index_hits.add();
    return node->cert;
  }
  if (dir_.empty()) {
    misses.add();
    return std::nullopt;
  }
  DecodeResult read = read_certificate(path_of(key));
  if (!read.certificate.has_value()) {
    // Missing file is the normal miss; a file that exists but fails
    // validation is ALSO a miss (the service recomputes and the
    // rewrite replaces the bad bytes).
    misses.add();
    return std::nullopt;
  }
  Certificate& cert = *read.certificate;
  if (key_of(cert) != key) {
    // The file is internally consistent but describes a different
    // request than its name claims — treat as a miss and rewrite.
    misses.add();
    return std::nullopt;
  }
  file_hits.add();
  return publish(key, std::move(cert)).first->cert;
}

bool CertificateStore::insert(const StoreKey& key, const Certificate& cert) {
  PR_REQUIRE_MSG(key_of(cert) == key,
                 "certificate inserted under a key it does not address");
  PR_REQUIRE_MSG(cert.payload_digest == support::fnv1a_words(cert.words),
                 "certificate must be sealed before insertion");
  if (!publish(key, cert).second) return true;  // already stored
  if (dir_.empty()) return true;
  // Temp file + rename: readers never observe a partial write, and two
  // racing writers of the same key both rename byte-identical bodies.
  const std::string body = serialize_certificate(cert);
  const std::string path = path_of(key);
  std::ostringstream tmp_name;
  tmp_name << path << ".tmp." << ::getpid() << "."
           << reinterpret_cast<std::uintptr_t>(&cert);
  const std::string tmp = tmp_name.str();
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.good()) return false;
    out.write(body.data(), static_cast<std::streamsize>(body.size()));
    if (!out.good()) return false;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return false;
  }
  return true;
}

std::uint64_t CertificateStore::recorded_digest(const StoreKey& key) const {
  const Node* node = find(key);
  return node == nullptr ? 0 : node->cert.payload_digest;
}

std::size_t CertificateStore::indexed_count() const {
  return indexed_.load(std::memory_order_relaxed);
}

}  // namespace pathrouting::service
