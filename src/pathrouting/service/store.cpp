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

std::string CertificateStore::path_of(const StoreKey& key) const {
  return dir_ + "/" + store_file_name(key);
}

std::optional<Certificate> CertificateStore::find_indexed(
    const StoreKey& key) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

std::optional<Certificate> CertificateStore::lookup(const StoreKey& key) {
  static obs::Counter index_hits("service.store.index_hits");
  static obs::Counter file_hits("service.store.file_hits");
  static obs::Counter misses("service.store.misses");
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
      index_hits.add();
      return it->second;
    }
  }
  if (dir_.empty()) {
    misses.add();
    return std::nullopt;
  }
  MappedOpenResult mapped = MappedCertificate::open(path_of(key));
  if (!mapped.file.has_value()) {
    // Missing file is the normal miss; a file that exists but fails
    // validation is ALSO a miss (the service recomputes and the
    // rewrite replaces the bad bytes) — but it is worth a trace.
    misses.add();
    return std::nullopt;
  }
  Certificate cert = mapped.file->to_certificate();
  if (key_of(cert) != key) {
    // The file is internally consistent but describes a different
    // request than its name claims — treat as a miss and rewrite.
    misses.add();
    return std::nullopt;
  }
  file_hits.add();
  std::unique_lock<std::shared_mutex> lock(mutex_);
  return index_.emplace(key, std::move(cert)).first->second;
}

bool CertificateStore::insert(const StoreKey& key, const Certificate& cert) {
  PR_REQUIRE_MSG(key_of(cert) == key,
                 "certificate inserted under a key it does not address");
  PR_REQUIRE_MSG(cert.payload_digest == support::fnv1a_words(cert.words),
                 "certificate must be sealed before insertion");
  {
    std::unique_lock<std::shared_mutex> lock(mutex_);
    if (!index_.emplace(key, cert).second) return true;  // already stored
  }
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
  std::shared_lock<std::shared_mutex> lock(mutex_);
  const auto it = index_.find(key);
  return it == index_.end() ? 0 : it->second.payload_digest;
}

std::size_t CertificateStore::indexed_count() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return index_.size();
}

}  // namespace pathrouting::service
