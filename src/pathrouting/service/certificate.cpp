#include "pathrouting/service/certificate.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>
#include <utility>
#include <vector>

#include "pathrouting/support/check.hpp"
#include "pathrouting/support/digest.hpp"

namespace pathrouting::service {
namespace {

constexpr char kMagic[8] = {'P', 'R', 'C', 'E', 'R', 'T', 'F', '1'};
constexpr std::uint64_t kEndianMarker = 0x0102030405060708ull;
constexpr std::size_t kHeaderBytes = 64;
constexpr std::size_t kFooterBytes = 8;  // trailing file digest

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
  }
}

std::uint32_t get_u32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{p[i]} << (8 * i);
  return v;
}

std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{p[i]} << (8 * i);
  return v;
}

}  // namespace

const char* kind_name(CertKind kind) {
  switch (kind) {
    case CertKind::kChain:
      return "chain";
    case CertKind::kDecode:
      return "decode";
    case CertKind::kFull:
      return "full";
    case CertKind::kSegment:
      return "segment";
  }
  PR_UNREACHABLE();
}

std::optional<CertKind> kind_from_name(std::string_view name) {
  if (name == "chain") return CertKind::kChain;
  if (name == "decode") return CertKind::kDecode;
  if (name == "full") return CertKind::kFull;
  if (name == "segment") return CertKind::kSegment;
  return std::nullopt;
}

std::size_t payload_word_count(CertKind kind) {
  switch (kind) {
    case CertKind::kChain:
      return kChainWordCount;
    case CertKind::kDecode:
      return kDecodeWordCount;
    case CertKind::kFull:
      return kFullWordCount;
    case CertKind::kSegment:
      return kSegmentWordCount;
  }
  PR_UNREACHABLE();
}

void Certificate::seal() { payload_digest = support::fnv1a_words(words); }

std::string serialize_certificate(const Certificate& cert) {
  PR_REQUIRE_MSG(cert.words.size() == payload_word_count(cert.kind),
                 "certificate payload size does not match its kind");
  std::string out;
  out.reserve(kHeaderBytes + cert.words.size() * 8 + kFooterBytes);
  out.append(kMagic, sizeof(kMagic));
  put_u64(out, kEndianMarker);
  put_u32(out, kFormatVersion);
  put_u32(out, cert.engine_version);
  put_u64(out, cert.algorithm_digest);
  put_u32(out, static_cast<std::uint32_t>(cert.kind));
  put_u32(out, cert.k);
  put_u32(out, cert.n0);
  put_u32(out, cert.b);
  put_u64(out, static_cast<std::uint64_t>(cert.words.size()));
  put_u64(out, cert.payload_digest);
  PR_ASSERT(out.size() == kHeaderBytes);
  for (const std::uint64_t w : cert.words) put_u64(out, w);
  put_u64(out, support::fnv1a_bytes(out.data(), out.size()));
  return out;
}

DecodeResult decode_certificate(std::span<const unsigned char> bytes) {
  const auto reject = [](std::string msg) {
    return DecodeResult{std::nullopt, std::move(msg)};
  };
  if (bytes.size() < kHeaderBytes) {
    std::ostringstream os;
    os << "truncated header: " << bytes.size() << " bytes, need "
       << kHeaderBytes;
    return reject(os.str());
  }
  const unsigned char* p = bytes.data();
  if (std::memcmp(p, kMagic, sizeof(kMagic)) != 0) {
    return reject("bad magic: not a pathrouting certificate file");
  }
  // Every field is read little-endian, so a byte-swapped marker (a
  // file written in big-endian order) is rejected on any host.
  if (get_u64(p + 8) != kEndianMarker) {
    return reject("foreign endianness: certificate files are "
                  "little-endian and are never byte-swapped");
  }
  const std::uint32_t format = get_u32(p + 16);
  if (format != kFormatVersion) {
    std::ostringstream os;
    os << "unsupported format version " << format << " (expected "
       << kFormatVersion << ")";
    return reject(os.str());
  }
  const std::uint32_t kind_raw = get_u32(p + 32);
  if (kind_raw > static_cast<std::uint32_t>(CertKind::kSegment)) {
    std::ostringstream os;
    os << "unknown certificate kind " << kind_raw;
    return reject(os.str());
  }
  const CertKind kind = static_cast<CertKind>(kind_raw);
  const std::uint64_t declared_words = get_u64(p + 48);
  if (declared_words != payload_word_count(kind)) {
    std::ostringstream os;
    os << "payload word count " << declared_words << " does not match kind '"
       << kind_name(kind) << "' (expected " << payload_word_count(kind) << ")";
    return reject(os.str());
  }
  const std::size_t expected_size =
      kHeaderBytes + static_cast<std::size_t>(declared_words) * 8 +
      kFooterBytes;
  if (bytes.size() != expected_size) {
    std::ostringstream os;
    os << "file size " << bytes.size() << " does not match declared payload"
       << " (expected " << expected_size << " bytes; truncated?)";
    return reject(os.str());
  }

  Certificate cert;
  cert.engine_version = get_u32(p + 20);
  cert.algorithm_digest = get_u64(p + 24);
  cert.kind = kind;
  cert.k = get_u32(p + 36);
  cert.n0 = get_u32(p + 40);
  cert.b = get_u32(p + 44);
  cert.payload_digest = get_u64(p + 56);
  cert.words.resize(static_cast<std::size_t>(declared_words));
  for (std::size_t i = 0; i < cert.words.size(); ++i) {
    cert.words[i] = get_u64(p + kHeaderBytes + 8 * i);
  }
  if (support::fnv1a_words(cert.words) != cert.payload_digest) {
    return reject("payload digest mismatch: certificate counts are "
                  "corrupted");
  }
  const std::size_t digested = expected_size - kFooterBytes;
  if (support::fnv1a_bytes(p, digested) != get_u64(p + digested)) {
    return reject("file digest mismatch: certificate file is corrupted");
  }
  return DecodeResult{std::move(cert), std::string()};
}

DecodeResult read_certificate(const std::string& path) {
  const auto fail = [&](const char* what, int err) {
    std::ostringstream os;
    os << path << ": " << what;
    if (err != 0) os << " (" << std::strerror(err) << ")";
    return DecodeResult{std::nullopt, os.str()};
  };
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return fail("cannot open", errno);
  // A certificate is a few hundred bytes: plain reads, no mapping.
  std::vector<unsigned char> bytes;
  unsigned char chunk[512];
  ssize_t got = 0;
  while ((got = ::read(fd, chunk, sizeof(chunk))) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + got);
  }
  const int read_errno = got < 0 ? errno : 0;
  ::close(fd);
  if (got < 0) return fail("cannot read", read_errno);
  if (bytes.empty()) return fail("empty file: truncated certificate", 0);
  DecodeResult decoded = decode_certificate(bytes);
  if (!decoded.certificate.has_value()) {
    decoded.error = path + ": " + decoded.error;
  }
  return decoded;
}

}  // namespace pathrouting::service
