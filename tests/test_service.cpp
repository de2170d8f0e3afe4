// Certificate service: binary format round-trips and rejections (run
// under ASan/UBSan in CI — a corrupted file must produce a diagnostic,
// never UB), content-addressed store semantics, serving correctness
// against the golden corpus digests, batch and N-thread bit-identity
// (run under TSan in CI), the serverd line protocol, and the
// service.cert-digest-match audit rule with its mutation test.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "pathrouting/audit/audit.hpp"
#include "pathrouting/bilinear/catalog.hpp"
#include "pathrouting/cdag/implicit.hpp"
#include "pathrouting/obs/obs.hpp"
#include "pathrouting/routing/decode_routing.hpp"
#include "pathrouting/routing/memo_routing.hpp"
#include "pathrouting/service/certificate.hpp"
#include "pathrouting/service/protocol.hpp"
#include "pathrouting/service/replay.hpp"
#include "pathrouting/service/service.hpp"
#include "pathrouting/service/store.hpp"
#include "pathrouting/support/digest.hpp"
#include "pathrouting/support/parallel.hpp"
#include "pathrouting/support/prng.hpp"

namespace {

using namespace pathrouting;  // NOLINT
using service::CertKind;
using service::Certificate;

std::span<const unsigned char> bytes_of(const std::string& s) {
  return {reinterpret_cast<const unsigned char*>(s.data()), s.size()};
}

Certificate sample_certificate(CertKind kind, std::uint64_t salt) {
  Certificate cert;
  cert.algorithm_digest = 0x1234567890abcdefull ^ salt;
  cert.kind = kind;
  cert.k = 3;
  cert.n0 = 2;
  cert.b = 7;
  cert.words.assign(service::payload_word_count(kind), 0);
  support::Xoshiro256 rng(salt + 1);
  for (auto& w : cert.words) w = rng();
  cert.seal();
  return cert;
}

/// A per-test throwaway directory (removed on destruction).
struct TempDir {
  explicit TempDir(const std::string& tag)
      : path((std::filesystem::temp_directory_path() /
              ("pathrouting_test_service." + tag + "." +
               std::to_string(::getpid())))
                 .string()) {
    std::filesystem::remove_all(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string path;
};

// ---------------------------------------------------------------------------
// Binary format

TEST(CertificateFormat, RoundTripsEveryKind) {
  for (const CertKind kind : {CertKind::kChain, CertKind::kDecode,
                              CertKind::kFull, CertKind::kSegment}) {
    const Certificate cert = sample_certificate(kind, 7);
    const std::string body = serialize_certificate(cert);
    const service::DecodeResult decoded = service::decode_certificate(bytes_of(body));
    ASSERT_TRUE(decoded.certificate.has_value()) << decoded.error;
    EXPECT_EQ(*decoded.certificate, cert);
    EXPECT_TRUE(decoded.error.empty());
  }
}

TEST(CertificateFormat, SerializationIsByteStable) {
  // Property: equal certificates serialize to equal bytes, and the
  // round trip preserves every randomized payload.
  support::Xoshiro256 rng(20260807);
  for (int trial = 0; trial < 50; ++trial) {
    const auto kind = static_cast<CertKind>(rng.below(4));
    const Certificate cert = sample_certificate(kind, rng());
    const std::string a = serialize_certificate(cert);
    const std::string b = serialize_certificate(cert);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.compare(0, 8, "PRCERTF1"), 0);
    const service::DecodeResult decoded = service::decode_certificate(bytes_of(a));
    ASSERT_TRUE(decoded.certificate.has_value()) << decoded.error;
    EXPECT_EQ(*decoded.certificate, cert);
  }
}

TEST(CertificateFormat, RejectsTruncatedHeader) {
  const std::string body =
      serialize_certificate(sample_certificate(CertKind::kChain, 1));
  for (const std::size_t len : {std::size_t{0}, std::size_t{8},
                                std::size_t{63}}) {
    const service::DecodeResult r =
        service::decode_certificate(bytes_of(body.substr(0, len)));
    EXPECT_FALSE(r.certificate.has_value());
    EXPECT_NE(r.error.find("truncated header"), std::string::npos) << r.error;
  }
}

TEST(CertificateFormat, RejectsTruncatedPayload) {
  const std::string body =
      serialize_certificate(sample_certificate(CertKind::kChain, 2));
  const service::DecodeResult r =
      service::decode_certificate(bytes_of(body.substr(0, body.size() - 1)));
  EXPECT_FALSE(r.certificate.has_value());
  EXPECT_NE(r.error.find("does not match declared payload"),
            std::string::npos)
      << r.error;
}

TEST(CertificateFormat, RejectsBadMagic) {
  std::string body =
      serialize_certificate(sample_certificate(CertKind::kDecode, 3));
  body[0] = 'X';
  const service::DecodeResult r = service::decode_certificate(bytes_of(body));
  EXPECT_FALSE(r.certificate.has_value());
  EXPECT_NE(r.error.find("bad magic"), std::string::npos) << r.error;
}

TEST(CertificateFormat, RejectsForeignEndianness) {
  std::string body =
      serialize_certificate(sample_certificate(CertKind::kFull, 4));
  // A big-endian writer would lay the marker down reversed.
  std::reverse(body.begin() + 8, body.begin() + 16);
  const service::DecodeResult r = service::decode_certificate(bytes_of(body));
  EXPECT_FALSE(r.certificate.has_value());
  EXPECT_NE(r.error.find("foreign endianness"), std::string::npos) << r.error;
}

TEST(CertificateFormat, RejectsVersionMismatch) {
  std::string body =
      serialize_certificate(sample_certificate(CertKind::kChain, 5));
  body[16] = static_cast<char>(service::kFormatVersion + 1);
  const service::DecodeResult r = service::decode_certificate(bytes_of(body));
  EXPECT_FALSE(r.certificate.has_value());
  EXPECT_NE(r.error.find("unsupported format version"), std::string::npos)
      << r.error;
}

TEST(CertificateFormat, RejectsUnknownKind) {
  std::string body =
      serialize_certificate(sample_certificate(CertKind::kChain, 6));
  body[32] = 9;
  const service::DecodeResult r = service::decode_certificate(bytes_of(body));
  EXPECT_FALSE(r.certificate.has_value());
  EXPECT_NE(r.error.find("unknown certificate kind"), std::string::npos)
      << r.error;
}

TEST(CertificateFormat, RejectsWordCountMismatch) {
  std::string body =
      serialize_certificate(sample_certificate(CertKind::kChain, 7));
  body[48] = static_cast<char>(service::kChainWordCount + 1);
  const service::DecodeResult r = service::decode_certificate(bytes_of(body));
  EXPECT_FALSE(r.certificate.has_value());
  EXPECT_NE(r.error.find("payload word count"), std::string::npos) << r.error;
}

TEST(CertificateFormat, RejectsCorruptedPayload) {
  std::string body =
      serialize_certificate(sample_certificate(CertKind::kSegment, 8));
  body[70] = static_cast<char>(body[70] ^ 0x40);  // flip a payload bit
  const service::DecodeResult r = service::decode_certificate(bytes_of(body));
  EXPECT_FALSE(r.certificate.has_value());
  EXPECT_NE(r.error.find("payload digest mismatch"), std::string::npos)
      << r.error;
}

TEST(CertificateFormat, RejectsCorruptedFileDigest) {
  std::string body =
      serialize_certificate(sample_certificate(CertKind::kDecode, 9));
  body[body.size() - 1] = static_cast<char>(body[body.size() - 1] ^ 1);
  const service::DecodeResult r = service::decode_certificate(bytes_of(body));
  EXPECT_FALSE(r.certificate.has_value());
  EXPECT_NE(r.error.find("file digest mismatch"), std::string::npos)
      << r.error;
}

TEST(CertificateFormat, RejectsCorruptedRecordedPayloadDigest) {
  // A flipped *digest* (payload intact) is caught by the payload-digest
  // comparison too — the pair is cross-checked, not trusted.
  std::string body =
      serialize_certificate(sample_certificate(CertKind::kChain, 10));
  body[56] = static_cast<char>(body[56] ^ 0x10);
  const service::DecodeResult r = service::decode_certificate(bytes_of(body));
  EXPECT_FALSE(r.certificate.has_value());
  EXPECT_NE(r.error.find("digest mismatch"), std::string::npos) << r.error;
}

// ---------------------------------------------------------------------------
// File reader (read_certificate; the suite keeps its historical name)

void write_file(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(body.data(), static_cast<std::streamsize>(body.size()));
}

TEST(MappedCertificate, RoundTripsThroughDisk) {
  TempDir dir("read");
  std::filesystem::create_directories(dir.path);
  const Certificate cert = sample_certificate(CertKind::kChain, 11);
  const std::string path = dir.path + "/round.cert";
  write_file(path, serialize_certificate(cert));
  const service::DecodeResult r = service::read_certificate(path);
  ASSERT_TRUE(r.certificate.has_value()) << r.error;
  EXPECT_TRUE(r.error.empty());
  EXPECT_EQ(*r.certificate, cert);
}

TEST(MappedCertificate, MissingEmptyTruncatedAndCorruptedFilesAreErrors) {
  TempDir dir("readbad");
  std::filesystem::create_directories(dir.path);
  const auto expect_rejected = [](const std::string& path,
                                  const std::string& needle) {
    const service::DecodeResult r = service::read_certificate(path);
    EXPECT_FALSE(r.certificate.has_value()) << path;
    EXPECT_EQ(r.error.rfind(path + ": ", 0), 0u) << r.error;
    EXPECT_NE(r.error.find(needle), std::string::npos) << r.error;
  };
  expect_rejected(dir.path + "/nope.cert", "cannot open");
  write_file(dir.path + "/empty.cert", "");
  expect_rejected(dir.path + "/empty.cert",
                  "empty file: truncated certificate");
  const std::string body =
      serialize_certificate(sample_certificate(CertKind::kFull, 12));
  write_file(dir.path + "/trunc.cert", body.substr(0, body.size() / 2));
  expect_rejected(dir.path + "/trunc.cert", "truncated");
  std::string bad = body;
  bad[80] = static_cast<char>(bad[80] ^ 0x04);
  write_file(dir.path + "/corrupt.cert", bad);
  expect_rejected(dir.path + "/corrupt.cert", "mismatch");
}

// ---------------------------------------------------------------------------
// Store

TEST(CertificateStore, MemoryOnlyInsertAndLookup) {
  service::CertificateStore store("");
  const Certificate cert = sample_certificate(CertKind::kChain, 13);
  const service::StoreKey key = service::key_of(cert);
  EXPECT_FALSE(store.lookup(key).has_value());
  EXPECT_EQ(store.recorded_digest(key), 0u);
  EXPECT_TRUE(store.insert(key, cert));
  const std::optional<Certificate> hit = store.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, cert);
  EXPECT_EQ(store.recorded_digest(key), cert.payload_digest);
  EXPECT_EQ(store.indexed_count(), 1u);
}

TEST(CertificateStore, LockFreeReadersSeeNothingOrTheWholeCertificate) {
  // Readers probe every key while two writers insert all of them (each
  // key twice, racing): a probe sees no entry or the exact certificate.
  constexpr CertKind kKinds[] = {CertKind::kChain, CertKind::kDecode,
                                 CertKind::kFull, CertKind::kSegment};
  std::vector<Certificate> certs;
  for (std::uint64_t i = 0; i < 256; ++i) {
    certs.push_back(sample_certificate(kKinds[i % 4], 1000 + i));
  }
  service::CertificateStore store("");
  constexpr int kWriters = 2;
  constexpr int kReaders = 4;
  std::atomic<int> ready{0};
  std::atomic<int> writers_done{0};
  std::atomic<std::uint64_t> torn{0};
  // Every thread starts once all have started, so reads overlap writes.
  const auto start_together = [&ready] {
    ready.fetch_add(1);
    while (ready.load() < kWriters + kReaders) std::this_thread::yield();
  };
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      start_together();
      for (std::size_t i = 0; i < certs.size(); ++i) {
        const Certificate& cert =
            certs[w == 0 ? i : certs.size() - 1 - i];
        EXPECT_TRUE(store.insert(service::key_of(cert), cert));
      }
      writers_done.fetch_add(1);
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      start_together();
      // One more full pass after the writers finish.
      for (bool last = false; !last;) {
        last = writers_done.load() == kWriters;
        for (const Certificate& cert : certs) {
          const service::StoreKey key = service::key_of(cert);
          const std::optional<Certificate> hit = store.lookup(key);
          const std::uint64_t digest = store.recorded_digest(key);
          if ((hit.has_value() && *hit != cert) ||
              (digest != 0 && digest != cert.payload_digest) ||
              (last && !hit.has_value())) {
            torn.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(store.indexed_count(), certs.size());
}

TEST(CertificateStore, PersistsAcrossReopen) {
  TempDir dir("store");
  const Certificate cert = sample_certificate(CertKind::kDecode, 14);
  const service::StoreKey key = service::key_of(cert);
  {
    service::CertificateStore store(dir.path);
    EXPECT_TRUE(store.insert(key, cert));
  }
  service::CertificateStore reopened(dir.path);
  EXPECT_EQ(reopened.indexed_count(), 0u);  // index is per-instance
  const std::optional<Certificate> hit = reopened.lookup(key);
  ASSERT_TRUE(hit.has_value()) << "expected a disk hit";
  EXPECT_EQ(*hit, cert);
  EXPECT_EQ(reopened.indexed_count(), 1u);
}

TEST(CertificateStore, CorruptedFileIsAMissAndGetsRewritten) {
  TempDir dir("storebad");
  const Certificate cert = sample_certificate(CertKind::kChain, 15);
  const service::StoreKey key = service::key_of(cert);
  {
    service::CertificateStore store(dir.path);
    EXPECT_TRUE(store.insert(key, cert));
  }
  const std::string path =
      dir.path + "/" + service::store_file_name(key);
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(66);
    const char zap = 0x7f;
    f.write(&zap, 1);
  }
  service::CertificateStore reopened(dir.path);
  EXPECT_FALSE(reopened.lookup(key).has_value());
  // The recompute path rewrites the bad bytes...
  EXPECT_TRUE(reopened.insert(key, cert));
  // ...after which a third instance reads them back cleanly.
  service::CertificateStore third(dir.path);
  const std::optional<Certificate> hit = third.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, cert);
}

TEST(CertificateStore, MisnamedAndDamagedFilesAreMissesTheServiceRewrites) {
  TempDir dir("storerewrite");
  service::ServiceConfig config;
  config.store_dir = dir.path;
  const service::Request request{"strassen", 3, CertKind::kChain};
  Certificate good;
  std::string other_body;  // a valid file of another key
  {
    service::CertificateService svc(config);
    const service::Response resp = svc.serve(request);
    const service::Response other =
        svc.serve({"strassen", 2, CertKind::kChain});
    ASSERT_TRUE(resp.ok && other.ok) << resp.error << other.error;
    good = resp.certificate;
    other_body = serialize_certificate(other.certificate);
  }
  const service::StoreKey key = service::key_of(good);
  const std::string path = dir.path + "/" + service::store_file_name(key);
  const std::string body = serialize_certificate(good);
  std::string corrupted = body;
  corrupted[70] = static_cast<char>(corrupted[70] ^ 0x08);
  const std::vector<std::pair<std::string, std::optional<std::string>>>
      cases = {{"missing", std::nullopt},
               {"empty", ""},
               {"truncated", body.substr(0, body.size() - 3)},
               {"corrupted", corrupted},
               {"misnamed", other_body}};
  for (const auto& [name, contents] : cases) {
    SCOPED_TRACE(name);
    std::filesystem::remove(path);
    if (contents.has_value()) write_file(path, *contents);
    if (name == "misnamed") {
      // The file is a valid certificate — of another key.
      const service::DecodeResult r = service::read_certificate(path);
      ASSERT_TRUE(r.certificate.has_value()) << r.error;
      EXPECT_NE(service::key_of(*r.certificate), key);
    }
    service::CertificateStore store(dir.path);
    EXPECT_FALSE(store.lookup(key).has_value());

    service::CertificateService svc(config);
    const service::Response resp = svc.serve(request);
    ASSERT_TRUE(resp.ok) << resp.error;
    EXPECT_FALSE(resp.from_cache);
    EXPECT_EQ(svc.metrics().computed, 1u);
    EXPECT_EQ(resp.certificate, good);
    const service::DecodeResult rewritten = service::read_certificate(path);
    ASSERT_TRUE(rewritten.certificate.has_value()) << rewritten.error;
    EXPECT_EQ(service::key_of(*rewritten.certificate), key);
    EXPECT_EQ(*rewritten.certificate, good);
  }
}

TEST(CertificateStore, FileNameEncodesTheKey) {
  const Certificate cert = sample_certificate(CertKind::kSegment, 16);
  const service::StoreKey key = service::key_of(cert);
  const std::string name = service::store_file_name(key);
  EXPECT_NE(name.find("-k3-segment-e1.cert"), std::string::npos) << name;
}

// ---------------------------------------------------------------------------
// Service correctness

TEST(CertificateService, ChainCertificateMatchesEngineAndGoldenDigest) {
  service::CertificateService svc(service::ServiceConfig{});
  const service::Response resp =
      svc.serve({"strassen", 3, CertKind::kChain});
  ASSERT_TRUE(resp.ok) << resp.error;
  EXPECT_FALSE(resp.from_cache);
  const auto& w = resp.certificate.words;

  const auto alg = bilinear::by_name("strassen");
  const routing::ChainRouter router(alg);
  const routing::MemoRoutingEngine memo(router);
  const cdag::ImplicitCdag view(alg, 3);
  const routing::HitStats l3 = memo.verify_chain_routing(view, 3, 0);
  EXPECT_EQ(w[service::kChainNumChains], l3.num_paths);
  EXPECT_EQ(w[service::kChainL3MaxHits], l3.max_hits);
  EXPECT_EQ(w[service::kChainL3Bound], l3.bound);
  EXPECT_EQ(w[service::kChainL3Argmax], l3.argmax);
  EXPECT_EQ(w[service::kChainL4Exact], 1u);
  // The digest the golden corpus pins for strassen k=3 (chain_fnv in
  // tests/golden/strassen.golden) — Fact-1 makes the canonical array
  // identical to sub(G_3, 3, 0)'s hit array.
  EXPECT_EQ(w[service::kChainHasHitDigest], 1u);
  EXPECT_EQ(w[service::kChainHitDigest], 120753706211609557ull);
  EXPECT_EQ(resp.certificate.payload_digest,
            support::fnv1a_words(resp.certificate.words));
}

TEST(CertificateService, DecodeCertificateMatchesGoldenDigest) {
  service::CertificateService svc(service::ServiceConfig{});
  const service::Response resp =
      svc.serve({"strassen", 3, CertKind::kDecode});
  ASSERT_TRUE(resp.ok) << resp.error;
  const auto& w = resp.certificate.words;
  EXPECT_EQ(w[service::kDecodeNumPaths], 21952u);
  EXPECT_EQ(w[service::kDecodeMaxHits], 784u);
  EXPECT_EQ(w[service::kDecodeBound], 3773u);
  // decode_fnv of strassen k=3 in the golden corpus.
  EXPECT_EQ(w[service::kDecodeHasHitDigest], 1u);
  EXPECT_EQ(w[service::kDecodeHitDigest], 17449365662204533557ull);
}

TEST(CertificateService, SecondServeHitsTheStore) {
  service::CertificateService svc(service::ServiceConfig{});
  const service::Request req{"strassen", 2, CertKind::kFull};
  const service::Response first = svc.serve(req);
  const service::Response second = svc.serve(req);
  ASSERT_TRUE(first.ok) << first.error;
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_FALSE(first.from_cache);
  EXPECT_TRUE(second.from_cache);
  EXPECT_EQ(first.certificate, second.certificate);
  const service::ServiceMetrics m = svc.metrics();
  EXPECT_EQ(m.requests, 2u);
  EXPECT_EQ(m.computed, 1u);
  EXPECT_EQ(m.store_hits, 1u);
  EXPECT_EQ(m.errors, 0u);
}

TEST(CertificateService, DeepRankSkipsTheHitDigest) {
  service::ServiceConfig config;
  config.digest_max_vertices = 100;  // force the stats-only path
  service::CertificateService svc(config);
  const service::Response resp =
      svc.serve({"strassen", 4, CertKind::kChain});
  ASSERT_TRUE(resp.ok) << resp.error;
  EXPECT_EQ(resp.certificate.words[service::kChainHasHitDigest], 0u);
  EXPECT_EQ(resp.certificate.words[service::kChainHitDigest], 0u);
  // The counts are still the full Lemma-3 stats.
  EXPECT_EQ(resp.certificate.words[service::kChainNumChains], 8192u);
}

TEST(CertificateService, ColdMissesStreamDigestsWithoutCanonicalArrays) {
  // The hit digests are streamed from the closed forms: chain, full and
  // decode misses build no canonical array, and the full kind reuses
  // the chain kind's memoized digest.
  obs::set_enabled(true);
  obs::reset_counters();
  obs::clear_spans();
  service::CertificateService svc(service::ServiceConfig{});
  std::vector<service::Response> responses;
  for (const CertKind kind :
       {CertKind::kChain, CertKind::kFull, CertKind::kDecode}) {
    responses.push_back(svc.serve({"strassen", 3, kind}));
  }
  const std::vector<obs::CounterValue> counters = obs::counters_snapshot();
  int digest_spans = 0;
  for (const obs::SpanRecord& span : obs::spans_snapshot()) {
    if (std::string_view(span.name) == "memo.hit_digest") ++digest_spans;
  }
  obs::set_enabled(false);
  obs::clear_spans();
  for (const service::Response& resp : responses) {
    ASSERT_TRUE(resp.ok) << resp.error;
    EXPECT_FALSE(resp.from_cache);
  }
  // A counter no code path has touched is absent from the snapshot.
  const auto counter = [&](const std::string& name) {
    for (const obs::CounterValue& c : counters) {
      if (c.name == name) return c.value;
    }
    return std::uint64_t{0};
  };
  EXPECT_EQ(counter("memo.canonical_cache_misses"), 0u);
  EXPECT_EQ(counter("memo.canonical_cache_hits"), 0u);
  EXPECT_EQ(digest_spans, 2);  // chain (shared with full) and decode
  EXPECT_EQ(responses[0].certificate.words[service::kChainHitDigest],
            120753706211609557ull);
  EXPECT_EQ(responses[1].certificate.words[service::kFullHitDigest],
            120753706211609557ull);
  EXPECT_EQ(responses[2].certificate.words[service::kDecodeHitDigest],
            17449365662204533557ull);
}

TEST(CertificateService, RejectsInvalidRequestsWithDiagnostics) {
  service::CertificateService svc(service::ServiceConfig{});
  const service::Response unknown =
      svc.serve({"not_an_algorithm", 2, CertKind::kChain});
  EXPECT_FALSE(unknown.ok);
  EXPECT_NE(unknown.error.find("unknown algorithm"), std::string::npos);

  const service::Response zero = svc.serve({"strassen", 0, CertKind::kChain});
  EXPECT_FALSE(zero.ok);
  EXPECT_NE(zero.error.find("k must be >= 1"), std::string::npos);

  const service::Response decode =
      svc.serve({"classical2_x_strassen", 2, CertKind::kDecode});
  EXPECT_FALSE(decode.ok);
  EXPECT_NE(decode.error.find("disconnected decoding graph"),
            std::string::npos);

  const service::Response deep =
      svc.serve({"strassen", 9, CertKind::kSegment});
  EXPECT_FALSE(deep.ok);
  EXPECT_NE(deep.error.find("segment"), std::string::npos);

  EXPECT_EQ(svc.metrics().errors, 4u);
}

TEST(CertificateService, SegmentCertificateMatchesCertifier) {
  service::CertificateService svc(service::ServiceConfig{});
  const service::Response resp =
      svc.serve({"strassen", 2, CertKind::kSegment});
  ASSERT_TRUE(resp.ok) << resp.error;
  const auto& w = resp.certificate.words;
  EXPECT_EQ(w[service::kSegmentCertK], 1u);
  EXPECT_EQ(w[service::kSegmentCacheSize], 1u);
  EXPECT_EQ(w[service::kSegmentEqHolds], 1u);
  EXPECT_GT(w[service::kSegmentScheduleSize], 0u);
}

// ---------------------------------------------------------------------------
// Batch and concurrency (TSan in CI)

std::vector<service::Request> mixed_requests() {
  // Duplicates on purpose: the batch dedupes them, and the serial
  // baseline sees them as hits.
  return {
      {"strassen", 2, CertKind::kChain},  {"winograd", 2, CertKind::kDecode},
      {"strassen", 2, CertKind::kChain},  {"strassen", 3, CertKind::kFull},
      {"laderman", 2, CertKind::kChain},  {"strassen", 1, CertKind::kSegment},
      {"winograd", 2, CertKind::kDecode}, {"strassen", 2, CertKind::kDecode},
      {"bad_name", 2, CertKind::kChain},  {"strassen", 3, CertKind::kFull},
  };
}

TEST(CertificateService, BatchIsBitIdenticalToSerial) {
  const std::vector<service::Request> requests = mixed_requests();

  service::CertificateService serial(service::ServiceConfig{});
  std::vector<service::Response> expected;
  expected.reserve(requests.size());
  for (const service::Request& r : requests) {
    expected.push_back(serial.serve(r));
  }

  service::CertificateService batched(service::ServiceConfig{});
  const std::vector<service::Response> got = batched.serve_batch(requests);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].ok, expected[i].ok) << "request " << i;
    EXPECT_EQ(got[i].from_cache, expected[i].from_cache) << "request " << i;
    EXPECT_EQ(got[i].certificate, expected[i].certificate) << "request " << i;
    EXPECT_EQ(got[i].error, expected[i].error) << "request " << i;
  }
}

TEST(CertificateService, ConcurrentServingIsBitIdenticalToSerial) {
  // Serial reference.
  std::vector<service::Request> requests;
  for (const service::Request& r : mixed_requests()) {
    if (r.algorithm != "bad_name") requests.push_back(r);
  }
  std::map<std::string, Certificate> reference;
  {
    service::CertificateService svc(service::ServiceConfig{});
    for (const service::Request& r : requests) {
      const service::Response resp = svc.serve(r);
      ASSERT_TRUE(resp.ok) << resp.error;
      reference[r.algorithm + "/" + std::to_string(r.k) + "/" +
                service::kind_name(r.kind)] = resp.certificate;
    }
  }

  // N threads hammer one service with overlapping hit/miss mixes; the
  // in-flight admission queue must coalesce concurrent misses, and
  // every response must carry the reference certificate bit for bit.
  for (const int threads : {2, 7}) {
    service::CertificateService svc(service::ServiceConfig{});
    std::vector<std::vector<service::Response>> responses(
        static_cast<std::size_t>(threads));
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&svc, &requests, &responses, t] {
        // Each thread starts at a different offset so misses collide.
        auto& mine = responses[static_cast<std::size_t>(t)];
        for (std::size_t i = 0; i < requests.size(); ++i) {
          const std::size_t j =
              (i + static_cast<std::size_t>(t)) % requests.size();
          mine.push_back(svc.serve(requests[j]));
        }
      });
    }
    for (std::thread& w : workers) w.join();
    for (int t = 0; t < threads; ++t) {
      const auto& mine = responses[static_cast<std::size_t>(t)];
      ASSERT_EQ(mine.size(), requests.size());
      for (std::size_t i = 0; i < requests.size(); ++i) {
        const service::Request& r =
            requests[(i + static_cast<std::size_t>(t)) % requests.size()];
        ASSERT_TRUE(mine[i].ok) << mine[i].error;
        EXPECT_EQ(mine[i].certificate,
                  reference[r.algorithm + "/" + std::to_string(r.k) + "/" +
                            service::kind_name(r.kind)])
            << "thread " << t << " request " << i;
      }
    }
    const service::ServiceMetrics m = svc.metrics();
    EXPECT_EQ(m.requests,
              static_cast<std::uint64_t>(threads) * requests.size());
    // Every key is computed at most once per service instance; the
    // rest were store hits or coalesced waits.
    EXPECT_EQ(m.computed + m.store_hits + m.inflight_waits, m.requests);
    EXPECT_LE(m.computed, reference.size() * 1u);
  }
}

TEST(CertificateService, ConcurrentBatchesShareTheStore) {
  std::vector<service::Request> requests;
  for (const service::Request& r : mixed_requests()) {
    if (r.algorithm != "bad_name") requests.push_back(r);
  }
  service::CertificateService svc(service::ServiceConfig{});
  std::vector<std::vector<service::Response>> responses(4);
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&svc, &requests, &responses, t] {
      responses[static_cast<std::size_t>(t)] = svc.serve_batch(requests);
    });
  }
  for (std::thread& w : workers) w.join();
  for (const auto& batch : responses) {
    ASSERT_EQ(batch.size(), requests.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ASSERT_TRUE(batch[i].ok) << batch[i].error;
      EXPECT_EQ(batch[i].certificate,
                responses[0][i].certificate);  // all batches agree
    }
  }
}

TEST(CertificateService, ConcurrentFirstTouchBuildsOneArena) {
  obs::set_enabled(true);
  obs::clear_spans();
  service::CertificateService svc(service::ServiceConfig{});
  const service::Request request{"winograd", 2, CertKind::kChain};
  constexpr int kThreads = 8;
  std::vector<service::Response> responses(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      responses[static_cast<std::size_t>(t)] = svc.serve(request);
    });
  }
  for (std::thread& t : threads) t.join();
  int builds = 0;
  for (const obs::SpanRecord& span : obs::spans_snapshot()) {
    if (std::string_view(span.name) == "service.arena_build") ++builds;
  }
  obs::set_enabled(false);
  obs::clear_spans();
  EXPECT_EQ(builds, 1);
  for (const service::Response& resp : responses) {
    ASSERT_TRUE(resp.ok) << resp.error;
    EXPECT_EQ(resp.certificate, responses[0].certificate);
    EXPECT_EQ(resp.envelope_wrap_k, responses[0].envelope_wrap_k);
    EXPECT_EQ(resp.envelope_exact, responses[0].envelope_exact);
  }
  EXPECT_EQ(svc.metrics().computed, 1u);
}

TEST(CertificateService, ConcurrentHitsCountExactly) {
  // More serving threads than obs::ShardedCount stripes. Thread 0 makes
  // the first request; the others start once a relaxed flag (which
  // orders nothing) says it was answered, so they reach the arena and
  // the index entry only through the service's own publication.
  constexpr int kThreads = 9;
  constexpr std::uint64_t kHits = 2000;
  obs::set_enabled(true);
  obs::reset_counters();
  service::CertificateService svc(service::ServiceConfig{});
  const service::Request request{"strassen", 2, CertKind::kChain};
  std::atomic<bool> answered{false};
  std::atomic<std::uint64_t> wrong{0};
  std::vector<Certificate> last(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      if (t == 0) {
        const service::Response first = svc.serve(request);
        if (!first.ok || first.from_cache) wrong.fetch_add(1);
        answered.store(true, std::memory_order_relaxed);
      }
      while (!answered.load(std::memory_order_relaxed)) {
        std::this_thread::yield();
      }
      for (std::uint64_t i = 0; i < kHits; ++i) {
        service::Response resp = svc.serve(request);
        if (!resp.ok || !resp.from_cache) wrong.fetch_add(1);
        last[static_cast<std::size_t>(t)] = std::move(resp.certificate);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const std::vector<obs::CounterValue> counters = obs::counters_snapshot();
  obs::set_enabled(false);
  const auto counter = [&](const std::string& name) {
    for (const obs::CounterValue& c : counters) {
      if (c.name == name) return c.value;
    }
    ADD_FAILURE() << "counter " << name << " not in snapshot";
    return std::uint64_t{0};
  };
  EXPECT_EQ(wrong.load(), 0u);
  const service::ServiceMetrics m = svc.metrics();
  const std::uint64_t hits = kThreads * kHits;
  EXPECT_EQ(m.requests, hits + 1);
  EXPECT_EQ(m.store_hits, hits);
  EXPECT_EQ(m.computed, 1u);
  EXPECT_EQ(m.errors, 0u);
  EXPECT_EQ(counter("service.requests"), hits + 1);
  EXPECT_EQ(counter("service.store_hits"), hits);
  const service::Response fresh =
      service::CertificateService(service::ServiceConfig{}).serve(request);
  for (const Certificate& cert : last) EXPECT_EQ(cert, fresh.certificate);
}

TEST(CertificateService, BatchOverlappingASingleServeFinishes) {
  // One thread serves a k=5 segment request, whose certifier opens
  // parallel regions; another batches that request with a second one.
  // A batch chunk parked on the first thread's computation while its
  // region holds the pool would deadlock against that thread's own
  // region, so this test hangs if a batch ever waits inside a chunk.
  const service::Request segment{"strassen", 5, CertKind::kSegment};
  const std::vector<service::Request> batch = {
      segment, {"strassen", 3, CertKind::kChain}};
  const support::parallel::ThreadOverride threads(4);
  for (int round = 0; round < 3; ++round) {
    service::CertificateService svc(service::ServiceConfig{});
    service::Response single;
    std::vector<service::Response> batched;
    std::thread server([&] { single = svc.serve(segment); });
    std::thread batcher([&] { batched = svc.serve_batch(batch); });
    server.join();
    batcher.join();
    ASSERT_TRUE(single.ok) << single.error;
    ASSERT_EQ(batched.size(), 2u);
    ASSERT_TRUE(batched[0].ok) << batched[0].error;
    ASSERT_TRUE(batched[1].ok) << batched[1].error;
    EXPECT_EQ(batched[0].certificate, single.certificate);
    EXPECT_EQ(svc.metrics().computed, 2u);  // the segment key only once
  }
}

TEST(CertificateService, BatchCountsEveryRequestInObsAndMetrics) {
  // Duplicates, one of them of a failing request, are answered by copy
  // but still count, as serving the batch serially would count them.
  std::vector<service::Request> requests = mixed_requests();
  requests.push_back({"bad_name", 2, CertKind::kChain});
  obs::set_enabled(true);
  obs::reset_counters();
  service::CertificateService svc(service::ServiceConfig{});
  (void)svc.serve_batch(requests);
  const std::vector<obs::CounterValue> counters = obs::counters_snapshot();
  obs::set_enabled(false);
  const auto counter = [&](const std::string& name) {
    for (const obs::CounterValue& c : counters) {
      if (c.name == name) return c.value;
    }
    ADD_FAILURE() << "counter " << name << " not in snapshot";
    return std::uint64_t{0};
  };

  const service::ServiceMetrics m = svc.metrics();
  EXPECT_EQ(m.requests, requests.size());
  EXPECT_EQ(m.computed, 6u);    // the distinct valid requests
  EXPECT_EQ(m.store_hits, 3u);  // their later duplicates
  EXPECT_EQ(m.errors, 2u);      // bad_name and its duplicate
  EXPECT_EQ(counter("service.requests"), m.requests);
  EXPECT_EQ(counter("service.store_hits"), m.store_hits);
  EXPECT_EQ(counter("service.computed"), m.computed);
  EXPECT_EQ(counter("service.errors"), m.errors);
}

// ---------------------------------------------------------------------------
// Replay / trace determinism

TEST(Replay, TraceIsDeterministicAndCountsAddUp) {
  service::TraceSpec spec;
  spec.num_requests = 256;
  const std::vector<service::Request> a = service::zipf_trace(spec);
  const std::vector<service::Request> b = service::zipf_trace(spec);
  ASSERT_EQ(a.size(), 256u);
  EXPECT_EQ(a, b);

  service::CertificateService svc(service::ServiceConfig{});
  const service::ReplayResult r = service::replay_trace(svc, a, 1);
  EXPECT_EQ(r.requests, 256u);
  EXPECT_EQ(r.ok, r.cache_hits + r.computed);
  EXPECT_EQ(r.errors, 0u);
  EXPECT_EQ(r.computed, r.unique_keys);  // single client: one miss per key
  EXPECT_EQ(r.hit_us.size() + r.miss_us.size(), r.requests);
}

TEST(Replay, PercentileIsNearestRank) {
  EXPECT_EQ(service::percentile_us({}, 99), 0.0);
  EXPECT_EQ(service::percentile_us({5.0}, 50), 5.0);
  EXPECT_EQ(service::percentile_us({4.0, 1.0, 3.0, 2.0}, 50), 2.0);
  EXPECT_EQ(service::percentile_us({4.0, 1.0, 3.0, 2.0}, 100), 4.0);
}

// ---------------------------------------------------------------------------
// Protocol

TEST(Protocol, ParsesCommands) {
  const service::Command get = service::parse_command("get strassen 3 full");
  EXPECT_EQ(get.type, service::CommandType::kGet);
  EXPECT_EQ(get.request.algorithm, "strassen");
  EXPECT_EQ(get.request.k, 3);
  EXPECT_EQ(get.request.kind, CertKind::kFull);
  EXPECT_EQ(service::parse_command("batch").type,
            service::CommandType::kBatch);
  EXPECT_EQ(service::parse_command("end").type,
            service::CommandType::kBatchEnd);
  EXPECT_EQ(service::parse_command("stats").type,
            service::CommandType::kStats);
  EXPECT_EQ(service::parse_command("quit").type, service::CommandType::kQuit);
  EXPECT_EQ(service::parse_command("").type, service::CommandType::kEmpty);
  EXPECT_EQ(service::parse_command("# comment").type,
            service::CommandType::kEmpty);
}

TEST(Protocol, RejectsMalformedCommands) {
  EXPECT_EQ(service::parse_command("frobnicate").type,
            service::CommandType::kBad);
  EXPECT_EQ(service::parse_command("get strassen").type,
            service::CommandType::kBad);
  EXPECT_EQ(service::parse_command("get strassen 3 nokind").type,
            service::CommandType::kBad);
  EXPECT_EQ(service::parse_command("get strassen 3 chain extra").type,
            service::CommandType::kBad);
  EXPECT_FALSE(service::parse_command("get strassen x chain").error.empty());
}

TEST(Protocol, FormatsResponses) {
  service::CertificateService svc(service::ServiceConfig{});
  const service::Request req{"strassen", 1, CertKind::kChain};
  const service::Response resp = svc.serve(req);
  ASSERT_TRUE(resp.ok) << resp.error;
  const std::string line = service::format_response(req, resp);
  EXPECT_EQ(line.compare(0, 5, "cert "), 0) << line;
  EXPECT_NE(line.find("alg=strassen"), std::string::npos) << line;
  EXPECT_NE(line.find("kind=chain"), std::string::npos) << line;
  EXPECT_NE(line.find("chains=16"), std::string::npos) << line;
  EXPECT_NE(line.find("cached=0"), std::string::npos) << line;

  service::Response err;
  err.error = "boom";
  EXPECT_EQ(service::format_response(req, err), "error boom");

  const std::string stats = service::format_stats(svc.metrics());
  EXPECT_EQ(stats.compare(0, 6, "stats "), 0) << stats;
  EXPECT_NE(stats.find("requests=1"), std::string::npos) << stats;
}

// ---------------------------------------------------------------------------
// Audit rule + mutation

TEST(ServiceAudit, CleanCertificatePassesDigestMatch) {
  const Certificate cert = sample_certificate(CertKind::kChain, 17);
  const audit::ServedCertificateView view{cert.words, cert.payload_digest,
                                          cert.payload_digest};
  EXPECT_TRUE(audit::audit_served_certificate(view).ok());
}

TEST(AuditMutation, ServedDigestMatchCatchesDriftedPayload) {
  Certificate cert = sample_certificate(CertKind::kChain, 18);
  cert.words[service::kChainNumChains] ^= 1;  // drift AFTER sealing
  const audit::ServedCertificateView view{cert.words, cert.payload_digest, 0};
  const audit::AuditReport report = audit::audit_served_certificate(view);
  EXPECT_FALSE(report.ok());
  ASSERT_FALSE(report.diagnostics().empty());
  EXPECT_EQ(report.diagnostics().front().rule, "service.cert-digest-match");
}

TEST(AuditMutation, ServedDigestMatchCatchesStoreMismatch) {
  const Certificate cert = sample_certificate(CertKind::kDecode, 19);
  const audit::ServedCertificateView view{cert.words, cert.payload_digest,
                                          cert.payload_digest ^ 2};
  const audit::AuditReport report = audit::audit_served_certificate(view);
  EXPECT_FALSE(report.ok());
  ASSERT_FALSE(report.diagnostics().empty());
  EXPECT_EQ(report.diagnostics().front().rule, "service.cert-digest-match");
}

TEST(ServiceAudit, AuditingServiceServesCleanly) {
  service::ServiceConfig config;
  config.audit_served = true;
  service::CertificateService svc(config);
  const service::Response resp = svc.serve({"strassen", 2, CertKind::kChain});
  EXPECT_TRUE(resp.ok) << resp.error;
  const service::Response again = svc.serve({"strassen", 2, CertKind::kChain});
  EXPECT_TRUE(again.ok) << again.error;
  EXPECT_TRUE(again.from_cache);
}

TEST(ServiceWorkloads, ColdMissRecordRoundTripsAndRejectsBadInput) {
  const service::ColdMissPoint point =
      service::run_cold_miss_point({"strassen", 2});
  ASSERT_TRUE(point.response.ok) << point.response.error;
  EXPECT_FALSE(point.response.from_cache);
  obs::BenchRecord rec;
  service::fill_cold_miss_record(point, rec);
  obs::RecordReader in(rec);
  const service::ColdMissSpec back = service::cold_miss_spec_from_record(in);
  EXPECT_TRUE(in.ok()) << in.error();
  EXPECT_EQ(back.algorithm, "strassen");
  EXPECT_EQ(back.k, 2);

  rec.set("algorithm", "nope");
  obs::RecordReader bad(rec);
  (void)service::cold_miss_spec_from_record(bad);
  EXPECT_NE(bad.error().find("\"algorithm\""), std::string::npos);
}

TEST(ServiceWorkloads, WarmReplayServesEverythingFromTheReopenedStore) {
  const service::TraceSpec trace{.seed = 7, .num_requests = 64};
  const service::ReplayPoint cold =
      service::run_replay_point({"service_trace", trace});
  const service::ReplayPoint warm =
      service::run_replay_point({"service_warm", trace});
  EXPECT_EQ(cold.result.computed, cold.result.unique_keys);
  EXPECT_EQ(warm.result.computed, 0u);
  EXPECT_EQ(warm.result.cache_hits, trace.num_requests);
  obs::BenchRecord rec;
  service::fill_replay_record(warm, rec);
  obs::RecordReader in(rec);
  const service::ReplaySpec back = service::replay_spec_from_record(in);
  EXPECT_TRUE(in.ok()) << in.error();
  EXPECT_EQ(back.experiment, "service_warm");
  EXPECT_EQ(back.trace, trace);
}

}  // namespace

TEST(Protocol, RejectsOverlongLinesAtTheExactBoundary) {
  // One byte past kMaxLineLength is rejected before tokenizing ...
  const std::string overlong(service::kMaxLineLength + 1, 'a');
  const service::Command bad = service::parse_command(overlong);
  EXPECT_EQ(bad.type, service::CommandType::kBad);
  EXPECT_NE(bad.error.find("too long"), std::string::npos) << bad.error;
  // ... even when the prefix would have parsed as a valid get.
  std::string padded_get = "get strassen 3 chain";
  padded_get.resize(service::kMaxLineLength + 1, ' ');
  EXPECT_EQ(service::parse_command(padded_get).type,
            service::CommandType::kBad);
  // Exactly at the limit the normal grammar applies.
  std::string comment = "# ";
  comment.resize(service::kMaxLineLength, 'x');
  EXPECT_EQ(service::parse_command(comment).type,
            service::CommandType::kEmpty);
  std::string get_at_limit = "get strassen 3 chain";
  get_at_limit.resize(service::kMaxLineLength, ' ');
  EXPECT_EQ(service::parse_command(get_at_limit).type,
            service::CommandType::kGet);
}

TEST(Protocol, TruncatedAndMalformedGetFieldsCarryDiagnostics) {
  const service::Command no_fields = service::parse_command("get");
  EXPECT_EQ(no_fields.type, service::CommandType::kBad);
  EXPECT_NE(no_fields.error.find("usage"), std::string::npos);

  const service::Command no_kind = service::parse_command("get strassen 3");
  EXPECT_EQ(no_kind.type, service::CommandType::kBad);
  EXPECT_NE(no_kind.error.find("usage"), std::string::npos);

  const service::Command bad_k = service::parse_command("get strassen three chain");
  EXPECT_EQ(bad_k.type, service::CommandType::kBad);

  const service::Command bad_kind =
      service::parse_command("get strassen 3 chains");
  EXPECT_EQ(bad_kind.type, service::CommandType::kBad);
  EXPECT_NE(bad_kind.error.find("unknown certificate kind"), std::string::npos);

  const service::Command verb = service::parse_command("Get strassen 3 chain");
  EXPECT_EQ(verb.type, service::CommandType::kBad);  // verbs are case-exact
  EXPECT_NE(verb.error.find("unknown command"), std::string::npos);

  const service::Command trailing =
      service::parse_command("get strassen 3 chain 7");
  EXPECT_EQ(trailing.type, service::CommandType::kBad);
  EXPECT_NE(trailing.error.find("trailing"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Overflow-envelope annotation

TEST(CertificateService, AnnotatesServedCertificatesWithEnvelope) {
  // Strassen's statically derived kind envelopes (pinned against the
  // analyzer by test_analysis): chain wraps first at k = 20
  // (chain.total_hits), full at 16 (t2_paths), decode at 13
  // (decode.total_hits). Everything served at small k is exact.
  service::CertificateService svc(service::ServiceConfig{});

  const service::Response chain = svc.serve({"strassen", 3, CertKind::kChain});
  ASSERT_TRUE(chain.ok) << chain.error;
  EXPECT_EQ(chain.envelope_wrap_k, 20u);
  EXPECT_TRUE(chain.envelope_exact);

  const service::Response full = svc.serve({"strassen", 2, CertKind::kFull});
  ASSERT_TRUE(full.ok) << full.error;
  EXPECT_EQ(full.envelope_wrap_k, 16u);
  EXPECT_TRUE(full.envelope_exact);

  const service::Response decode =
      svc.serve({"strassen", 3, CertKind::kDecode});
  ASSERT_TRUE(decode.ok) << decode.error;
  EXPECT_EQ(decode.envelope_wrap_k, 13u);
  EXPECT_TRUE(decode.envelope_exact);

  // Segment certificates carry no wrap-scanned formula quantities.
  const service::Response segment =
      svc.serve({"strassen", 2, CertKind::kSegment});
  ASSERT_TRUE(segment.ok) << segment.error;
  EXPECT_EQ(segment.envelope_wrap_k, 0u);
  EXPECT_TRUE(segment.envelope_exact);

  // Store hits and batch responses carry the same annotation.
  const service::Response again = svc.serve({"strassen", 3, CertKind::kChain});
  ASSERT_TRUE(again.ok) << again.error;
  EXPECT_TRUE(again.from_cache);
  EXPECT_EQ(again.envelope_wrap_k, 20u);
  EXPECT_TRUE(again.envelope_exact);

  const std::vector<service::Request> batch{
      {"strassen", 3, CertKind::kChain}, {"strassen", 2, CertKind::kFull}};
  const std::vector<service::Response> responses = svc.serve_batch(batch);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].envelope_wrap_k, 20u);
  EXPECT_EQ(responses[1].envelope_wrap_k, 16u);

  // The protocol line exposes both fields between digest and payload.
  const std::string line =
      service::format_response({"strassen", 3, CertKind::kChain}, chain);
  EXPECT_NE(line.find(" wrap_k=20 exact=1 "), std::string::npos) << line;
}
