// CertificateService: batched, concurrent serving of routing
// certificates out of the content-addressed store.
//
// Request path:
//
//   serve(request)
//     -> arena slot (one acquire load once the algorithm's arena is
//        built) and store lookup (a lock-free index probe, else one
//        read + decode of the key's file). A hit never touches an
//        engine and is the latency the service is optimized for; an
//        index hit takes no lock and writes no memory another serving
//        thread writes (totals are obs::ShardedCount stripes).
//     -> a miss takes the in-flight lock for admission:
//        concurrent requests for the SAME key coalesce onto one
//        computation (a shared_future); only the first requester
//        computes
//     -> compute on the shared engine arena of the algorithm, insert
//        into the store, publish.
//
//   serve_batch(requests)
//     -> resolves every request and admits the first occurrence of
//        each key, serially on the calling thread, through the same
//        store lookup and in-flight admission as serve();
//     -> computes only the keys this batch owns, as fixed chunks on
//        the deterministic parallel substrate (support/parallel); no
//        chunk waits on another caller's computation;
//     -> then waits on keys other callers own, and answers each later
//        duplicate as serve() would: a store hit, or the same error.
//        Responses land in fixed slots, so a batch is bit-identical to
//        serving its requests serially — the property
//        tests/test_service.cpp pins under TSan.
//
// One EngineArena per algorithm holds the ChainRouter / DecodeRouter /
// MemoRoutingEngine. The service has one slot per catalog algorithm;
// the first request for an algorithm builds its arena under a mutex
// and publishes it with a release store. Arenas are immutable after
// construction and the memo engine's digest memo is
// concurrent-reader-safe (routing/memo_routing.hpp), so any number of
// serving threads share one arena without copying CDAGs or tables.
//
// What gets computed per kind (all through the constant-memory
// implicit view, so cold misses never materialize a CDAG):
//   chain   — Lemma-3 stats + Lemma-4 multiplicity verdict
//   full    — Theorem-2 stats
//   decode  — Claim-1 stats (connected decoding graphs only)
//   segment — Sections-5 certifier summary over a DFS schedule (this
//             one builds an explicit CDAG, hence config.segment_max_k)
// plus, for chain/decode/full below config.digest_max_vertices, the
// FNV-1a digest of the canonical per-vertex hit array — bit-identical
// to the golden corpus digests, because for sub(G_k, k, 0) the Fact-1
// translation is the identity. The engine streams that digest from
// the closed forms run by run and memoizes it per (algorithm, k), so
// no array is built and the chain and full kinds share one digest.
// Each cold miss runs under a trace span named for its kind
// (service.compute.chain / .full / .decode / .segment).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "pathrouting/obs/obs.hpp"
#include "pathrouting/service/certificate.hpp"
#include "pathrouting/service/store.hpp"

namespace pathrouting::service {

struct ServiceConfig {
  /// Store directory; empty = memory-only (tests).
  std::string store_dir;
  /// Digest the canonical hit arrays only while the G_k layout stays
  /// within this many vertices; above it certificates carry
  /// has_hit_digest = 0 — the same explicit/implicit cutoff as the
  /// golden corpus. Part of the certificate format: the streamed
  /// digest costs time linear in the runs, not memory, but moving the
  /// cutoff would change which certificates carry a digest. The
  /// default covers the whole golden corpus (strassen/winograd
  /// k <= 6, laderman k <= 4).
  std::uint64_t digest_max_vertices = 1u << 20;
  /// Segment certificates build an explicit CDAG + DFS schedule; cap
  /// the rank so a request cannot ask for a 100 GiB build.
  int segment_max_k = 5;
  /// Run the service.cert-digest-match audit rule on every served
  /// certificate and refuse to serve on a finding.
  bool audit_served = false;
};

struct Request {
  std::string algorithm;  // catalog name (bilinear::by_name)
  int k = 0;
  CertKind kind = CertKind::kChain;

  bool operator==(const Request&) const = default;
};

struct Response {
  bool ok = false;
  std::string error;        // set when !ok
  bool from_cache = false;  // served from the store (no engine work)
  /// Overflow envelope of the served kind (analysis::compute_envelopes):
  /// the smallest rank at which some quantity of this kind wraps u64
  /// (0 = none within the analyzer's scan depth) and whether this
  /// certificate's counts are therefore exact integers (k below that
  /// rank) rather than wrap-exact residues. Segment certificates are
  /// not formula-modeled: wrap_k = 0, exact = true.
  std::uint32_t envelope_wrap_k = 0;
  bool envelope_exact = true;
  Certificate certificate;  // valid when ok
};

/// Monotonic totals since construction (also exported as obs counters
/// under service.*). Exact once the serving threads have joined; a
/// read while requests run may be mid-update between two totals.
struct ServiceMetrics {
  std::uint64_t requests = 0;
  std::uint64_t store_hits = 0;
  std::uint64_t computed = 0;
  std::uint64_t inflight_waits = 0;  // coalesced onto another request
  std::uint64_t batches = 0;
  std::uint64_t batched_requests = 0;
  std::uint64_t errors = 0;
  std::uint64_t inflight_peak = 0;  // admission queue depth high-water
};

class CertificateService {
 public:
  explicit CertificateService(ServiceConfig config);
  ~CertificateService();
  CertificateService(const CertificateService&) = delete;
  CertificateService& operator=(const CertificateService&) = delete;

  /// Serves one request. Thread-safe; concurrent calls with the same
  /// key coalesce onto one computation.
  [[nodiscard]] Response serve(const Request& request);

  /// Serves a batch: responses[i] answers requests[i] and is
  /// bit-identical to serving the batch serially. Keys the batch is
  /// first to miss are computed concurrently (PR_THREADS).
  [[nodiscard]] std::vector<Response> serve_batch(
      std::span<const Request> requests);

  [[nodiscard]] ServiceMetrics metrics() const;
  [[nodiscard]] CertificateStore& store() { return store_; }
  [[nodiscard]] const ServiceConfig& config() const { return config_; }

 private:
  struct EngineArena;
  struct Inflight;

  /// Resolves (and lazily builds) the shared arena for a catalog
  /// algorithm; nullptr + error message for unknown names.
  const EngineArena* arena_for(const std::string& name, std::string* error);
  /// Validates the request against the arena (k range, kind support)
  /// without computing; empty string = valid.
  std::string validate(const EngineArena& arena, const Request& request) const;
  /// Computes the certificate (store untouched). Requires validate()
  /// passed.
  Certificate compute(const EngineArena& arena, const Request& request) const;
  /// Hit path + digest-match audit; increments error metrics on audit
  /// refusal.
  Response finish(const StoreKey& key, Certificate cert, bool from_cache);

  /// One request on its way through serve(): a final response, or a
  /// key this caller owns (computes) or another caller is computing.
  struct Admission {
    Response response;
    const EngineArena* arena = nullptr;  // null once refused
    StoreKey key;
    std::shared_ptr<Inflight> owned;
    std::shared_ptr<Inflight> other;
  };
  /// Counts the request and resolves its arena and store key, or
  /// refuses it with the error response.
  Admission resolve(const Request& request);
  /// Store lookup, then in-flight admission, of a resolved request.
  void admit(const Request& request, Admission& admission);
  /// Computes, stores and publishes an owned key.
  Response publish(const Request& request, const Admission& admission);
  /// The final response: publish an owned key, wait on another
  /// caller's, or return the one admission answered.
  Response settle(const Request& request, Admission& admission);

  ServiceConfig config_;
  CertificateStore store_;

  /// A catalog algorithm's arena, built on first use. `arena` is
  /// published once with a release store; `owned` is written and read
  /// only under arenas_mutex_.
  struct ArenaSlot {
    std::string name;
    std::unique_ptr<const EngineArena> owned;
    std::atomic<const EngineArena*> arena{nullptr};
  };
  /// The ServiceMetrics totals but inflight_peak, sharded so that
  /// concurrent requests write no common cache line.
  struct Totals {
    obs::ShardedCount requests;
    obs::ShardedCount store_hits;
    obs::ShardedCount computed;
    obs::ShardedCount inflight_waits;
    obs::ShardedCount batches;
    obs::ShardedCount batched_requests;
    obs::ShardedCount errors;
  };

  std::mutex arenas_mutex_;  // serializes arena builds
  std::vector<ArenaSlot> arenas_;  // one per bilinear::catalog_names()

  mutable std::mutex inflight_mutex_;
  std::map<StoreKey, std::shared_ptr<Inflight>> inflight_;
  std::uint64_t inflight_peak_ = 0;  // guarded by inflight_mutex_

  Totals totals_;
};

}  // namespace pathrouting::service
