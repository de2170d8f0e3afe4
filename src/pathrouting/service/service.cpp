#include "pathrouting/service/service.hpp"

#include <algorithm>
#include <future>
#include <sstream>
#include <utility>

#include "pathrouting/analysis/envelope.hpp"
#include "pathrouting/audit/audit.hpp"
#include "pathrouting/bilinear/analysis.hpp"
#include "pathrouting/bilinear/catalog.hpp"
#include "pathrouting/bounds/segment_certifier.hpp"
#include "pathrouting/cdag/cdag.hpp"
#include "pathrouting/cdag/implicit.hpp"
#include "pathrouting/obs/obs.hpp"
#include "pathrouting/routing/memo_routing.hpp"
#include "pathrouting/schedule/schedules.hpp"
#include "pathrouting/support/digest.hpp"
#include "pathrouting/support/parallel.hpp"

namespace pathrouting::service {
namespace {

/// Vertex count of the G_r layout without constructing it (the Layout
/// ctor aborts past 32-bit ids): sum_t 2 b^t a^(r-t) + b^(r-t) a^t,
/// saturated at kInvalidVertex.
unsigned __int128 layout_vertex_count(const bilinear::BilinearAlgorithm& alg,
                                      int r) {
  unsigned __int128 total = 0;
  for (int t = 0; t <= r; ++t) {
    unsigned __int128 enc = 2, dec = 1;
    for (int i = 0; i < t; ++i) enc *= alg.b(), dec *= alg.a();
    for (int i = t; i < r; ++i) enc *= alg.a(), dec *= alg.b();
    total += enc + dec;
    if (total >= cdag::kInvalidVertex) return cdag::kInvalidVertex;
  }
  return total;
}

/// Largest rank whose layout stays within the 32-bit id space — the
/// same limit every engine in the repo lives under.
int max_rank_within_ids(const bilinear::BilinearAlgorithm& alg) {
  int r = 0;
  while (r < 64 &&
         layout_vertex_count(alg, r + 1) < cdag::kInvalidVertex) {
    ++r;
  }
  return r;
}

bool known_algorithm(const std::string& name) {
  const std::vector<std::string> names = bilinear::catalog_names();
  return std::find(names.begin(), names.end(), name) != names.end();
}

}  // namespace

/// Everything needed to compute any certificate of one algorithm,
/// built once and shared read-only by all serving threads. The memo
/// engine's canonical cache is internally synchronized; the rest is
/// immutable after construction.
struct CertificateService::EngineArena {
  bilinear::BilinearAlgorithm alg;
  std::uint64_t digest = 0;  // algorithm_digest(alg)
  int max_rank = 0;          // id-space ceiling for requests
  bool has_decode = false;   // decoding graph connected (Claim 1 applies)
  std::optional<routing::MemoRoutingEngine> engine;
  /// Per-kind overflow envelopes for response annotation. Only the
  /// first-wrap ranks are consumed here, so the value tracks are kept
  /// at minimal depth — the wrap scan itself is closed-form arithmetic
  /// and does not move the cold-miss latency budget (bench_service).
  analysis::AlgorithmEnvelopes envelopes;

  explicit EngineArena(bilinear::BilinearAlgorithm algorithm)
      : alg(std::move(algorithm)),
        digest(algorithm_digest(alg)),
        max_rank(max_rank_within_ids(alg)),
        has_decode(bilinear::decoding_components(alg) == 1) {
    const routing::ChainRouter router(alg);
    if (has_decode) {
      const routing::DecodeRouter decoder(alg);
      engine.emplace(router, decoder);
    } else {
      engine.emplace(router);
    }
    analysis::EnvelopeOptions envelope_options;
    envelope_options.value_kmax = 1;
    envelope_options.stats_value_kmax = 1;
    envelopes = analysis::compute_envelopes(alg, envelope_options);
  }

  /// Stamps the kind's envelope onto a successful response.
  void annotate(const Request& request, Response& response) const {
    if (!response.ok || request.kind == CertKind::kSegment) return;
    const char* prefix = request.kind == CertKind::kChain ? "chain."
                         : request.kind == CertKind::kFull ? "full."
                                                           : "decode.";
    const int wrap = envelopes.first_wrap_for_kind(prefix);
    response.envelope_wrap_k = static_cast<std::uint32_t>(wrap);
    response.envelope_exact = wrap == 0 || request.k < wrap;
  }
};

struct CertificateService::Inflight {
  std::promise<Response> promise;
  std::shared_future<Response> future = promise.get_future().share();
};

CertificateService::CertificateService(ServiceConfig config)
    : config_(std::move(config)), store_(config_.store_dir) {}

CertificateService::~CertificateService() = default;

std::shared_ptr<const CertificateService::EngineArena>
CertificateService::arena_for(const std::string& name, std::string* error) {
  std::lock_guard<std::mutex> lock(arenas_mutex_);
  const auto it = arenas_.find(name);
  if (it != arenas_.end()) return it->second;
  if (!known_algorithm(name)) {
    *error = "unknown algorithm '" + name + "'";
    return nullptr;
  }
  const obs::TraceSpan span("service.arena_build");
  auto arena = std::make_shared<const EngineArena>(bilinear::by_name(name));
  arenas_.emplace(name, arena);
  return arena;
}

std::string CertificateService::validate(const EngineArena& arena,
                                         const Request& request) const {
  std::ostringstream os;
  if (request.k < 1) {
    os << "k must be >= 1 (got " << request.k << ")";
    return os.str();
  }
  if (request.k > arena.max_rank) {
    os << "k " << request.k << " exceeds the id-space limit " << arena.max_rank
       << " for algorithm '" << arena.alg.name() << "'";
    return os.str();
  }
  if (request.kind == CertKind::kDecode && !arena.has_decode) {
    os << "algorithm '" << arena.alg.name()
       << "' has a disconnected decoding graph; Claim 1 does not apply";
    return os.str();
  }
  if (request.kind == CertKind::kSegment &&
      request.k > config_.segment_max_k) {
    os << "segment certificates build an explicit CDAG; k " << request.k
       << " exceeds the configured ceiling " << config_.segment_max_k;
    return os.str();
  }
  return std::string();
}

Certificate CertificateService::compute(const EngineArena& arena,
                                        const Request& request) const {
  const obs::TraceSpan span("service.compute");
  const int k = request.k;
  Certificate cert;
  cert.engine_version = kEngineVersion;
  cert.algorithm_digest = arena.digest;
  cert.kind = request.kind;
  cert.k = static_cast<std::uint32_t>(k);
  cert.n0 = static_cast<std::uint32_t>(arena.alg.n0());
  cert.b = static_cast<std::uint32_t>(arena.alg.b());
  cert.words.assign(payload_word_count(request.kind), 0);

  const routing::MemoRoutingEngine& engine = *arena.engine;
  const bool digestible =
      layout_vertex_count(arena.alg, k) <= config_.digest_max_vertices;

  switch (request.kind) {
    case CertKind::kChain: {
      const cdag::ImplicitCdag view(arena.alg, k);
      const routing::HitStats l3 = engine.verify_chain_routing(view, k, 0);
      cert.words[kChainNumChains] = l3.num_paths;
      cert.words[kChainL3MaxHits] = l3.max_hits;
      cert.words[kChainL3Bound] = l3.bound;
      cert.words[kChainL3Argmax] = l3.argmax;
      cert.words[kChainL4Exact] =
          engine.verify_chain_multiplicities(view, k, 0) ? 1 : 0;
      if (digestible) {
        cert.words[kChainHitDigest] =
            support::fnv1a_words(engine.canonical_chain_hit_array(k));
        cert.words[kChainHasHitDigest] = 1;
      }
      break;
    }
    case CertKind::kDecode: {
      const cdag::ImplicitCdag view(arena.alg, k);
      const routing::HitStats d = engine.verify_decode_routing(view, k, 0);
      cert.words[kDecodeNumPaths] = d.num_paths;
      cert.words[kDecodeMaxHits] = d.max_hits;
      cert.words[kDecodeBound] = d.bound;
      cert.words[kDecodeArgmax] = d.argmax;
      if (digestible) {
        cert.words[kDecodeHitDigest] =
            support::fnv1a_words(engine.canonical_decode_hit_array(k));
        cert.words[kDecodeHasHitDigest] = 1;
      }
      break;
    }
    case CertKind::kFull: {
      const cdag::ImplicitCdag view(arena.alg, k);
      const routing::FullRoutingStats t2 =
          engine.verify_full_routing(view, k, 0);
      cert.words[kFullNumPaths] = t2.num_paths;
      cert.words[kFullMaxVertexHits] = t2.max_vertex_hits;
      cert.words[kFullArgmaxVertex] = t2.argmax_vertex;
      cert.words[kFullMaxMetaHits] = t2.max_meta_hits;
      cert.words[kFullBound] = t2.bound;
      cert.words[kFullRootHitProperty] = t2.root_hit_property ? 1 : 0;
      if (digestible) {
        // Theorem 2 aggregates the chain hit array, so the full-kind
        // digest pins that same canonical array.
        cert.words[kFullHitDigest] =
            support::fnv1a_words(engine.canonical_chain_hit_array(k));
        cert.words[kFullHasHitDigest] = 1;
      }
      break;
    }
    case CertKind::kSegment: {
      const cdag::Cdag graph(arena.alg, k, {.with_coefficients = false});
      const std::vector<cdag::VertexId> order = schedule::dfs_schedule(graph);
      // The smallest honest parameters, matching audit::run_all: k = 1
      // with the half-rank target a/2 (paper-sized 66M targets need
      // astronomically large ranks).
      bounds::CertifyParams params;
      params.cache_size = 1;
      params.k = 1;
      params.s_bar_target = static_cast<std::uint64_t>(arena.alg.a() / 2);
      const bounds::CertifyResult result =
          bounds::certify_segments_decode_only(graph, order, params);
      cert.words[kSegmentCertK] = static_cast<std::uint64_t>(result.k);
      cert.words[kSegmentSBarTarget] = result.s_bar_target;
      cert.words[kSegmentCountedTotal] = result.counted_total;
      cert.words[kSegmentCompleteSegments] = result.complete_segments();
      cert.words[kSegmentCacheSize] = params.cache_size;
      // Section 5's boundary inequality, Equation (1): denominator 22.
      cert.words[kSegmentEqHolds] = result.eq_holds(22) ? 1 : 0;
      cert.words[kSegmentScheduleSize] = order.size();
      break;
    }
  }
  cert.seal();
  return cert;
}

Response CertificateService::finish(const StoreKey& key, Certificate cert,
                                    bool from_cache) {
  if (config_.audit_served) {
    const audit::ServedCertificateView view{
        cert.words, cert.payload_digest, store_.recorded_digest(key)};
    const audit::AuditReport report = audit::audit_served_certificate(view);
    if (!report.ok()) {
      static obs::Counter audit_refusals("service.audit_refusals");
      audit_refusals.add();
      {
        std::lock_guard<std::mutex> lock(metrics_mutex_);
        ++metrics_.errors;
      }
      Response resp;
      resp.error = "service.cert-digest-match: " +
                   report.diagnostics().front().message;
      return resp;
    }
  }
  Response resp;
  resp.ok = true;
  resp.from_cache = from_cache;
  resp.certificate = std::move(cert);
  return resp;
}

Response CertificateService::serve(const Request& request) {
  static obs::Counter obs_requests("service.requests");
  static obs::Counter obs_hits("service.store_hits");
  static obs::Counter obs_computed("service.computed");
  static obs::Counter obs_waits("service.inflight_waits");
  static obs::Counter obs_errors("service.errors");
  obs_requests.add();
  {
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    ++metrics_.requests;
  }

  std::string error;
  const std::shared_ptr<const EngineArena> arena =
      arena_for(request.algorithm, &error);
  if (arena == nullptr) {
    obs_errors.add();
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    ++metrics_.errors;
    Response resp;
    resp.error = std::move(error);
    return resp;
  }
  error = validate(*arena, request);
  if (!error.empty()) {
    obs_errors.add();
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    ++metrics_.errors;
    Response resp;
    resp.error = std::move(error);
    return resp;
  }

  const StoreKey key{arena->digest, static_cast<std::uint32_t>(request.k),
                     request.kind, kEngineVersion};
  if (std::optional<Certificate> hit = store_.lookup(key)) {
    obs_hits.add();
    {
      std::lock_guard<std::mutex> lock(metrics_mutex_);
      ++metrics_.store_hits;
    }
    Response resp = finish(key, std::move(*hit), true);
    arena->annotate(request, resp);
    return resp;
  }

  // Admission: the first requester of a missing key computes; everyone
  // else parks on its future.
  std::shared_ptr<Inflight> owned;
  {
    std::unique_lock<std::mutex> lock(inflight_mutex_);
    const auto it = inflight_.find(key);
    if (it != inflight_.end()) {
      const std::shared_ptr<Inflight> other = it->second;
      lock.unlock();
      obs_waits.add();
      {
        std::lock_guard<std::mutex> mlock(metrics_mutex_);
        ++metrics_.inflight_waits;
      }
      return other->future.get();
    }
    // The owner inserts into the store before it leaves inflight_, so
    // a key absent from both under this lock is truly missing; without
    // the re-check a key finished since the lookup above is recomputed.
    if (std::optional<Certificate> hit = store_.find_indexed(key)) {
      lock.unlock();
      obs_hits.add();
      {
        std::lock_guard<std::mutex> mlock(metrics_mutex_);
        ++metrics_.store_hits;
      }
      Response resp = finish(key, std::move(*hit), true);
      arena->annotate(request, resp);
      return resp;
    }
    owned = std::make_shared<Inflight>();
    inflight_.emplace(key, owned);
    std::lock_guard<std::mutex> mlock(metrics_mutex_);
    metrics_.inflight_peak =
        std::max(metrics_.inflight_peak,
                 static_cast<std::uint64_t>(inflight_.size()));
  }

  Certificate cert = compute(*arena, request);
  store_.insert(key, cert);
  obs_computed.add();
  {
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    ++metrics_.computed;
  }
  Response resp = finish(key, std::move(cert), false);
  arena->annotate(request, resp);
  owned->promise.set_value(resp);
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    inflight_.erase(key);
  }
  return resp;
}

std::vector<Response> CertificateService::serve_batch(
    std::span<const Request> requests) {
  static obs::Counter obs_batches("service.batches");
  static obs::Counter obs_batched("service.batched_requests");
  obs_batches.add();
  obs_batched.add(requests.size());
  {
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    ++metrics_.batches;
    metrics_.batched_requests += requests.size();
  }

  struct Slot {
    std::shared_ptr<const EngineArena> arena;
    StoreKey key;
    std::string error;
  };
  std::vector<Slot> slots(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    Slot& slot = slots[i];
    slot.arena = arena_for(requests[i].algorithm, &slot.error);
    if (slot.arena == nullptr) continue;
    slot.error = validate(*slot.arena, requests[i]);
    if (!slot.error.empty()) continue;
    slot.key = StoreKey{slot.arena->digest,
                        static_cast<std::uint32_t>(requests[i].k),
                        requests[i].kind, kEngineVersion};
  }

  // Distinct missing keys, in first-occurrence order (deterministic).
  std::map<StoreKey, std::size_t> first_index;
  std::vector<std::size_t> miss_reps;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (slots[i].arena == nullptr || !slots[i].error.empty()) continue;
    if (!first_index.emplace(slots[i].key, i).second) continue;
    if (!store_.lookup(slots[i].key).has_value()) miss_reps.push_back(i);
  }

  // Compute the misses as fixed unit chunks on the deterministic pool;
  // each writes its own slot, so results are bit-identical to serial.
  std::vector<Certificate> computed(miss_reps.size());
  support::parallel::for_chunks(
      0, miss_reps.size(), 1,
      [&](std::uint64_t lo, std::uint64_t hi, int) {
        for (std::uint64_t j = lo; j < hi; ++j) {
          const std::size_t i = miss_reps[j];
          computed[j] = compute(*slots[i].arena, requests[i]);
        }
      });
  for (std::size_t j = 0; j < miss_reps.size(); ++j) {
    store_.insert(slots[miss_reps[j]].key, computed[j]);
  }
  {
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    metrics_.requests += requests.size();
    metrics_.computed += miss_reps.size();
  }

  std::vector<Response> responses(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (slots[i].arena == nullptr || !slots[i].error.empty()) {
      std::lock_guard<std::mutex> lock(metrics_mutex_);
      ++metrics_.errors;
      responses[i].error = slots[i].error;
      continue;
    }
    std::optional<Certificate> cert = store_.lookup(slots[i].key);
    PR_ASSERT(cert.has_value());
    // Mirrors serial replay: the first requester of a computed key
    // reports a miss, every other request of the batch a hit.
    const bool computed_here =
        std::find(miss_reps.begin(), miss_reps.end(), i) != miss_reps.end();
    if (!computed_here) {
      std::lock_guard<std::mutex> lock(metrics_mutex_);
      ++metrics_.store_hits;
    }
    responses[i] = finish(slots[i].key, std::move(*cert), !computed_here);
    slots[i].arena->annotate(requests[i], responses[i]);
  }
  return responses;
}

ServiceMetrics CertificateService::metrics() const {
  std::lock_guard<std::mutex> lock(metrics_mutex_);
  return metrics_;
}

}  // namespace pathrouting::service
