#include "pathrouting/service/service.hpp"

#include <algorithm>
#include <future>
#include <optional>
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

/// One span per kind, so a trace splits cold misses by kind. Literals:
/// obs keeps the name pointer.
const char* compute_span_name(CertKind kind) {
  switch (kind) {
    case CertKind::kChain:
      return "service.compute.chain";
    case CertKind::kDecode:
      return "service.compute.decode";
    case CertKind::kFull:
      return "service.compute.full";
    case CertKind::kSegment:
      return "service.compute.segment";
  }
  PR_UNREACHABLE();
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
  /// First-wrap ranks of the per-kind overflow envelopes, for response
  /// annotation. Only these ranks are consumed, so the envelopes'
  /// value tracks are built at minimal depth — the wrap scan itself is
  /// closed-form arithmetic and does not move the cold-miss latency
  /// budget (bench_service).
  int chain_wrap = 0;
  int full_wrap = 0;
  int decode_wrap = 0;

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
    const analysis::AlgorithmEnvelopes envelopes =
        analysis::compute_envelopes(alg, envelope_options);
    chain_wrap = envelopes.first_wrap_for_kind("chain.");
    full_wrap = envelopes.first_wrap_for_kind("full.");
    decode_wrap = envelopes.first_wrap_for_kind("decode.");
  }

  /// Stamps the kind's envelope onto a successful response.
  void annotate(const Request& request, Response& response) const {
    if (!response.ok || request.kind == CertKind::kSegment) return;
    const int wrap = request.kind == CertKind::kChain  ? chain_wrap
                     : request.kind == CertKind::kFull ? full_wrap
                                                       : decode_wrap;
    response.envelope_wrap_k = static_cast<std::uint32_t>(wrap);
    response.envelope_exact = wrap == 0 || request.k < wrap;
  }
};

struct CertificateService::Inflight {
  std::promise<Response> promise;
  std::shared_future<Response> future = promise.get_future().share();
};

CertificateService::CertificateService(ServiceConfig config)
    : config_(std::move(config)),
      store_(config_.store_dir),
      arenas_(bilinear::catalog_names().size()) {
  std::vector<std::string> names = bilinear::catalog_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    arenas_[i].name = std::move(names[i]);
  }
}

CertificateService::~CertificateService() = default;

const CertificateService::EngineArena* CertificateService::arena_for(
    const std::string& name, std::string* error) {
  for (ArenaSlot& slot : arenas_) {
    if (slot.name != name) continue;
    if (const EngineArena* arena = slot.arena.load(std::memory_order_acquire)) {
      return arena;
    }
    std::lock_guard<std::mutex> lock(arenas_mutex_);
    if (slot.owned == nullptr) {
      const obs::TraceSpan span("service.arena_build");
      slot.owned = std::make_unique<const EngineArena>(bilinear::by_name(name));
      slot.arena.store(slot.owned.get(), std::memory_order_release);
    }
    return slot.owned.get();
  }
  *error = "unknown algorithm '" + name + "'";
  return nullptr;
}

std::string CertificateService::validate(const EngineArena& arena,
                                         const Request& request) const {
  const int k = request.k;
  const bool decode_refused =
      request.kind == CertKind::kDecode && !arena.has_decode;
  const bool segment_refused =
      request.kind == CertKind::kSegment && k > config_.segment_max_k;
  if (k >= 1 && k <= arena.max_rank && !decode_refused && !segment_refused) {
    return std::string();
  }
  // Only a refusal pays for formatting its diagnostic.
  std::ostringstream os;
  if (k < 1) {
    os << "k must be >= 1 (got " << k << ")";
  } else if (k > arena.max_rank) {
    os << "k " << k << " exceeds the id-space limit " << arena.max_rank
       << " for algorithm '" << arena.alg.name() << "'";
  } else if (decode_refused) {
    os << "algorithm '" << arena.alg.name()
       << "' has a disconnected decoding graph; Claim 1 does not apply";
  } else {
    os << "segment certificates build an explicit CDAG; k " << k
       << " exceeds the configured ceiling " << config_.segment_max_k;
  }
  return os.str();
}

Certificate CertificateService::compute(const EngineArena& arena,
                                        const Request& request) const {
  const obs::TraceSpan span(compute_span_name(request.kind));
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
        cert.words[kChainHitDigest] = engine.chain_hit_digest(k);
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
        cert.words[kDecodeHitDigest] = engine.decode_hit_digest(k);
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
        // digest pins that same canonical array (one memoized digest).
        cert.words[kFullHitDigest] = engine.chain_hit_digest(k);
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
      totals_.errors.add();
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

CertificateService::Admission CertificateService::resolve(
    const Request& request) {
  static obs::Counter obs_requests("service.requests");
  static obs::Counter obs_errors("service.errors");
  obs_requests.add();
  totals_.requests.add();

  Admission admission;
  std::string error;
  admission.arena = arena_for(request.algorithm, &error);
  if (admission.arena != nullptr) error = validate(*admission.arena, request);
  if (!error.empty()) {
    obs_errors.add();
    totals_.errors.add();
    admission.arena = nullptr;
    admission.response.error = std::move(error);
    return admission;
  }
  admission.key = StoreKey{admission.arena->digest,
                           static_cast<std::uint32_t>(request.k),
                           request.kind, kEngineVersion};
  return admission;
}

void CertificateService::admit(const Request& request, Admission& admission) {
  static obs::Counter obs_hits("service.store_hits");
  static obs::Counter obs_waits("service.inflight_waits");
  const StoreKey& key = admission.key;
  const auto answer_hit = [&](Certificate cert) {
    obs_hits.add();
    totals_.store_hits.add();
    admission.response = finish(key, std::move(cert), true);
    admission.arena->annotate(request, admission.response);
  };
  if (std::optional<Certificate> hit = store_.lookup(key)) {
    answer_hit(std::move(*hit));
    return;
  }

  // The first requester of a missing key computes; everyone else
  // parks on its future.
  std::unique_lock<std::mutex> lock(inflight_mutex_);
  const auto it = inflight_.find(key);
  if (it != inflight_.end()) {
    admission.other = it->second;
    lock.unlock();
    obs_waits.add();
    totals_.inflight_waits.add();
    return;
  }
  // The owner inserts into the store before it leaves inflight_, so
  // a key absent from both under this lock is truly missing; without
  // the re-check a key finished since the lookup above is recomputed.
  if (std::optional<Certificate> hit = store_.find_indexed(key)) {
    lock.unlock();
    answer_hit(std::move(*hit));
    return;
  }
  admission.owned = std::make_shared<Inflight>();
  inflight_.emplace(key, admission.owned);
  inflight_peak_ = std::max(inflight_peak_,
                            static_cast<std::uint64_t>(inflight_.size()));
}

Response CertificateService::publish(const Request& request,
                                     const Admission& admission) {
  static obs::Counter obs_computed("service.computed");
  Certificate cert = compute(*admission.arena, request);
  store_.insert(admission.key, cert);
  obs_computed.add();
  totals_.computed.add();
  Response resp = finish(admission.key, std::move(cert), false);
  admission.arena->annotate(request, resp);
  admission.owned->promise.set_value(resp);
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    inflight_.erase(admission.key);
  }
  return resp;
}

Response CertificateService::settle(const Request& request,
                                    Admission& admission) {
  if (admission.owned != nullptr) return publish(request, admission);
  if (admission.other != nullptr) return admission.other->future.get();
  return std::move(admission.response);
}

Response CertificateService::serve(const Request& request) {
  Admission admission = resolve(request);
  if (admission.arena != nullptr) admit(request, admission);
  return settle(request, admission);
}

std::vector<Response> CertificateService::serve_batch(
    std::span<const Request> requests) {
  static obs::Counter obs_batches("service.batches");
  static obs::Counter obs_batched("service.batched_requests");
  obs_batches.add();
  obs_batched.add(requests.size());
  totals_.batches.add();
  totals_.batched_requests.add(requests.size());

  // Admission runs serially on the calling thread, first occurrence of
  // each key only, in request order (deterministic).
  std::vector<Admission> admissions(requests.size());
  std::map<StoreKey, std::size_t> first_index;
  std::vector<std::size_t> owned;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    Admission& admission = admissions[i];
    admission = resolve(requests[i]);
    if (admission.arena == nullptr) continue;
    if (!first_index.emplace(admission.key, i).second) continue;
    admit(requests[i], admission);
    if (admission.owned != nullptr) owned.push_back(i);
  }

  // Only the keys this batch owns are computed on the pool, as fixed
  // unit chunks that each write their own slot. No chunk waits on
  // another caller's future: that caller may itself be queued for the
  // pool this region holds.
  std::vector<Response> responses(requests.size());
  support::parallel::for_chunks(
      0, owned.size(), 1, [&](std::uint64_t lo, std::uint64_t hi, int) {
        for (std::uint64_t j = lo; j < hi; ++j) {
          const std::size_t i = owned[j];
          responses[i] = publish(requests[i], admissions[i]);
        }
      });

  // Foreign futures are awaited after the region. A later duplicate
  // is admitted once its first occurrence has settled, so it is the
  // store hit it would be serially.
  for (std::size_t i = 0; i < requests.size(); ++i) {
    Admission& admission = admissions[i];
    if (admission.owned != nullptr) continue;
    if (admission.arena != nullptr && first_index.at(admission.key) != i) {
      admit(requests[i], admission);
    }
    responses[i] = settle(requests[i], admission);
  }
  return responses;
}

ServiceMetrics CertificateService::metrics() const {
  ServiceMetrics m;
  m.requests = totals_.requests.value();
  m.store_hits = totals_.store_hits.value();
  m.computed = totals_.computed.value();
  m.inflight_waits = totals_.inflight_waits.value();
  m.batches = totals_.batches.value();
  m.batched_requests = totals_.batched_requests.value();
  m.errors = totals_.errors.value();
  const std::lock_guard<std::mutex> lock(inflight_mutex_);
  m.inflight_peak = inflight_peak_;
  return m;
}

}  // namespace pathrouting::service
