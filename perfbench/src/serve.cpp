// Workload "serve": a closed loop of two client threads against
// service::CertificateService, replaying a seeded Zipf trace
// (service::zipf_trace) over epochs. Each epoch is a fresh service, as
// after a daemon restart. A pass is two epochs: the cold epoch starts on
// an empty on-disk store, so its misses run the routing engines, the
// overflow envelopes and store writes; the warm epoch reopens that
// store, so first touches read certificate files and repeats hit the
// in-memory index. Each client sends its next request only when the
// previous one was answered.
//
// Two clients rather than four: with a client on every one of the four
// vCPUs, throughput and hit latency measured how many of them the host
// happened to run at once (the hit median moved between 1.4 and 2.5 us
// from run to run, throughput the other way). Two still contend for the
// service's mutexes and still put store writes beside store reads.
//
// A query is one request. A request fails if its response is an error,
// or if its certificate's payload digest or overflow envelope differs
// from the benchmark's own recompute through the engines.
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "pathrouting/analysis/envelope.hpp"
#include "pathrouting/bilinear/analysis.hpp"
#include "pathrouting/bilinear/catalog.hpp"
#include "pathrouting/bounds/segment_certifier.hpp"
#include "pathrouting/cdag/cdag.hpp"
#include "pathrouting/cdag/implicit.hpp"
#include "pathrouting/obs/obs.hpp"
#include "pathrouting/routing/chain_routing.hpp"
#include "pathrouting/routing/decode_routing.hpp"
#include "pathrouting/routing/memo_routing.hpp"
#include "pathrouting/schedule/schedules.hpp"
#include "pathrouting/service/replay.hpp"
#include "pathrouting/service/service.hpp"
#include "pathrouting/service/store.hpp"
#include "pathrouting/support/digest.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace pr = pathrouting;
namespace fs = std::filesystem;
using pr::service::CertKind;
using pr::service::Request;

constexpr int kClients = 2;
constexpr std::uint64_t kTraceRequests = 1u << 17;
// Epoch pairs cycle through this many traces (seeds trace_seed + i).
// Which misses overlap, and so how long a miss waits, depends on the
// order of first touches in a trace; averaging over several orders keeps
// the miss latencies of a run from hanging on one seed's order.
constexpr std::uint64_t kTraces = 8;

struct Inputs {
  std::vector<Request> space;  // service::request_space()
  std::vector<std::vector<std::uint32_t>> traces;  // indices into `space`
  std::string store_dir;
};

/// What one client saw of each key: the first certificate digest and
/// envelope, how many answers it got, how many of them disagreed with
/// the first, and its slowest miss.
struct KeySeen {
  bool seen = false;
  std::uint64_t digest = 0;
  std::uint32_t wrap_k = 0;
  bool exact = true;
  std::uint64_t ok = 0;
  std::uint64_t inconsistent = 0;
  float slowest_miss_us = 0;
};

// Cache-line aligned so that clients appending to their own vectors do
// not contend for a line shared with the next client.
struct alignas(64) Client {
  std::vector<float> hit_us;
  std::uint64_t errors = 0;
  std::vector<KeySeen> keys;
};

struct Epoch {
  double seconds = 0;
  std::uint64_t requests = 0;
  std::vector<Client> clients;
};

/// One epoch: a fresh service on `store_dir`, `clients` closed-loop
/// clients over contiguous shards of `trace`.
Epoch run_epoch(const Inputs& in, const std::vector<std::uint32_t>& trace,
                int clients) {
  Epoch epoch;
  epoch.requests = trace.size();
  epoch.clients.resize(static_cast<std::size_t>(clients));
  for (Client& c : epoch.clients) c.keys.resize(in.space.size());
  const Stopwatch watch;
  pr::service::ServiceConfig config;
  config.store_dir = in.store_dir;
  // The service sits at a page-aligned address. On the stack its
  // mutexes would fall on cache lines differently in every process (the
  // stack top is randomized below page granularity), which moved
  // 4-client throughput by up to 30 % between otherwise identical runs.
  struct alignas(4096) PlacedService {
    explicit PlacedService(pr::service::ServiceConfig c) : svc(std::move(c)) {}
    pr::service::CertificateService svc;
  };
  const auto placed = std::make_unique<PlacedService>(std::move(config));
  pr::service::CertificateService& svc = placed->svc;
  const auto run_client = [&](int c) {
    Client& client = epoch.clients[static_cast<std::size_t>(c)];
    const std::size_t n = trace.size();
    const std::size_t lo = n * static_cast<std::size_t>(c) /
                           static_cast<std::size_t>(clients);
    const std::size_t hi = n * static_cast<std::size_t>(c + 1) /
                           static_cast<std::size_t>(clients);
    for (std::size_t i = lo; i < hi; ++i) {
      const std::uint32_t key = trace[i];
      const Request& request = in.space[key];
      const Stopwatch request_watch;
      const pr::service::Response resp = svc.serve(request);
      const auto us = static_cast<float>(request_watch.seconds() * 1e6);
      if (!resp.ok) {
        ++client.errors;
        continue;
      }
      KeySeen& seen = client.keys[key];
      ++seen.ok;
      if (resp.from_cache) {
        client.hit_us.push_back(us);
      } else {
        seen.slowest_miss_us = std::max(seen.slowest_miss_us, us);
      }
      if (!seen.seen) {
        seen = {true,    resp.certificate.payload_digest, resp.envelope_wrap_k,
                resp.envelope_exact, seen.ok, 0, seen.slowest_miss_us};
      } else if (seen.digest != resp.certificate.payload_digest ||
                 seen.wrap_k != resp.envelope_wrap_k ||
                 seen.exact != resp.envelope_exact) {
        ++seen.inconsistent;
      }
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) threads.emplace_back(run_client, c);
  for (std::thread& t : threads) t.join();
  epoch.seconds = watch.seconds();
  return epoch;
}

/// The benchmark's own recompute of every certificate, straight through
/// the engines, with each engine call timed. Engines and envelopes are
/// built once per algorithm and kept for the run.
class Recompute {
 public:
  struct Expected {
    std::uint64_t digest = 0;
    std::uint32_t wrap_k = 0;
    bool exact = true;
    pr::service::Certificate certificate;
  };

  const Expected& expected(const Request& request) {
    const auto key = std::make_tuple(request.algorithm, request.k,
                                     static_cast<int>(request.kind));
    auto it = cache_.find(key);
    if (it == cache_.end()) it = cache_.emplace(key, compute(request)).first;
    return it->second;
  }

  /// Per-call times of the recomputes by kind, and the total time spent
  /// computing envelopes, in seconds.
  std::map<CertKind, std::vector<double>> call_s;
  double envelopes_s = 0;

 private:
  struct Engines {
    explicit Engines(pr::bilinear::BilinearAlgorithm algorithm)
        : alg(std::move(algorithm)) {}
    pr::bilinear::BilinearAlgorithm alg;
    std::optional<pr::routing::MemoRoutingEngine> engine;
    pr::analysis::AlgorithmEnvelopes envelopes;
  };

  Engines& engines(const std::string& name) {
    auto it = engines_.find(name);
    if (it != engines_.end()) return *it->second;
    auto e = std::make_unique<Engines>(pr::bilinear::by_name(name));
    const pr::routing::ChainRouter router(e->alg);
    if (pr::bilinear::decoding_components(e->alg) == 1) {
      e->engine.emplace(router, pr::routing::DecodeRouter(e->alg));
    } else {
      e->engine.emplace(router);
    }
    // The same minimal value depth the service uses: only first-wrap
    // ranks are needed.
    pr::analysis::EnvelopeOptions options;
    options.value_kmax = 1;
    options.stats_value_kmax = 1;
    const Stopwatch watch;
    e->envelopes = pr::analysis::compute_envelopes(e->alg, options);
    envelopes_s += watch.seconds();
    return *engines_.emplace(name, std::move(e)).first->second;
  }

  Expected compute(const Request& request) {
    Engines& e = engines(request.algorithm);
    const pr::routing::MemoRoutingEngine& engine = *e.engine;
    const int k = request.k;
    pr::service::Certificate cert;
    cert.algorithm_digest = pr::service::algorithm_digest(e.alg);
    cert.kind = request.kind;
    cert.k = static_cast<std::uint32_t>(k);
    cert.n0 = static_cast<std::uint32_t>(e.alg.n0());
    cert.b = static_cast<std::uint32_t>(e.alg.b());
    cert.words.assign(pr::service::payload_word_count(request.kind), 0);
    std::vector<std::uint64_t>& w = cert.words;
    const Stopwatch watch;
    if (request.kind == CertKind::kSegment) {
      const pr::cdag::Cdag graph(e.alg, k, {.with_coefficients = false});
      const std::vector<pr::cdag::VertexId> order =
          pr::schedule::dfs_schedule(graph);
      pr::bounds::CertifyParams params;
      params.cache_size = 1;
      params.k = 1;
      params.s_bar_target = static_cast<std::uint64_t>(e.alg.a() / 2);
      const pr::bounds::CertifyResult result =
          pr::bounds::certify_segments_decode_only(graph, order, params);
      w[pr::service::kSegmentCertK] = static_cast<std::uint64_t>(result.k);
      w[pr::service::kSegmentSBarTarget] = result.s_bar_target;
      w[pr::service::kSegmentCountedTotal] = result.counted_total;
      w[pr::service::kSegmentCompleteSegments] = result.complete_segments();
      w[pr::service::kSegmentCacheSize] = params.cache_size;
      w[pr::service::kSegmentEqHolds] = result.eq_holds(22) ? 1 : 0;
      w[pr::service::kSegmentScheduleSize] = order.size();
    } else {
      const pr::cdag::ImplicitCdag view(e.alg, k);
      const bool digestible = view.layout().num_vertices() <=
                              pr::service::ServiceConfig{}.digest_max_vertices;
      fill_routing_words(engine, view, request, digestible, w);
    }
    call_s[request.kind].push_back(watch.seconds());
    cert.seal();

    Expected expected;
    expected.digest = cert.payload_digest;
    if (request.kind != CertKind::kSegment) {
      const char* prefix = request.kind == CertKind::kChain    ? "chain."
                           : request.kind == CertKind::kFull ? "full."
                                                             : "decode.";
      const int wrap = e.envelopes.first_wrap_for_kind(prefix);
      expected.wrap_k = static_cast<std::uint32_t>(wrap);
      expected.exact = wrap == 0 || k < wrap;
    }
    expected.certificate = std::move(cert);
    return expected;
  }

  static void fill_routing_words(const pr::routing::MemoRoutingEngine& engine,
                                 const pr::cdag::ImplicitCdag& view,
                                 const Request& request, bool digestible,
                                 std::vector<std::uint64_t>& w) {
    namespace s = pr::service;
    const int k = request.k;
    switch (request.kind) {
      case CertKind::kChain: {
        const pr::routing::HitStats l3 =
            engine.verify_chain_routing(view, k, 0);
        w[s::kChainNumChains] = l3.num_paths;
        w[s::kChainL3MaxHits] = l3.max_hits;
        w[s::kChainL3Bound] = l3.bound;
        w[s::kChainL3Argmax] = l3.argmax;
        w[s::kChainL4Exact] =
            engine.verify_chain_multiplicities(view, k, 0) ? 1 : 0;
        if (digestible) {
          w[s::kChainHitDigest] =
              pr::support::fnv1a_words(engine.canonical_chain_hit_array(k));
          w[s::kChainHasHitDigest] = 1;
        }
        break;
      }
      case CertKind::kDecode: {
        const pr::routing::HitStats d =
            engine.verify_decode_routing(view, k, 0);
        w[s::kDecodeNumPaths] = d.num_paths;
        w[s::kDecodeMaxHits] = d.max_hits;
        w[s::kDecodeBound] = d.bound;
        w[s::kDecodeArgmax] = d.argmax;
        if (digestible) {
          w[s::kDecodeHitDigest] =
              pr::support::fnv1a_words(engine.canonical_decode_hit_array(k));
          w[s::kDecodeHasHitDigest] = 1;
        }
        break;
      }
      case CertKind::kFull: {
        const pr::routing::FullRoutingStats t2 =
            engine.verify_full_routing(view, k, 0);
        w[s::kFullNumPaths] = t2.num_paths;
        w[s::kFullMaxVertexHits] = t2.max_vertex_hits;
        w[s::kFullArgmaxVertex] = t2.argmax_vertex;
        w[s::kFullMaxMetaHits] = t2.max_meta_hits;
        w[s::kFullBound] = t2.bound;
        w[s::kFullRootHitProperty] = t2.root_hit_property ? 1 : 0;
        if (digestible) {
          w[s::kFullHitDigest] =
              pr::support::fnv1a_words(engine.canonical_chain_hit_array(k));
          w[s::kFullHasHitDigest] = 1;
        }
        break;
      }
      case CertKind::kSegment:
        break;
    }
  }

  std::map<std::string, std::unique_ptr<Engines>> engines_;
  std::map<std::tuple<std::string, int, int>, Expected> cache_;
};

/// Figures gathered over a run, each taken per epoch or per key so that
/// the run reports medians: a short stall of the machine moves a few
/// epochs, not the result.
///
/// A key's cold latency in an epoch that computed it is the longest any
/// client waited for it: the request that computed the certificate, or
/// a request that found that computation under way and waited longer.
/// Every key has one per cold epoch, however the clients' first touches
/// happened to overlap; misses taken request by request would mix
/// computations with the waits coalesced onto them in proportions that
/// change from epoch to epoch.
struct Totals {
  std::vector<double> hit_p50_us, hit_p99_us;  // per epoch
  std::vector<std::vector<double>> cold_us;    // per key, per cold epoch
};

/// Each key's median cold latency over the run, in microseconds; with
/// `only`, just the keys of that kind.
std::vector<double> cold_medians(const Totals& totals, const Inputs& in,
                                 std::optional<CertKind> only = {}) {
  std::vector<double> out;
  for (std::size_t key = 0; key < totals.cold_us.size(); ++key) {
    if (totals.cold_us[key].empty()) continue;
    if (only && in.space[key].kind != *only) continue;
    out.push_back(median(totals.cold_us[key]));
  }
  return out;
}

/// Checks every request of an epoch against the recompute and adds the
/// epoch's figures to `totals`.
void check_epoch(const Epoch& epoch, const Inputs& in, Recompute& recompute,
                 Report& report, Totals& totals) {
  std::uint64_t failed = 0;
  std::vector<double> hit_us;
  std::vector<float> cold_us(in.space.size(), 0);
  for (const Client& client : epoch.clients) {
    failed += client.errors;
    for (std::size_t key = 0; key < client.keys.size(); ++key) {
      const KeySeen& seen = client.keys[key];
      if (!seen.seen) continue;
      const Recompute::Expected& want = recompute.expected(in.space[key]);
      const bool first_ok = seen.digest == want.digest &&
                            seen.wrap_k == want.wrap_k &&
                            seen.exact == want.exact;
      failed += first_ok ? seen.inconsistent : seen.ok;
      cold_us[key] = std::max(cold_us[key], seen.slowest_miss_us);
    }
    hit_us.insert(hit_us.end(), client.hit_us.begin(), client.hit_us.end());
  }
  report.count(epoch.requests, failed,
               "serve: error responses or certificates that differ from the "
               "engine recompute");
  totals.cold_us.resize(in.space.size());
  for (std::size_t key = 0; key < cold_us.size(); ++key) {
    if (cold_us[key] > 0) totals.cold_us[key].push_back(cold_us[key]);
  }
  if (hit_us.empty()) return;
  totals.hit_p50_us.push_back(median(hit_us));
  totals.hit_p99_us.push_back(percentile(std::move(hit_us), 99));
}

void reset_store(const Inputs& in) {
  std::error_code ec;
  fs::remove_all(in.store_dir, ec);
}

/// One pass: a cold epoch on an empty store, then a warm epoch that
/// reopens it. Returns both epochs.
std::pair<Epoch, Epoch> run_pair(const Inputs& in,
                                 const std::vector<std::uint32_t>& trace) {
  reset_store(in);
  Epoch cold = run_epoch(in, trace, kClients);
  Epoch warm = run_epoch(in, trace, kClients);
  return {std::move(cold), std::move(warm)};
}

std::uint64_t counter(const std::vector<pr::obs::CounterValue>& counters,
                      const std::string& name) {
  for (const auto& c : counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

void trace_run(const Args& args, const Inputs& in, Report& report) {
  Recompute recompute;

  // Untraced pairs for half the budget, then as many traced pairs.
  std::size_t next = 0;
  const auto next_trace = [&]() -> const std::vector<std::uint32_t>& {
    return in.traces[next++ % in.traces.size()];
  };
  Totals untraced;
  const std::vector<double> untraced_pairs = run_passes(
      args.seconds / 2, [&] { return run_pair(in, next_trace()); },
      [&](const std::pair<Epoch, Epoch>& pair) {
        check_epoch(pair.first, in, recompute, report, untraced);
        check_epoch(pair.second, in, recompute, report, untraced);
      });
  double untraced_s = 0;
  for (const double s : untraced_pairs) untraced_s += s;

  pr::obs::reset_counters();
  pr::obs::clear_spans();
  pr::obs::set_enabled(true);
  Totals traced;
  double traced_s = 0;
  for (std::size_t i = 0; i < untraced_pairs.size(); ++i) {
    const Stopwatch watch;
    const auto pair = run_pair(in, next_trace());
    traced_s += watch.seconds();
    check_epoch(pair.first, in, recompute, report, traced);
    check_epoch(pair.second, in, recompute, report, traced);
  }
  pr::obs::set_enabled(false);
  const std::vector<pr::obs::CounterValue> counters =
      pr::obs::counters_snapshot();
  std::vector<double> arena_ms;
  for (const pr::obs::SpanRecord& span : pr::obs::spans_snapshot()) {
    if (std::string_view(span.name) == "service.arena_build") {
      arena_ms.push_back(static_cast<double>(span.duration_ns) / 1e6);
    }
  }

  // Hit latency of one client alone on the store the last pair warmed,
  // replaying that pair's trace, for contention.
  Totals alone;
  {
    const auto& last = in.traces[(next - 1) % in.traces.size()];
    check_epoch(run_epoch(in, last, 1), in, recompute, report, alone);
  }

  // The store on its own: inserts into an empty directory, then a
  // reopened store's first lookups (file reads) and repeats (index).
  std::vector<double> insert_us, file_us, index_us;
  const std::string probe_dir = in.store_dir + ".probe";
  {
    std::error_code ec;
    fs::remove_all(probe_dir, ec);
    pr::service::CertificateStore store(probe_dir);
    std::vector<pr::service::StoreKey> keys;
    for (const Request& request : in.space) {
      const auto& cert = recompute.expected(request).certificate;
      const pr::service::StoreKey key = pr::service::key_of(cert);
      keys.push_back(key);
      const Stopwatch watch;
      report.check(store.insert(key, cert), "serve: store insert failed");
      insert_us.push_back(watch.seconds() * 1e6);
    }
    pr::service::CertificateStore reopened(probe_dir);
    bool lookups_right = true;
    for (int round = 0; round < 100; ++round) {
      for (std::size_t i = 0; i < keys.size(); ++i) {
        const Stopwatch watch;
        const std::optional<pr::service::Certificate> got =
            reopened.lookup(keys[i]);
        const double us = watch.seconds() * 1e6;
        (round == 0 ? file_us : index_us).push_back(us);
        lookups_right &= got.has_value() &&
                         got->payload_digest ==
                             recompute.expected(in.space[i]).digest;
      }
    }
    report.check(lookups_right,
                 "serve: store lookup returned a wrong certificate");
    fs::remove_all(probe_dir, ec);
  }

  const auto median_or_0 = [](const std::vector<double>& s) {
    return s.empty() ? 0.0 : median(s);
  };
  const auto set_counter = [&](const std::string& name) {
    report.set(name, static_cast<double>(counter(counters, name)));
  };
  report.set("routing.chain_us",
             median_or_0(recompute.call_s[CertKind::kChain]) * 1e6);
  report.set("routing.full_us",
             median_or_0(recompute.call_s[CertKind::kFull]) * 1e6);
  report.set("routing.decode_us",
             median_or_0(recompute.call_s[CertKind::kDecode]) * 1e6);
  set_counter("memo.canonical_cache_hits");
  set_counter("memo.canonical_cache_misses");
  report.set("analysis.envelopes_ms", recompute.envelopes_s * 1e3);
  report.set("service.arena_build_ms", median_or_0(arena_ms));
  // Cold latencies from the untraced pairs, so tracing does not inflate
  // them.
  const std::vector<double> cold_us = cold_medians(untraced, in);
  report.set("service.cold_p50_ms", percentile(cold_us, 50) / 1e3);
  report.set("service.cold_p99_ms", percentile(cold_us, 99) / 1e3);
  report.set(
      "service.segment_ms",
      median_or_0(cold_medians(untraced, in, CertKind::kSegment)) / 1e3);
  report.set("service.store.lookup_index_us", median(index_us));
  report.set("service.store.file_open_us", median(file_us));
  report.set("service.store.insert_us", median(insert_us));
  report.set("service.hit_p50_us", median(untraced.hit_p50_us));
  report.set("service.hit_p99_us", median(untraced.hit_p99_us));
  report.set("service.hit_contention",
             median(untraced.hit_p50_us) / median(alone.hit_p50_us));
  set_counter("service.store.index_hits");
  set_counter("service.store.file_hits");
  set_counter("service.store.misses");
  set_counter("service.inflight_waits");
  report.set("obs.overhead_pct", (traced_s / untraced_s - 1) * 100);
}

/// The end-to-end metrics: epoch pairs until --seconds are spent.
void measure(const Args& args, const Inputs& in, Report& report,
             const std::function<void()>& between_passes) {
  Recompute recompute;
  Totals totals;
  std::vector<double> rps;  // per pair, over the time both epochs served
  std::size_t next = 0;
  const std::vector<double> pairs = run_passes(
      args.seconds,
      [&] { return run_pair(in, in.traces[next++ % in.traces.size()]); },
      [&](const std::pair<Epoch, Epoch>& pair) {
        check_epoch(pair.first, in, recompute, report, totals);
        check_epoch(pair.second, in, recompute, report, totals);
        rps.push_back(
            static_cast<double>(pair.first.requests + pair.second.requests) /
            (pair.first.seconds + pair.second.seconds));
        between_passes();
      });
  report.set("pass_s", median(pairs));
  report.set("queries_per_s", median(rps));
  report.set("peak_rss_mib", peak_rss_mib());
}

}  // namespace

void run_serve(const Args& args, Report& report) {
  const std::uint64_t trace_seed = derive_seed(args.seed, "trace");
  const std::string store_dir =
      ".bench_build/perfbench-serve." + std::to_string(::getpid());
  const auto make_inputs = [&] {
    const auto catalog = load_catalog();
    Inputs out;
    for (const Request& r : pr::service::request_space()) {
      if (catalog.contains(r.algorithm)) out.space.push_back(r);
    }
    std::map<std::tuple<std::string, int, CertKind>, std::uint32_t> index;
    for (std::uint32_t i = 0; i < out.space.size(); ++i) {
      const Request& r = out.space[i];
      index.emplace(std::make_tuple(r.algorithm, r.k, r.kind), i);
    }
    for (std::uint64_t t = 0; t < kTraces; ++t) {
      std::vector<std::uint32_t>& trace = out.traces.emplace_back();
      for (const Request& r : pr::service::zipf_trace(
               {.seed = trace_seed + t, .num_requests = kTraceRequests})) {
        const auto it = index.find(std::make_tuple(r.algorithm, r.k, r.kind));
        if (it != index.end()) trace.push_back(it->second);
      }
    }
    out.store_dir = store_dir + "/store";
    std::error_code ec;
    fs::remove_all(store_dir, ec);
    fs::create_directories(out.store_dir);
    return out;
  };
  SetupTimer setup(args.seconds);
  const Inputs in = setup.run(make_inputs);
  report.note("seed.trace", std::to_string(trace_seed));
  report.check(in.space.size() == pr::service::request_space().size(),
               "serve: a served algorithm failed catalog verification");

  if (args.trace) {
    trace_run(args, in, report);
  } else {
    measure(args, in, report, [&] { setup.between_passes(make_inputs); });
  }
  setup.run(make_inputs);
  report.set("setup_s", setup.median_s());
  std::error_code ec;
  fs::remove_all(store_dir, ec);
}

}  // namespace perfbench
