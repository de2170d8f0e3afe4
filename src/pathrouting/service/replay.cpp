#include "pathrouting/service/replay.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cmath>
#include <filesystem>
#include <numeric>
#include <set>
#include <thread>
#include <tuple>

#include <unistd.h>

#include "pathrouting/bilinear/catalog.hpp"
#include "pathrouting/obs/obs.hpp"
#include "pathrouting/support/check.hpp"
#include "pathrouting/support/prng.hpp"

namespace pathrouting::service {
namespace {

struct SpaceEntry {
  const char* alg;
  CertKind kind;
  int kmax;
};

// k ranges sized so one cold sweep of the whole space stays in the
// tens of milliseconds (the deepest entry, strassen chain k=7, is the
// bench's cold-miss headline and costs a few ms on the implicit path).
constexpr SpaceEntry kSpace[] = {
    {"strassen", CertKind::kChain, 7},
    {"strassen", CertKind::kFull, 6},
    {"strassen", CertKind::kDecode, 6},
    {"strassen", CertKind::kSegment, 3},
    {"winograd", CertKind::kChain, 5},
    {"winograd", CertKind::kDecode, 4},
    {"laderman", CertKind::kChain, 4},
    {"classical2_x_strassen", CertKind::kChain, 4},
    {"classical2_x_strassen", CertKind::kFull, 3},
};

/// An empty store directory under the system temp dir, unique per
/// process and call, removed with everything in it on destruction.
class ScratchStore {
 public:
  ScratchStore() {
    static std::atomic<int> counter{0};
    path_ = (std::filesystem::temp_directory_path() /
             ("pathrouting_replay." + std::to_string(::getpid()) + "." +
              std::to_string(counter++)))
                .string();
    std::filesystem::remove_all(path_, ec_);
  }
  ScratchStore(const ScratchStore&) = delete;
  ScratchStore& operator=(const ScratchStore&) = delete;
  ~ScratchStore() { std::filesystem::remove_all(path_, ec_); }

  [[nodiscard]] ServiceConfig config() const {
    ServiceConfig config;
    config.store_dir = path_;
    return config;
  }

 private:
  std::string path_;
  std::error_code ec_;
};

}  // namespace

std::vector<Request> request_space() {
  std::vector<Request> space;
  for (const SpaceEntry& entry : kSpace) {
    for (int k = 1; k <= entry.kmax; ++k) {
      space.push_back(Request{entry.alg, k, entry.kind});
    }
  }
  return space;
}

std::vector<Request> zipf_trace(const TraceSpec& spec) {
  std::vector<Request> space = request_space();
  support::Xoshiro256 rng(spec.seed);
  // Seeded rank permutation (Fisher-Yates), so which requests are
  // "hot" varies with the seed while staying reproducible.
  for (std::size_t i = space.size(); i > 1; --i) {
    std::swap(space[i - 1], space[rng.below(i)]);
  }
  // Integer harmonic weights: rank i draws with weight W/(i+1). Pure
  // integer arithmetic keeps the trace platform-independent.
  constexpr std::uint64_t kScale = 1u << 20;
  std::vector<std::uint64_t> cumulative(space.size());
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < space.size(); ++i) {
    total += kScale / static_cast<std::uint64_t>(i + 1);
    cumulative[i] = total;
  }
  std::vector<Request> trace;
  trace.reserve(spec.num_requests);
  for (std::uint64_t n = 0; n < spec.num_requests; ++n) {
    const std::uint64_t draw = rng.below(total);
    const auto it =
        std::upper_bound(cumulative.begin(), cumulative.end(), draw);
    trace.push_back(space[static_cast<std::size_t>(
        std::distance(cumulative.begin(), it))]);
  }
  return trace;
}

ReplayResult replay_trace(CertificateService& svc,
                          std::span<const Request> trace,
                          int client_threads) {
  PR_REQUIRE(client_threads >= 1);
  using Clock = std::chrono::steady_clock;

  struct Shard {
    std::uint64_t ok = 0, errors = 0, hits = 0, computed = 0;
    std::vector<double> hit_us, miss_us;
  };
  std::vector<Shard> shards(static_cast<std::size_t>(client_threads));
  const std::size_t n = trace.size();

  const auto run_shard = [&](int c) {
    const std::size_t lo = n * static_cast<std::size_t>(c) /
                           static_cast<std::size_t>(client_threads);
    const std::size_t hi = n * static_cast<std::size_t>(c + 1) /
                           static_cast<std::size_t>(client_threads);
    Shard& shard = shards[static_cast<std::size_t>(c)];
    for (std::size_t i = lo; i < hi; ++i) {
      const Clock::time_point t0 = Clock::now();
      const Response resp = svc.serve(trace[i]);
      const double us =
          std::chrono::duration<double, std::micro>(Clock::now() - t0)
              .count();
      if (!resp.ok) {
        ++shard.errors;
        continue;
      }
      ++shard.ok;
      if (resp.from_cache) {
        ++shard.hits;
        shard.hit_us.push_back(us);
      } else {
        ++shard.computed;
        shard.miss_us.push_back(us);
      }
    }
  };

  const Clock::time_point start = Clock::now();
  if (client_threads == 1) {
    run_shard(0);
  } else {
    // Replay clients model independent external callers, so they are
    // deliberately NOT pool workers: the determinism contract covers
    // the served responses (fixed shard split + per-shard metrics),
    // not client scheduling.
    std::vector<std::thread> clients;  // pr-static: allow(static.raw-thread)
    clients.reserve(static_cast<std::size_t>(client_threads));
    for (int c = 0; c < client_threads; ++c) {
      clients.emplace_back(run_shard, c);
    }
    // pr-static: allow(static.raw-thread)
    for (std::thread& t : clients) t.join();
  }

  ReplayResult result;
  result.requests = n;
  result.seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  std::set<std::tuple<std::string, int, CertKind>> unique;
  for (const Request& req : trace) {
    unique.emplace(req.algorithm, req.k, req.kind);
  }
  result.unique_keys = unique.size();
  for (const Shard& shard : shards) {
    result.ok += shard.ok;
    result.errors += shard.errors;
    result.cache_hits += shard.hits;
    result.computed += shard.computed;
    result.hit_us.insert(result.hit_us.end(), shard.hit_us.begin(),
                         shard.hit_us.end());
    result.miss_us.insert(result.miss_us.end(), shard.miss_us.begin(),
                          shard.miss_us.end());
  }
  return result;
}

double percentile_us(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size());
  std::size_t idx = static_cast<std::size_t>(std::ceil(rank));
  idx = idx == 0 ? 0 : idx - 1;
  idx = std::min(idx, values.size() - 1);
  return values[idx];
}

ColdMissPoint run_cold_miss_point(const ColdMissSpec& spec) {
  const ScratchStore store;
  CertificateService svc(store.config());
  ColdMissPoint point;
  point.spec = spec;
  const auto t0 = std::chrono::steady_clock::now();
  point.response = svc.serve(Request{spec.algorithm, spec.k, CertKind::kChain});
  point.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  return point;
}

void fill_cold_miss_record(const ColdMissPoint& point, obs::BenchRecord& rec) {
  const Response& resp = point.response;
  rec.set("experiment", "service_cold_miss")
      .set("engine", "service")
      .set("algorithm", point.spec.algorithm)
      .set("k", point.spec.k)
      .set("kind", kind_name(CertKind::kChain))
      .set("ok", resp.ok)
      .set("cached", resp.from_cache);
  if (resp.ok) {
    const auto& w = resp.certificate.words;
    rec.set("chains", w[kChainNumChains])
        .set("l3_max", w[kChainL3MaxHits])
        .set("l3_bound", w[kChainL3Bound])
        .set("l4", w[kChainL4Exact])
        .set("has_fnv", w[kChainHasHitDigest])
        .set("digest", resp.certificate.payload_digest);
  }
  rec.set("cold_us", point.seconds * 1e6)
      .set("seconds", point.seconds)
      .set("max_rss_bytes", obs::max_rss_bytes());
}

ColdMissSpec cold_miss_spec_from_record(obs::RecordReader& in) {
  ColdMissSpec spec;
  spec.algorithm = in.one_of("algorithm", bilinear::catalog_names());
  spec.k = static_cast<int>(in.integer("k", 1, INT_MAX));
  (void)in.one_of("kind", {kind_name(CertKind::kChain)});
  return spec;
}

ReplayPoint run_replay_point(const ReplaySpec& spec) {
  PR_REQUIRE(spec.experiment == "service_trace" ||
             spec.experiment == "service_warm");
  const std::vector<Request> trace = zipf_trace(spec.trace);
  const ScratchStore store;
  ReplayPoint point;
  point.spec = spec;
  {
    CertificateService svc(store.config());
    point.result = replay_trace(svc, trace, spec.client_threads);
  }
  if (spec.experiment == "service_warm") {
    CertificateService reopened(store.config());
    point.result = replay_trace(reopened, trace, spec.client_threads);
  }
  return point;
}

void fill_replay_record(const ReplayPoint& point, obs::BenchRecord& rec) {
  const ReplayResult& r = point.result;
  rec.set("experiment", point.spec.experiment)
      .set("engine", "service")
      .set("seed", point.spec.trace.seed)
      .set("client_threads", point.spec.client_threads)
      .set("requests", r.requests)
      .set("unique_keys", r.unique_keys)
      .set("ok", r.ok)
      .set("errors", r.errors)
      .set("cache_hits", r.cache_hits)
      .set("computed", r.computed)
      .set("seconds", r.seconds)
      .set("hit_p50_us", percentile_us(r.hit_us, 50))
      .set("hit_p99_us", percentile_us(r.hit_us, 99))
      .set("miss_p50_us", percentile_us(r.miss_us, 50))
      .set("miss_p99_us", percentile_us(r.miss_us, 99))
      .set("rps", r.seconds > 0 ? static_cast<double>(r.requests) / r.seconds
                                : 0.0)
      .set("max_rss_bytes", obs::max_rss_bytes());
}

ReplaySpec replay_spec_from_record(obs::RecordReader& in) {
  ReplaySpec spec;
  spec.experiment = in.one_of("experiment", {"service_trace", "service_warm"});
  spec.trace.seed = static_cast<std::uint64_t>(in.integer("seed"));
  spec.trace.num_requests =
      static_cast<std::uint64_t>(in.integer("requests", 1));
  return spec;
}

}  // namespace pathrouting::service
