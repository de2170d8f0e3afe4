// E18 — Certificate service: content-addressed cache and batched
// concurrent serving.
//
// Four phases against a throwaway on-disk store:
//
//   1. service_cold_miss — a fresh service (empty store) answers
//      strassen k = 7 chain entirely through the implicit engine; the
//      end-to-end latency must stay under 50 ms.
//   2. service_trace — a seeded Zipf-ish trace (service/replay.hpp)
//      replayed by one client against an empty store. First occurrence
//      of each key misses, every repeat hits; hit/miss latency
//      percentiles are recorded and the cache-hit p99 must stay under
//      100 µs.
//   3. service_warm — a NEW service instance reopens the same store
//      directory and replays the same trace: every answer now comes
//      off the stored certificate files (no engine work at all).
//   4. service_throughput — the warmed service replayed from 1/2/4/8
//      concurrent client threads; reports requests/second.
//
// Counts in every record (hits, misses, unique keys, certificate
// words) are bit-identical re-runnable — pr_bench_gate replays the
// same trace against a fresh store and compares them exactly; only
// the *_us / rps / seconds fields are timing. Exits nonzero on a
// latency-threshold breach, a bound violation, or an error response,
// so the service-perfsmoke ctest entry is a hard gate.
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench_common.hpp"
#include "pathrouting/service/replay.hpp"
#include "pathrouting/service/service.hpp"
#include "pathrouting/support/cli.hpp"
#include "pathrouting/support/table.hpp"

namespace {

using namespace pathrouting;  // NOLINT
using support::fmt_count;
using support::fmt_fixed;

constexpr double kHitP99LimitUs = 100.0;   // cache-hit p99 budget
constexpr double kColdMissLimitMs = 50.0;  // strassen k=7 chain, cold

}  // namespace

int main(int argc, char** argv) {
  support::Cli cli(argc, argv);
  const std::int64_t num_requests =
      cli.flag_int("requests", 2048, "trace length");
  cli.finish(
      "E18: certificate service — cold misses, cache-hit latency, store "
      "reload, and client-thread throughput scaling.");
  if (num_requests < 1) {
    cli.fail("--requests must be >= 1, got " + std::to_string(num_requests));
  }

  bench::print_banner(
      "E18: certificate service — content-addressed serving",
      "Claim: a cache hit is a lock-free index probe (p99 < 100 us), a\n"
      "cold strassen k = 7 chain miss certifies through the implicit\n"
      "engine in < 50 ms, and a reopened store serves everything off\n"
      "its certificate files with counts bit-identical to the\n"
      "first run.");

  const std::string store_dir =
      (std::filesystem::temp_directory_path() /
       ("pathrouting_bench_service." + std::to_string(::getpid())))
          .string();
  bench::BenchJson json("service");
  bool failed = false;

  // Phase 1 — cold miss. Fresh service, empty store: the whole request
  // (arena build + implicit chain certification) is on the clock.
  {
    const service::ColdMissPoint cold =
        service::run_cold_miss_point({"strassen", 7});
    const double ms = cold.seconds * 1e3;
    if (!cold.response.ok) {
      std::fprintf(stderr, "COLD MISS FAILED: %s\n",
                   cold.response.error.c_str());
      failed = true;
    } else {
      service::fill_cold_miss_record(cold, json.add_record());
      std::printf("cold miss  strassen k=7 chain: %.2f ms (limit %.0f ms)\n",
                  ms, kColdMissLimitMs);
      if (ms >= kColdMissLimitMs) {
        std::fprintf(stderr, "COLD MISS OVER BUDGET: %.2f ms >= %.0f ms\n", ms,
                     kColdMissLimitMs);
        failed = true;
      }
    }
  }

  // Phases 2-4 share one store directory: phase 2 populates it, phase
  // 3 reopens it cold (file path), phase 4 hammers the warm index.
  service::TraceSpec spec;
  spec.num_requests = static_cast<std::uint64_t>(num_requests);
  const std::vector<service::Request> trace = service::zipf_trace(spec);

  support::Table table({"phase", "clients", "requests", "hits", "computed",
                        "hit p50 us", "hit p99 us", "miss p50 us", "sec",
                        "req/s"});
  const auto add_row = [&](const char* phase, int clients,
                           const service::ReplayResult& r) {
    table.add_row({phase, std::to_string(clients), fmt_count(r.requests),
                   fmt_count(r.cache_hits), fmt_count(r.computed),
                   fmt_fixed(service::percentile_us(r.hit_us, 50), 1),
                   fmt_fixed(service::percentile_us(r.hit_us, 99), 1),
                   fmt_fixed(service::percentile_us(r.miss_us, 50), 1),
                   fmt_fixed(r.seconds, 3),
                   fmt_count(static_cast<std::uint64_t>(
                       r.seconds > 0 ? r.requests / r.seconds : 0))});
  };
  const auto check_clean = [&](const char* phase,
                               const service::ReplayResult& r) {
    if (r.errors != 0) {
      std::fprintf(stderr, "%s: %llu error responses\n", phase,
                   static_cast<unsigned long long>(r.errors));
      failed = true;
    }
  };

  service::ServiceConfig config;
  config.store_dir = store_dir + "/trace";

  {
    service::CertificateService svc(config);
    // Each point is filled in two steps: replaying inside its aggregate
    // initializer trips gcc 12's false -Werror=maybe-uninitialized at -O3.
    service::ReplayPoint point{{"service_trace", spec, 1}, {}};
    point.result = service::replay_trace(svc, trace, 1);
    const service::ReplayResult& r = point.result;
    service::fill_replay_record(point, json.add_record());
    add_row("trace (cold store)", 1, r);
    check_clean("service_trace", r);
    const double p99 = service::percentile_us(r.hit_us, 99);
    if (p99 >= kHitP99LimitUs) {
      std::fprintf(stderr, "CACHE-HIT P99 OVER BUDGET: %.1f us >= %.0f us\n",
                   p99, kHitP99LimitUs);
      failed = true;
    }
  }

  {
    // Reopen: a brand-new service on the populated directory. Every
    // request is a hit, first touch per key goes through a file read +
    // full validation, repeats are index probes.
    service::CertificateService svc(config);
    service::ReplayPoint point{{"service_warm", spec, 1}, {}};
    point.result = service::replay_trace(svc, trace, 1);
    const service::ReplayResult& warm = point.result;
    service::fill_replay_record(point, json.add_record());
    add_row("warm (store reload)", 1, warm);
    check_clean("service_warm", warm);
    if (warm.computed != 0) {
      std::fprintf(stderr,
                   "WARM REPLAY RECOMPUTED %llu KEYS (store should have "
                   "served everything)\n",
                   static_cast<unsigned long long>(warm.computed));
      failed = true;
    }

    // Throughput scaling on the now-warm index.
    for (const int clients : {1, 2, 4, 8}) {
      service::ReplayPoint point{{"service_throughput", spec, clients}, {}};
      point.result = service::replay_trace(svc, trace, clients);
      const service::ReplayResult& r = point.result;
      service::fill_replay_record(point, json.add_record());
      add_row("throughput (warm)", clients, r);
      check_clean("service_throughput", r);
    }
  }
  table.print(std::cout);

  std::error_code ec;
  std::filesystem::remove_all(store_dir, ec);
  obs::write_env_outputs("service_metrics", obs::git_commit());
  return failed ? 1 : 0;
}
