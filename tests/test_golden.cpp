// Golden-certificate corpus: the routing certificates of the headline
// algorithms, frozen as checked-in text files.
//
// For each algorithm the file records the Theorem-3 Hall witnesses
// (the base matchings, side A and B) plus, per k, the Lemma-3 /
// Lemma-4 / Theorem-2 chain certificate and the Claim-1 decode
// certificate, with an FNV-1a digest of the full per-vertex hit
// arrays. Every number is a pure function of the algorithm, so any
// diff against the corpus is a behavioural change in the routing
// engines — exactly what a refactor must not produce silently.
//
// Freshly generated text is compared byte-for-byte against
// tests/golden/<algorithm>.golden (PR_GOLDEN_DIR, baked in by CMake).
// To regenerate after an intentional change:
//
//   PR_GOLDEN_REGEN=1 ./build/tests/test_golden
//
// then review the diff like any other source change.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <ostream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "pathrouting/audit/audit.hpp"
#include "pathrouting/bilinear/analysis.hpp"
#include "pathrouting/bilinear/catalog.hpp"
#include "pathrouting/cdag/implicit.hpp"
#include "pathrouting/routing/concat_routing.hpp"
#include "pathrouting/routing/decode_routing.hpp"
#include "pathrouting/routing/memo_routing.hpp"
#include "pathrouting/search/sweep.hpp"
#include "pathrouting/support/digest.hpp"

#ifndef PR_GOLDEN_DIR
#error "PR_GOLDEN_DIR must point at the checked-in corpus"
#endif

namespace {

using namespace pathrouting;  // NOLINT

/// The corpus pins the entire per-vertex hit array behind one digest.
/// Same definition as the certificate store key (support/digest.hpp);
/// its constants are pinned by test_support.cpp.
std::uint64_t fnv1a(std::span<const std::uint64_t> values) {
  return support::fnv1a_words(values);
}

void append_matching(std::ostringstream& os, const char* label,
                     const routing::BaseMatching& mu, int a) {
  os << label;
  for (int d_in = 0; d_in < a; ++d_in) {
    for (int d_out = 0; d_out < a; ++d_out) {
      os << ' '
         << (mu.defined(d_in, d_out) ? mu.product(d_in, d_out) : -1);
    }
  }
  os << '\n';
}

/// Implicit-engine certificate lines for k = 1..kmax_implicit. The
/// constant-memory verifiers pin their stats (argmax vertex ids
/// included) well past the explicit vertex budget; equality with the
/// brute-force oracle below that budget is enforced by
/// tests/test_memo_routing, tests/test_implicit_cdag and the
/// routing.implicit-match audit rule, so these lines freeze the deep-k
/// values no other engine reaches.
void append_implicit(std::ostringstream& os,
                     const routing::MemoRoutingEngine& memo,
                     const bilinear::BilinearAlgorithm& alg,
                     int kmax_implicit) {
  // Layout's own limit, computed without constructing one (the ctor
  // aborts past 32-bit vertex ids): sum_t 2 b^t a^(r-t) + b^(r-t) a^t.
  const auto fits_vertex_ids = [&](int r) {
    unsigned __int128 total = 0;
    for (int t = 0; t <= r; ++t) {
      unsigned __int128 enc = 2, dec = 1;
      for (int i = 0; i < t; ++i) enc *= alg.b(), dec *= alg.a();
      for (int i = t; i < r; ++i) enc *= alg.a(), dec *= alg.b();
      total += enc + dec;
      if (total >= cdag::kInvalidVertex) return false;
    }
    return true;
  };
  for (int k = 1; k <= kmax_implicit; ++k) {
    if (!fits_vertex_ids(k)) break;
    const cdag::ImplicitCdag view(alg, k);
    const routing::HitStats l3 = memo.verify_chain_routing(view, k, 0);
    const routing::FullRoutingStats t2 =
        memo.verify_full_routing(view, k, 0);
    os << "implicit k " << k << " chains " << l3.num_paths << " l3_max "
       << l3.max_hits << " l3_argmax " << l3.argmax << " l4 "
       << memo.verify_chain_multiplicities(view, k, 0) << " t2_max "
       << t2.max_vertex_hits << " t2_argmax " << t2.argmax_vertex
       << " t2_meta " << t2.max_meta_hits << " root "
       << t2.root_hit_property;
    if (memo.has_decoder()) {
      const routing::HitStats d = memo.verify_decode_routing(view, k, 0);
      os << " decode_paths " << d.num_paths << " decode_max " << d.max_hits
         << " decode_argmax " << d.argmax;
    }
    os << "\n";
  }
}

/// The full golden text for one algorithm — the generator the corpus
/// was created with, and the reference every run is diffed against.
std::string golden_text(const std::string& name, int kmax) {
  const auto alg = bilinear::by_name(name);
  const routing::ChainRouter router(alg);
  const bool decode = bilinear::decoding_components(alg) == 1;
  std::ostringstream os;
  os << "pathrouting-golden-v1\n";
  os << "algorithm " << name << "\n";
  os << "n0 " << alg.n0() << " b " << alg.b() << "\n";
  append_matching(os, "hall_mu_a", router.matching(bilinear::Side::A),
                  alg.a());
  append_matching(os, "hall_mu_b", router.matching(bilinear::Side::B),
                  alg.a());
  std::optional<routing::DecodeRouter> decoder;
  std::optional<routing::MemoRoutingEngine> memo;
  if (decode) {
    decoder.emplace(alg);
    memo.emplace(router, *decoder);
    os << "decode d1 " << decoder->d1_size() << "\n";
  } else {
    memo.emplace(router);
    os << "decode none\n";
  }
  // Up to kmax the lines pin the closed-form stats, the digests of the
  // canonical hit arrays, and the Theorem-2 verdict the brute-side
  // helper derives from the chain array on the materialized G_k.
  for (int k = 1; k <= kmax; ++k) {
    const cdag::Cdag graph(alg, k, {.with_coefficients = false});
    const cdag::SubComputation sub(graph, k, 0);
    const cdag::ExplicitView view(graph);
    const std::span<const std::uint64_t> chain =
        memo->canonical_chain_hit_array(k);
    routing::ChainHitCounts counts;
    counts.hits.assign(chain.begin(), chain.end());
    const routing::HitStats l3 = memo->verify_chain_routing(view, k, 0);
    const routing::FullRoutingStats t2 =
        routing::full_routing_from_chain_counts(sub, counts);
    os << "k " << k << " chains " << l3.num_paths << " l3_max "
       << l3.max_hits << " l3_bound " << l3.bound << " l4 "
       << memo->verify_chain_multiplicities(view, k, 0) << " t2_max "
       << t2.max_vertex_hits << " t2_meta " << t2.max_meta_hits
       << " t2_bound " << t2.bound << " chain_fnv " << fnv1a(chain) << "\n";
    if (decode) {
      const routing::HitStats stats = memo->verify_decode_routing(view, k, 0);
      os << "k " << k << " decode_paths " << stats.num_paths
         << " decode_max " << stats.max_hits << " decode_bound "
         << stats.bound << " decode_fnv "
         << fnv1a(memo->canonical_decode_hit_array(k)) << "\n";
    }
  }
  append_implicit(os, *memo, alg, kmax + 6);
  return os.str();
}

/// Compares `fresh` byte-for-byte with the checked-in corpus file
/// `name` under PR_GOLDEN_DIR, or rewrites the file (and skips) when
/// PR_GOLDEN_REGEN=1. `what` names the corpus in the failure message.
void expect_matches_golden(const std::string& name, const std::string& fresh,
                           const std::string& what) {
  const std::string path = std::string(PR_GOLDEN_DIR) + "/" + name;
  const char* regen = std::getenv("PR_GOLDEN_REGEN");
  if (regen != nullptr && std::string(regen) == "1") {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << fresh;
    GTEST_SKIP() << "regenerated " << path;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (run with PR_GOLDEN_REGEN=1 to create)";
  std::ostringstream stored;
  stored << in.rdbuf();
  EXPECT_EQ(stored.str(), fresh)
      << what << " diverged from the corpus; if the change is "
      << "intentional, regenerate with PR_GOLDEN_REGEN=1 and review the "
      << "diff";
}

struct GoldenCase {
  std::string algorithm;
  int kmax;
};

// Without this gtest prints the raw bytes of the struct, including the
// heap address inside std::string, so the listed test name would change
// with every rebuild.
void PrintTo(const GoldenCase& c, std::ostream* os) {
  *os << c.algorithm << " kmax=" << c.kmax;
}

class GoldenTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenTest, CertificatesMatchCheckedInCorpus) {
  const GoldenCase& param = GetParam();
  expect_matches_golden(param.algorithm + ".golden",
                        golden_text(param.algorithm, param.kmax),
                        "routing certificates");
}

INSTANTIATE_TEST_SUITE_P(Corpus, GoldenTest,
                         ::testing::Values(GoldenCase{"strassen", 4},
                                           GoldenCase{"winograd", 4},
                                           GoldenCase{"laderman", 3}),
                         [](const auto& info) {
                           return info.param.algorithm;
                         });

/// The schedule-search corpus: certified-optimal records (graph
/// digest, M, optimal reads/writes, witness digest, proof) plus the
/// best-found gap points of the same sweeps. Every field is a pure
/// function of (algorithm, r, M, budget, seed) under the determinism
/// contract, so a diff is a behavioural change in the optimizer, the
/// bound, or the pebble simulator. Regenerate like the routing corpus:
///   PR_GOLDEN_REGEN=1 ./build/tests/test_golden
std::string search_golden_text() {
  std::ostringstream os;
  os << "pathrouting-search-golden-v1\n";
  struct Case {
    const char* algorithm;
    int r;
    std::uint64_t m;
    std::uint64_t budget;
  };
  constexpr Case kCases[] = {
      {"strassen", 1, 6, 40000},  {"strassen", 1, 8, 40000},
      {"strassen", 1, 16, 40000}, {"strassen", 1, 40, 40000},
      {"classical2", 1, 4, 40000}, {"classical2", 1, 8, 40000},
      {"classical2", 1, 36, 40000},
      {"winograd", 1, 8, 40000},  {"winograd", 1, 40, 40000},
      {"strassen", 2, 64, 4000},  {"strassen", 2, 300, 4000},
  };
  for (const Case& c : kCases) {
    search::SweepSpec spec;
    spec.algorithm = c.algorithm;
    spec.r = c.r;
    spec.m = c.m;
    spec.node_budget = c.budget;
    const search::SweepPoint p = search::run_search_point(spec);
    os << "record alg " << c.algorithm << " r " << c.r << " m " << c.m
       << " graph_fnv " << p.graph_fnv << " reads " << p.searched_reads
       << " writes " << p.searched_writes << " io " << p.searched_io
       << " lower_bound " << p.lower_bound << " witness_fnv "
       << p.witness_fnv << " proof " << search::proof_name(p.proof) << "\n";
  }
  return os.str();
}

TEST(SearchGoldenTest, CertifiedOptimaMatchCheckedInCorpus) {
  expect_matches_golden("search.golden", search_golden_text(),
                        "schedule-search certificates");
}

/// The audit corpus: the rendered audit::run_all report (text and JSON)
/// of every catalog algorithm at r = 2, the pr_lint default options.
/// It pins which rules run, in which order, and every finding, cap and
/// note, so a refactor of a rule suite cannot change a report silently.
/// Regenerate like the routing corpus:
///   PR_GOLDEN_REGEN=1 ./build/tests/test_golden
std::string audit_golden_text() {
  std::string out = "pathrouting-audit-golden-v1\n";
  for (const std::string& name : bilinear::catalog_names()) {
    const cdag::Cdag cdag(bilinear::by_name(name), 2);
    const audit::AuditReport report = audit::run_all(cdag);
    out += "== " + name + " (r=2) ==\n" + report.to_text() +
           report.to_json() + "\n";
  }
  return out;
}

TEST(AuditGoldenTest, RunAllReportsMatchCheckedInCorpus) {
  expect_matches_golden("audit.golden", audit_golden_text(), "audit reports");
}

}  // namespace
